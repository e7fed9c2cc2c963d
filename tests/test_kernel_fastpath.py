"""The kernel's fast paths against reference implementations.

Every term caches its loose-bound-variable range (`lbr`), which lets the
kernel skip closed subterms, and `_instantiate` discharges several binders
in one pass.  The naive references below visit every node and discharge
one binder at a time, as the kernel did before either shortcut existed.
The test-local `instantiate` passes `_instantiate` its arguments in
application order.

The kernel also dispatches on the exact class of a term (`type(t) is App`)
instead of structural pattern matching, and `infer_type` builds an error's
path only while the error unwinds.  The `ref_*` references are the
`match`-based reduction, conversion and inference the kernel used before,
with the path passed down to every node; they discharge binders with
`naive_instantiate`.  `ref_whnf` also rebuilds the term after every step,
where `whnf` reduces against one argument list and splices the arguments
of a head that becomes an application.
Exact-class dispatch needs final classes, so two tests check that neither
the kernel's term classes nor the classes the surface layer dispatches on
(the pre-terms and `Meta`) have a subclass.

The term classes are frozen, slotted dataclasses with a hand-written
`__init__`; the tests after the inference references check that they stay
immutable and compare, hash and print as before, that the context records
built the same way do too, and that the traversals share one `Var` per
small index.  With the kernel's three context and declaration records they
are the package's only dataclasses.

Generated table entries cite library lemmas by name, so an emitted proof
holds no inline entry proof to infer again.  Later tests compare
single-node mutations of emitted proofs and of the corpus admissions
against `ref_infer_type`, check
that every prefill and encoding entry cites a definition that proves its
statement, and count that admission infers no node of a library body.

`_instantiate`, which `substitute` calls, and `replace_var` recurse
through module-level functions, not through a nested `go` per call, which
was a reference cycle for the collector to free.  The final tests check
that a pass over both engines and two corpus scripts leaves no cyclic
garbage, and that no function in `kernel` or `terms` defines a nested
function.
"""

import ast
import dataclasses
import gc
import importlib
import pkgutil
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import transfer_kernel
from transfer_kernel import kernel, terms
from transfer_kernel.cli import RunOptions, SessionState, execute_script, report
from transfer_kernel.kernel import (
    FALSE, IMPL, IMPL_RESPECTFUL, PROP, SET, TYPE, App, Const, GlobalEnv,
    KernelError, Lam, LocalContext, Pi, Sort, Term, TypeCheckError,
    UnboundName, Var, app, convertible, infer_type, normalize,
    prelude_env, shift, subsumes, substitute, whnf,
)
from transfer_kernel.outcome import TransferFailure
from transfer_kernel.surface import (
    Meta, PApp, PArrow, PEq, PInv, PLam, PPi, PRef, PResp, PreTerm, PSort,
    parse_and_elaborate, parse_script,
)
from transfer_kernel.tables import LIBRARY, DeclTables, library_env, prefill_core
from transfer_kernel.terms import occurs_free, replace_var, spine
from transfer_kernel.transfer_v1 import exact_modulo
from transfer_kernel.transfer_v2 import transfer_modulo

from conftest import SCRIPTS, script_text
from fuzz_helpers import v1_fixture, v1_problem, v2_fixture, v2_problem

settings.register_profile("fastpath", derandomize=True, database=None,
                          deadline=None, max_examples=60)
FASTPATH = settings.get_profile("fastpath")


# --- naive references -----------------------------------------------------------

def naive_shift(t: Term, by: int, cutoff: int = 0) -> Term:
    match t:
        case Var(i):
            return Var(i + by) if i >= cutoff else t
        case App(f, a):
            return App(naive_shift(f, by, cutoff), naive_shift(a, by, cutoff))
        case Lam(x, ty, b):
            return Lam(x, naive_shift(ty, by, cutoff), naive_shift(b, by, cutoff + 1))
        case Pi(x, ty, b):
            return Pi(x, naive_shift(ty, by, cutoff), naive_shift(b, by, cutoff + 1))
    return t


def _rebuild(t: Term, depth: int, on_var) -> Term:
    match t:
        case Var(i):
            return on_var(i, depth)
        case App(f, a):
            return App(_rebuild(f, depth, on_var), _rebuild(a, depth, on_var))
        case Lam(x, ty, b):
            return Lam(x, _rebuild(ty, depth, on_var), _rebuild(b, depth + 1, on_var))
        case Pi(x, ty, b):
            return Pi(x, _rebuild(ty, depth, on_var), _rebuild(b, depth + 1, on_var))
    return t


def naive_substitute(body: Term, replacement: Term) -> Term:
    """Discharge binder 0: Var(0) becomes `replacement`."""
    def on_var(i: int, depth: int) -> Term:
        if i == depth:
            return naive_shift(replacement, depth)
        return Var(i - 1) if i > depth else Var(i)
    return _rebuild(body, 0, on_var)


def naive_replace_var(t: Term, target: int, replacement: Term) -> Term:
    def on_var(i: int, depth: int) -> Term:
        return naive_shift(replacement, depth) if i == target + depth else Var(i)
    return _rebuild(t, 0, on_var)


def naive_occurs_free(t: Term, target: int) -> bool:
    match t:
        case Var(i):
            return i == target
        case App(f, a):
            return naive_occurs_free(f, target) or naive_occurs_free(a, target)
        case Lam(_, ty, b) | Pi(_, ty, b):
            return naive_occurs_free(ty, target) or naive_occurs_free(b, target + 1)
    return False


def naive_max_free_index(t: Term) -> int:
    match t:
        case Var(i):
            return i
        case App(f, a):
            return max(naive_max_free_index(f), naive_max_free_index(a))
        case Lam(_, ty, b) | Pi(_, ty, b):
            return max(naive_max_free_index(ty), naive_max_free_index(b) - 1)
    return -1


def instantiate(body: Term, args: list[Term]) -> Term:
    """`kernel._instantiate` on arguments in application order: Var(0)
    becomes args[-1], and indices above the arguments drop by len(args)."""
    if body.lbr == 0 or not args:
        return body
    return kernel._instantiate(body, 0, args[::-1], len(args))


def naive_instantiate(body: Term, args: list[Term]) -> Term:
    """Sequential substitution: wrap `body` in one binder per argument and
    beta-reduce them one at a time."""
    t = body
    for _ in args:
        t = Lam("_", PROP, t)
    for a in args:
        t = naive_substitute(t.body, a)
    return t


def naive_whnf_beta(t: Term) -> Term:
    """Beta-only weak head normal form, one binder per step."""
    while True:
        head, args = _spine(t)
        if not (isinstance(head, Lam) and args):
            return t
        t = app(naive_substitute(head.body, args[0]), *args[1:])


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, args[::-1]


# --- term generators ------------------------------------------------------------

def decode(codes: list[int], lam: bool = True) -> Term:
    """Read a term from `codes` in prefix order.  Codes 0-9 pick a node
    (App, Lam, Pi), 10-17 a leaf (16 and 17 are the definitions `b` and
    `c` of DELTA_ENV); missing codes read as Var(0), so every term is
    finite and free variables are common.  A flat list of small
    integers is far cheaper for hypothesis to draw and shrink than a
    recursive strategy."""
    pos = 0

    def go() -> Term:
        nonlocal pos
        c = codes[pos] if pos < len(codes) else 12
        pos += 1
        if c < 6:
            return App(go(), go())
        if c < 8 and lam:
            return Lam("x", go(), go())
        if c < 10:
            return Pi("x", go(), go())
        if c == 10:
            return PROP
        if c == 11:
            return Const("a")
        if c >= 16:
            return Const("bc"[c - 16])
        return Var(c - 12)

    return go()


TERMS = st.lists(st.integers(0, 15), max_size=12).map(decode)
# Without Lam no redex can form, so beta stops after the head is consumed.
LAM_FREE = st.lists(st.integers(0, 15), max_size=5).map(
    lambda codes: decode(codes, lam=False))


# --- properties -----------------------------------------------------------------

@FASTPATH
@given(TERMS, TERMS, st.lists(TERMS, max_size=3), st.integers(0, 4),
       st.integers(0, 3))
def test_fast_paths_match_naive(t, other, args, index, by):
    assert t.lbr == naive_max_free_index(t) + 1
    assert occurs_free(t, index) == naive_occurs_free(t, index)
    assert shift(t, by, index) == naive_shift(t, by, index)
    assert substitute(t, other) == naive_substitute(t, other)
    assert replace_var(t, index, other) == naive_replace_var(t, index, other)
    out = instantiate(t, args)
    assert out == naive_instantiate(t, args)
    assert out.lbr == naive_max_free_index(out) + 1


ENV = prelude_env()


@FASTPATH
@given(st.integers(0, 4), LAM_FREE, st.lists(LAM_FREE, max_size=6))
def test_whnf_beta_matches_one_binder_at_a_time(binders, body, args):
    head = body
    for _ in range(binders):
        head = Lam("x", SET, head)
    t = app(head, *args)
    assert whnf(ENV, t, delta=False) == naive_whnf_beta(t)


def test_every_term_class_defines_lbr():
    for t in (PROP, Sort("Type"), Const("c"), Meta(1)):
        assert t.lbr == 0
    assert Var(4).lbr == 5
    assert Lam("x", PROP, Var(3)).lbr == 3
    assert Pi("x", Var(2), Var(0)).lbr == 3
    assert App(Var(1), Const("c")).lbr == 2


# --- match-based references -----------------------------------------------------

def ref_whnf(env: GlobalEnv, t: Term, delta: bool = True) -> Term:
    while True:
        head, args = _spine(t)
        if isinstance(head, Lam) and args:
            k = 0
            while k < len(args) and isinstance(head, Lam):
                head = head.body
                k += 1
            t = app(naive_instantiate(head, args[:k]), *args[k:])
        elif delta and isinstance(head, Const) and env.is_definition(head.name):
            t = app(env.body_of(head.name), *args)
        else:
            return t


def ref_normalize(env: GlobalEnv, t: Term) -> Term:
    t = ref_whnf(env, t)
    match t:
        case App(f, a):
            return App(ref_normalize(env, f), ref_normalize(env, a))
        case Lam(x, ty, b):
            return Lam(x, ref_normalize(env, ty), ref_normalize(env, b))
        case Pi(x, ty, b):
            return Pi(x, ref_normalize(env, ty), ref_normalize(env, b))
        case _:
            return t


def ref_subsumes(env: GlobalEnv, have: Term, want: Term) -> bool:
    if ref_convertible(env, have, want):
        return True
    return isinstance(ref_whnf(env, have), Sort) and ref_whnf(env, want) == TYPE


def ref_convertible(env: GlobalEnv, a: Term, b: Term) -> bool:
    if a == b:
        return True
    a = ref_whnf(env, a)
    b = ref_whnf(env, b)
    match a, b:
        case Sort(sa), Sort(sb):
            return sa == sb
        case Var(i), Var(j):
            return i == j
        case Const(m), Const(n):
            return m == n
        case App(f, x), App(g, y):
            return ref_convertible(env, f, g) and ref_convertible(env, x, y)
        case Lam(_, ta, ba), Lam(_, tb, bb):
            return ref_convertible(env, ta, tb) and ref_convertible(env, ba, bb)
        case Pi(_, ta, ba), Pi(_, tb, bb):
            return ref_convertible(env, ta, tb) and ref_convertible(env, ba, bb)
        case _:
            return False


def ref_infer_type(env: GlobalEnv, ctx: LocalContext, t: Term,
                   _path: tuple[str, ...] = ()) -> Term:
    match t:
        case Sort(_):
            return TYPE
        case Var(i):
            if not 0 <= i < len(ctx):
                raise UnboundName(f"unbound variable index {i}", _path)
            return ctx.type_of(i)
        case Const(name):
            try:
                return env.type_of(name)
            except UnboundName as e:
                raise UnboundName(e.message, _path) from None
        case Lam(x, ty, body):
            s = ref_whnf(env, ref_infer_type(env, ctx, ty, _path + ("binder-type",)))
            if not isinstance(s, Sort):
                raise TypeCheckError(
                    f"binder type {ty!r} is not a type", _path + ("binder-type",))
            body_ty = ref_infer_type(env, ctx.push(x, ty), body, _path + ("body",))
            return Pi(x, ty, body_ty)
        case App():
            head, args = _spine(t)
            n = len(args)
            ty = ref_infer_type(env, ctx, head, _path + ("fn",) * n)
            done: list[Term] = []
            for i, a in enumerate(args):
                node_path = _path + ("fn",) * (n - 1 - i)
                if not isinstance(ty, Pi):
                    ty = ref_whnf(env, naive_instantiate(ty, done))
                    done = []
                    if not isinstance(ty, Pi):
                        raise TypeCheckError(
                            f"applied term has non-function type {ty!r}",
                            node_path + ("fn",))
                arg_ty = ref_infer_type(env, ctx, a, node_path + ("arg",))
                dom = naive_instantiate(ty.ty, done)
                if not ref_subsumes(env, arg_ty, dom):
                    raise TypeCheckError(
                        f"argument type {arg_ty!r} does not match domain {dom!r}",
                        node_path + ("arg",))
                done.append(a)
                ty = ty.body
            return naive_instantiate(ty, done)
        case Pi(x, ty, body):
            s1 = ref_whnf(env, ref_infer_type(env, ctx, ty, _path + ("domain",)))
            if not isinstance(s1, Sort):
                raise TypeCheckError(
                    f"product domain {ty!r} is not a type", _path + ("domain",))
            s2 = ref_whnf(env, ref_infer_type(env, ctx.push(x, ty), body,
                                              _path + ("codomain",)))
            if not isinstance(s2, Sort):
                raise TypeCheckError(
                    f"product codomain {body!r} is not a type", _path + ("codomain",))
            return s2
    raise TypeCheckError(f"unrecognized term {t!r}", _path)


def typing(infer, env: GlobalEnv, ctx: LocalContext, t: Term):
    """The type, or the error's class, message and path."""
    try:
        return infer(env, ctx, t)
    except KernelError as e:
        return type(e), str(e), getattr(e, "message", None), getattr(e, "path", None)


# `a` unfolds (delta) to a binder that beta then discharges.  `b` unfolds to
# an application headed by the definition `impl`, whose arguments `whnf`
# splices in front of the remaining ones, and the alias `c` unfolds to `a`,
# a second delta step before any beta.  In CTX, Var(0) is h : a p, whose
# type is a Pi only after unfolding, Var(1) is p : Prop, Var(2) is A : Set
# and Var(3) is unbound.
DELTA_ENV = (prelude_env()
             .add_definition("a", Lam("X", PROP, Pi("_", Var(0), Var(1))))
             .add_definition("b", App(Const(IMPL), Const(FALSE)))
             .add_definition("c", Const("a")))
CTX = LocalContext().push("A", SET).push("p", PROP).push("h", App(Const("a"), Var(0)))

# Lam-free terms need not be well typed: `a`'s one binder is their only
# redex, so every reduction stops.
REDUCIBLE = st.lists(st.integers(0, 15), max_size=10).map(
    lambda codes: decode(codes, lam=False))


@FASTPATH
@given(REDUCIBLE, REDUCIBLE)
def test_reduction_and_conversion_match_the_match_based_references(t, u):
    env = DELTA_ENV
    for delta in (True, False):
        assert whnf(env, t, delta) == ref_whnf(env, t, delta)
    nf = normalize(env, t)
    assert nf == ref_normalize(env, t)
    for binder in (Lam("x", u, t), Pi("x", u, t)):
        assert normalize(env, binder) == ref_normalize(env, binder)
    for other in (u, nf, whnf(env, t), App(Const("a"), t)):
        assert convertible(env, t, other) == ref_convertible(env, t, other)
        assert subsumes(env, t, other) == ref_subsumes(env, t, other)
        assert subsumes(env, other, TYPE) == ref_subsumes(env, other, TYPE)


# Lam-free terms over `b` and `c` as well: each definition's binders are
# discharged by arguments, never re-created, so every reduction stops.
SPLICING = st.lists(st.integers(0, 17), max_size=10).map(
    lambda codes: decode(codes, lam=False))


@FASTPATH
@given(SPLICING, SPLICING)
@example(App(App(Const("b"), PROP), SET), Var(1))
@example(App(Const("c"), Var(1)), App(Const("b"), Var(1)))
def test_whnf_splice_path_matches_the_reference(t, u):
    """Unfold-then-splice (`b` unfolds to `impl False`, whose arguments go
    in front of the rest) and beta-then-unfold (a redex whose body is headed
    by a definition) reduce and convert as in the reference, and `whnf` of
    a head-normal result returns that very object."""
    env = DELTA_ENV
    for term in (t,
                 app(Lam("x", SET, Const("b")), t, u),
                 app(Lam("x", SET, App(Const("c"), Var(0))), t, u)):
        for delta in (True, False):
            w = whnf(env, term, delta)
            assert w == ref_whnf(env, term, delta)
            assert whnf(env, w, delta) is w
        nf = normalize(env, term)
        assert nf == ref_normalize(env, term)
        for other in (u, nf, App(Const("b"), u), App(Const("c"), u)):
            assert convertible(env, term, other) \
                == ref_convertible(env, term, other)
            assert subsumes(env, term, other) \
                == ref_subsumes(env, term, other)


def test_whnf_splices_the_unfolded_spine():
    env = DELTA_ENV
    # b P S: unfold b, splice `impl False`, peel impl's two binders.
    assert whnf(env, app(Const("b"), PROP, SET)) \
        == App(Pi("_", Const(FALSE), PROP), SET)
    # c p: two delta steps (c, then a), then beta.
    assert whnf(env, App(Const("c"), Var(1))) == Pi("_", Var(1), Var(2))
    # Beta leaves `b` at the head, which then unfolds.
    assert whnf(env, app(Lam("x", SET, Const("b")), Var(0), PROP)) \
        == Pi("_", Const(FALSE), PROP)
    assert whnf(env, Const("c")) == env.body_of("a")


def test_whnf_returns_a_head_normal_input_itself():
    env = DELTA_ENV
    for t in (PROP, Var(0), Const(FALSE), Lam("x", PROP, App(Const("b"), Var(0))),
              Pi("x", Const("b"), Var(0)), App(Var(0), Const("b")),
              app(Const("eq"), SET, Var(0), Var(1)),
              App(Pi("x", PROP, Var(0)), PROP)):
        assert whnf(env, t) is t
        assert whnf(env, t, delta=False) is t
    for t in (Const("b"), App(Const("c"), PROP), App(Const("a"), PROP)):
        assert whnf(env, t, delta=False) is t
        assert whnf(env, t) != t


@settings(FASTPATH, max_examples=300)
@given(TERMS, TERMS)
# Errors below a binder body and a product codomain, where a mislabelled
# path component would show.
@example(Lam("x", PROP, Pi("y", Var(0), Var(0))), PROP)
@example(App(Lam("x", Var(1), App(Var(1), Var(2))), Var(0)), PROP)
@example(Pi("x", PROP, Lam("y", Var(0), Pi("z", Var(0), App(Var(2), Var(0))))), PROP)
def test_inference_matches_the_match_based_reference(t, u):
    env, ctx = DELTA_ENV, CTX
    ty = typing(infer_type, env, ctx, t)
    assert ty == typing(ref_infer_type, env, ctx, t)
    if isinstance(ty, tuple):
        return
    # Well-typed terms normalize, so reduce and convert them too.
    assert whnf(env, t) == ref_whnf(env, t)
    assert normalize(env, t) == ref_normalize(env, t)
    assert normalize(env, ty) == ref_normalize(env, ty)
    if not isinstance(typing(ref_infer_type, env, ctx, u), tuple):
        assert convertible(env, t, u) == ref_convertible(env, t, u)
        assert subsumes(env, ty, u) == ref_subsumes(env, ty, u)


def test_emitted_proofs_type_as_in_the_reference(monkeypatch):
    """Every proof admitted by the corpus scripts, and every proof of 200
    v1 and 200 v2 fuzz problems, gets the reference's type."""
    admitted: list[tuple[GlobalEnv, Term]] = []
    add_definition = GlobalEnv.add_definition

    def recording(self, name, body, ty=None):
        admitted.append((self, body))
        return add_definition(self, name, body, ty)

    monkeypatch.setattr(GlobalEnv, "add_definition", recording)
    library_env.cache_clear()  # so the library's admissions are recorded too
    for path in sorted(SCRIPTS.glob("*.tk")):
        execute_script(path.read_text(encoding="utf-8"), RunOptions())
    monkeypatch.undo()
    assert len(admitted) > 20
    checked = [(env, LocalContext(), proof) for env, proof in admitted]

    rng = random.Random(8)
    env1, tables1 = v1_fixture()
    env2, tables2 = v2_fixture()
    for i in range(200):
        mutate = rng.choice([None, None, None, "head", "drop"])
        src, tgt = v1_problem(rng, rng.randint(3, 6), mutate)
        hyp_env = env1.add_axiom(f"h{i}", src)
        out = exact_modulo(hyp_env, tables1, LocalContext(), src, tgt, Const(f"h{i}"))
        if not isinstance(out, TransferFailure):
            checked.append((hyp_env, LocalContext(), out))
        src, tgt = v2_problem(rng, rng.randint(3, 6), mutate)
        hyp_env = env2.add_axiom(f"h{i}", src)
        out = transfer_modulo(hyp_env, tables2, src, tgt, Const(f"h{i}"))
        if not isinstance(out, TransferFailure):
            checked.append((hyp_env, LocalContext(), out[0]))
    assert len(checked) > len(admitted) + 200
    for env, ctx, proof in checked:
        assert typing(infer_type, env, ctx, proof) \
            == typing(ref_infer_type, env, ctx, proof)


# --- exact-class dispatch --------------------------------------------------------

KERNEL_CLASSES = (Sort, Var, Const, Lam, App, Pi)


def _import_every_module():
    for info in pkgutil.walk_packages(transfer_kernel.__path__, "transfer_kernel."):
        importlib.import_module(info.name)


def test_term_classes_have_no_subclasses():
    """The kernel dispatches on `type(t) is C`: an instance of a subclass
    would silently take the default branch, so the classes stay final."""
    _import_every_module()
    for cls in KERNEL_CLASSES:
        assert cls.__subclasses__() == [], cls


SURFACE_CLASSES = (PRef, PSort, PApp, PLam, PPi, PArrow, PEq, PResp, PInv,
                   Meta)


def test_surface_dispatch_classes_have_no_subclasses():
    """The elaborator and printer dispatch on `type(x) is C` too, over the
    nine pre-term classes and the elaborator's `Meta`."""
    _import_every_module()
    assert set(PreTerm.__args__) == set(SURFACE_CLASSES[:-1])
    for cls in SURFACE_CLASSES:
        assert cls.__subclasses__() == [], cls


# --- slotted, frozen nodes --------------------------------------------------------

NODES = (PROP, Var(2), Const("c"), Lam("x", SET, Var(1)),
         App(Var(0), Const("c")), Pi("x", Var(3), Var(0)))


def test_term_nodes_are_slotted_and_frozen():
    assert tuple(type(t) for t in NODES) == KERNEL_CLASSES
    for t in NODES:
        assert not hasattr(t, "__dict__"), t
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, PROP)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, f.name)
        # Nor can a name that is not a field be set (`lbr` of Sort and Const
        # is a class constant).  The slotted frozen dataclass of CPython 3.11
        # raises TypeError for it, from its `super()` call.
        for name in ("lbr", "extra"):
            with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
                setattr(t, name, 7)
    assert [repr(t) for t in NODES] == [
        "Prop", "Var(2)", "c", "(fun x : Set => Var(1))", "(Var(0) c)",
        "(forall x : Var(3), Var(0))"]


def test_only_the_kernel_defines_dataclasses():
    """`@dataclass` generates and compiles methods for every class it
    creates, which each import pays.  Records elsewhere are NamedTuples,
    immutable as the frozen dataclasses were; the session state stays
    mutable."""
    classes = []
    for info in pkgutil.walk_packages(transfer_kernel.__path__, "transfer_kernel."):
        module = importlib.import_module(info.name)
        classes += [c for c in vars(module).values()
                    if isinstance(c, type) and c.__module__ == info.name]
    assert {c for c in classes if dataclasses.is_dataclass(c)} \
        == {*KERNEL_CLASSES, kernel.CtxEntry, LocalContext, kernel.Decl}
    records = [c for c in classes if issubclass(c, tuple)]
    assert len(records) == 29  # surface.Token and 28 former dataclasses
    for cls in records:
        record = cls(*[None] * len(cls._fields))
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    state = SessionState(GlobalEnv(), DeclTables())
    state.tables = prefill_core(state.tables, prelude_env())
    state.results.append(None)
    state.encoded += 1
    assert (len(state.tables.relations_v2), state.results, state.encoded) \
        == (1, [None], 1)


def test_context_records_are_slotted_and_frozen():
    """`CtxEntry`, `LocalContext` and `Const` are built by a hand-written
    `__init__` too, and stay immutable and compare, hash and print as the
    generated ones did."""
    entry = kernel.CtxEntry("x", PROP)
    ctx = LocalContext().push("x", PROP)
    for record in (entry, ctx, LocalContext()):
        assert not hasattr(record, "__dict__"), record
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            setattr(record, "extra", 7)
    assert [f.name for f in dataclasses.fields(LocalContext)] == ["entries"]
    assert LocalContext().entries == () and ctx.entries == (entry,)
    assert ctx.push("y", SET).entries == (entry, kernel.CtxEntry("y", SET))
    assert ctx == LocalContext((entry,)) and hash(ctx) == hash(LocalContext((entry,)))
    assert entry != kernel.CtxEntry("y", PROP)
    assert repr(ctx) == "LocalContext(entries=(CtxEntry(name='x', ty=Prop),))"
    assert Const("c") == Const("c") != Const("d")
    assert hash(Const("c")) == hash(Const("c")) and Const("c").name == "c"


def test_traversals_share_the_vars_of_small_indices():
    """`shift`, `instantiate` and `substitute` return one pre-built Var per
    small index, equal to, hashing and printing as a new one.  An index
    past the shared range, or below zero, is built."""
    n = len(kernel._VARS)
    for i, v in enumerate(kernel._VARS):
        fresh = Var(i)
        assert (v == fresh, hash(v) == hash(fresh), repr(v), v.lbr) \
            == (True, True, f"Var({i})", i + 1)
        if i:
            assert shift(Var(0), i) is v and shift(Var(i - 1), 1) is v
        assert instantiate(Var(i + 2), [PROP, SET]) is v
        assert substitute(Var(i + 1), PROP) is v
    t = substitute(App(Var(4), Lam("x", Var(4), Var(5))), PROP)
    assert t == App(Var(3), Lam("x", Var(3), Var(4)))
    assert t.fn is t.arg.ty is kernel._VARS[3] and t.arg.body is kernel._VARS[4]
    for past in (shift(Var(0), n), instantiate(Var(n + 1), [PROP]),
                 substitute(Var(n + 1), PROP)):
        assert past == Var(n) and past is not shift(Var(0), n)
    assert shift(Var(0), -1) == Var(-1)


def test_equality_and_hashing_ignore_binder_names():
    ty, body = app(Const("eq"), SET, Var(0), Var(2)), App(Var(0), Var(1))
    for cls in (Lam, Pi):
        x, y = cls("x", ty, body), cls("y", ty, body)
        assert x == y and hash(x) == hash(y)
        assert (x.name, y.name) == ("x", "y")
        assert x != cls("x", body, ty)
    assert App(Var(0), PROP) == App(Var(0), PROP) != App(PROP, Var(0))
    assert hash(App(Var(0), PROP)) == hash(App(Var(0), PROP))


def test_lbr_is_set_at_construction():
    assert (PROP.lbr, Const("c").lbr, Var(0).lbr, Var(4).lbr) == (0, 0, 1, 5)
    # Each side of the conditional, and a tie.
    assert App(Var(5), Var(2)).lbr == App(Var(2), Var(5)).lbr == 6
    assert App(Var(1), Var(1)).lbr == 2
    for cls in (Lam, Pi):
        assert cls("x", Var(4), Var(0)).lbr == 5
        assert cls("x", PROP, Var(4)).lbr == 4
        assert cls("x", Var(2), Var(3)).lbr == 3
        assert cls("x", PROP, Var(0)).lbr == 0


def test_a_meta_takes_the_default_branch():
    env, m = DELTA_ENV, Meta(1)
    t = App(Var(0), m)
    assert shift(m, 2) is m and shift(t, 2) == App(Var(2), m)
    assert substitute(m, PROP) is m and substitute(t, PROP) == App(PROP, m)
    assert instantiate(m, [PROP]) is m and instantiate(t, [SET]) == App(SET, m)
    assert replace_var(m, 0, PROP) is m and replace_var(t, 0, PROP) == App(PROP, m)
    assert not occurs_free(m, 0)
    assert whnf(env, m) is m and whnf(env, t) is t
    assert normalize(env, m) is m and normalize(env, t) == t
    assert not convertible(env, m, Meta(2))
    with pytest.raises(TypeCheckError, match=r"^unrecognized term \?1$") as err:
        infer_type(env, LocalContext(), m)
    assert err.value.path == ()
    with pytest.raises(TypeCheckError) as err:
        infer_type(env, CTX, Lam("x", PROP, App(m, Var(0))))
    assert (err.value.message, err.value.path) == ("unrecognized term ?1", ("body", "fn"))
    assert typing(infer_type, env, CTX, Pi("x", m, PROP)) \
        == typing(ref_infer_type, env, CTX, Pi("x", m, PROP))


# --- mutated proofs and named entry proofs ----------------------------------------

_CHILDREN = {App: ("fn", "arg"), Lam: ("ty", "body"), Pi: ("ty", "body")}


def _nodes(t: Term, path: tuple[str, ...] = ()):
    """(path, node) for every node of t."""
    yield path, t
    for child in _CHILDREN.get(type(t), ()):
        yield from _nodes(getattr(t, child), path + (child,))


def _replace(t: Term, path: tuple[str, ...], new: Term) -> Term:
    """t with the node at `path` replaced; only the nodes above it are rebuilt."""
    if not path:
        return new
    child, rest = path[0], path[1:]
    if type(t) is App:
        if child == "fn":
            return App(_replace(t.fn, rest, new), t.arg)
        return App(t.fn, _replace(t.arg, rest, new))
    if child == "ty":
        return type(t)(t.name, _replace(t.ty, rest, new), t.body)
    return type(t)(t.name, t.ty, _replace(t.body, rest, new))


def _mutant(rng: random.Random, t: Term) -> Term:
    """A new node in place of t, of the same class or a neighbouring one."""
    cls = type(t)
    if cls is Var:
        return Var(t.index + rng.choice((1, -1)) if t.index else 1)
    if cls is Const:
        return Const(rng.choice([n for n in ("nat", "N", "le", FALSE) if n != t.name]))
    if cls is Sort:
        return rng.choice([s for s in (PROP, SET, TYPE) if s != t])
    if cls is App:
        return rng.choice((t.fn, App(t.arg, t.fn)))
    return rng.choice((cls(t.name, rng.choice((PROP, Const("nat"))), t.body),
                       (Pi if cls is Lam else Lam)(t.name, t.ty, t.body)))


def test_memo_types_mutated_proofs_as_the_reference():
    """Single-node mutations of emitted fuzz_v2 proofs, the entry proofs
    they cite included, type as in the reference: the same type, or the
    same error class, message and path."""
    rng = random.Random(29)
    env2, tables2 = v2_fixture()
    mutated = 0
    for _ in range(80):
        src, tgt = v2_problem(rng, rng.randint(3, 6), None)
        env = env2.add_axiom("h", src)
        out = transfer_modulo(env, tables2, src, tgt, Const("h"))
        if isinstance(out, TransferFailure):
            continue
        proof = out[0]
        nodes = list(_nodes(proof))
        for path, node in rng.sample(nodes, min(2, len(nodes))):
            term = _replace(proof, path, _mutant(rng, node))
            assert typing(infer_type, env, LocalContext(), term) \
                == typing(ref_infer_type, env, LocalContext(), term)
            mutated += 1
    assert mutated >= 80, mutated


def test_mutated_admissions_and_v1_proofs_type_as_the_reference(monkeypatch):
    """Single-node mutations of every admission of the corpus scripts, the
    library's included, and of 200 emitted v1 proofs type as in the
    reference.  v1's `eq_ind` motives are dependent, so their spines need
    open domains instantiated and non-product types reduced."""
    admitted: list[tuple[GlobalEnv, Term]] = []
    add_definition = GlobalEnv.add_definition

    def recording(self, name, body, ty=None):
        admitted.append((self, body))
        return add_definition(self, name, body, ty)

    monkeypatch.setattr(GlobalEnv, "add_definition", recording)
    library_env.cache_clear()  # so the library's admissions are recorded too
    for path in sorted(SCRIPTS.glob("*.tk")):
        execute_script(path.read_text(encoding="utf-8"), RunOptions())
    monkeypatch.undo()
    rng = random.Random(24)
    env1, tables1 = v1_fixture()
    proofs = list(admitted)
    for _ in range(200):
        src, tgt = v1_problem(rng, rng.randint(3, 6), None)
        env = env1.add_axiom("h", src)
        out = exact_modulo(env, tables1, LocalContext(), src, tgt, Const("h"))
        assert not isinstance(out, TransferFailure)
        proofs.append((env, out))
    outcomes = Counter()
    for env, proof in proofs:
        nodes = list(_nodes(proof))
        for path, node in rng.sample(nodes, min(4, len(nodes))):
            term = _replace(proof, path, _mutant(rng, node))
            ty = typing(infer_type, env, LocalContext(), term)
            outcomes[ty[2] if isinstance(ty, tuple) else "typed"] += 1
            assert ty == typing(ref_infer_type, env, LocalContext(), term)
    assert len(admitted) > 20 and sum(outcomes.values()) > 500
    assert outcomes["typed"] > 20
    # Every error infer_type raises on kernel terms whose indices are not
    # negative is reached (by its message's first word).
    assert {m.split(" ")[0] for m in outcomes} == {
        "typed", "argument", "applied", "product", "binder", "unbound", "unknown"}


def test_admission_does_not_reinfer_checked_entry_proofs(monkeypatch):
    """Every prefill and encoding entry of v2_letrans.tk cites a definition
    whose type is convertible with the entry's statement, and admitting
    the theorem, whose proof embeds them, calls `infer_type` on no node of
    a library or `impl_respectful` body."""
    lib = library_env()
    bodies = [lib.body_of(cmd.name) for cmd in parse_script(LIBRARY)]
    bodies.append(lib.body_of(IMPL_RESPECTFUL))
    nodes = {id(t): t for body in bodies for _, t in _nodes(body)
             if type(t) in _CHILDREN}
    admitting, calls, reached = False, 0, 0
    infer = kernel.infer_type

    def counting_infer(env, ctx, t):
        nonlocal calls, reached
        calls += admitting
        reached += admitting and nodes.get(id(t)) is t
        return infer(env, ctx, t)

    add_definition = GlobalEnv.add_definition

    def admitting_definition(self, name, body, ty=None):
        nonlocal admitting
        admitting = name == "N.le_trans"
        try:
            return add_definition(self, name, body, ty)
        finally:
            admitting = False

    monkeypatch.setattr(kernel, "infer_type", counting_infer)
    monkeypatch.setattr(GlobalEnv, "add_definition", admitting_definition)
    state = execute_script(script_text("v2_letrans.tk"), RunOptions())
    monkeypatch.undo()
    assert [r.status for r in state.results] == ["proved"]
    assert calls > 0 and reached == 0
    env, cited = state.env, set()
    for entry in state.tables.relations_v2:
        assert type(entry.proof) is Const
        assert convertible(env, env.type_of(entry.proof.name),
                           app(entry.relation, entry.lhs, entry.rhs))
        cited.add(entry.proof.name)
    generated = {IMPL_RESPECTFUL, "N.of_nat_rel_surj", "N.of_nat_rel_tot",
                 "N.of_nat_rel_func"}
    assert generated <= cited
    assert all(env.is_definition(name) for name in generated)


# --- declared types unfolded once per declaration ---------------------------------

def parent_infer_type(env: GlobalEnv, ctx: LocalContext, t: Term) -> Term:
    """`infer_type` as it was before a `Decl` kept unfoldings of its type:
    a pending type that is not a product is instantiated, then reduced,
    at every application.  It reduces through `kernel.whnf`, so a test can
    count its calls."""
    cls = type(t)
    if cls is Var:
        i = t.index
        entries = ctx.entries
        if i >= len(entries) or i < 0:
            raise UnboundName(f"unbound variable index {i}")
        return shift(entries[-1 - i].ty, i + 1)
    if cls is Const:
        return (env._decls.get(t.name) or env.lookup(t.name)).ty
    if cls is App:
        args: list[Term] = []
        head = t
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        try:
            ty = parent_infer_type(env, ctx, head)
        except TypeCheckError as e:
            e.path = ("fn",) * len(args) + e.path
            raise
        for i in range(len(args) - 1, -1, -1):
            if type(ty) is not Pi:
                k = len(args) - i - 1
                if k:
                    ty = kernel._instantiate(ty, 0, args, k)
                    del args[i + 1:]
                ty = kernel.whnf(env, ty)
                if type(ty) is not Pi:
                    raise TypeCheckError(
                        f"applied term has non-function type {ty!r}",
                        ("fn",) * (i + 1))
            try:
                arg_ty = parent_infer_type(env, ctx, args[i])
            except TypeCheckError as e:
                e.path = ("fn",) * i + ("arg",) + e.path
                raise
            dom = ty.ty
            k = len(args) - i - 1
            if k and dom.lbr:
                dom = kernel._instantiate(dom, 0, args, k)
            if not (arg_ty is dom or arg_ty == dom or subsumes(env, arg_ty, dom)):
                raise TypeCheckError(
                    f"argument type {arg_ty!r} does not match domain {dom!r}",
                    ("fn",) * i + ("arg",))
            ty = ty.body
        return kernel._instantiate(ty, 0, args, len(args)) if args else ty
    if cls is Pi:
        try:
            s1 = parent_infer_type(env, ctx, t.ty)
        except TypeCheckError as e:
            e.path = ("domain",) + e.path
            raise
        if type(s1) is not Sort and type(whnf(env, s1)) is not Sort:
            raise TypeCheckError(
                f"product domain {t.ty!r} is not a type", ("domain",))
        try:
            s2 = parent_infer_type(env, ctx.push(t.name, t.ty), t.body)
        except TypeCheckError as e:
            e.path = ("codomain",) + e.path
            raise
        if type(s2) is not Sort and type(s2 := whnf(env, s2)) is not Sort:
            raise TypeCheckError(
                f"product codomain {t.body!r} is not a type", ("codomain",))
        return s2
    if cls is Lam:
        try:
            s = parent_infer_type(env, ctx, t.ty)
        except TypeCheckError as e:
            e.path = ("binder-type",) + e.path
            raise
        if type(s) is not Sort and type(whnf(env, s)) is not Sort:
            raise TypeCheckError(
                f"binder type {t.ty!r} is not a type", ("binder-type",))
        try:
            body_ty = parent_infer_type(env, ctx.push(t.name, t.ty), t.body)
        except TypeCheckError as e:
            e.path = ("body",) + e.path
            raise
        return Pi(t.name, t.ty, body_ty)
    if cls is Sort:
        return TYPE
    raise TypeCheckError(f"unrecognized term {t!r}")


def _folded_env() -> GlobalEnv:
    """The fuzz v2 fixture, whose relation entries have folded
    `respectful`/`inv`/`impl` types, plus axioms whose types are stuck on a
    variable until applied (one after a folded `impl`), one whose type
    unfolds through `inv` to an equation, and definitions that cite entries
    under folded types."""
    env = v2_fixture()[0]
    for kind, name, text in (
            ("axiom", "ax", "∀ (F : Prop → Prop) (p : Prop), F p"),
            ("axiom", "ax_late",
             "∀ x : Prop, impl x (∀ (F : Prop → Prop) (p : Prop), F p)"),
            ("axiom", "inv_ax", "∀ x : nat, natN⁻¹ (N.of_nat x) x"),
            ("axiom", "all_ax", "all nat P"),
            ("axiom", "down_up", "(natN⁻¹ ##> impl) P' P")):
        ty = parse_and_elaborate(env, text)
        env = env.add_axiom(name, ty)
    for name, body, ty in (
            ("le_up_def", "le_up_rel", None),
            ("le_up_folded", "le_up_rel", "(natN ##> natN ##> impl) le N.le"),
            ("impl_def", "false_id", "impl False False")):
        env = env.add_definition(
            name, parse_and_elaborate(env, body),
            None if ty is None else parse_and_elaborate(env, ty))
    return env


HEADS = ("le_up_rel", "le_down_rel", "P_up", "P_down", "false_id", "ax",
         "ax_late",
         "inv_ax", "all_ax", "down_up", "le_up_def", "le_up_folded",
         "impl_def", "N.of_nat_rel_surj", "eq_refl", "h")
# (name, type) of the context the spines are checked in, outermost first.
# Every pair of variables is related by a hypothesis, so most argument
# lists that some pool term fits can be completed.
SPINE_CTX = (("x", "nat"), ("x'", "N"), ("y", "nat"), ("y'", "N"),
             ("hx", "natN x x'"), ("hy", "natN y y'"), ("hxy", "natN x y'"),
             ("hyx", "natN y x'"), ("hxo", "natN x (N.of_nat x)"),
             ("hyo", "natN y (N.of_nat x)"), ("p", "le x y"), ("pxx", "le x x"),
             ("pyx", "le y x"), ("pyy", "le y y"), ("qx", "P x"),
             ("qy", "P y"), ("f", "False"))
ARG_TEXTS = tuple(name for name, _ in SPINE_CTX) + (
    "False", "Prop", "fun q : Prop => q → q",
    "fun q : Prop => impl q (impl q q)", "le", "N.le", "P", "P'",
    "N.of_nat x", "h", "le x", "impl False", "nat")


def _spine_context(env: GlobalEnv) -> LocalContext:
    ctx = LocalContext()
    for name, text in SPINE_CTX:
        ctx = ctx.push(name, parse_and_elaborate(env, text, ctx))
    return ctx


def _random_spine(rng: random.Random, env: GlobalEnv, ctx: LocalContext,
                  pool: list[tuple[Term, Term]]) -> Term:
    """A head from HEADS applied to up to 12 arguments.  Where some pool
    term fits the pending domain, one of them is applied nineteen times in
    twenty, and the spine stops one time in ten; where none fits, the
    spine stops three times in four."""
    t = Const(rng.choice(HEADS))
    everything = [a for a, _ in pool]
    for _ in range(12):
        try:
            ty = whnf(env, parent_infer_type(env, ctx, t))
        except TypeCheckError:
            ty = None
        fits = [a for a, a_ty in pool
                if type(ty) is Pi and subsumes(env, a_ty, ty.ty)]
        if rng.random() < (0.1 if fits else 0.75):
            break
        t = App(t, rng.choice(fits if fits and rng.random() < 0.95
                              else everything))
    return t


def test_kept_unfoldings_type_spines_as_the_parents_loop():
    """Spines over declarations with folded types, checked alternately in
    two sibling environments (the same declarations, different `h`), type
    as with the parent's loop: the same type by `==` and by `repr`, or the
    same error class, message and path.  The declarations' kept unfoldings
    are filled in one sibling and used in the other."""
    base = _folded_env()
    siblings = [base.add_axiom("h", Const(FALSE)),
                base.add_axiom("h", parse_and_elaborate(base, "impl False False"))]
    ctx = _spine_context(base)
    pools = [[(a, infer_type(env, ctx, a))
              for a in (parse_and_elaborate(env, text, ctx) for text in ARG_TEXTS)]
             for env in siblings]
    rng = random.Random(30)
    outcomes = Counter()
    for n in range(400):
        env = siblings[n % 2]
        t = _random_spine(rng, env, ctx, pools[n % 2])
        for other in siblings:  # filled in one sibling, reused in the other
            got = typing(infer_type, other, ctx, t)
            expected = typing(parent_infer_type, other, ctx, t)
            assert got == expected and repr(got) == repr(expected), t
            if isinstance(got, tuple):
                outcomes[got[2].split(" ")[0]] += 1
            else:
                outcomes["typed" if len(spine(t)[1]) < 5 else "typed, 5+"] += 1
    assert outcomes["typed"] > 400 and outcomes["typed, 5+"] > 50
    assert outcomes["argument"] > 80 and outcomes["applied"] > 50
    # Each folded level's unfolding was kept once, and over-applied spines
    # kept the stuck `N.le x' y'` after all seven arguments.
    for name in ("le_up_rel", "le_up_folded"):
        assert {0, 3, 6} <= base.lookup(name).unfolded.keys() <= {0, 3, 6, 7}


def _count_whnf(monkeypatch, infer, env, ctx, t) -> tuple[Term, int]:
    calls = []
    reduce = kernel.whnf

    def counting_whnf(*args, **kwargs):
        calls.append(None)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(kernel, "whnf", counting_whnf)
    try:
        return infer(env, ctx, t), len(calls)
    finally:
        monkeypatch.undo()


def test_a_second_application_reuses_the_kept_unfoldings(monkeypatch):
    """`le_up_rel x x' hx y y' hy p : N.le x' y'`.  Each argument's type
    is its domain, so only pending types are reduced.  The parent reduces
    one at each of the three folded `respectful`/`impl` levels on every
    application (3 `whnf` calls); the first application in an environment
    reduces them open and keeps them (3 calls), and the second reduces
    none (0 calls)."""
    env = _folded_env()
    ctx = _spine_context(env)
    t = parse_and_elaborate(env, "le_up_rel x x' hx y y' hy p", ctx)
    expected = parse_and_elaborate(env, "N.le x' y'", ctx)
    parent = _count_whnf(monkeypatch, parent_infer_type, env, ctx, t)
    first = _count_whnf(monkeypatch, infer_type, env, ctx, t)
    second = _count_whnf(monkeypatch, infer_type, env, ctx, t)
    assert (parent, first, second) \
        == ((expected, 3), (expected, 3), (expected, 0))
    assert second[1] < first[1] and second[1] < parent[1]


def test_a_kept_form_that_is_not_a_product_takes_the_general_path():
    """`ax : ∀ (F : Prop → Prop) (p : Prop), F p`: after two arguments the
    pending type `F p` is stuck on a variable, so its kept form is not a
    product; instantiating then reducing gives `False → False`."""
    env = _folded_env().add_axiom("h", Const(FALSE))
    ctx = LocalContext()
    unary = parse_and_elaborate(env, "fun q : Prop => q → q")
    t = app(Const("ax"), unary, Const(FALSE), Const("h"))
    for _ in range(2):
        assert infer_type(env, ctx, t) == Const(FALSE)
    assert env.lookup("ax").unfolded == {2: App(Var(1), Var(0))}
    with pytest.raises(TypeCheckError) as err:
        infer_type(env, ctx, app(Const("ax"), unary, Const(FALSE), Const(FALSE)))
    assert (err.value.message, err.value.path) \
        == ("argument type Prop does not match domain False", ("arg",))
    # A fourth argument meets `False`, which is no product.
    with pytest.raises(TypeCheckError) as err:
        infer_type(env, ctx, App(t, Const("h")))
    assert (err.value.message, err.value.path) \
        == ("applied term has non-function type False", ("fn",))
    # `ax_late False h` keeps the unfolding of `impl x (…)` at one argument.
    # Past the stuck `F p`, its instance `impl False (impl False False)`
    # meets a folded type again one argument later: built from arguments,
    # it is reduced as such, not read from the kept forms.
    late = parse_and_elaborate(
        env, "ax_late False h (fun q : Prop => impl q (impl q q)) False h h")
    for _ in range(2):
        assert infer_type(env, ctx, late) == Const(FALSE)
    assert sorted(env.lookup("ax_late").unfolded) == [1, 4]


def test_the_kept_unfoldings_are_bounded_by_the_declaration():
    """After the first application of an axiom, a thousand more with other
    arguments, in other environments too, keep no further term."""
    env = _folded_env()
    for kind, name, text in (("parameter", "c", "nat"), ("parameter", "c'", "N"),
                             ("axiom", "hc", "natN c c'")):
        env = getattr(env, f"add_{kind}")(name, parse_and_elaborate(env, text))
    ctx = _spine_context(env)
    decl = env.lookup("le_up_rel")
    first = parse_and_elaborate(env, "le_up_rel x x' hx y y' hy p", ctx)
    infer_type(env, ctx, first)
    kept = dict(decl.unfolded)
    assert len(kept) == 3
    le_c = parse_and_elaborate(env, "le c c")
    for i in range(1000):
        sibling = env.add_axiom(f"h{i}", le_c)
        t = parse_and_elaborate(sibling, f"le_up_rel c c' hc c c' hc h{i}")
        assert infer_type(sibling, ctx, t) \
            == parse_and_elaborate(env, "N.le c' c'")
    assert decl.unfolded == kept
    assert all(decl.unfolded[k] is term for k, term in kept.items())


# --- no cyclic garbage ------------------------------------------------------------

def _engine_problems():
    """(engine, env, tables, source, target) for a few runs of each engine.
    Built before measuring: the generators recurse through closures."""
    rng = random.Random(22)
    (env1, tables1), (env2, tables2) = v1_fixture(), v2_fixture()
    problems = []
    for mutate in (None, None, "head", "drop"):
        src, tgt = v1_problem(rng, 4, mutate)
        problems.append(("v1", env1.add_axiom("h", src), tables1, src, tgt))
        src, tgt = v2_problem(rng, 4, mutate)
        problems.append(("v2", env2.add_axiom("h", src), tables2, src, tgt))
    return problems


def _traversals_and_verdicts(problems) -> None:
    """Each traversal on an open term, two corpus scripts through the CLI
    path, one of them also traced and reported in the machine format, and
    the engine runs with their proofs checked."""
    t = Pi("x", Var(2), App(Lam("y", Var(0), App(Var(1), Var(3))), Var(0)))
    assert substitute(t, App(Var(0), Const("c"))) != t
    assert instantiate(t, [Const("c"), Var(5)]) != t
    assert replace_var(t, 1, Var(4)) != t
    for name in ("v2_letrans.tk", "example2.tk"):
        assert report(execute_script(script_text(name), RunOptions()))
    traced = RunOptions(trace=True, fmt="machine")
    state = execute_script(script_text("v2_letrans.tk"), traced)
    assert report(state, "machine", traced).startswith("{")
    for engine, env, tables, src, tgt in problems:
        if engine == "v1":
            out = exact_modulo(env, tables, LocalContext(), src, tgt, Const("h"))
        else:
            out = transfer_modulo(env, tables, src, tgt, Const("h"))
            out = out if isinstance(out, TransferFailure) else out[0]
        if not isinstance(out, TransferFailure):
            assert kernel.check_proof(env, LocalContext(), out, tgt)


def test_traversals_and_verdicts_leave_no_cyclic_garbage():
    """A nested function that calls itself is a reference cycle (function,
    cell, captured arguments) that only the cyclic collector frees, so a
    traversal written that way leaves garbage at every call.  With the
    collector off and every unreachable object kept, a pass over the kernel
    and both engines must leave none.  A first pass fills the caches."""
    problems = _engine_problems()
    _traversals_and_verdicts(problems)
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _traversals_and_verdicts(problems)
        found = gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage[kept:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()
        gc.collect()
    assert found == 0, kinds.most_common(5)


@pytest.mark.parametrize("module", [kernel, terms], ids=["kernel", "terms"])
def test_no_function_in_the_kernel_or_terms_defines_a_nested_function(module):
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, functions):
            for node in ast.walk(fn):
                assert node is fn or not isinstance(node, functions), \
                    f"{module.__name__}, line {node.lineno}"


def test_no_module_of_the_package_has_a_match_statement():
    """Dispatch on a value's kind tests its exact class, most frequent
    first; a `match` class pattern is a chain of `isinstance` calls."""
    for path in sorted(Path(transfer_kernel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(n, ast.Match) for n in ast.walk(tree)), \
            path.name
