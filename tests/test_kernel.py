"""Kernel tests: substitution, reduction, conversion, type inference."""

import ast
import dataclasses
import inspect
import random
import re
import sys
from pathlib import Path

import pytest

from transfer_kernel import kernel
from transfer_kernel.kernel import (
    ALL, EQ, EQ_IND, EQ_REFL, IMPL, PROP, SET, TYPE,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Term, TypeCheckError,
    Var, app, arrow, check_proof, check_proof_report, convertible, infer_type,
    normalize, prelude_env, shift, substitute, whnf,
)
from transfer_kernel.surface import parse_and_elaborate


# --- independent oracle: leftmost-outermost beta reduction ------------------

def beta_step(t: Term) -> Term | None:
    """One leftmost-outermost beta step, ignoring definitions entirely."""
    match t:
        case App(Lam(_, _, body), arg):
            return substitute(body, arg)
        case App(f, a):
            fs = beta_step(f)
            if fs is not None:
                return App(fs, a)
            as_ = beta_step(a)
            return None if as_ is None else App(f, as_)
        case Lam(x, ty, body):
            ts = beta_step(ty)
            if ts is not None:
                return Lam(x, ts, body)
            bs = beta_step(body)
            return None if bs is None else Lam(x, ty, bs)
        case Pi(x, ty, body):
            ts = beta_step(ty)
            if ts is not None:
                return Pi(x, ts, body)
            bs = beta_step(body)
            return None if bs is None else Pi(x, ty, bs)
        case _:
            return None


def beta_normal_form(t: Term, budget: int = 1000) -> Term:
    for _ in range(budget):
        nxt = beta_step(t)
        if nxt is None:
            return t
        t = nxt
    raise AssertionError("oracle did not terminate")


# --- substitution ------------------------------------------------------------

def test_substitute_variable_itself():
    assert substitute(Var(0), Const("False")) == Const("False")


def test_substitute_under_binder_shifts():
    t = app(Const("h"), Var(0))
    out = substitute(Pi("x", Const("A"), Var(1)), t)
    assert out == Pi("x", Const("A"), shift(t, 1))


def test_substitute_decrements_higher_indices():
    assert substitute(Var(3), Const("c")) == Var(2)
    # A variable bound below the discharged binder keeps its index.
    assert substitute(Lam("x", PROP, App(Var(0), Var(2))), Const("c")) \
        == Lam("x", PROP, App(Var(0), Var(1)))


def test_all_body_instantiation_matches_beta_oracle():
    # The Pi body of `all A P`, instantiated at x, beta-reduces to P x.
    env = prelude_env()
    env = env.add_parameter("nat", SET)
    env = env.add_parameter("P0", arrow(Const("nat"), PROP))
    env = env.add_parameter("n0", Const("nat"))
    applied = whnf(env, app(Const(ALL), Const("nat"), Const("P0")))
    assert isinstance(applied, Pi)
    inst = substitute(applied.body, Const("n0"))
    # frozen expected value, computed with the beta oracle
    assert beta_normal_form(inst) == App(Const("P0"), Const("n0"))


# --- whnf ---------------------------------------------------------------------

def test_whnf_unfolds_impl():
    env = prelude_env()
    env = env.add_parameter("A", PROP).add_parameter("B", PROP)
    out = whnf(env, app(Const(IMPL), Const("A"), Const("B")))
    assert out == arrow(Const("A"), Const("B"))


def test_whnf_beta_redex():
    env = prelude_env()
    out = whnf(env, App(Lam("x", PROP, Var(0)), Const("False")))
    assert out == Const("False")


def test_whnf_unfolds_defined_relation():
    env = prelude_env()
    env = env.add_parameter("nat", SET).add_parameter("N", SET)
    env = env.add_parameter("N.of_nat", arrow(Const("nat"), Const("N")))
    env = env.add_definition(
        "natN", parse_and_elaborate(env, "fun x x' => N.of_nat x = x'"))
    ctx = LocalContext().push("x", Const("nat")).push("x'", Const("N"))
    out = whnf(env, parse_and_elaborate(env, "natN x x'", ctx))
    assert out == parse_and_elaborate(env, "N.of_nat x = x'", ctx)


def test_whnf_never_unfolds_parameters():
    env = prelude_env().add_parameter("A", SET)
    assert whnf(env, Const("A")) == Const("A")


def test_whnf_idempotent_on_corpus():
    env, terms = _term_corpus()
    for t in terms:
        w = whnf(env, t)
        assert whnf(env, w) == w


# --- conversion ----------------------------------------------------------------

def test_convertible_impl_and_arrow():
    env = prelude_env()
    env = env.add_parameter("A", PROP).add_parameter("B", PROP)
    assert convertible(env, app(Const(IMPL), Const("A"), Const("B")),
                       arrow(Const("A"), Const("B")))


def test_alpha_equivalence_is_structural():
    env = prelude_env().add_parameter("A", SET)
    left = Pi("x", Const("A"), Const("False"))
    right = Pi("y", Const("A"), Const("False"))
    assert left == right
    assert convertible(env, left, right)


def test_distinct_sorts_not_convertible():
    env = prelude_env()
    assert not convertible(env, PROP, SET)


def test_conversion_is_equivalence_on_corpus():
    env, terms = _term_corpus()
    ctx = LocalContext()
    variants = []
    for t in terms:
        variants.append((t, whnf(env, t), normalize(env, t),
                         App(Lam("x", infer_type(env, ctx, t), Var(0)), t)))
    for group in variants:
        for a in group:
            assert convertible(env, a, a)
            for b in group:
                assert convertible(env, a, b)
                assert convertible(env, b, a)
    # transitivity across each group triple
    for a, b, c, d in variants:
        assert convertible(env, a, c) and convertible(env, b, d)
    # and inequivalent terms stay apart
    assert not convertible(env, terms[0], terms[1])


def _term_corpus() -> tuple[GlobalEnv, list[Term]]:
    env = prelude_env()
    env = env.add_parameter("nat", SET)
    env = env.add_parameter("P0", arrow(Const("nat"), PROP))
    env = env.add_parameter("n0", Const("nat"))
    env = env.add_parameter("sf", arrow(Const("nat"), Const("nat")))
    terms = [
        App(Const("P0"), Const("n0")),
        App(Const("P0"), App(Const("sf"), Const("n0"))),
        app(Const(ALL), Const("nat"), Const("P0")),
        app(Const(IMPL), App(Const("P0"), Const("n0")), Const("False")),
        App(Lam("x", Const("nat"), App(Const("P0"), Var(0))), Const("n0")),
        Pi("x", Const("nat"), App(Const("P0"), Var(0))),
        Lam("x", Const("nat"), App(Const("sf"), Var(0))),
    ]
    return env, terms


# --- type inference ---------------------------------------------------------------

def test_infer_sorts():
    env = prelude_env()
    ctx = LocalContext()
    assert infer_type(env, ctx, PROP) == TYPE
    assert infer_type(env, ctx, SET) == TYPE
    assert infer_type(env, ctx, TYPE) == TYPE


def test_infer_eq_refl_instance():
    env = prelude_env().add_parameter("N", SET)
    ctx = LocalContext().push("x'", Const("N"))
    ty = infer_type(env, ctx, app(Const(EQ_REFL), Const("N"), Var(0)))
    assert convertible(env, ty, app(Const(EQ), Const("N"), Var(0), Var(0)))


def test_infer_all_application_is_prop():
    # hand derivation: all : forall A : Type, (A -> Prop) -> Prop, so the
    # full application lands in Prop
    env = prelude_env().add_parameter("nat", SET)
    t = app(Const(ALL), Const("nat"), Lam("x", Const("nat"), Const("False")))
    assert infer_type(env, LocalContext(), t) == PROP


def test_infer_domain_mismatch_fails_with_path():
    env = prelude_env()
    env = env.add_parameter("A", SET).add_parameter("A'", SET)
    env = env.add_parameter("f", arrow(Const("A"), Const("A'")))
    ctx = LocalContext().push("x'", Const("A'"))
    with pytest.raises(TypeCheckError) as err:
        infer_type(env, ctx, App(Const("f"), Var(0)))
    assert "arg" in err.value.path


@pytest.fixture
def spine_env():
    env = prelude_env().add_parameter("N", SET)
    env = env.add_parameter("n", Const("N")).add_parameter("m", Const("N"))
    env = env.add_parameter("P", arrow(Const("N"), PROP))
    env = env.add_axiom("px", App(Const("P"), Const("n")))
    env = env.add_axiom("e", app(Const(EQ), Const("N"), Const("n"), Const("m")))
    # h's type unfolds to a product only after its first argument
    return env.add_parameter("h", arrow(Const("N"), app(
        Const(IMPL), App(Const("P"), Const("n")), App(Const("P"), Const("m")))))


N_, n_, m_, P_, px_, e_, h_ = map(Const, ["N", "n", "m", "P", "px", "e", "h"])
EQ_IND_GOOD = (N_, n_, P_, px_, m_, e_)


@pytest.mark.parametrize("term, message, path", [
    (app(Const(EQ_IND), n_, *EQ_IND_GOOD[1:]),
     "argument type N does not match domain Type",
     ("fn", "fn", "fn", "fn", "fn", "arg")),
    (app(Const(EQ_IND), N_, n_, P_, e_, m_, e_),
     "argument type (((eq N) n) m) does not match domain (P n)",
     ("fn", "fn", "arg")),
    (app(Const(EQ_IND), *EQ_IND_GOOD[:5], px_),
     "argument type (P n) does not match domain (((eq N) n) m)",
     ("arg",)),
    (app(Const(EQ_IND), *EQ_IND_GOOD, n_),
     "applied term has non-function type (P m)", ("fn",)),
    (app(Const(EQ_IND), *EQ_IND_GOOD, n_, n_),
     "applied term has non-function type (P m)", ("fn", "fn")),
    (app(n_, m_, m_), "applied term has non-function type N", ("fn", "fn")),
    (app(h_, n_, e_),
     "argument type (((eq N) n) m) does not match domain (P n)", ("arg",)),
    (app(h_, n_, px_, px_), "applied term has non-function type (P m)",
     ("fn",)),
])
def test_infer_spine_errors_keep_message_and_path(spine_env, term, message, path):
    assert infer_type(spine_env, LocalContext(), app(Const(EQ_IND), *EQ_IND_GOOD)) \
        == App(P_, m_)
    for prefix, t in (((), term), (("body",), Lam("z", N_, term))):
        with pytest.raises(TypeCheckError) as err:
            infer_type(spine_env, LocalContext(), t)
        assert err.value.message == message
        assert err.value.path == prefix + path


def test_infer_unbound_constant():
    env = prelude_env()
    with pytest.raises(TypeCheckError, match="nonexistent"):
        infer_type(env, LocalContext(), Const("nonexistent"))


def test_impredicative_product():
    env = prelude_env()
    t = Pi("A", TYPE, Pi("x", Var(0), PROP))
    assert infer_type(env, LocalContext(), t) == TYPE
    prop_valued = Pi("A", TYPE, arrow(Var(0), Const("False")))
    assert infer_type(env, LocalContext(), prop_valued) == PROP


# --- check_proof ---------------------------------------------------------------------

def test_check_proof_identity():
    env = prelude_env()
    proof = Lam("x", Const("False"), Var(0))
    stmt = arrow(Const("False"), Const("False"))
    assert check_proof(env, LocalContext(), proof, stmt)


def test_check_proof_wrong_statement(empty_set_env):
    env = empty_set_env
    goal = parse_and_elaborate(env, "∀ x' : A', False")
    ok, diag = check_proof_report(env, LocalContext(), Const("emptyA"), goal)
    assert not ok and diag is not None


def test_check_proof_ill_typed_is_false_with_diagnostic():
    env = prelude_env()
    bad = App(Const("False"), Const("False"))
    ok, diag = check_proof_report(env, LocalContext(), bad, PROP)
    assert not ok and "ill-typed" in diag


# --- substitution lemma on generated terms --------------------------------------------

def _generated_terms(rng: random.Random, env: GlobalEnv, hole_ty: Term,
                     count: int):
    """Well-typed terms over one free variable, built type-directed."""
    nat = Const("nat")
    pool = [nat, PROP, arrow(nat, nat), arrow(nat, PROP)]

    def gen(target: Term, depth: int, ctx_types: list[Term]) -> Term | None:
        options = []
        for i, ty in enumerate(reversed(ctx_types)):
            if shift(ty, i + 1) == target:
                options.append(Var(i))
        for name in ("n0", "sf", "P0"):
            if env.type_of(name) == target:
                options.append(Const(name))
        if depth > 0:
            if isinstance(target, Pi):
                body = gen(target.body, depth - 1, ctx_types + [target.ty])
                if body is not None:
                    options.append(Lam("v", target.ty, body))
            dom = rng.choice(pool)
            fn = gen(arrow(dom, target), depth - 1, ctx_types)
            arg = gen(dom, depth - 1, ctx_types)
            if fn is not None and arg is not None \
                    and not isinstance(target, Pi):
                options.append(App(fn, arg))
        return rng.choice(options) if options else None

    out = []
    while len(out) < count:
        target = rng.choice(pool)
        t = gen(target, 3, [hole_ty])
        if t is not None:
            out.append(t)
    return out


def test_substitution_lemma_on_generated_corpus(rng):
    env = prelude_env()
    env = env.add_parameter("nat", SET)
    env = env.add_parameter("n0", Const("nat"))
    env = env.add_parameter("sf", arrow(Const("nat"), Const("nat")))
    env = env.add_parameter("P0", arrow(Const("nat"), PROP))
    hole_ty = Const("nat")
    ctx = LocalContext().push("h", hole_ty)
    replacement = App(Const("sf"), Const("n0"))
    for body in _generated_terms(rng, env, hole_ty, 60):
        lhs = infer_type(env, LocalContext(), substitute(body, replacement))
        rhs = substitute(infer_type(env, ctx, body), replacement)
        assert convertible(env, lhs, rhs)


# --- prelude invariants ---------------------------------------------------------------

PRELUDE_NAMES = (kernel.FALSE, EQ, EQ_REFL, EQ_IND, IMPL, ALL,
                 kernel.RESPECTFUL, kernel.INV, kernel.IMPL_RESPECTFUL)


def test_prelude_definitions_check():
    env = prelude_env()
    for name in PRELUDE_NAMES:
        decl = env.lookup(name)
        if decl.body is not None:
            inferred = infer_type(env, LocalContext(), decl.body)
            assert convertible(env, inferred, decl.ty), name


def test_prelude_unfoldings():
    env = prelude_env()
    env = env.add_parameter("A", PROP).add_parameter("B", PROP)
    env = env.add_parameter("nat", SET)
    env = env.add_parameter("P0", arrow(Const("nat"), PROP))
    env = env.add_parameter("n0", Const("nat"))
    assert convertible(env, app(Const(IMPL), Const("A"), Const("B")),
                       arrow(Const("A"), Const("B")))
    all_app = app(Const(ALL), Const("nat"), Const("P0"))
    unfolded = whnf(env, all_app)
    assert isinstance(unfolded, Pi)
    assert convertible(env, substitute(unfolded.body, Const("n0")),
                       App(Const("P0"), Const("n0")))


def test_respectful_unfolds_to_pointwise_form():
    env = prelude_env()
    env = env.add_parameter("nat", SET).add_parameter("N", SET)
    env = env.add_parameter("natN0", arrow(Const("nat"), arrow(Const("N"), PROP)))
    env = env.add_parameter("le", arrow(Const("nat"), arrow(Const("nat"), PROP)))
    env = env.add_parameter("N.le", arrow(Const("N"), arrow(Const("N"), PROP)))
    chain = parse_and_elaborate(env, "(natN0 ##> natN0 ##> impl) le N.le")
    expected = parse_and_elaborate(
        env,
        "∀ (x : nat) (y : N), natN0 x y → "
        "∀ (x0 : nat) (y0 : N), natN0 x0 y0 → le x x0 → N.le y y0")
    assert convertible(env, chain, expected)


def test_definition_body_must_match_declared_type():
    env = prelude_env()
    with pytest.raises(TypeCheckError):
        env.add_definition("bad", Lam("x", PROP, Var(0)), PROP)


def test_a_declared_type_is_checked_before_it_is_stored():
    """A declared type that is ill-typed is rejected, even when it reduces
    to the body's type: `(fun x : Prop => B) (Prop Prop)` beta-reduces to
    `B`, but `Prop Prop` applies a sort."""
    env = prelude_env().add_parameter("B", PROP)
    env = env.add_parameter("b", Const("B"))
    ill_typed = App(Lam("x", PROP, Const("B")), App(PROP, PROP))
    assert convertible(env, infer_type(env, LocalContext(), Const("b")),
                       ill_typed)
    with pytest.raises(TypeCheckError, match="non-function type Type"):
        env.add_definition("d", Const("b"), ill_typed)
    with pytest.raises(TypeCheckError, match="is not a type"):
        env.add_definition("d", Const("b"), Const("b"))  # a proof, not a type
    assert "d" in env.add_definition("d", Const("b"), Const("B"))


def test_redeclaration_is_an_error():
    env = prelude_env().add_parameter("A", SET)
    with pytest.raises(Exception, match="already declared"):
        env.add_parameter("A", SET)


# --- the trusted base -------------------------------------------------------

KERNEL_SOURCE = Path(kernel.__file__).read_text(encoding="utf-8")


def test_the_kernel_imports_only_the_standard_library():
    for node in ast.walk(ast.parse(KERNEL_SOURCE)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top != "transfer_kernel", module
            assert top in sys.stdlib_module_names, module


@pytest.mark.parametrize("name", [
    "replace_var", "occurs_free", "max_free_index", "respectful_view",
    "inv_view", "relation_types", "spine"])
def test_engine_helpers_live_outside_the_kernel(name):
    assert not hasattr(kernel, name)


def test_readme_states_the_kernels_line_count():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    stated = re.findall(r"`kernel\.py` \(([\d,]+) lines\)", readme)
    assert stated, "README names no line count for kernel.py"
    lines = len(KERNEL_SOURCE.splitlines())
    assert [int(n.replace(",", "")) for n in stated] == [lines] * len(stated)


# --- the kernel's interface -------------------------------------------------

KERNEL_API = {
    "KernelError", "TypeCheckError", "UnboundName",
    "Sort", "PROP", "SET", "TYPE", "Var", "Const", "Lam", "App", "Pi", "Term",
    "app", "arrow", "shift", "substitute", "unshift",
    "CtxEntry", "LocalContext", "Decl", "GlobalEnv",
    "whnf", "normalize", "subsumes", "convertible", "infer_type",
    "check_proof_report", "check_proof",
    "FALSE", "EQ", "EQ_REFL", "EQ_IND", "IMPL", "ALL", "RESPECTFUL", "INV",
    "IMPL_RESPECTFUL", "prelude_env",
}


def _defined_names(source: str) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return names


def test_the_kernels_public_names_are_the_allowlist():
    defined = {n for n in _defined_names(KERNEL_SOURCE) if n[0] != "_"}
    assert defined == KERNEL_API


def test_the_kernels_interface_is_the_checkers():
    """Conversion reads no context, a context entry is a name and a type,
    and the environment offers no engine convenience."""
    assert list(inspect.signature(convertible).parameters) == ["env", "a", "b"]
    assert list(inspect.signature(kernel.subsumes).parameters) \
        == ["env", "have", "want"]
    assert [f.name for f in dataclasses.fields(kernel.CtxEntry)] \
        == ["name", "ty"]
    assert list(inspect.signature(LocalContext.push).parameters) \
        == ["self", "name", "ty"]
    assert not hasattr(GlobalEnv, "fresh_name")
    assert not hasattr(GlobalEnv, "names")
    # An environment is made only by extending one: none takes declarations.
    assert not inspect.signature(GlobalEnv).parameters
    # `substitute` discharges binder 0 only, with `_instantiate`.
    assert list(inspect.signature(substitute).parameters) \
        == ["body", "replacement"]


# Public functions the checker never runs, each kept in `kernel` because
# the benchmark harness under `bench/` uses it by its kernel name.
NOT_CHECKER_CODE = {
    "arrow": "bench/fuzz.py imports it to build fuzz problems",
    "unshift": "bench/fuzz.py imports it to build fuzz problems",
    "normalize": "bench/tracing.py counts its calls",
    "substitute": "bench/tracing.py counts its calls",
}
# The checker's entry points; a class stands for all its methods.
CHECKER_ROOTS = ("prelude_env", "check_proof", "check_proof_report",
                 "GlobalEnv")


def _reached(tree: ast.Module, roots: tuple[str, ...]) -> set[str]:
    """Module-level functions and methods ("Class.method") that the roots
    can reach: by a name, by naming a class (all its methods), or by an
    attribute with a method's name (every method of that name)."""
    bodies: dict[str, ast.FunctionDef] = {}
    methods_of: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.ClassDef):
            methods_of[node.name] = []
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    key = f"{node.name}.{item.name}"
                    bodies[key] = item
                    methods_of[node.name].append(key)
    by_attr: dict[str, list[str]] = {}
    for key in bodies:
        if "." in key:
            by_attr.setdefault(key.split(".")[1], []).append(key)

    def named(name: str) -> list[str]:
        return [name] if name in bodies else methods_of.get(name, [])

    reached: set[str] = set()
    todo = [key for name in roots for key in named(name)]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for n in ast.walk(bodies[key]):
            if isinstance(n, ast.Name):
                todo += named(n.id)
            elif isinstance(n, ast.Attribute):
                todo += by_attr.get(n.attr, [])
    return reached


def test_the_kernel_holds_only_checker_code():
    """Every public function of `kernel` is reached from the prelude, the
    checks or the environment's methods, or is named, with its reason, in
    NOT_CHECKER_CODE.  Engine helpers belong in `terms`."""
    tree = ast.parse(KERNEL_SOURCE)
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name[0] != "_"}
    assert public - _reached(tree, CHECKER_ROOTS) == set(NOT_CHECKER_CODE)


def test_an_unknown_name_is_a_type_error_with_its_path():
    env = prelude_env()
    with pytest.raises(kernel.UnboundName) as err:
        infer_type(env, LocalContext(),
                   Lam("f", arrow(PROP, PROP), App(Var(0), Const("c"))))
    assert isinstance(err.value, TypeCheckError)
    assert str(err.value) == "unknown constant 'c' (at body/arg)"


@pytest.mark.parametrize("index", [4, -1])
def test_an_unbound_variable_is_one_error_at_either_bound(index):
    """An index past the context and a negative one raise the same class,
    with the message `UnboundName` promises and the path to the variable."""
    env, ctx = prelude_env(), LocalContext().push("A", SET).push("x", Var(0))
    with pytest.raises(kernel.UnboundName) as err:
        infer_type(env, ctx, Lam("y", PROP, Pi("z", PROP, Var(index))))
    assert (err.value.message, err.value.path) \
        == (f"unbound variable index {index}", ("body", "codomain"))
    assert str(err.value) \
        == f"unbound variable index {index} (at body/codomain)"
    with pytest.raises(kernel.UnboundName) as err:
        ctx.type_of(index - 2)
    assert (err.value.message, err.value.path) \
        == (f"unbound variable index {index - 2}", ())
