"""The trusted core: term language and type checker.

This module imports only the standard library.  It holds what the checker
runs (terms, de Bruijn plumbing, contexts, `GlobalEnv`, `whnf`,
`convertible`, `subsumes`, `infer_type`, the checks) and the prelude, with
no more interface than checking needs: a context entry is a name and a
type, conversion takes no context since it never reads one, and all
ill-typed input, an unknown name included, raises `TypeCheckError`.
`arrow`, `unshift`, `normalize`, `substitute` and the prelude's five
definitions are not checker code; they stay because the benchmark harness
uses them from here.  The engines' term helpers, `spine` among them, are in
the untrusted module `terms`.

Terms are a minimal dependent lambda calculus: three sorts (Prop, Set,
Type with Type : Type), variables as de Bruijn indices, global constants,
lambda, application and dependent products.  Binder display names are kept
for printing but ignored by equality, so structural equality on terms is
alpha-equivalence.

The checker implements beta + delta conversion (no eta): definitions
unfold lazily in head position, parameters and axioms are opaque.  There
are no inductive types or fixpoints, but under `Type : Type` some
well-typed terms have no normal form, so reduction is not bounded on every
input.  Terms, contexts and environments are immutable, and so are
declarations but for the unfoldings of their types they keep (below).

Every term carries `lbr`, its loose-bound-variable range: one more than the
largest de Bruijn index free in it, 0 if it is closed, fixed at
construction and ignored by equality, hashing and printing.  Traversals
return a subterm untouched when `lbr` shows that no index they rewrite can
occur in it, so a new term class must define `lbr` too.

The checker builds little it then discards: nodes and context records
have hand-written `__init__`s (see the comment above Var), traversals share
the Vars of small indices, and `whnf` and `infer_type` collect a spine's
arguments once, the last first, and instantiate from that list with
`_instantiate`, the one walker that discharges binders.  The hot
traversals dispatch on the exact class, `type(t) is App`, so the term
classes must stay final (a subclass would take the default branch, as the
elaborator's `Meta` does), and the recursive ones are module-level
functions, since a nested function that calls itself is a reference cycle.

A `Decl` keeps, in `unfolded`, weak head normal forms `infer_type` needs
of its type.  While the pending type of a spine headed by the constant is
still an uninstantiated subterm of that type, or of a form kept for it,
one that is not a product is reduced open, its pending binders free, once
per declaration and argument count; a kept product is used as is, and any
other kept form takes the general path, instantiate then reduce.
No result changes: `whnf` reads no context; a `Decl` is shared only by
extensions of the environment that made it, in all of which each constant
its type reaches has the same declaration; and an open form that is a
product was reached by no step headed by a free variable, so instantiating
it gives exactly the term instantiating first and reducing gives, as
`_instantiate` composes exactly.  The memo holds no term built from
arguments, so its size is bounded by the declaration, and it dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar


class KernelError(Exception):
    """Base class for kernel-level failures."""


class TypeCheckError(KernelError):
    """Ill-typed term.  `path` locates the failing subterm from the root."""

    def __init__(self, message: str, path: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if self.path:
            return f"{self.message} (at {'/'.join(self.path)})"
        return self.message


class UnboundName(TypeCheckError):
    """A constant or variable index that nothing declares."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Sort:
    tag: str  # "Prop" | "Set" | "Type"
    lbr: ClassVar[int] = 0

    def __repr__(self) -> str:
        return self.tag


PROP = Sort("Prop")
SET = Sort("Set")
TYPE = Sort("Type")


# Building a node is the kernel's most frequent operation, so the term
# classes are slotted, and Var, Const, App, Lam and Pi have a hand-written
# __init__ that stores each field through its slot's setter, bound below the
# class (`_app_fn = App.fn.__set__`), not by name through `object.__setattr__`
# as the generated one does.  Fields stay frozen.  Traversals share `_VARS`.


@dataclass(frozen=True, slots=True, init=False)
class Var:
    index: int  # de Bruijn index, 0 = innermost binder
    lbr: int = field(init=False, repr=False, compare=False)

    def __init__(self, index: int):
        _var_index(self, index)
        _var_lbr(self, index + 1)

    def __repr__(self) -> str:
        return f"Var({self.index})"


_var_index, _var_lbr = Var.index.__set__, Var.lbr.__set__
_VARS = tuple(Var(i) for i in range(32))
_NVARS = len(_VARS)


@dataclass(frozen=True, slots=True, init=False)
class Const:
    name: str
    lbr: ClassVar[int] = 0

    def __init__(self, name: str):
        _const_name(self, name)

    def __repr__(self) -> str:
        return self.name


_const_name = Const.name.__set__


@dataclass(frozen=True, slots=True, init=False)
class Lam:
    name: str = field(compare=False)
    ty: "Term"
    body: "Term"
    lbr: int = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, ty: "Term", body: "Term"):
        _lam_name(self, name)
        _lam_ty(self, ty)
        _lam_body(self, body)
        lbr = body.lbr - 1
        _lam_lbr(self, lbr if lbr > ty.lbr else ty.lbr)

    def __repr__(self) -> str:
        return f"(fun {self.name} : {self.ty!r} => {self.body!r})"


_lam_name, _lam_ty, _lam_body, _lam_lbr = (
    Lam.name.__set__, Lam.ty.__set__, Lam.body.__set__, Lam.lbr.__set__)


@dataclass(frozen=True, slots=True, init=False)
class App:
    fn: "Term"
    arg: "Term"
    lbr: int = field(init=False, repr=False, compare=False)

    def __init__(self, fn: "Term", arg: "Term"):
        _app_fn(self, fn)
        _app_arg(self, arg)
        lbr = fn.lbr
        _app_lbr(self, lbr if lbr > arg.lbr else arg.lbr)

    def __repr__(self) -> str:
        return f"({self.fn!r} {self.arg!r})"


_app_fn, _app_arg, _app_lbr = App.fn.__set__, App.arg.__set__, App.lbr.__set__


@dataclass(frozen=True, slots=True, init=False)
class Pi:
    name: str = field(compare=False)
    ty: "Term"
    body: "Term"
    lbr: int = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, ty: "Term", body: "Term"):
        _pi_name(self, name)
        _pi_ty(self, ty)
        _pi_body(self, body)
        lbr = body.lbr - 1
        _pi_lbr(self, lbr if lbr > ty.lbr else ty.lbr)

    def __repr__(self) -> str:
        return f"(forall {self.name} : {self.ty!r}, {self.body!r})"


_pi_name, _pi_ty, _pi_body, _pi_lbr = (
    Pi.name.__set__, Pi.ty.__set__, Pi.body.__set__, Pi.lbr.__set__)


Term = Sort | Var | Const | Lam | App | Pi


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application `fn a1 ... an`."""
    t = fn
    for a in args:
        t = App(t, a)
    return t


def arrow(a: Term, b: Term) -> Pi:
    """Non-dependent product `a -> b` (b is shifted under the binder)."""
    return Pi("_", a, shift(b, 1))


# ---------------------------------------------------------------------------
# de Bruijn plumbing
# ---------------------------------------------------------------------------

def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index >= cutoff."""
    if t.lbr <= cutoff or by == 0:
        return t
    cls = type(t)
    if cls is Var:
        i = t.index + by
        return _VARS[i] if 0 <= i < _NVARS else Var(i)
    if cls is App:
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if cls is Pi or cls is Lam:
        return cls(t.name, shift(t.ty, by, cutoff), shift(t.body, by, cutoff + 1))
    return t


def substitute(body: Term, replacement: Term) -> Term:
    """Capture-avoiding substitution that discharges binder 0.

    Occurrences of Var(0) become `replacement`; higher indices are
    decremented, so the result lives one binder shallower.
    """
    return _instantiate(body, 0, [replacement], 1)


def _instantiate(t: Term, depth: int, rev: list[Term], k: int) -> Term:
    # Discharge the k binders innermost under `depth` in one pass, as
    # substituting the arguments one at a time would.  They are the last k
    # items of `rev`, the last applied first: Var(depth + j) becomes
    # rev[j - k], whatever comes before them in `rev`.
    if t.lbr <= depth:
        return t
    cls = type(t)
    if cls is Var:
        i = t.index - k
        if i < depth:
            return shift(rev[i - depth], depth)
        return _VARS[i] if i < _NVARS else Var(i)
    if cls is App:
        return App(_instantiate(t.fn, depth, rev, k), _instantiate(t.arg, depth, rev, k))
    if cls is Pi or cls is Lam:
        return cls(t.name, _instantiate(t.ty, depth, rev, k),
                   _instantiate(t.body, depth + 1, rev, k))
    return t


def unshift(t: Term) -> Term:
    """Strip one unused binder level (the term must not mention Var(0))."""
    return substitute(t, PROP)  # the placeholder is never reached


# ---------------------------------------------------------------------------
# Contexts and global environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class CtxEntry:
    name: str
    ty: Term

    def __init__(self, name: str, ty: Term):
        _entry_name(self, name)
        _entry_ty(self, ty)


@dataclass(frozen=True, slots=True, init=False)
class LocalContext:
    entries: tuple[CtxEntry, ...] = ()

    def __init__(self, entries: tuple[CtxEntry, ...] = ()):
        _ctx_entries(self, entries)

    def push(self, name: str, ty: Term) -> "LocalContext":
        return LocalContext(self.entries + (CtxEntry(name, ty),))

    def __len__(self) -> int:
        return len(self.entries)

    def type_of(self, index: int) -> Term:
        """Type of Var(index); 0 is the most recent binder.  The stored type
        lives at its own binding depth, so it is shifted into scope."""
        if index < 0 or index >= len(self.entries):
            raise UnboundName(f"unbound variable index {index}")
        return shift(self.entries[-1 - index].ty, index + 1)


_entry_name, _entry_ty, _ctx_entries = (
    CtxEntry.name.__set__, CtxEntry.ty.__set__, LocalContext.entries.__set__)


@dataclass(frozen=True)
class Decl:
    ty: Term
    body: Term | None = None
    # Argument count -> a kept unfolding of `ty` (see the module docstring).
    unfolded: dict[int, Term] = field(default_factory=dict, compare=False, repr=False)


class GlobalEnv:
    """Ordered global declarations.  Adding returns a new environment."""

    __slots__ = ("_decls",)

    def __init__(self):
        self._decls: dict[str, Decl] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def lookup(self, name: str) -> Decl:
        try:
            return self._decls[name]
        except KeyError:
            raise UnboundName(f"unknown constant '{name}'") from None

    def type_of(self, name: str) -> Term:
        return self.lookup(name).ty

    def body_of(self, name: str) -> Term | None:
        return self.lookup(name).body

    def is_definition(self, name: str) -> bool:
        d = self._decls.get(name)
        return d is not None and d.body is not None

    def _extended(self, name: str, decl: Decl) -> "GlobalEnv":
        if name in self._decls:
            raise KernelError(f"'{name}' is already declared")
        new = GlobalEnv()
        new._decls = {**self._decls, name: decl}
        return new

    def _check_type(self, ty: Term) -> None:
        """A declared type must have a sort as its type."""
        if not isinstance(whnf(self, infer_type(self, LocalContext(), ty)), Sort):
            raise TypeCheckError(f"declared type {ty!r} is not a type")

    def add_parameter(self, name: str, ty: Term) -> "GlobalEnv":
        self._check_type(ty)
        return self._extended(name, Decl(ty))

    def add_axiom(self, name: str, ty: Term) -> "GlobalEnv":
        return self.add_parameter(name, ty)  # an opaque constant, as a parameter

    def add_definition(self, name: str, body: Term, ty: Term | None = None) -> "GlobalEnv":
        inferred = infer_type(self, LocalContext(), body)
        if ty is None:
            ty = inferred
        else:
            self._check_type(ty)
            if not convertible(self, inferred, ty):
                raise TypeCheckError(
                    f"definition '{name}' has type {inferred!r}, expected {ty!r}")
        return self._extended(name, Decl(ty, body))


# ---------------------------------------------------------------------------
# Reduction and conversion
# ---------------------------------------------------------------------------

def whnf(env: GlobalEnv, t: Term, delta: bool = True) -> Term:
    """Weak head normal form: beta steps plus (if delta) head unfolding
    of definitions.  Parameters and axioms never unfold."""
    head = t
    while type(head) is App:
        head = head.fn
    cls = type(head)
    if cls is Const:
        decl = env._decls.get(head.name) if delta else None
        if decl is None or decl.body is None:
            return t
    elif cls is not Lam or head is t:
        return t
    # `head` reduces, against one list of the arguments, the last first: an
    # application head appends its own, a delta step replaces a definition
    # by its body, and a beta step peels every leading binder that has an
    # argument and instantiates them from the list's end, which it drops.
    args: list[Term] = []
    head = t
    while True:
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        cls = type(head)
        if cls is Const:
            decl = env._decls.get(head.name) if delta else None
            if decl is None or decl.body is None:
                break
            head = decl.body
        elif cls is Lam and args:
            n = len(args)
            k = 0
            while k < n and type(head) is Lam:
                head = head.body
                k += 1
            head = _instantiate(head, 0, args, k)
            del args[n - k:]
        else:
            break
    for a in reversed(args):
        head = App(head, a)
    return head


def normalize(env: GlobalEnv, t: Term) -> Term:
    """Full beta-delta normal form.  The checker never calls it; it is
    reached through `tables.table_key`, the tests' reference for table
    lookup, and the benchmark harness's normalization counter."""
    t = whnf(env, t)
    cls = type(t)
    if cls is App:
        return App(normalize(env, t.fn), normalize(env, t.arg))
    if cls is Pi or cls is Lam:
        return cls(t.name, normalize(env, t.ty), normalize(env, t.body))
    return t


def subsumes(env: GlobalEnv, have: Term, want: Term) -> bool:
    """Conversion plus the one sort inclusion the scripts need: any sort is
    accepted where Type is expected (so `eq A'` checks when A' : Set)."""
    if convertible(env, have, want):
        return True
    return type(whnf(env, have)) is Sort and whnf(env, want) == TYPE


def convertible(env: GlobalEnv, a: Term, b: Term) -> bool:
    """Equality modulo alpha, beta and delta (no eta), in any context.

    A loop, so that terms deep after unfolding cannot exhaust the stack.
    Pairs are compared in a recursion's order, each tested for equality
    before it is reduced: while a pair's first children differ, its second
    ones wait on a stack."""
    if a is b or a == b:  # alpha-equality is structural equality
        return True
    pending: list[tuple[Term, Term]] = []
    while True:
        a = whnf(env, a)
        b = whnf(env, b)
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is App:  # two pairs: a four-name assignment builds a tuple
            a1, b1 = a.fn, b.fn
            a, b = a.arg, b.arg
        elif cls is Pi or cls is Lam:
            a1, b1 = a.ty, b.ty
            a, b = a.body, b.body
        elif (cls is Const and a.name == b.name
              or cls is Var and a.index == b.index
              or cls is Sort and a.tag == b.tag):
            a1 = b1 = a = b  # equal leaves: nothing below them differs
        else:
            return False
        if not (a1 is b1 or a1 == b1):
            pending.append((a, b))
            a, b = a1, b1
            continue
        while a is b or a == b:
            if not pending:
                return True
            a, b = pending.pop()


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def infer_type(env: GlobalEnv, ctx: LocalContext, t: Term) -> Term:
    """Type of t, or TypeCheckError with a path to the failing subterm.

    Sorts: Prop : Type, Set : Type, Type : Type.  Products take the sort
    of the codomain, which makes Prop impredicative.  Each enclosing node
    prepends its own component to an error's `path` as the error passes.
    """
    cls = type(t)
    if cls is Var:
        i = t.index
        entries = ctx.entries
        if i >= len(entries) or i < 0:
            raise UnboundName(f"unbound variable index {i}")
        return shift(entries[-1 - i].ty, i + 1)  # as ctx.type_of(i)
    if cls is Const:
        return (env._decls.get(t.name) or env.lookup(t.name)).ty
    if cls is App:
        # Collect the arguments of h a1 .. an, the last first.  `ty` is the
        # pending type under the binders of args[i + 1:], the ones applied
        # since it was last instantiated, instantiated only where an open
        # domain, a reduction or the result needs them.
        args: list[Term] = []
        head = t
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        try:
            ty = infer_type(env, ctx, head)
        except TypeCheckError as e:
            e.path = ("fn",) * len(args) + e.path
            raise
        for i in range(len(args) - 1, -1, -1):
            # ("fn",) * i leads from t to the App applying args[i].
            if type(ty) is not Pi:
                k = len(args) - i - 1
                if type(head) is Const:  # `ty` is still its type's, under k binders
                    unfolded = env._decls[head.name].unfolded
                    kept = unfolded.get(k) or unfolded.setdefault(k, whnf(env, ty))
                    if type(kept) is Pi:
                        ty = kept
                if type(ty) is not Pi:
                    if k:
                        ty = _instantiate(ty, 0, args, k)
                        del args[i + 1:]
                    ty = whnf(env, ty)
                    if type(ty) is not Pi:
                        raise TypeCheckError(
                            f"applied term has non-function type {ty!r}",
                            ("fn",) * (i + 1))
                    head = None  # `ty` is built from arguments from here on
            try:
                arg_ty = infer_type(env, ctx, args[i])
            except TypeCheckError as e:
                e.path = ("fn",) * i + ("arg",) + e.path
                raise
            dom = ty.ty
            k = len(args) - i - 1
            if k and dom.lbr:
                dom = _instantiate(dom, 0, args, k)
            if not (arg_ty is dom or arg_ty == dom or subsumes(env, arg_ty, dom)):
                raise TypeCheckError(
                    f"argument type {arg_ty!r} does not match domain {dom!r}",
                    ("fn",) * i + ("arg",))
            ty = ty.body
        return _instantiate(ty, 0, args, len(args)) if args else ty
    if cls is Pi:
        ty, body = t.ty, t.body
        try:
            s1 = infer_type(env, ctx, ty)
        except TypeCheckError as e:
            e.path = ("domain",) + e.path
            raise
        if type(s1) is not Sort and type(whnf(env, s1)) is not Sort:
            raise TypeCheckError(
                f"product domain {ty!r} is not a type", ("domain",))
        try:
            s2 = infer_type(env, ctx.push(t.name, ty), body)
        except TypeCheckError as e:
            e.path = ("codomain",) + e.path
            raise
        if type(s2) is not Sort and type(s2 := whnf(env, s2)) is not Sort:
            raise TypeCheckError(
                f"product codomain {body!r} is not a type", ("codomain",))
        return s2
    if cls is Lam:
        x, ty = t.name, t.ty
        try:
            s = infer_type(env, ctx, ty)
        except TypeCheckError as e:
            e.path = ("binder-type",) + e.path
            raise
        if type(s) is not Sort and type(whnf(env, s)) is not Sort:
            raise TypeCheckError(
                f"binder type {ty!r} is not a type", ("binder-type",))
        try:
            body_ty = infer_type(env, ctx.push(x, ty), t.body)
        except TypeCheckError as e:
            e.path = ("body",) + e.path
            raise
        return Pi(x, ty, body_ty)
    if cls is Sort:
        return TYPE
    raise TypeCheckError(f"unrecognized term {t!r}")


def check_proof_report(env: GlobalEnv, ctx: LocalContext, proof: Term,
                       statement: Term) -> tuple[bool, str | None]:
    """check_proof plus a diagnostic explaining a False verdict."""
    try:
        ty = infer_type(env, ctx, proof)
    except TypeCheckError as e:
        return False, f"proof is ill-typed: {e}"
    if convertible(env, ty, statement):
        return True, None
    return False, f"proof has type {ty!r}, statement is {statement!r}"


def check_proof(env: GlobalEnv, ctx: LocalContext, proof: Term, statement: Term) -> bool:
    """True iff the proof's inferred type is convertible with statement."""
    return check_proof_report(env, ctx, proof, statement)[0]


# ---------------------------------------------------------------------------
# Prelude
# ---------------------------------------------------------------------------

FALSE = "False"
EQ = "eq"
EQ_REFL = "eq_refl"
EQ_IND = "eq_ind"
IMPL = "impl"
ALL = "all"
RESPECTFUL = "respectful"
INV = "inv"
IMPL_RESPECTFUL = "impl_respectful"


def prelude_env() -> GlobalEnv:
    """Environment holding the initial constants every script starts from."""
    env = GlobalEnv()

    env = env.add_parameter(FALSE, PROP)

    # eq : forall A : Type, A -> A -> Prop
    env = env.add_parameter(
        EQ, Pi("A", TYPE, Pi("x", Var(0), Pi("y", Var(1), PROP))))

    # eq_refl : forall (A : Type) (x : A), eq A x x
    env = env.add_parameter(
        EQ_REFL,
        Pi("A", TYPE, Pi("x", Var(0), app(Const(EQ), Var(1), Var(0), Var(0)))))

    # eq_ind : forall (A : Type) (x : A) (P : A -> Prop),
    #          P x -> forall y : A, eq A x y -> P y
    env = env.add_parameter(
        EQ_IND,
        Pi("A", TYPE,
           Pi("x", Var(0),
              Pi("P", Pi("_", Var(1), PROP),
                 Pi("px", App(Var(0), Var(1)),
                    Pi("y", Var(3),
                       Pi("e", app(Const(EQ), Var(4), Var(3), Var(0)),
                          App(Var(3), Var(1)))))))))

    # impl := fun A B : Prop => A -> B
    env = env.add_definition(
        IMPL, Lam("A", PROP, Lam("B", PROP, Pi("_", Var(1), Var(1)))))

    # all := fun (A : Type) (P : A -> Prop) => forall x : A, P x
    env = env.add_definition(
        ALL,
        Lam("A", TYPE,
            Lam("P", Pi("_", Var(0), PROP),
                Pi("x", Var(1), App(Var(1), Var(0))))))

    # respectful := fun X Y X' Y' R R' f g =>
    #   forall (x : X) (y : Y), R x y -> R' (f x) (g y)
    env = env.add_definition(
        RESPECTFUL,
        Lam("X", TYPE,
            Lam("Y", TYPE,
                Lam("X'", TYPE,
                    Lam("Y'", TYPE,
                        Lam("R", Pi("_", Var(3), Pi("_", Var(3), PROP)),
                            Lam("R'", Pi("_", Var(2), Pi("_", Var(2), PROP)),
                                Lam("f", Pi("_", Var(5), Var(4)),
                                    Lam("g", Pi("_", Var(5), Var(4)),
                                        Pi("x", Var(7),
                                           Pi("y", Var(7),
                                              Pi("h", app(Var(5), Var(1), Var(0)),
                                                 app(Var(5),
                                                     App(Var(4), Var(2)),
                                                     App(Var(3), Var(1)))))))))))))))

    # inv := fun (X Y : Type) (R : X -> Y -> Prop) (y : Y) (x : X) => R x y
    env = env.add_definition(
        INV,
        Lam("X", TYPE,
            Lam("Y", TYPE,
                Lam("R", Pi("_", Var(1), Pi("_", Var(1), PROP)),
                    Lam("y", Var(1),
                        Lam("x", Var(3),
                            app(Var(2), Var(0), Var(1))))))))

    # impl_respectful : (impl⁻¹ ##> impl ##> impl) impl impl, unfolded, :=
    # fun a b (h1 : b -> a) c d (h2 : c -> d) (p : a -> c) (x : b) => h2 (p (h1 x))
    env = env.add_definition(
        IMPL_RESPECTFUL,
        Lam("a", PROP, Lam("b", PROP, Lam("h1", Pi("_", Var(0), Var(2)), Lam(
            "c", PROP, Lam("d", PROP, Lam("h2", Pi("_", Var(1), Var(1)), Lam(
                "p", Pi("_", Var(5), Var(3)), Lam("x", Var(5), App(
                    Var(2), App(Var(1), App(Var(5), Var(0)))))))))))))

    return env
