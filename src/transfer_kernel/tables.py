"""Declaration tables: surjections, transfer lemmas and relation entries.

Each store is the tuple of its entries in declaration order; an entry's
first two fields are its pair.  A store holds one entry per pair up to
conversion: inserting a pair that a lookup already finds is an error and
never overwrites, so a relation declared through a definitional alias and
one declared through its unfolding are the same entry.  Declaration
functions validate the shape of the lemma against the kernel and return a
new table value, leaving the old one untouched.

Insertion and lookup decide pair equality the same way, by `_find`, and no
store has another.  It takes the query's weak head normal form, picks the
stored pairs whose weak head normal forms have the same head shape, and
accepts the pair each of whose components the query is convertible with.
A pair with a λ side also carries `_lam_keys`, the shapes of each λ's
binder type and body, and `_find` skips a stored pair whose keys differ
from the query's before converting: `impl`, `all nat` and `all N` unfold to
λs and share one bucket, which the keys split.  The keys are taken after
reduction only: `whnf_shape`, which `relation_entries` tests before
reducing, stays on the head alone, as refining it for every side the engine
meets cost more than it saved.  Nothing is normalized, so a pair that names
a large term through definitions costs what its weak head normal form
costs, not its normal form.  The engine's lookup, `relation_entries`, tests
the shape before it reduces: `whnf_shape` gives the head shape of a term's
weak head normal form, mostly without building it, and a query whose direct
and flipped shapes have no stored pairs is rejected unreduced.  A query
spelled `==` like a stored pair of the bucket its shapes select is
answered by that pair's entry, unreduced: it is the entry `_find` would
return, as a store holds at most one pair per conversion class.
`whnf_shape` needs no fuel of its own, as it only unfolds head definitions,
which are acyclic, and hands every substitution to `whnf`.  Under
`Type : Type` a well-typed term need not have a normal form, and on such a
term `whnf` and `convertible` are not bounded; only a reduction budget in those
two (ROADMAP item 1a-i) would bound them, and with them all of this
module's reduction.  A table value gets entries only by insertion:
`DeclTables()` is empty, and `_insert` gives the value it grows its
parent's shape indexes with the new entry added, so `_find` only reads
them.
Three things are built on first use and kept on the table value they
derive from, so each is computed at most once per table state, and a value
from `_insert` starts without any: the inverted form of each flipped
relation entry; the `respectful_view` of each relation in the relator tree
of an entry that `relation_entries` yields, direct or inverted, which
registers that relation; and whether two registered relations are
convertible, as the engine asks (`relation_view`, `relations_convertible`).
A table value is used with the environment it was built in, or an
extension of it, and that makes the memo exact.  A registered relation
mentions only constants that were declared when its entry was inserted or
inverted, and an extension keeps their declarations, so the relation's view
and its comparisons are the same in it.  The memo holds each relation it
keys by id, so no id is reused while it lives, and its size is bounded by
the state's relations, not by the queries it serves.  A relation it did not
register, such as the engine's root `impl` or a hypothesis of a caller's
context, is viewed and converted afresh.
Generated entries cite their proofs by name: prefill's the prelude's
`impl_respectful`, an encoding's instances of `LIBRARY`.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from typing import NamedTuple

from .kernel import (
    ALL, EQ, IMPL, IMPL_RESPECTFUL, INV, PROP, RESPECTFUL,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Sort, Term, TypeCheckError,
    Var, app, arrow, convertible, infer_type, normalize, prelude_env, shift,
    unshift, whnf,
)
from .surface import elaborate, parse_script, print_term
from .terms import (
    inv_view, occurs_free, relation_types, respectful_view, spine,
)


class TableError(Exception):
    pass


class DuplicateEntry(TableError):
    pass


class ShapeError(TableError):
    pass


class SynthesisError(Exception):
    """A proof built by the library or an engine failed to kernel-check
    (internal bug)."""


class SurjectionEntry(NamedTuple):
    domain: Term        # A
    codomain: Term      # A'
    fn: Term            # f : A -> A'
    inverse: Term       # g : A' -> A
    proof: Term         # of  forall x' : A', f (g x') = x'


class TransferEntryV1(NamedTuple):
    source_rel: Term
    target_rel: Term
    arity: int
    transfer_fn: Term
    proof: Term


class RelationEntryV2(NamedTuple):
    lhs: Term
    rhs: Term
    relation: Term
    proof: Term


Key = tuple[Term, Term]
Entry = SurjectionEntry | TransferEntryV1 | RelationEntryV2
# What `convertible` compares first on a weak head normal form: the spine
# head's constructor and its name, index or tag, and the argument count.
Shape = tuple[type, object, int]
# The shapes of a λ's binder type and body, per side of a pair (`_lam_keys`).
LamKeys = tuple[tuple[Shape, Shape] | None, tuple[Shape, Shape] | None]


class DeclTables:
    __slots__ = ("surjections", "transfers_v1", "relations_v2",
                 "_index", "_inverted", "_relations", "_compared")

    def __init__(self):
        # Each store is its entries in declaration order, never mutated.
        self.surjections: tuple[SurjectionEntry, ...] = ()
        self.transfers_v1: tuple[TransferEntryV1, ...] = ()
        self.relations_v2: tuple[RelationEntryV2, ...] = ()
        # Store name -> shapes -> (whnf of pair, its `_lam_keys`, entry) in
        # store order, grown with the store by `_insert`; never changed once
        # here.
        self._index: dict[str, dict[tuple[Shape, Shape], list[
            tuple[Key, LamKeys | None, Entry]]]] = {
            "surjections": {}, "transfers_v1": {}, "relations_v2": {}}
        # Pair of a relation entry -> its inverted form (`invert_entry`).
        self._inverted: dict[Key, RelationEntryV2] = {}
        # id of each relation in the relator tree of an entry that
        # `relation_entries` yielded -> (that relation, its
        # `respectful_view`); and (id, id) of two of them -> whether they
        # are convertible (`relations_convertible`).
        self._relations: dict[int, tuple[Term, tuple[Term, ...] | None]] = {}
        self._compared: dict[tuple[int, int], bool] = {}


def table_key(env: GlobalEnv, a: Term, b: Term) -> Key:
    """The normal forms of a pair.  No store uses it: it is the reference
    the tests hold `_find` to, since for pairs that have normal forms two
    pairs are convertible exactly when their `table_key`s are equal."""
    return (normalize(env, a), normalize(env, b))


def _resolve(env: GlobalEnv, name: str, role: str) -> Term:
    if name not in env:
        raise TableError(f"{role} '{name}' is not declared")
    return Const(name)


def _function_type(env: GlobalEnv, t: Term, what: str) -> tuple[Term, Term]:
    ty = whnf(env, infer_type(env, LocalContext(), t))
    if not isinstance(ty, Pi):
        raise ShapeError(f"{what} {print_term(t, env)} is not a function")
    if occurs_free(ty.body, 0):
        raise ShapeError(f"{what} {print_term(t, env)} has a dependent type")
    return ty.ty, unshift(ty.body)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

def surjection_statement(env: GlobalEnv, fn: Term, inverse: Term,
                         codomain: Term) -> Term:
    """`forall x' : A', eq A' (f (g x')) x'` for f, g between A and A'."""
    cod = shift(codomain, 1)
    return Pi("x'", codomain,
              app(Const(EQ), cod,
                  App(shift(fn, 1), App(shift(inverse, 1), Var(0))),
                  Var(0)))


def declare_surjection(tables: DeclTables, env: GlobalEnv, fn_name: str,
                       inverse_name: str, proof_name: str) -> DeclTables:
    fn = _resolve(env, fn_name, "surjection function")
    inverse = _resolve(env, inverse_name, "right inverse")
    proof = _resolve(env, proof_name, "surjectivity proof")
    dom, cod = _function_type(env, fn, "surjection function")
    dom2, cod2 = _function_type(env, inverse, "right inverse")
    if not (convertible(env, dom2, cod) and convertible(env, cod2, dom)):
        raise ShapeError(
            f"'{inverse_name}' does not map back from "
            f"{print_term(cod, env)} to {print_term(dom, env)}")
    expected = surjection_statement(env, fn, inverse, cod)
    actual = env.type_of(proof_name)
    if not convertible(env, actual, expected):
        raise ShapeError(
            f"'{proof_name}' proves {print_term(actual, env)}, expected "
            f"{print_term(expected, env)}")
    return _insert(tables, "surjections", env,
                   SurjectionEntry(dom, cod, fn, inverse, proof), "a surjection")


def _v1_shape(env: GlobalEnv, stmt: Term) -> tuple[Term, Term, int, Term]:
    """Split `forall x1..xn : A, R x1..xn -> R' (f x1)..(f xn)` into
    (R, R', n, f).  Raises ShapeError with the first deviating position."""
    binders: list[Term] = []
    body = whnf(env, stmt, delta=False)
    while isinstance(body, Pi):
        binders.append(body.ty)
        body = whnf(env, body.body, delta=False)
    if len(binders) < 2:
        raise ShapeError("transfer lemma must quantify over at least one "
                         "variable and one hypothesis")
    n = len(binders) - 1
    a = binders[0]
    for i, ty in enumerate(binders[1:n], start=2):
        if ty != a:
            raise ShapeError(f"binder {i} has type {print_term(ty, env)}, "
                             f"expected {print_term(a, env)}")
    hyp = binders[n]
    rel, args = spine(whnf(env, hyp, delta=False))
    if len(args) != n:
        raise ShapeError(f"hypothesis applies a relation to {len(args)} "
                         f"arguments, expected {n}")
    if rel.lbr > 0:
        raise ShapeError("source relation may not mention the quantified "
                         "variables")
    for j, arg in enumerate(args, start=1):
        if arg != Var(n - j):
            raise ShapeError(f"hypothesis argument {j} is not the "
                             f"quantified variable x{j}")
    rel2, args2 = spine(whnf(env, body, delta=False))
    if len(args2) != n:
        raise ShapeError(f"conclusion applies a relation to {len(args2)} "
                         f"arguments, expected {n}")
    if rel2.lbr > 0:
        raise ShapeError("target relation may not mention the quantified "
                         "variables")
    fn: Term | None = None
    for j, arg in enumerate(args2, start=1):
        expected_var = Var(n + 1 - j)
        if not isinstance(arg, App) or arg.arg != expected_var:
            raise ShapeError(f"conclusion argument {j} is not the transfer "
                             f"function applied to x{j}")
        head = arg.fn
        if head.lbr > 0:
            raise ShapeError("transfer function may not mention the "
                             "quantified variables")
        if fn is None:
            fn = head
        elif fn != head:
            raise ShapeError(f"conclusion argument {j} uses a different "
                             "transfer function than argument 1")
    assert fn is not None
    return rel, rel2, n, fn


def declare_transfer_v1(tables: DeclTables, env: GlobalEnv,
                        lemma_name: str) -> DeclTables:
    proof = _resolve(env, lemma_name, "transfer lemma")
    rel, rel2, n, fn = _v1_shape(env, env.type_of(lemma_name))
    return _insert(tables, "transfers_v1", env,
                   TransferEntryV1(rel, rel2, n, fn, proof), "a transfer lemma")


def declare_relation_v2(tables: DeclTables, env: GlobalEnv,
                        lemma_name: str) -> DeclTables:
    proof = _resolve(env, lemma_name, "relation lemma")
    stmt = whnf(env, env.type_of(lemma_name), delta=False)
    if not (isinstance(stmt, App) and isinstance(stmt.fn, App)):
        raise ShapeError(
            f"'{lemma_name}' is not a binary relation applied to two terms")
    rel, lhs, rhs = stmt.fn.fn, stmt.fn.arg, stmt.arg
    if whnf(env, infer_type(env, LocalContext(), stmt)) != PROP:
        raise ShapeError(f"'{lemma_name}' does not state a proposition")
    try:
        relation_types(env, LocalContext(), rel)
    except TypeCheckError:
        raise ShapeError(f"{print_term(rel, env)} is not a binary relation"
                         ) from None
    return _insert(tables, "relations_v2", env,
                   RelationEntryV2(lhs, rhs, rel, proof), "a relation entry")


def _insert(tables: DeclTables, store: str, env: GlobalEnv, entry: Entry,
            what: str) -> DeclTables:
    """A new table value with `entry` appended to `store`; an entry whose
    pair `_find` already finds is a DuplicateEntry.  The new value inherits
    its parent's shape indexes: the other stores' as they are, and
    `store`'s as a copy with the entry added to its bucket.  The parent's
    are never changed."""
    a, b = entry[0], entry[1]
    heads = whnf(env, a), whnf(env, b)
    if _find(tables, store, env, *heads) is not None:
        raise DuplicateEntry(f"{what} for ({print_term(a, env)}, "
                             f"{print_term(b, env)}) is already declared")
    new = DeclTables()
    new.surjections, new.transfers_v1, new.relations_v2 = (
        tables.surjections, tables.transfers_v1, tables.relations_v2)
    setattr(new, store, getattr(tables, store) + (entry,))
    index = dict(tables._index[store])
    shapes = _shape(heads[0]), _shape(heads[1])
    index[shapes] = [*index.get(shapes, ()), (heads, _lam_keys(env, *heads), entry)]
    new._index = {**tables._index, store: index}
    return new


# ---------------------------------------------------------------------------
# Lookups
# ---------------------------------------------------------------------------

def _shape(t: Term) -> Shape:
    n = 0
    while isinstance(t, App):
        t = t.fn
        n += 1
    if isinstance(t, Const):
        return Const, t.name, n
    if isinstance(t, Var):
        return Var, t.index, n
    if isinstance(t, Sort):
        return Sort, t.tag, n
    return type(t), None, n


def whnf_shape(env: GlobalEnv, t: Term) -> Shape:
    """`_shape(whnf(env, t))`, mostly without building the weak head
    normal form.  It walks the spine, counting arguments, unfolds a head
    definition in place, and peels a λ head's binders against arguments
    without substituting, counting them in `peeled`.  A head variable
    below `peeled` is one of those binders, whose argument decides the
    head (a definition's body is closed, so each of its variables is one),
    and that term goes to `whnf`.  It needs no fuel of its own: it only
    descends into subterms and unfolds head definitions, which are
    acyclic, and every substitution is left to `whnf`."""
    n = peeled = 0
    head = t
    while True:
        cls = type(head)
        if cls is App:
            head = head.fn
            n += 1
        elif cls is Lam and n:
            head = head.body
            n -= 1
            peeled += 1
        elif cls is Const:
            if not env.is_definition(head.name):
                return Const, head.name, n
            head = env.body_of(head.name)
        elif cls is Var:
            if head.index < peeled:
                return _shape(whnf(env, t))
            return Var, head.index - peeled, n
        elif cls is Sort:
            return Sort, head.tag, n
        else:  # a Pi, or a λ without arguments
            return cls, None, n


def _lam_keys(env: GlobalEnv, a: Term, b: Term) -> LamKeys | None:
    """For a pair in weak head normal form with a λ side, the `whnf_shape`s
    of each λ side's binder type and body (None for a side that is no λ);
    None for a pair without one."""
    ka = (whnf_shape(env, a.ty), whnf_shape(env, a.body)) if type(a) is Lam else None
    kb = (whnf_shape(env, b.ty), whnf_shape(env, b.body)) if type(b) is Lam else None
    return None if ka is None and kb is None else (ka, kb)


def _find(tables: DeclTables, store: str, env: GlobalEnv, a: Term,
          b: Term) -> Entry | None:
    """The entry of `store` whose pair is convertible with (a, b), or
    None; a and b are in weak head normal form.  `_insert` rejects a pair
    convertible with a stored one, and conversion is transitive, so at
    most one stored pair is convertible with (a, b).  Within the bucket of
    the pair's head shapes, a stored pair whose `_lam_keys` differ from the
    query's is skipped unconverted: without η two λs convert only if their
    binder types and their bodies do, which then have equal shapes, so
    `impl`, `all nat` and `all N`, all λs, are told apart by shape."""
    keys = None  # the query's, computed at the bucket's first λ pair
    for heads, lam_keys, entry in tables._index[store].get(
            (_shape(a), _shape(b)), ()):
        if lam_keys is not None:
            keys = keys or _lam_keys(env, a, b)
            if lam_keys != keys:
                continue
        if convertible(env, a, heads[0]) and convertible(env, b, heads[1]):
            return entry
    return None


def lookup_surjection(tables: DeclTables, env: GlobalEnv,
                      domain: Term, codomain: Term) -> SurjectionEntry | None:
    return _find(tables, "surjections", env, whnf(env, domain),
                 whnf(env, codomain))


def lookup_transfer_v1(tables: DeclTables, env: GlobalEnv,
                       source: Term, target: Term) -> TransferEntryV1 | None:
    return _find(tables, "transfers_v1", env, whnf(env, source),
                 whnf(env, target))


def relation_entries(tables: DeclTables, env: GlobalEnv, lhs: Term,
                     rhs: Term, shapes: tuple[Shape, Shape] | None = None
                     ) -> Iterator[tuple[RelationEntryV2, bool]]:
    """The direct entry for (lhs, rhs), then the inverted (rhs, lhs) entry,
    each with its via_inverse flag.  The sides' head shapes (`whnf_shape`,
    or `shapes` if the caller has them) select the direct key's bucket and
    the flipped key's, and a query with neither is rejected unreduced.  In
    a bucket, a stored pair spelled `==` like the query is its entry, the
    one `_find` would return, as a store holds one pair per conversion
    class; only when none is do the sides get reduced, once, and looked up
    by `_find`.  Lazy: the flipped key is looked up only if the caller
    asks for a second entry, and its entry is inverted once per table
    state, then reused.  Each entry yielded has the relations of its
    relator tree registered on the state (`relation_view`)."""
    index = tables._index["relations_v2"]
    if shapes is None:
        shapes = whnf_shape(env, lhs), whnf_shape(env, rhs)
    direct, flipped = index.get(shapes), index.get(shapes[::-1])
    if not (direct or flipped):
        return
    relations = tables._relations
    heads = None  # the sides' weak head normal forms, once a lookup needs them
    if direct:
        entry = _spelled(direct, lhs, rhs)
        if entry is None:
            heads = whnf(env, lhs), whnf(env, rhs)
            entry = _find(tables, "relations_v2", env, *heads)
        if entry is not None:
            if id(entry.relation) not in relations:
                _register(relations, env, entry.relation)
            yield entry, False
    if flipped:
        entry = _spelled(flipped, rhs, lhs)
        if entry is None:
            if heads is None:
                heads = whnf(env, lhs), whnf(env, rhs)
            entry = _find(tables, "relations_v2", env, heads[1], heads[0])
        if entry is not None:
            key = entry.lhs, entry.rhs
            inverted = tables._inverted.get(key)
            if inverted is None:
                inverted = invert_entry(env, entry)
                _register(relations, env, inverted.relation)
                tables._inverted[key] = inverted
            yield inverted, True


def _spelled(bucket: list[tuple[Key, LamKeys | None, Entry]], a: Term,
             b: Term) -> Entry | None:
    """The entry of a shape bucket whose pair as declared is `==` (a, b),
    or None."""
    for _, _, entry in bucket:
        if entry[0] == a and entry[1] == b:
            return entry
    return None


def _register(relations: dict, env: GlobalEnv, rel: Term) -> None:
    """Register `rel` with its `respectful_view`, after that view's two
    relations, recursively, so that a relation is registered only once its
    whole relator tree is."""
    view = respectful_view(env, rel)
    if view is not None:
        _register(relations, env, view[4])
        _register(relations, env, view[5])
    relations[id(rel)] = rel, view


def relation_view(tables: DeclTables, env: GlobalEnv, rel: Term
                  ) -> tuple[Term, ...] | None:
    """`respectful_view(env, rel)`, read from the state if it registered
    `rel`.  The two relations of a registered view are registered too, so
    a walk down a registered relator tree reads each level from the
    state."""
    known = tables._relations.get(id(rel))
    return respectful_view(env, rel) if known is None else known[1]


def relations_convertible(tables: DeclTables, env: GlobalEnv, a: Term,
                          b: Term) -> bool:
    """`convertible(env, a, b)`, computed once per table state for two
    relations that it registered; any other pair is converted afresh."""
    relations = tables._relations
    if id(a) in relations and id(b) in relations:
        key = id(a), id(b)
        known = tables._compared.get(key)
        if known is None:
            known = tables._compared[key] = convertible(env, a, b)
        return known
    return convertible(env, a, b)


def lookup_relation_v2(tables: DeclTables, env: GlobalEnv, lhs: Term,
                       rhs: Term) -> tuple[RelationEntryV2, bool] | None:
    """First of `relation_entries`: (entry, via_inverse), or None.  An
    inverted entry's proof is not kernel-checked (see `invert_entry`)."""
    return next(relation_entries(tables, env, lhs, rhs), None)


# ---------------------------------------------------------------------------
# Entry inversion
# ---------------------------------------------------------------------------

def _invert_component(env: GlobalEnv, rel: Term) -> Term:
    """R -> R⁻¹, unwrapping an existing inversion instead of double-wrapping."""
    unwrapped = inv_view(env, rel)
    if unwrapped is not None:
        return unwrapped[2]
    x, y = relation_types(env, LocalContext(), rel)
    return app(Const(INV), x, y, rel)


def invert_entry(env: GlobalEnv, entry: RelationEntryV2) -> RelationEntryV2:
    """Flip a stored entry: operands swap sides and each component of the
    relator chain is inverted.  The proof is the old one with the paired
    binders swapped, which is definitional because `inv R y x` unfolds to
    `R x y`.  It is not kernel-checked here: whoever trusts a result built
    from it checks that result (admission, `diagnostics`, or the caller).
    `relation_entries` calls it once per flipped key per table state and
    keeps the result on that state."""
    levels = []  # respectful_view of each relator-arrow level
    rel = entry.relation
    while (view := respectful_view(env, rel)) is not None:
        levels.append(view)
        rel = view[5]
    n = len(levels)
    new_rel = _invert_component(env, rel)
    proof = app(shift(entry.proof, 3 * n),
                *[Var(3 * (n - i) + k) for i in range(1, n + 1)
                  for k in (1, 2, 0)])
    for x, y, x2, y2, r, _ in reversed(levels):
        new_rel = app(Const(RESPECTFUL), y, x, y2, x2,
                      _invert_component(env, r), new_rel)
        # Binder order per level: y, x, then a proof of R x y (the
        # unfolding of the flipped statement's `R⁻¹ y x`).
        proof = Lam("y", y, Lam("x", shift(x, 1), Lam(
            "h", app(shift(r, 2), Var(0), Var(1)), proof)))
    return RelationEntryV2(entry.rhs, entry.lhs, new_rel, proof)


# ---------------------------------------------------------------------------
# Library and relational encoding of a surjection
# ---------------------------------------------------------------------------

# The transfer rules of Huffman & Kunčar ("Lifting and Transfer", CPP 2013)
# for a relation R: ∀ over a right-total R, reverse ∀ over a left-total R
# and `=` over a right-unique R, each stated unfolded; then the totality
# and right-uniqueness of the graph of f.
LIBRARY = """
Definition surj_all (A A' : Type) (R : A → A' → Prop) (g : A' → A)
  (s : ∀ x' : A', R (g x') x') (P : A → Prop) (P' : A' → Prop)
  (h : ∀ (x : A) (x' : A'), R x x' → P x → P' x') (hp : ∀ x : A, P x)
  (x' : A') := h (g x') x' (s x') (hp (g x')).
Definition tot_all (A A' : Type) (R : A → A' → Prop) (f : A → A')
  (t : ∀ x : A, R x (f x)) (P' : A' → Prop) (P : A → Prop)
  (h : ∀ (x' : A') (x : A), R⁻¹ x' x → P' x' → P x)
  (hp' : ∀ x' : A', P' x') (x : A) := h (f x) x (t x) (hp' (f x)).
Definition func_eq (A A' : Type) (R : A → A' → Prop)
  (u : ∀ (x : A) (x' y' : A'), R x x' → R x y' → eq A' x' y')
  (x : A) (x' : A') (h : R x x') (y : A) (y' : A') (h' : R y y')
  (e : eq A x y) := u y x' y' (eq_ind A x (fun z : A => R z x') h y e) h'.
Definition graph_tot (A A' : Type) (f : A → A') (x : A) := eq_refl A' (f x).
Definition graph_func (A A' : Type) (f : A → A') (x : A) (x' y' : A')
  (h : eq A' (f x) x') (h' : eq A' (f x) y') :=
  eq_ind A' (f x) (fun w : A' => eq A' w y') h' x' h.
"""


def _with_library(env: GlobalEnv) -> GlobalEnv:
    for cmd in parse_script(LIBRARY):
        env = env.add_definition(cmd.name, elaborate(env, cmd.body))
    return env


@cache
def library_env() -> GlobalEnv:
    """`prelude_env()` plus the elaborated and checked LIBRARY, built once
    per process.  Environments are immutable, so every caller shares it."""
    return _with_library(prelude_env())


def _forall_chain(x: Term, y: Term, rel: Term) -> Term:
    """`(rel ##> impl) ##> impl` over predicates on x and y."""
    return app(Const(RESPECTFUL), arrow(x, PROP), arrow(y, PROP), PROP, PROP,
               app(Const(RESPECTFUL), x, y, PROP, PROP, rel, Const(IMPL)),
               Const(IMPL))


def surjection_to_relational(
        tables: DeclTables, env: GlobalEnv,
        entry: SurjectionEntry) -> tuple[DeclTables, GlobalEnv]:
    """Encode a surjection as relation entries.

    Defines `R x x' := f x = x'` and proves that universal quantification,
    reverse quantification and equality transport across R, inserting the
    three entries keyed (all A, all A'), (all A', all A) and (eq A, eq A').
    Each proof is a library lemma applied to R, admitted as a definition
    with its inferred type, which is then checked against the entry's
    statement; the entry cites the definition by name.  An environment
    without the library is extended with it first.
    """
    a, a2, fn, inv_fn, surj = (entry.domain, entry.codomain, entry.fn,
                               entry.inverse, entry.proof)
    if "surj_all" not in env:
        env = _with_library(env)
    base = fn.name if isinstance(fn, Const) else "surj"
    rel_name = _fresh_name(env, f"{base}_rel")
    rel_body = Lam("x", a,
                   Lam("x'", shift(a2, 1),
                       app(Const(EQ), shift(a2, 2),
                           App(shift(fn, 2), Var(1)), Var(0))))
    env = env.add_definition(rel_name, rel_body)
    rel = Const(rel_name)
    all_c, eq_c = Const(ALL), Const(EQ)
    generated = (
        ("_surj", app(Const("surj_all"), a, a2, rel, inv_fn, surj),
         App(all_c, a), App(all_c, a2), _forall_chain(a, a2, rel)),
        ("_tot", app(Const("tot_all"), a, a2, rel, fn,
                     app(Const("graph_tot"), a, a2, fn)),
         App(all_c, a2), App(all_c, a),
         _forall_chain(a2, a, app(Const(INV), a, a2, rel))),
        ("_func", app(Const("func_eq"), a, a2, rel,
                      app(Const("graph_func"), a, a2, fn)),
         App(eq_c, a), App(eq_c, a2),
         app(Const(RESPECTFUL), a, a2, arrow(a, PROP), arrow(a2, PROP), rel,
             app(Const(RESPECTFUL), a, a2, PROP, PROP, rel, Const(IMPL)))),
    )
    for suffix, proof, lhs, rhs, relation in generated:
        name = _fresh_name(env, rel_name + suffix)
        stmt = app(relation, lhs, rhs)
        try:
            env = env.add_definition(name, proof)
            if not convertible(env, env.type_of(name), stmt):
                raise TypeCheckError(f"it does not prove {stmt!r}")
        except TypeCheckError as e:
            raise SynthesisError(f"generated '{name}' failed to check: {e}") \
                from None
        # An existing entry (user-declared, or the flipped twin of an
        # identity surjection) keeps priority: one lookup, no overwrite.
        try:
            tables = _insert(tables, "relations_v2", env,
                             RelationEntryV2(lhs, rhs, relation, Const(name)),
                             "a relation entry")
        except DuplicateEntry:
            pass
    return tables, env


def _fresh_name(env: GlobalEnv, base: str) -> str:
    name, n = base, 0
    while name in env:
        n += 1
        name = f"{base}{n}"
    return name


# ---------------------------------------------------------------------------
# Pre-filled entries
# ---------------------------------------------------------------------------

def prefill_core(tables: DeclTables, env: GlobalEnv) -> DeclTables:
    """Insert the (impl, impl) entry at `impl⁻¹ ##> impl ##> impl`, proved
    by the prelude's `impl_respectful`.

    Its unfolded statement is
    `forall a b, (b -> a) -> forall c d, (c -> d) -> (a -> c) -> b -> d`.
    """
    impl_c = Const(IMPL)
    prop2 = arrow(PROP, PROP)
    chain = app(Const(RESPECTFUL), PROP, PROP, prop2, prop2,
                app(Const(INV), PROP, PROP, impl_c),
                app(Const(RESPECTFUL), PROP, PROP, PROP, PROP, impl_c, impl_c))
    return _insert(tables, "relations_v2", env, RelationEntryV2(
        impl_c, impl_c, chain, Const(IMPL_RESPECTFUL)), "a relation entry")

