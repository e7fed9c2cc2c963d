"""Table tests: declaration validation, stores, lookups, encodings."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from transfer_kernel import cli, tables as tables_module
from transfer_kernel.kernel import (
    ALL, EQ, IMPL, IMPL_RESPECTFUL, INV, PROP, SET,
    App, Const, Lam, LocalContext, Pi, Sort, Term, Var, app, arrow, check_proof,
    convertible, normalize, prelude_env, shift, whnf,
)
from transfer_kernel.cli import RunOptions, execute_script
from transfer_kernel.surface import (
    CmdDeclareRelation, parse_and_elaborate, parse_script, print_term,
)
from transfer_kernel.tables import (
    LIBRARY, DeclTables, DuplicateEntry, RelationEntryV2, ShapeError,
    SurjectionEntry, SynthesisError, TransferEntryV1,
    declare_relation_v2, declare_surjection, declare_transfer_v1,
    invert_entry, library_env,
    lookup_relation_v2, lookup_surjection, lookup_transfer_v1, prefill_core,
    relation_entries, surjection_to_relational, table_key, whnf_shape,
)
from transfer_kernel.terms import spine

from conftest import SCRIPTS, declare
from fuzz_helpers import v2_fixture
from test_kernel_fastpath import decode


@pytest.fixture
def nat_tables(nat_env):
    tables = DeclTables()
    tables = declare_surjection(tables, nat_env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_transfer_v1(tables, nat_env, "le_down")
    tables = declare_transfer_v1(tables, nat_env, "le_up")
    return tables


# --- surjections -----------------------------------------------------------

def test_declare_surjection_example(empty_set_env):
    tables = declare_surjection(DeclTables(), empty_set_env, "f", "g", "surjf")
    entry = lookup_surjection(tables, empty_set_env, Const("A"), Const("A'"))
    assert entry is not None
    assert entry.fn == Const("f") and entry.inverse == Const("g")


def test_declare_surjection_keyed_by_types(nat_env, nat_tables):
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    assert entry is not None and entry.fn == Const("N.of_nat")
    assert lookup_surjection(nat_tables, nat_env, Const("N"), Const("nat")) is None


def test_duplicate_surjection_is_error_and_transactional(nat_env, nat_tables):
    before = nat_tables.surjections
    with pytest.raises(DuplicateEntry):
        declare_surjection(nat_tables, nat_env, "N.of_nat", "N.to_nat", "of_to")
    assert nat_tables.surjections is before


def test_surjection_wrong_proof_statement(nat_env):
    env = declare(nat_env, "axiom", "bogus", "∀ x : nat, N.to_nat (N.of_nat x) = x")
    with pytest.raises(ShapeError, match="proves"):
        declare_surjection(DeclTables(), env, "N.of_nat", "N.to_nat", "bogus")


def test_surjection_non_function_rejected(nat_env):
    with pytest.raises(ShapeError, match="not a function"):
        declare_surjection(DeclTables(), nat_env, "nat", "N.to_nat", "of_to")


# --- v1 transfer lemmas -------------------------------------------------------

def test_transfer_lemma_extraction(nat_env, nat_tables):
    up = lookup_transfer_v1(nat_tables, nat_env, Const("le"), Const("N.le"))
    assert up is not None
    assert up.transfer_fn == Const("N.of_nat") and up.arity == 2
    down = lookup_transfer_v1(nat_tables, nat_env, Const("N.le"), Const("le"))
    assert down is not None
    assert down.transfer_fn == Const("N.to_nat") and down.arity == 2


def test_transfer_lemma_statement_reconstruction(nat_env, nat_tables):
    """The stored fields are the parts of le_up's statement
    `∀ x y : nat, le x y → N.le (N.of_nat x) (N.of_nat y)`."""
    up = lookup_transfer_v1(nat_tables, nat_env, Const("le"), Const("N.le"))
    x = nat_env.type_of("le_up")
    y = x.body
    hyp = y.body
    assert isinstance(hyp, Pi) and not isinstance(hyp.body, Pi)
    assert (x.ty, y.ty) == (Const("nat"), Const("nat")) and up.arity == 2
    assert spine(hyp.ty) == (up.source_rel, [Var(1), Var(0)])
    fn = up.transfer_fn
    assert spine(hyp.body) \
        == (up.target_rel, [App(fn, Var(2)), App(fn, Var(1))])


def test_transfer_lemma_mixed_functions_rejected(nat_env):
    env = declare(nat_env, "parameter", "N.of_nat2", "nat → N")
    env = declare(env, "axiom", "mixed",
                  "∀ x y : nat, le x y → N.le (N.of_nat x) (N.of_nat2 y)")
    with pytest.raises(ShapeError, match="different transfer function"):
        declare_transfer_v1(DeclTables(), env, "mixed")


def test_transfer_lemma_requires_variable_arguments(nat_env):
    env = declare(nat_env, "axiom", "offkey",
                  "∀ x y : nat, le x x → N.le (N.of_nat x) (N.of_nat y)")
    with pytest.raises(ShapeError, match="argument 2"):
        declare_transfer_v1(DeclTables(), env, "offkey")


def test_transfer_lemma_needs_hypothesis(nat_env):
    env = declare(nat_env, "axiom", "norel", "∀ x : nat, N.le (N.of_nat x) (N.of_nat x)")
    with pytest.raises(ShapeError):
        declare_transfer_v1(DeclTables(), env, "norel")


def test_duplicate_transfer_is_error(nat_env, nat_tables):
    env = declare(nat_env, "axiom", "le_up_again",
                  "∀ x y : nat, le x y → N.le (N.of_nat x) (N.of_nat y)")
    with pytest.raises(DuplicateEntry):
        declare_transfer_v1(nat_tables, env, "le_up_again")


# --- v2 relation entries ---------------------------------------------------------

@pytest.fixture
def rel_env(nat_env):
    env = nat_env.add_definition(
        "natN", parse_and_elaborate(nat_env, "fun x x' => N.of_nat x = x'"))
    env = declare(env, "parameter", "bool", "Set")
    env = declare(env, "parameter", "iszero_nat", "nat → bool")
    env = declare(env, "parameter", "iszero_N", "N → bool")
    env = declare(env, "parameter", "Nat.add", "nat → nat → nat")
    env = declare(env, "parameter", "N.add", "N → N → N")
    env = declare(env, "axiom", "le_transfer", "(natN ##> natN ##> impl) le N.le")
    env = declare(env, "axiom", "iszero_transfer",
                  "(natN ##> @eq bool) iszero_nat iszero_N")
    env = declare(env, "axiom", "plus_transf",
                  "(natN ##> natN ##> natN) Nat.add N.add")
    return env


def test_declare_relation_entries(rel_env):
    tables = DeclTables()
    tables = declare_relation_v2(tables, rel_env, "le_transfer")
    tables = declare_relation_v2(tables, rel_env, "iszero_transfer")
    tables = declare_relation_v2(tables, rel_env, "plus_transf")
    found = lookup_relation_v2(tables, rel_env, Const("le"), Const("N.le"))
    assert found is not None and not found[1]
    assert found[0].proof == Const("le_transfer")
    assert lookup_relation_v2(tables, rel_env, Const("iszero_nat"),
                              Const("iszero_N")) is not None
    add_entry = lookup_relation_v2(tables, rel_env, Const("Nat.add"),
                                   Const("N.add"))
    assert add_entry is not None
    for e in tables.relations_v2:
        assert check_proof(rel_env, LocalContext(), e.proof,
                           app(e.relation, e.lhs, e.rhs))


def test_a_store_is_the_tuple_of_its_entries_in_declaration_order(rel_env):
    first = declare_relation_v2(DeclTables(), rel_env, "le_transfer")
    second = declare_relation_v2(first, rel_env, "iszero_transfer")
    assert type(second.relations_v2) is tuple
    le, iszero = second.relations_v2
    assert (le.lhs, le.rhs, le.proof) \
        == (Const("le"), Const("N.le"), Const("le_transfer"))
    assert (iszero.lhs, iszero.rhs, iszero.proof) \
        == (Const("iszero_nat"), Const("iszero_N"), Const("iszero_transfer"))
    assert lookup_relation_v2(second, rel_env, Const("le"),
                              Const("N.le"))[0] is le
    assert lookup_relation_v2(second, rel_env, Const("iszero_nat"),
                              Const("iszero_N"))[0] is iszero
    assert type(first.relations_v2) is tuple
    assert first.relations_v2 == (le,) and first.relations_v2[0] is le


def test_relation_entry_must_be_application(rel_env):
    env = declare(rel_env, "axiom", "notapp", "∀ x : nat, le x x")
    with pytest.raises(ShapeError):
        declare_relation_v2(DeclTables(), env, "notapp")


def test_inverse_fallback_lookup(rel_env):
    # only the flipped form is declared; the direct query synthesizes it
    env = declare(rel_env, "axiom", "le_down_rel",
                  "(natN⁻¹ ##> natN⁻¹ ##> impl) N.le le")
    tables = declare_relation_v2(DeclTables(), env, "le_down_rel")
    assert lookup_relation_v2(tables, env, Const("N.le"), Const("le"))[1] is False
    derived, via_inverse = lookup_relation_v2(tables, env, Const("le"),
                                              Const("N.le"))
    assert via_inverse
    assert print_term(derived.relation, env) == "natN ##> natN ##> impl⁻¹"
    stmt = app(derived.relation, derived.lhs, derived.rhs)
    assert check_proof(env, LocalContext(), derived.proof, stmt)


def test_lookup_on_empty_tables():
    env = prelude_env()
    tables = DeclTables()
    assert lookup_relation_v2(tables, env, Const(IMPL), Const(IMPL)) is None
    assert lookup_surjection(tables, env, PROP, PROP) is None


def test_key_normalization_sees_through_definitions(rel_env):
    # declare through an alias of the relation pair, look up via the originals
    env = rel_env.add_definition("le_alias", Const("le"))
    env = declare(env, "axiom", "alias_transfer",
                  "(natN ##> natN ##> impl) le_alias N.le")
    tables = declare_relation_v2(DeclTables(), env, "alias_transfer")
    assert lookup_relation_v2(tables, env, Const("le"), Const("N.le")) is not None
    # and a duplicate through the unfolded spelling is rejected
    env2 = declare(env, "axiom", "unfolded_transfer",
                   "(natN ##> natN ##> impl) le N.le")
    with pytest.raises(DuplicateEntry):
        declare_relation_v2(tables, env2, "unfolded_transfer")


def test_insert_then_lookup_identity(rel_env):
    tables = declare_relation_v2(DeclTables(), rel_env, "le_transfer")
    entry, via = lookup_relation_v2(tables, rel_env, Const("le"), Const("N.le"))
    assert entry is tables.relations_v2[0]
    assert not via


# --- relational encoding of surjections --------------------------------------------

def test_surjection_to_relational_statements(nat_env, nat_tables):
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(nat_tables, nat_env, entry)

    surj_entry, _ = lookup_relation_v2(tables, env, App(Const(ALL), Const("nat")),
                                       App(Const(ALL), Const("N")))
    stmt = app(surj_entry.relation, surj_entry.lhs, surj_entry.rhs)
    rel_name = "N.of_nat_rel"
    assert print_term(stmt, env) == \
        f"(({rel_name} ##> impl) ##> impl) (all nat) (all N)"
    expected_unfolded = parse_and_elaborate(
        env,
        "∀ (P : nat → Prop) (P' : N → Prop), "
        f"(∀ (x : nat) (x' : N), {rel_name} x x' → P x → P' x') → "
        "(∀ x : nat, P x) → ∀ x' : N, P' x'")
    assert normalize(env, stmt) == normalize(env, expected_unfolded)
    assert check_proof(env, LocalContext(), surj_entry.proof, stmt)

    tot_entry, _ = lookup_relation_v2(tables, env, App(Const(ALL), Const("N")),
                                      App(Const(ALL), Const("nat")))
    tot_stmt = app(tot_entry.relation, tot_entry.lhs, tot_entry.rhs)
    assert print_term(tot_stmt, env) == \
        f"(({rel_name}⁻¹ ##> impl) ##> impl) (all N) (all nat)"
    assert check_proof(env, LocalContext(), tot_entry.proof, tot_stmt)

    func_entry, _ = lookup_relation_v2(tables, env, App(Const(EQ), Const("nat")),
                                       App(Const(EQ), Const("N")))
    func_stmt = app(func_entry.relation, func_entry.lhs, func_entry.rhs)
    assert print_term(func_stmt, env) == \
        f"({rel_name} ##> {rel_name} ##> impl) (eq nat) (eq N)"
    expected_func = parse_and_elaborate(
        env,
        f"∀ (x : nat) (x' : N), {rel_name} x x' → "
        f"∀ (y : nat) (y' : N), {rel_name} y y' → x = y → x' = y'")
    assert normalize(env, func_stmt) == normalize(env, expected_func)
    assert check_proof(env, LocalContext(), func_entry.proof, func_stmt)

    for e in tables.relations_v2:
        assert check_proof(env, LocalContext(), e.proof,
                           app(e.relation, e.lhs, e.rhs))


def test_an_encoding_instance_must_prove_its_entry_statement(
        nat_env, nat_tables, monkeypatch):
    # nat_env lacks the library, so the encoding elaborates this one instead
    monkeypatch.setattr(tables_module, "LIBRARY", """
        Definition surj_all (A A' : Type) (R : A → A' → Prop) (g : A' → A)
          (s : ∀ x' : A', R (g x') x') := s.""")
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    with pytest.raises(SynthesisError, match="^generated 'N.of_nat_rel_surj' "
                       "failed to check: it does not prove "):
        surjection_to_relational(nat_tables, nat_env, entry)


def test_relational_encoding_is_found_once_made(nat_env, nat_tables):
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    pairs = [(App(Const(ALL), Const("nat")), App(Const(ALL), Const("N"))),
             (App(Const(ALL), Const("N")), App(Const(ALL), Const("nat"))),
             (App(Const(EQ), Const("nat")), App(Const(EQ), Const("N")))]
    for a, b in pairs:
        assert not list(relation_entries(nat_tables, nat_env, a, b))
    tables, env = surjection_to_relational(nat_tables, nat_env, entry)
    for i, (a, b) in enumerate(pairs):
        found, via_inverse = lookup_relation_v2(tables, env, a, b)
        assert not via_inverse and found is tables.relations_v2[i]


def test_an_encoding_looks_each_pair_up_once(nat_env, nat_tables,
                                             monkeypatch):
    """One `_find` per generated pair, and an existing entry keeps its
    place: an identity surjection's reverse-∀ pair is its ∀ pair flipped,
    so only the ∀ entry and the equality entry are stored."""
    calls = []
    find = tables_module._find

    def counting_find(*args):
        calls.append(args[1])
        return find(*args)

    monkeypatch.setattr(tables_module, "_find", counting_find)
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    calls.clear()
    tables, _ = surjection_to_relational(nat_tables, nat_env, entry)
    assert calls == ["relations_v2"] * 3
    assert len(tables.relations_v2) == 3

    env = declare(nat_env, "parameter", "idn", "nat → nat")
    env = declare(env, "axiom", "idn_s", "∀ x : nat, idn (idn x) = x")
    tables = declare_surjection(DeclTables(), env, "idn", "idn", "idn_s")
    entry = lookup_surjection(tables, env, Const("nat"), Const("nat"))
    calls.clear()
    tables, env = surjection_to_relational(tables, env, entry)
    assert calls == ["relations_v2"] * 3
    all_nat = App(Const(ALL), Const("nat"))
    assert [e.proof for e in tables.relations_v2] \
        == [Const("idn_rel_surj"), Const("idn_rel_func")]
    surj = tables.relations_v2[0]
    assert (surj.lhs, surj.rhs, surj.proof) \
        == (all_nat, all_nat, Const("idn_rel_surj"))


def test_generated_relation_unfolds_to_graph(nat_env, nat_tables):
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(nat_tables, nat_env, entry)
    ctx = LocalContext().push("x", Const("nat")).push("x'", Const("N"))
    applied = parse_and_elaborate(env, "N.of_nat_rel x x'", ctx)
    assert convertible(env, applied,
                       parse_and_elaborate(env, "N.of_nat x = x'", ctx))


# --- prefill ------------------------------------------------------------------------

def test_prefill_inserts_implication_entry():
    env = prelude_env()
    tables = prefill_core(DeclTables(), env)
    entry, via = lookup_relation_v2(tables, env, Const(IMPL), Const(IMPL))
    assert not via
    assert print_term(entry.relation, env) == "impl⁻¹ ##> impl ##> impl"
    stmt = app(entry.relation, Const(IMPL), Const(IMPL))
    unfolded = parse_and_elaborate(
        env,
        "∀ (a : Prop) (b : Prop), (b → a) → ∀ (c : Prop) (d : Prop), "
        "(c → d) → (a → c) → b → d")
    assert convertible(env, stmt, unfolded)
    assert check_proof(env, LocalContext(), entry.proof, stmt)
    assert check_proof(env, LocalContext(), entry.proof, unfolded)


def test_fresh_tables_have_no_implication_entry():
    env = prelude_env()
    assert lookup_relation_v2(DeclTables(), env, Const(IMPL), Const(IMPL)) is None


# --- library ------------------------------------------------------------------------

LIBRARY_NAMES = [cmd.name for cmd in parse_script(LIBRARY)]


@pytest.mark.parametrize("name", LIBRARY_NAMES + [IMPL_RESPECTFUL])
def test_library_bodies_print_and_parse_back(name):
    env = library_env()
    body = env.body_of(name)
    assert parse_and_elaborate(env, print_term(body, env)) == body


def test_scripts_leave_the_shared_library_env_unchanged():
    env = library_env()
    before = list(env._decls.items())
    for path in sorted(SCRIPTS.glob("*.tk")):
        execute_script(path.read_text(encoding="utf-8"))
    state = execute_script("Parameter graph_tot : Prop.")
    assert state.errors == ["line 1: 'graph_tot' is already declared"]
    assert library_env() is env
    after = list(env._decls.items())
    assert [name for name, _ in after] == [name for name, _ in before]
    assert all(d is e for (_, d), (_, e) in zip(before, after))
    with pytest.raises(AttributeError):
        env.memo = {}


def test_tables_are_values(nat_env):
    empty = DeclTables()
    extended = declare_surjection(empty, nat_env, "N.of_nat", "N.to_nat", "of_to")
    assert not empty.surjections
    assert len(extended.surjections) == 1


# --- lookup and insertion by conversion, against normal forms -------------------
#
# The reference is a scan of the stored pairs for the one whose `table_key`
# equals the query's (`_by_normal_form`).  Queries are the fastpath
# generator's lambda-free terms with their constant leaves drawn from POOL,
# or stored pairs as declared (some through aliases) wrapped in redexes
# that reduce back to them.  Every definition involved uses each of its
# parameters at most once and the wrapping redexes are identities or
# constant functions, so every query normalizes.

def _lookup_env():
    env = prelude_env().add_parameter("nat", SET).add_parameter("N", SET)
    nat, n = Const("nat"), Const("N")
    env = env.add_parameter("le", arrow(nat, arrow(nat, PROP)))
    env = env.add_parameter("N.le", arrow(n, arrow(n, PROP)))
    env = env.add_parameter("rel", arrow(nat, arrow(n, PROP)))
    return env.add_definition("nat_alias", nat) \
        .add_definition("le_alias", Const("le"))


LOOKUP_ENV = _lookup_env()
# Pairs as declared; their normal forms are distinct.
SPELLINGS = [
    (Const("le_alias"), Const("N.le")),
    (Const("N.le"), Const("le")),
    (App(Const(ALL), Const("nat_alias")), App(Const(ALL), Const("N"))),
    (App(Const(ALL), Const("N")), App(Const(ALL), Const("nat"))),
    (App(Const(EQ), Const("nat")), App(Const(EQ), Const("N"))),
    (Const(IMPL), Const(IMPL)),
    (PROP, SET),
    (arrow(Const("nat_alias"), PROP), arrow(Const("N"), PROP)),
    (App(Var(1), Const("nat")), Var(0)),  # open; no declaration makes one
]
POOL = [SET] + [Const(name) for name in (
    "nat", "N", "le", "N.le", "rel", "nat_alias", "le_alias", IMPL, ALL, EQ,
    INV)]


def _lookup_tables(env) -> DeclTables:
    tables = DeclTables()
    for i, (a, b) in enumerate(SPELLINGS):
        for store, entry in (
                ("surjections", SurjectionEntry(a, b, Const("f"), Const("g"),
                                                Const(f"s{i}"))),
                ("transfers_v1", TransferEntryV1(a, b, 1, Const("f"),
                                                 Const(f"t{i}"))),
                ("relations_v2", RelationEntryV2(a, b, Const("rel"),
                                                 Const(f"r{i}")))):
            tables = tables_module._insert(tables, store, env, entry, "it")
    return tables


def _relabel(t: Term, picks: list[int]) -> Term:
    """Replace the fastpath generator's `a` leaves by POOL constants."""
    leaves = iter(picks)

    def go(t: Term) -> Term:
        if t == Const("a"):
            return POOL[next(leaves, 0) % len(POOL)]
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Pi):
            return Pi(t.name, go(t.ty), go(t.body))
        return t

    return go(t)


def _disguise(t: Term, codes) -> Term:
    """t wrapped, here and in its applications, in redexes that reduce back
    to it: 1 is an identity, 2 a constant function applied to a variable,
    which makes the query open; 3 unfolds t's head and renames the binder
    it exposes, if any."""
    code = next(codes, 0)
    if isinstance(t, App):
        t = App(_disguise(t.fn, codes), _disguise(t.arg, codes))
    if code == 1:
        return App(Lam("x", PROP, Var(0)), t)
    if code == 2:
        return App(Lam("x", SET, shift(t, 1)), Var(2))
    if code == 3:
        head = whnf(LOOKUP_ENV, t)
        if isinstance(head, (Lam, Pi)):
            return type(head)("renamed", head.ty, head.body)
    return t


RANDOM_QUERIES = st.builds(
    lambda codes, picks: _relabel(decode(codes, lam=False), picks),
    st.lists(st.integers(0, 15), max_size=8),
    st.lists(st.integers(0, len(POOL) - 1), max_size=6))
SPELLED_PAIRS = st.builds(
    lambda pair, flip, codes: tuple(
        _disguise(t, iter(codes))
        for t in (pair[::-1] if flip else pair)),
    st.sampled_from(SPELLINGS), st.booleans(),
    st.lists(st.integers(0, 3), max_size=8))
QUERIES = st.one_of(RANDOM_QUERIES,
                    SPELLED_PAIRS.map(lambda pair: pair[0]),
                    SPELLED_PAIRS.map(lambda pair: pair[1]))
QUERY_PAIRS = st.one_of(SPELLED_PAIRS, st.tuples(QUERIES, QUERIES))


def _by_normal_form(store, env, a, b):
    """The entry of `store` whose pair has the normal forms of (a, b)."""
    key = table_key(env, a, b)
    return next((entry for entry in store
                 if table_key(env, entry[0], entry[1]) == key), None)


def _expected_relation_entries(tables, env, a, b):
    direct = _by_normal_form(tables.relations_v2, env, a, b)
    flipped = _by_normal_form(tables.relations_v2, env, b, a)
    return ([(direct, False)] if direct is not None else []) \
        + ([(invert_entry(env, flipped), True)] if flipped is not None else [])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(QUERY_PAIRS)
def test_lookups_match_the_normal_form_key_lookup(pair):
    a, b = pair
    env, tables = LOOKUP_ENV, _lookup_tables(LOOKUP_ENV)
    assert lookup_surjection(tables, env, a, b) \
        is _by_normal_form(tables.surjections, env, a, b)
    assert lookup_transfer_v1(tables, env, a, b) \
        is _by_normal_form(tables.transfers_v1, env, a, b)
    expected = _expected_relation_entries(tables, env, a, b)
    found = list(relation_entries(tables, env, a, b))
    assert found == expected
    if expected and not expected[0][1]:
        assert found[0][0] is expected[0][0]
    assert lookup_relation_v2(tables, env, a, b) \
        == (expected[0] if expected else None)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(QUERY_PAIRS)
def test_insertion_rejects_exactly_the_pairs_with_a_stored_normal_form(pair):
    a, b = pair
    env, tables = LOOKUP_ENV, _lookup_tables(LOOKUP_ENV)
    new_entries = {
        "surjections": SurjectionEntry(a, b, Const("f"), Const("g"), Const("s")),
        "transfers_v1": TransferEntryV1(a, b, 1, Const("f"), Const("t")),
        "relations_v2": RelationEntryV2(a, b, Const("rel"), Const("r")),
    }
    for store, entry in new_entries.items():
        stored = getattr(tables, store)
        duplicate = any(table_key(env, c, d) == table_key(env, a, b)
                        for c, d, *_ in stored)
        if duplicate:
            with pytest.raises(DuplicateEntry):
                tables_module._insert(tables, store, env, entry, "it")
            continue
        grown = tables_module._insert(tables, store, env, entry, "it")
        assert getattr(grown, store) == stored + (entry,)
        assert getattr(tables, store) is stored
        assert tables_module._find(grown, store, env, whnf(env, a),
                                   whnf(env, b)) is entry
        with pytest.raises(DuplicateEntry):
            tables_module._insert(grown, store, env, entry, "it")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(QUERIES)
def test_the_shape_of_a_term_is_the_shape_of_its_normal_form(t):
    assert whnf_shape(LOOKUP_ENV, t) \
        == tables_module._shape(whnf(LOOKUP_ENV, t))


def _shape_env():
    """LOOKUP_ENV with one definition for each way `whnf_shape` walks."""
    env = LOOKUP_ENV
    for name, text in (
            # the body's head is one of its binders
            ("ap", "fun (f : nat → nat → Prop) (x : nat) => f x"),
            # returns a λ: applied to two arguments, its result is `le`'s
            ("flip_le", "fun x : nat => fun y : nat => le y x"),
            # a β-redex in the body
            ("le_at", "fun x : nat => (fun y : nat => le y) x"),
            # a chain of definitions
            ("le_alias2", "le_alias"),
            # a product, and a sort
            ("pred", "nat → Prop"), ("set", "Set")):
        env = env.add_definition(name, parse_and_elaborate(env, text))
    return env


SHAPE_ENV = _shape_env()


@pytest.mark.parametrize("text, ctx, expected", [
    ("ap le", (), (Lam, None, 0)),
    ("ap le_alias n", ("n",), (Const, "le", 1)),
    ("ap flip_le n n", ("n",), (Const, "le", 2)),
    ("flip_le n", ("n",), (Lam, None, 0)),
    ("flip_le n n", ("n",), (Const, "le", 2)),
    ("le_at n n", ("n",), (Const, "le", 2)),
    ("le_alias2 n", ("n",), (Const, "le", 1)),
    ("r n m", ("r", "n", "m"), (Var, 2, 2)),
    ("(fun x : nat => r x) n", ("r", "n"), (Var, 1, 1)),
    ("(fun x : nat => x) n", ("n",), (Var, 0, 0)),
    ("pred", (), (Pi, None, 0)),
    ("set", (), (Sort, "Set", 0)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_the_shape_of_each_kind_of_head(text, ctx, expected):
    """One case per branch of `whnf_shape`: a binder substituted into the
    head (handed to `whnf`), a λ result with arguments left over, a chain
    of definitions, free variables, a product and a sort."""
    types = {"r": "nat → N → Prop", "n": "nat", "m": "N"}
    context = LocalContext()
    for name in ctx:
        context = context.push(name, parse_and_elaborate(
            SHAPE_ENV, types[name], context))
    t = parse_and_elaborate(SHAPE_ENV, text, context)
    assert whnf_shape(SHAPE_ENV, t) == expected \
        == tables_module._shape(whnf(SHAPE_ENV, t))


@pytest.mark.parametrize("head", [
    arrow(Const("nat"), PROP), Lam("x", Const("nat"), Var(0)), SET,
    Const("pred"), Const("set")])
def test_the_shape_of_an_ill_typed_application(head):
    """A product or a sort applied to arguments is its own weak head
    normal form; a λ applied to two takes one, then is stuck on `nat`."""
    t = app(head, Const("nat"), Const("N"))
    assert whnf_shape(SHAPE_ENV, t) \
        == tables_module._shape(whnf(SHAPE_ENV, t))


def test_a_query_whose_shapes_have_no_stored_pair_is_not_reduced(
        nat_env, nat_tables, monkeypatch):
    """`impl A B` unfolds to a product, and no stored pair's sides do (the
    encoding's `all X` and `impl` unfold to λs, `eq X` is stuck): the
    direct and the flipped lookup are both rejected by shape, before any
    reduct is built and without a `_find`."""
    entry = lookup_surjection(nat_tables, nat_env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(
        prefill_core(nat_tables, nat_env), nat_env, entry)
    calls = []
    find, reduce = tables_module._find, tables_module.whnf

    def counting_find(*args):
        calls.append(args[1])
        return find(*args)

    def counting_whnf(*args, **kwargs):
        calls.append("whnf")
        return reduce(*args, **kwargs)

    monkeypatch.setattr(tables_module, "_find", counting_find)
    monkeypatch.setattr(tables_module, "whnf", counting_whnf)
    ctx = LocalContext().push("x", Const("nat")).push("x'", Const("N"))
    lhs = parse_and_elaborate(env, "impl (le x x) (le x x)", ctx)
    rhs = parse_and_elaborate(env, "impl (N.le x' x') (N.le x' x')", ctx)
    assert list(relation_entries(tables, env, lhs, rhs)) == []
    assert calls == []
    # A query whose shapes are stored is reduced and looked up as before.
    assert [via for _, via in relation_entries(
        tables, env, Const(IMPL), Const(IMPL))] == [False, True]
    assert calls == ["whnf", "whnf", "relations_v2", "relations_v2"]


def test_disguised_spellings_find_their_entries():
    env, tables = LOOKUP_ENV, _lookup_tables(LOOKUP_ENV)
    for i, (a, b) in enumerate(SPELLINGS):
        for codes in ([], [1], [2], [3], [2, 1, 2, 1, 3, 1, 2, 1]):
            qa, qb = _disguise(a, iter(codes)), _disguise(b, iter(codes))
            assert lookup_surjection(tables, env, qa, qb) \
                is tables.surjections[i]
            assert lookup_transfer_v1(tables, env, qa, qb) \
                is tables.transfers_v1[i]
            assert lookup_relation_v2(tables, env, qa, qb) \
                == (tables.relations_v2[i], False)
            inverted, via_inverse = list(
                relation_entries(tables, env, qb, qa))[-1]
            assert via_inverse
            assert inverted == invert_entry(env, tables.relations_v2[i])


def test_each_flipped_entry_is_inverted_once_per_table_state(monkeypatch):
    inverted = []
    invert = tables_module.invert_entry

    def counting_invert_entry(env, entry):
        inverted.append(entry)
        return invert(env, entry)

    monkeypatch.setattr(tables_module, "invert_entry", counting_invert_entry)
    env, tables = LOOKUP_ENV, _lookup_tables(LOOKUP_ENV)
    seen = {}
    for _ in range(3):
        for a, b in SPELLINGS:
            for entry, via_inverse in relation_entries(tables, env, b, a):
                if via_inverse:
                    assert seen.setdefault((a, b), entry) is entry
    assert len(inverted) == len(SPELLINGS)
    assert len({id(e) for e in inverted}) == len(SPELLINGS)
    # A new table state inverts its flipped entries again, once each.
    grown = tables_module._insert(tables, "relations_v2", env, RelationEntryV2(
        Const("nat"), Const("N"), Const("rel"), Const("r")), "it")
    for _ in range(2):
        for a, b in SPELLINGS:
            list(relation_entries(grown, env, b, a))
    assert len(inverted) == 2 * len(SPELLINGS)


def test_a_new_table_state_never_sees_a_stale_index():
    env = LOOKUP_ENV
    le, n_le = Const("le"), Const("N.le")
    first = tables_module._insert(DeclTables(), "relations_v2", env,
                                  RelationEntryV2(le, n_le, Const("rel"),
                                                  Const("p1")), "it")
    assert lookup_relation_v2(first, env, n_le, n_le) is None
    first_inverted, via_inverse = lookup_relation_v2(first, env, n_le, le)
    assert via_inverse and first_inverted.proof == Const("p1")
    # An insert: the new state finds its entry, the old one still does not.
    second = tables_module._insert(first, "relations_v2", env,
                                   RelationEntryV2(n_le, n_le, Const("rel"),
                                                   Const("p2")), "it")
    assert lookup_relation_v2(second, env, n_le, n_le)[0].proof == Const("p2")
    assert lookup_relation_v2(first, env, n_le, n_le) is None
    # A state whose entry for the same pair has another proof: its own
    # entry, and that entry's own inversion.
    changed = first.relations_v2[0]._replace(proof=Const("p3"))
    third = tables_module._insert(DeclTables(), "relations_v2", env, changed,
                                  "it")
    assert lookup_relation_v2(third, env, le, n_le) == (changed, False)
    assert lookup_relation_v2(third, env, le, n_le)[0] is changed
    third_inverted, via_inverse = lookup_relation_v2(third, env, n_le, le)
    assert via_inverse and third_inverted.proof == Const("p3")
    assert lookup_relation_v2(first, env, n_le, le) == (first_inverted, True)
    surjection = SurjectionEntry(le, n_le, Const("f"), Const("g"), Const("s"))
    transfer = TransferEntryV1(le, n_le, 2, Const("f"), Const("t"))
    assert lookup_surjection(first, env, le, n_le) is None
    assert lookup_transfer_v1(first, env, le, n_le) is None
    fourth = tables_module._insert(first, "surjections", env, surjection, "it")
    fourth = tables_module._insert(fourth, "transfers_v1", env, transfer, "it")
    assert lookup_surjection(fourth, env, le, n_le) is surjection
    assert lookup_transfer_v1(fourth, env, le, n_le) is transfer


def _index_snapshot(tables: DeclTables):
    """Every bucket of every built index, by identity and by content."""
    return {store: {shapes: (bucket, list(bucket))
                    for shapes, bucket in index.items()}
            for store, index in tables._index.items()}


def test_an_insert_extends_a_copy_of_its_parents_index():
    env = LOOKUP_ENV
    all_nat, all_n = App(Const(ALL), Const("nat")), App(Const(ALL), Const("N"))
    le, n_le = Const("le"), Const("N.le")
    parent = tables_module._insert(DeclTables(), "relations_v2", env,
                                   RelationEntryV2(all_nat, all_n, Const("rel"),
                                                   Const("p1")), "it")
    assert lookup_surjection(parent, env, le, n_le) is None
    index = parent._index["relations_v2"]
    before = _index_snapshot(parent)
    assert set(before) == {"relations_v2", "surjections", "transfers_v1"}
    # The flipped pair has the same head shapes: it joins the parent's
    # bucket.  (le, N.le) starts a bucket of its own.
    same_bucket = tables_module._insert(parent, "relations_v2", env,
                                        RelationEntryV2(all_n, all_nat,
                                                        Const("rel"),
                                                        Const("p2")), "it")
    new_bucket = tables_module._insert(parent, "relations_v2", env,
                                       RelationEntryV2(le, n_le, Const("rel"),
                                                       Const("p3")), "it")
    assert len(same_bucket._index["relations_v2"]) == 1
    assert len(new_bucket._index["relations_v2"]) == 2
    # The parent's index dicts and bucket lists are the same objects with
    # the same contents; each child finds only its own new entry.
    assert parent._index["relations_v2"] is index
    after = _index_snapshot(parent)
    assert after.keys() == before.keys()
    for store in before:
        assert after[store].keys() == before[store].keys()
        for shapes, (bucket, contents) in before[store].items():
            assert after[store][shapes][0] is bucket
            assert after[store][shapes][1] == contents
    assert lookup_relation_v2(same_bucket, env, all_n, all_nat) \
        == (same_bucket.relations_v2[1], False)
    assert lookup_relation_v2(new_bucket, env, all_n, all_nat)[1]
    assert lookup_relation_v2(parent, env, all_n, all_nat)[1]
    assert lookup_relation_v2(new_bucket, env, le, n_le)[0].proof == Const("p3")
    assert lookup_relation_v2(same_bucket, env, le, n_le) is None
    # An unchanged store's index is shared, the grown one's is the index
    # inserting its entries into an empty value builds.
    assert new_bucket._index["surjections"] is parent._index["surjections"]
    for child in (same_bucket, new_bucket):
        rebuilt = DeclTables()
        for entry in child.relations_v2:
            rebuilt = tables_module._insert(rebuilt, "relations_v2", env,
                                            entry, "it")
        assert child._index["relations_v2"] == rebuilt._index["relations_v2"]


# --- the shape index against a rebuild --------------------------------------

STORES = ("surjections", "transfers_v1", "relations_v2")


def ref_lam_keys(env, a: Term, b: Term):
    """The shapes of each λ side's binder type and body, read off their
    whnf; None for a pair with no λ side."""
    if not (isinstance(a, Lam) or isinstance(b, Lam)):
        return None
    return tuple(None if not isinstance(t, Lam)
                 else (tables_module._shape(whnf(env, t.ty)),
                       tables_module._shape(whnf(env, t.body)))
                 for t in (a, b))


def ref_index(tables: DeclTables, env):
    """Each store's shape index rebuilt from its entries: the loop `_find`
    once ran on a value whose index was not yet built, with each pair's
    λ keys."""
    index = {}
    for store in STORES:
        built = index[store] = {}
        for entry in getattr(tables, store):
            heads = whnf(env, entry[0]), whnf(env, entry[1])
            built.setdefault((tables_module._shape(heads[0]),
                              tables_module._shape(heads[1])), []) \
                .append((heads, ref_lam_keys(env, *heads), entry))
    return index


def assert_index_is_a_rebuild(tables: DeclTables, env):
    """Equal heads and λ keys, identical entries, store order, in every
    bucket."""
    expected = ref_index(tables, env)
    assert tables._index.keys() == expected.keys()
    for store, buckets in expected.items():
        index = tables._index[store]
        assert index.keys() == buckets.keys()
        for shapes, bucket in buckets.items():
            assert [item[:2] for item in index[shapes]] \
                == [item[:2] for item in bucket]
            assert all(got is entry for (*_, got), (*_, entry)
                       in zip(index[shapes], bucket, strict=True))


def _run_checking_the_index(monkeypatch, text, options, kinds=object):
    """Run `text`, asserting the index after each command of `kinds`;
    returns the final state and the commands checked."""
    checked = []

    def checking(run):
        def wrapped(state, cmd, *rest):
            try:
                run(state, cmd, *rest)
            finally:
                if isinstance(cmd, kinds):
                    assert_index_is_a_rebuild(state.tables, state.env)
                    checked.append(cmd)
        return wrapped

    monkeypatch.setattr(cli, "_declare", checking(cli._declare))
    monkeypatch.setattr(cli, "_execute_theorem",
                        checking(cli._execute_theorem))
    state = execute_script(text, options)
    monkeypatch.undo()
    return state, checked


def test_a_table_value_gets_entries_only_by_insertion():
    assert not inspect.signature(DeclTables).parameters
    empty = DeclTables()
    assert (empty.surjections, empty.transfers_v1, empty.relations_v2) \
        == ((), (), ())
    assert empty._index == {store: {} for store in STORES}


@pytest.mark.parametrize("options", [
    RunOptions(keep_going=True), RunOptions(engine="v2", keep_going=True)],
    ids=["tactic", "v2"])
def test_the_index_is_a_rebuild_after_every_corpus_command(monkeypatch,
                                                           options):
    encoded = 0
    for path in sorted(SCRIPTS.glob("*.tk")):
        text = path.read_text(encoding="utf-8")
        state, checked = _run_checking_the_index(monkeypatch, text, options)
        assert len(checked) == len(parse_script(text))
        encoded += state.encoded
    assert encoded > 0  # surjection_to_relational's inserts were checked


def _relation_script(n: int, same_head: bool) -> str:
    lines = ["Parameter A : Set."]
    for i in range(n):
        lines.append(f"Parameter p{i} q{i} : A.")
        if same_head:
            lines.append(f"Axiom e{i} : impl (p{i} = q{i}) (p{i} = q{i}).")
        else:
            lines += [f"Parameter r{i} : A → A → Prop.",
                      f"Axiom e{i} : r{i} p{i} q{i}."]
        lines.append(f"Declare Relation e{i}.")
    return "\n".join(lines)


@pytest.mark.parametrize("same_head", [True, False])
def test_declaring_relations_reduces_each_pair_a_bounded_number_of_times(
        monkeypatch, same_head):
    """Each insert extends its parent's index rather than rebuilding it, so
    400 declarations cost a few `whnf` calls each, not one per stored pair
    (162,002 when every insert rebuilt the index)."""
    calls = []
    reduce = tables_module.whnf

    def counting_whnf(*args, **kwargs):
        calls.append(None)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(tables_module, "whnf", counting_whnf)
    state = execute_script(_relation_script(400, same_head))
    assert state.errors == [] and len(state.tables.relations_v2) == 401
    assert len(calls) <= 3000


@pytest.mark.parametrize("same_head", [True, False])
def test_the_index_is_a_rebuild_after_every_relation_declaration(
        monkeypatch, same_head):
    state, checked = _run_checking_the_index(
        monkeypatch, _relation_script(400, same_head), RunOptions(),
        CmdDeclareRelation)
    assert state.errors == [] and len(checked) == 400
    assert len(state.tables.relations_v2) == 401


# --- the λ bucket, split by binder and body shape ----------------------------
#
# `impl` and `all X` have λs as weak head normal forms, so their pairs share
# one shape bucket; `_find` tells them apart by `_lam_keys`, the shapes of
# each λ side's binder type and body, before any conversion.  That is sound
# only if convertible λs have equal keys.

def lam_key(env, t: Term):
    """The λ key of one side: t's, paired with a side that is no λ."""
    keys = tables_module._lam_keys(env, t, PROP)
    return keys and keys[0]


def _lam_env():
    env = LOOKUP_ENV
    for name, text in (("impl_alias", "impl"), ("all_nat", "all nat"),
                       ("flip_le", "fun x y : nat => le y x")):
        env = env.add_definition(name, parse_and_elaborate(env, text))
    return env


LAM_ENV = _lam_env()
# Spellings of λs, one tuple per conversion class: aliases, expansions that
# only δ and β relate (`fun A => impl A` against `impl`), and a definition
# whose body is a λ.
LAM_CLASSES = (
    ("impl", "impl_alias", "fun A : Prop => impl A",
     "fun A B : Prop => impl_alias A B", "fun A B : Prop => A → B"),
    ("all nat", "all nat_alias", "all_nat", "fun P : nat → Prop => all nat P",
     "fun P : nat_alias → Prop => ∀ x : nat, P x"),
    ("all N", "fun P : N → Prop => all N P", "fun P : N → Prop => ∀ x : N, P x"),
    ("impl False", "impl_alias False", "fun B : Prop => False → B"),
    ("flip_le", "fun x : nat => flip_le x", "fun x y : nat => le_alias y x"),
    ("fun A : Prop => A", "fun B : Prop => (fun C : Prop => C) B"),
    ("fun P : nat → Prop => P", "fun P : nat_alias → Prop => P"),
)
LAM_TERMS = [(i, parse_and_elaborate(LAM_ENV, text))
             for i, group in enumerate(LAM_CLASSES) for text in group]
LAM_QUERIES = st.one_of(
    st.builds(lambda picked, codes: (picked[0], _disguise(picked[1], iter(codes))),
              st.sampled_from(LAM_TERMS), st.lists(st.integers(0, 3), max_size=4)),
    QUERIES.map(lambda t: (None, t)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(LAM_QUERIES, LAM_QUERIES)
def test_convertible_lambdas_have_equal_lam_keys(first, second):
    """Any two of the spellings above, disguised in redexes, or of the
    lookup queries: in weak head normal form, convertible terms have equal
    λ keys, and two spellings of one class are convertible."""
    env = LAM_ENV
    (group_a, a), (group_b, b) = first, second
    a, b = whnf(env, a), whnf(env, b)
    if group_a is not None and group_a == group_b:
        assert convertible(env, a, b)
    if convertible(env, a, b):
        assert lam_key(env, a) == lam_key(env, b)


def test_lam_keys_separate_the_fixture_lambdas():
    """Each class's spellings share one key; `impl`, `impl A` and `all X`
    have three different ones, and `all nat` and `all N` share theirs."""
    env = LAM_ENV
    keys = [{lam_key(env, whnf(env, t)) for i, t in LAM_TERMS if i == group}
            for group in range(len(LAM_CLASSES))]
    assert all(len(k) == 1 and None not in k for k in keys)
    impl, all_nat, all_n, impl_false = (k.pop() for k in keys[:4])
    assert len({impl, all_nat, impl_false}) == 3 and all_nat == all_n
    for t in (Const("le"), App(Const(EQ), Const("nat")), PROP):
        assert tables_module._lam_keys(env, whnf(env, t), t) is None


@pytest.mark.parametrize("lhs, rhs, calls", [
    ("impl (le x x)", "impl (N.le x' x')", 0),
    ("all nat", "all N", 5),
    ("impl", "impl", 4),
    ("le", "N.le", 4),
])
def test_relation_entries_skip_lambdas_of_another_shape(monkeypatch, lhs, rhs,
                                                        calls):
    """`convertible` calls of `relation_entries` on the fuzz v2 fixture,
    whose λ bucket holds (impl, impl), (all nat, all N) and (all N, all nat).
    Before the split they were 6, 7, 4 and 4: every query on an `impl` or
    `all` pair was converted against each λ pair, direct and flipped."""
    env, tables = v2_fixture()
    counted = []
    conv = tables_module.convertible

    def counting_convertible(*args):
        counted.append(None)
        return conv(*args)

    ctx = LocalContext().push("x", Const("nat")).push("x'", Const("N"))
    pair = [parse_and_elaborate(env, text, ctx) for text in (lhs, rhs)]
    expected = list(relation_entries(tables, env, *pair))
    monkeypatch.setattr(tables_module, "convertible", counting_convertible)
    assert list(relation_entries(tables, env, *pair)) == expected
    assert len(counted) == calls
