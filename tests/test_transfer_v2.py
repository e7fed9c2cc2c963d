"""Engine tests for judgment synthesis (transfer modulo)."""

import inspect

import pytest
from hypothesis import given, settings

from transfer_kernel.cli import RunOptions, execute_script, exit_code
from transfer_kernel import tables as tables_module, transfer_v2
from transfer_kernel.kernel import (
    ALL, IMPL, SET,
    App, Const, LocalContext, Var, app, check_proof, convertible, normalize,
    prelude_env, shift, whnf,
)
from transfer_kernel.surface import parse_and_elaborate, print_term
from transfer_kernel.tables import (
    DeclTables, SynthesisError, _insert, declare_relation_v2,
    declare_surjection, lookup_relation_v2, lookup_surjection, prefill_core,
    surjection_to_relational, whnf_shape,
)
from transfer_kernel.outcome import TransferFailure
from transfer_kernel.terms import (
    inv_view, occurs_free, replace_var, respectful_view,
)
from transfer_kernel.transfer_v2 import (
    ANY, Known, RelArrow, _Synth, invert_entry, match_relation, synth,
    transfer_modulo,
)

from conftest import declare
from test_kernel_fastpath import TERMS


def rules(trace):
    return [step.rule for step in trace.steps]


@pytest.fixture
def v2_env(nat_env):
    env = nat_env.add_definition(
        "natN", parse_and_elaborate(nat_env, "fun x x' => N.of_nat x = x'"))
    env = declare(env, "axiom", "le_up_rel",
                  "(natN ##> natN ##> impl) le N.le")
    env = declare(env, "axiom", "le_down_rel",
                  "(natN⁻¹ ##> natN⁻¹ ##> impl) N.le le")
    tables = DeclTables()
    tables = declare_surjection(tables, env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_relation_v2(tables, env, "le_up_rel")
    tables = declare_relation_v2(tables, env, "le_down_rel")
    tables = prefill_core(tables, env)
    entry = lookup_surjection(tables, env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(tables, env, entry)
    return env, tables


# --- match_relation ------------------------------------------------------------

def test_match_solves_chain_prefix(v2_env):
    env, tables = v2_env
    stored = parse_and_elaborate(env, "(natN ##> impl) ##> impl")
    pattern = RelArrow(ANY, Known(Const(IMPL)))
    assert match_relation(env, stored, pattern) is True
    longer = parse_and_elaborate(env, "impl⁻¹ ##> impl ##> impl")
    assert match_relation(env, longer, pattern) is False


def test_match_solves_two_holes(v2_env):
    env, _ = v2_env
    stored = parse_and_elaborate(env, "impl⁻¹ ##> impl ##> impl")
    pattern = RelArrow(ANY, RelArrow(ANY, Known(Const(IMPL))))
    assert match_relation(env, stored, pattern) is True
    shorter = parse_and_elaborate(env, "(natN ##> impl) ##> impl")
    assert match_relation(env, shorter, pattern) is False


def test_match_bare_hole_takes_anything(v2_env):
    env, _ = v2_env
    stored = parse_and_elaborate(env, "natN ##> impl")
    assert match_relation(env, stored, ANY) is True
    # a relation with a free variable is not closed
    assert match_relation(env, App(Const("eq"), Var(0)), ANY) is False


def test_match_is_one_way_and_conversion_aware(v2_env):
    env, _ = v2_env
    stored = parse_and_elaborate(env, "natN ##> impl")
    # the generated relation is definitionally equal to natN
    known = parse_and_elaborate(env, "N.of_nat_rel ##> impl")
    assert match_relation(env, stored, Known(known)) is True
    mismatch = parse_and_elaborate(env, "natN ##> impl⁻¹")
    assert match_relation(env, stored, Known(mismatch)) is False


def test_match_rejects_open_solutions(v2_env):
    env, _ = v2_env
    assert match_relation(env, Var(0), ANY) is False


# --- invert_entry -----------------------------------------------------------------

def test_invert_flips_relation_and_operands(v2_env):
    env, tables = v2_env
    entry, _ = lookup_relation_v2(tables, env, Const("le"), Const("N.le"))
    flipped = invert_entry(env, entry)
    assert flipped.lhs == Const("N.le") and flipped.rhs == Const("le")
    assert print_term(flipped.relation, env) == "natN⁻¹ ##> natN⁻¹ ##> impl⁻¹"
    stmt = app(flipped.relation, flipped.lhs, flipped.rhs)
    assert check_proof(env, LocalContext(), flipped.proof, stmt)


def test_invert_is_involutive(v2_env):
    env, tables = v2_env
    entry, _ = lookup_relation_v2(tables, env, Const("le"), Const("N.le"))
    twice = invert_entry(env, invert_entry(env, entry))
    assert twice.lhs == entry.lhs and twice.rhs == entry.rhs
    assert convertible(env, twice.relation, entry.relation)
    assert normalize(env, twice.relation) == normalize(env, entry.relation)


def test_invert_terminal_swaps_impl(v2_env):
    env, tables = v2_env
    entry, _ = lookup_relation_v2(tables, env, Const("N.le"), Const("le"))
    flipped = invert_entry(env, entry)
    assert print_term(flipped.relation, env) == "natN ##> natN ##> impl⁻¹"
    stmt = app(flipped.relation, Const("le"), Const("N.le"))
    assert check_proof(env, LocalContext(), flipped.proof, stmt)


def test_invert_bare_relation(v2_env):
    # a bare (non-arrow) relation entry: equality between two constants
    env, _ = v2_env
    from transfer_kernel.tables import RelationEntryV2
    env = env.add_parameter("c", Const("N"))
    entry = RelationEntryV2(Const("c"), Const("c"),
                            App(Const("eq"), Const("N")),
                            app(Const("eq_refl"), Const("N"), Const("c")))
    flipped = invert_entry(env, entry)
    stmt = app(flipped.relation, Const("c"), Const("c"))
    assert check_proof(env, LocalContext(), flipped.proof, stmt)
    assert flipped.proof == entry.proof  # no binders to permute


def test_relator_views_see_through_definitions_and_redexes(v2_env):
    """A relator arrow or an inversion is found behind a definition whose
    body is a λ, and behind a redex; a λ with no argument is no view."""
    env, _ = v2_env
    env = env.add_definition("to_impl", parse_and_elaborate(
        env, "fun R : nat → N → Prop => R ##> impl"))
    direct = respectful_view(env, parse_and_elaborate(env, "natN ##> impl"))
    assert direct is not None and direct[4:] == (Const("natN"), Const(IMPL))
    for text in ("to_impl natN",
                 "(fun R : nat → N → Prop => R ##> impl) natN",
                 "(fun A : Set => to_impl) nat natN"):
        assert respectful_view(env, parse_and_elaborate(env, text)) == direct
    assert respectful_view(env, Const("to_impl")) is None
    inverse = parse_and_elaborate(env, "(fun R : nat → N → Prop => R⁻¹) natN")
    assert inv_view(env, inverse) == (Const("nat"), Const("N"), Const("natN"))


# --- synth rule examples -------------------------------------------------------------

def test_synth_env_rule(v2_env):
    env, tables = v2_env
    ctx = (LocalContext()
           .push("z", Const("nat"))
           .push("z'", Const("N"))
           .push("H2", parse_and_elaborate(
               env, "natN z z'",
               LocalContext().push("z", Const("nat")).push("z'", Const("N")))))
    result = synth(env, tables, ctx, Var(2), Var(1), ANY)
    assert not isinstance(result, TransferFailure)
    judgment, trace = result
    assert trace.steps[0].rule == "Env"
    assert judgment.proof == Var(0)
    assert convertible(env, judgment.relation, Const("natN"))


def test_synth_any_expectation_takes_the_derived_relation(v2_env):
    """`ANY` at the root is apart from the patterns App makes below it:
    relating `x` to `x'` (at `natN`) does not fix the root's relation."""
    env, tables = v2_env
    ctx = (LocalContext().push("x", Const("nat")).push("x'", Const("N"))
           .push("H", parse_and_elaborate(
               env, "natN x x'",
               LocalContext().push("x", Const("nat")).push("x'", Const("N")))))
    lhs = parse_and_elaborate(env, "le x x", ctx)
    rhs = parse_and_elaborate(env, "N.le x' x'", ctx)
    result = synth(env, tables, ctx, lhs, rhs, ANY)
    assert not isinstance(result, TransferFailure)
    judgment, _ = result
    assert judgment.relation == Const(IMPL)
    assert check_proof(env, ctx, judgment.proof, app(Const(IMPL), lhs, rhs))


@pytest.fixture
def counting_convertible(monkeypatch):
    """The pairs engine v2 hands `convertible` from now on."""
    calls = []
    original = transfer_v2.convertible

    def counting(env, a, b):
        calls.append((a, b))
        return original(env, a, b)

    monkeypatch.setattr(transfer_v2, "convertible", counting)
    return calls


def test_env_tests_a_variable_side_by_shape(v2_env, counting_convertible):
    """The hypothesis `natN x x'` has variables for sides.  Env derives
    (x, x') from it, and rejects an `impl` pair, which unfolds to a
    product, without building either side's reduct for `convertible`."""
    env, tables = v2_env
    ctx = (LocalContext().push("x", Const("nat")).push("x'", Const("N"))
           .push("H", parse_and_elaborate(
               env, "natN x x'",
               LocalContext().push("x", Const("nat")).push("x'", Const("N")))))
    judgment, trace = synth(env, tables, ctx, Var(2), Var(1), ANY)
    assert rules(trace) == ["Env"] and judgment.proof == Var(0)
    assert counting_convertible == []
    # A side that reduces to the variable applied to an argument is not it.
    fns = (LocalContext().push("p", parse_and_elaborate(env, "nat → nat"))
           .push("q", parse_and_elaborate(env, "nat → nat")))
    fns = fns.push("e", parse_and_elaborate(env, "eq (nat → nat) p q", fns))
    fns = fns.push("a", Const("nat"))
    judgment, _ = synth(env, tables, fns, Var(3), Var(2), ANY)
    assert judgment.proof == Var(1)
    applied = synth(env, tables, fns, App(Var(3), Var(0)),
                    App(Var(2), Var(0)), ANY)
    assert isinstance(applied, TransferFailure)
    counting_convertible.clear()
    lhs = parse_and_elaborate(env, "impl (le x x) (le x x)", ctx)
    rhs = parse_and_elaborate(env, "impl (N.le x' x') (N.le x' x')", ctx)
    wl, wr = whnf(env, lhs, delta=False), whnf(env, rhs, delta=False)
    shapes = whnf_shape(env, wl), whnf_shape(env, wr)
    reason = _Synth(env, tables, False)._rule_env(
        ctx, lhs, rhs, wl, wr, shapes, Known(Const(IMPL)), 0)
    assert reason == "no hypothesis relates the two sides"
    assert counting_convertible == []


def test_each_side_is_reduced_once_without_delta(v2_env, monkeypatch):
    """Forall/Arrow, Table, App and Lambda all read the pair's sides
    reduced without delta: on an atom pair that every rule tries, each
    side is reduced so only once."""
    env, tables = v2_env
    env = env.add_parameter("c", Const("nat")).add_parameter("c'", Const("N"))
    lhs, rhs = Const("c"), Const("c'")
    reduced = []
    original = transfer_v2.whnf

    def counting_whnf(env, t, delta=True):
        if not delta:
            reduced.append(t)
        return original(env, t, delta)

    monkeypatch.setattr(transfer_v2, "whnf", counting_whnf)
    expect = Known(parse_and_elaborate(env, "natN ##> impl"))
    result = synth(env, tables, LocalContext(), lhs, rhs, expect)
    assert isinstance(result, TransferFailure)
    assert "Lambda: sides are not both functions" in result.message
    assert reduced.count(lhs) <= 1 and reduced.count(rhs) <= 1


def test_a_failure_below_an_applied_rule_names_the_pair_that_failed(v2_env):
    """App applies to `le c` and `N.le c'`: it relates `le` to `N.le`, and
    then nothing relates `c` to `c'`.  The message names that pair with
    each rule's reason; App, which applied, gives none for the root."""
    env, tables = v2_env
    env = env.add_parameter("c", Const("nat")).add_parameter("c'", Const("N"))
    expect = Known(parse_and_elaborate(env, "natN ##> impl"))
    result = synth(env, tables, LocalContext(), App(Const("le"), Const("c")),
                   App(Const("N.le"), Const("c'")), expect)
    assert isinstance(result, TransferFailure)
    assert result.message == (
        "cannot relate c to c' (Env: no hypothesis relates the two sides; "
        "Table: no matching entry (direct or inverted); App: sides are not "
        "both applications; Lambda: expected relation is not a relator arrow)")


def test_a_rule_that_declines_after_deriving_leaves_no_step(
        v2_env, monkeypatch, counting_convertible):
    """`synth` writes a pair's step for the rule that derives it, ahead of
    the steps below it, and deletes the steps of a rule that derived
    sub-pairs and then declined.  No rule of the engine declines after
    deriving at a pair a later rule relates: the hypothesis `H` that
    relates `∀ n : nat, P n` to `∀ n : N, Q' n` also relates Forall's
    rewritten pair, through `convertible`.  So a probe rule, tried first,
    runs Forall/Arrow on the root and then gives a reason."""
    env, tables = v2_env
    env = declare(env, "parameter", "P", "nat → Prop")
    env = declare(env, "parameter", "Q'", "N → Prop")
    lhs = parse_and_elaborate(env, "∀ n : nat, P n")
    rhs = parse_and_elaborate(env, "∀ n : N, Q' n")
    ctx = LocalContext().push("H", app(Const(IMPL), lhs, rhs))
    expect = Known(Const(IMPL))
    judgment, trace = synth(env, tables, ctx, lhs, rhs, expect)
    assert [(s.depth, s.rule) for s in trace.steps] == [(0, "Forall"),
                                                        (1, "Env")]
    assert judgment == (Const(IMPL), Var(0))
    assert counting_convertible and counting_convertible[0][0] is lhs
    # With no hypothesis, Forall/Arrow derives `all nat` to `all N` and
    # the bound variables' pair before `P` against `Q'` fails.
    failed = synth(env, tables, LocalContext(), lhs, rhs, expect)
    assert failed.message.startswith("cannot relate P to Q' (")

    written = []

    def probe(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        if self._forall_arrow_view(ctx, lhs, rhs, wl, wr, shapes, expect,
                                   depth) is not None:
            written.append(len(self.steps))
        return "declines after deriving"

    monkeypatch.setattr(_Synth, "_probe", probe, raising=False)
    monkeypatch.setattr(_Synth, "RULES", (("Probe", "_probe"),) + _Synth.RULES)
    assert synth(env, tables, ctx, lhs, rhs, expect) == (judgment, trace)
    assert written == [2]


def test_the_later_of_two_equally_deep_failures_is_reported(v2_env,
                                                           monkeypatch):
    """A probe rule, tried first at the root, fails on two pairs one level
    down, `c` to `c'` and then `d` to `d'`.  The root then fails one level
    up, and the message names the second pair."""
    env, tables = v2_env
    for name, ty in (("c", "nat"), ("c'", "N"), ("d", "nat"), ("d'", "N")):
        env = env.add_parameter(name, Const(ty))

    def probe(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        if depth > 0:
            return None
        for left, right in (("c", "c'"), ("d", "d'")):
            assert self.synth(ctx, Const(left), Const(right), ANY,
                              depth + 1) is None
        return "fails below"

    monkeypatch.setattr(_Synth, "_probe", probe, raising=False)
    monkeypatch.setattr(_Synth, "RULES", (("Probe", "_probe"),) + _Synth.RULES)
    result = synth(env, tables, LocalContext(), Const("c"), Const("c'"), ANY)
    assert isinstance(result, TransferFailure)
    assert result.message.startswith("cannot relate d to d' (Env: ")
    assert "Probe" not in result.message


def test_synth_takes_an_expectation():
    params = inspect.signature(synth).parameters
    assert list(params)[:6] == ["env", "tables", "ctx", "lhs", "rhs", "expect"]
    assert params["expect"].default is inspect.Parameter.empty
    match_params = inspect.signature(match_relation).parameters
    assert list(match_params) == ["env", "stored", "expect", "tables"]
    assert match_params["tables"].kind is inspect.Parameter.KEYWORD_ONLY


def test_synth_all_table_rule(v2_env):
    env, tables = v2_env
    expect = RelArrow(ANY, Known(Const(IMPL)))
    result = synth(env, tables, LocalContext(),
                   App(Const(ALL), Const("nat")), App(Const(ALL), Const("N")),
                   expect)
    assert not isinstance(result, TransferFailure)
    judgment, trace = result
    assert trace.steps[0].rule == "Table"
    assert convertible(env, judgment.relation,
                       parse_and_elaborate(env, "(natN ##> impl) ##> impl"))


def test_synth_impl_prefill_solves_both_holes(v2_env):
    env, tables = v2_env
    expect = RelArrow(ANY, RelArrow(ANY, Known(Const(IMPL))))
    result = synth(env, tables, LocalContext(), Const(IMPL), Const(IMPL), expect)
    assert not isinstance(result, TransferFailure)
    judgment, trace = result
    assert trace.steps[0].rule == "Table"
    assert print_term(judgment.relation, env) == "impl⁻¹ ##> impl ##> impl"


def test_synth_failure_reports_deepest_judgment(v2_env):
    env, tables = v2_env
    thm = parse_and_elaborate(env, "∀ x y : nat, le x y → le y x")
    goal = parse_and_elaborate(env, "∀ x y : N, N.le x y → N.le x y")
    env2 = env.add_axiom("thm", thm)
    result = transfer_modulo(env2, tables, thm, goal, Const("thm"))
    assert isinstance(result, TransferFailure)
    assert result.kind == "no-derivation"
    assert "cannot relate" in result.message


# --- the worked derivation -------------------------------------------------------------

WORKED_DERIVATION_RULES = [
    "Forall", "App", "Table", "Lambda",          # outer quantifier
    "Arrow", "App", "App", "Table",              # implication split, prefill
    "App", "Env", "App", "Env", "Table-inv",     # hypothesis atom
]


@pytest.fixture
def worked(v2_env):
    env, tables = v2_env
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    result = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                             Const("le_trans"), diagnostics=True)
    assert not isinstance(result, TransferFailure)
    return env, tables, goal, result


def test_a_second_problem_converts_no_registered_pair_again(worked,
                                                            monkeypatch):
    """After one transfer, each pair of the state's relations that it
    compared is read from the state's memo: the same transfer on the same
    state converts none of them again."""
    env, tables, goal, _ = worked
    compared = set(tables._compared)
    assert compared
    calls = []
    original = tables_module.convertible

    def counting(env, a, b):
        calls.append((id(a), id(b)))
        return original(env, a, b)

    monkeypatch.setattr(tables_module, "convertible", counting)
    result = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                             Const("le_trans"))
    assert not isinstance(result, TransferFailure)
    assert not compared.intersection(calls)
    assert set(tables._compared) == compared


def test_a_relation_the_state_did_not_register_is_converted_afresh(v2_env):
    """`twin` is `natN` in one extension of the table's environment and the
    flipped equation in a sibling one.  The same `twin` leaf against the
    same stored `le` entry matches in the first only, whichever is asked
    first: a relation that the state did not register is never answered
    from its memo, while the entry's own relations are."""
    env, tables = v2_env
    same = env.add_definition("twin", parse_and_elaborate(
        env, "fun x : nat => fun x' : N => N.of_nat x = x'"))
    other = env.add_definition("twin", parse_and_elaborate(
        env, "fun x : nat => fun x' : N => x' = N.of_nat x"))
    twin = Const("twin")
    expect = RelArrow(Known(twin), ANY)
    for order in ((same, other), (other, same), (same, other)):
        for extension in order:
            result = synth(extension, tables, LocalContext(), Const("le"),
                           Const("N.le"), expect)
            assert isinstance(result, TransferFailure) \
                is (extension is other)
    entry, _ = lookup_relation_v2(tables, env, Const("le"), Const("N.le"))
    assert id(entry.relation) in tables._relations
    assert id(twin) not in tables._relations


def test_worked_derivation_proof_checks(worked):
    env, _, goal, (proof, _) = worked
    assert check_proof(env, LocalContext(), proof, goal)


def test_worked_derivation_rule_sequence(worked):
    env, _, _, (_, trace) = worked
    names = rules(trace)
    # the showcased subsequence appears in order
    it = iter(names)
    assert all(any(r == want for r in it) for want in WORKED_DERIVATION_RULES)
    # per-quantifier structure: three Forall/App/Table/Lambda rounds
    assert names[:4] == ["Forall", "App", "Table", "Lambda"]
    assert names.count("Forall") == 3
    assert names.count("Lambda") == 3
    assert names.count("Table-inv") == 2
    assert names.count("Arrow") == 2


def test_worked_derivation_hypotheses_via_inverse(worked):
    env, _, _, (_, trace) = worked
    inv_steps = [s for s in trace.steps if s.rule == "Table-inv"]
    assert len(inv_steps) == 2
    for s in inv_steps:
        lhs, _, relation, _, rhs = s.parts
        assert lhs == Const("le") and rhs == Const("N.le")
        assert print_term(relation, env, s.ctx) == "natN ##> natN ##> impl⁻¹"
    direct = [s for s in trace.steps
              if s.rule == "Table" and s.parts[0] == Const("le")]
    assert len(direct) == 1  # the conclusion atom uses the direct entry


def test_engine_checks_only_under_diagnostics(v2_env, kernel_checks):
    env, tables = v2_env
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    proof, trace = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                                   Const("le_trans"))
    assert "Table-inv" in rules(trace)
    assert kernel_checks == []
    transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                    Const("le_trans"), diagnostics=True)
    assert kernel_checks  # one per derived judgment
    assert check_proof(env, LocalContext(), proof, goal)


def test_wrong_entry_proof_is_caught_by_diagnostics_or_the_check(v2_env):
    # le_down_rel's entry now carries le_up_rel's proof; the derivation only
    # matches relations, so it still goes through the (inverted) entry
    env, tables = v2_env
    stored = tables.relations_v2
    assert stored[1].proof == Const("le_down_rel")
    bad = stored[1]._replace(proof=Const("le_up_rel"))
    rebuilt = DeclTables()
    for store in ("surjections", "transfers_v1", "relations_v2"):
        for entry in getattr(tables, store):
            rebuilt = _insert(rebuilt, store, env,
                              bad if entry is stored[1] else entry, "it")
    tables = rebuilt
    assert tables.relations_v2 == stored[:1] + (bad,) + stored[2:]
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    with pytest.raises(SynthesisError, match="unsound judgment at Table:"):
        transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                        Const("le_trans"), diagnostics=True)
    proof, _ = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                               Const("le_trans"))
    assert not check_proof(env, LocalContext(), proof, goal)


def test_determinism_and_replay(v2_env):
    env, tables = v2_env
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    first = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                            Const("le_trans"))
    second = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                             Const("le_trans"))
    assert not isinstance(first, TransferFailure)
    proof1, trace1 = first
    proof2, trace2 = second
    assert proof1 == proof2
    assert trace1.lines() == trace2.lines()
    assert rules(trace1) == rules(trace2)


def test_v1_v2_agreement(v2_env):
    from transfer_kernel.tables import declare_transfer_v1
    from transfer_kernel.transfer_v1 import exact_modulo
    env, tables = v2_env
    tables = declare_transfer_v1(tables, env, "le_down")
    tables = declare_transfer_v1(tables, env, "le_up")
    goal = parse_and_elaborate(
        env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    v1_proof = exact_modulo(env, tables, LocalContext(),
                            env.type_of("le_trans"), goal, Const("le_trans"))
    v2_result = transfer_modulo(env, tables, env.type_of("le_trans"), goal,
                                Const("le_trans"))
    assert not isinstance(v1_proof, TransferFailure)
    assert not isinstance(v2_result, TransferFailure)
    v2_proof, _ = v2_result
    assert check_proof(env, LocalContext(), v1_proof, goal)
    assert check_proof(env, LocalContext(), v2_proof, goal)


def test_every_trace_relation_is_meta_free(worked):
    from transfer_kernel.kernel import infer_type
    env, _, _, (_, trace) = worked
    assert trace.steps
    for step in trace.steps:
        # relations and judgments contain only kernel terms; inferring their
        # type would fail on any leftover metavariable marker
        infer_type(env, step.ctx, step.parts[2])


def test_identity_judgment_from_env_hypotheses():
    # goal identical to the theorem, every free variable related to itself
    # by a context hypothesis: the derivation is pure Env/App/Table leaves
    env = prelude_env()
    env = env.add_parameter("nat", SET)
    env = declare(env, "parameter", "P", "nat → Prop")
    env = declare(env, "parameter", "natid", "nat → nat → Prop")
    env = declare(env, "axiom", "P_id", "(natid ##> impl) P P")
    tables = declare_relation_v2(DeclTables(), env, "P_id")
    ctx = LocalContext().push("x", Const("nat")).push("x'", Const("nat"))
    ctx = ctx.push("H", parse_and_elaborate(env, "natid x x'", ctx))
    lhs = parse_and_elaborate(env, "P x", ctx)
    rhs = parse_and_elaborate(env, "P x'", ctx)
    result = synth(env, tables, ctx, lhs, rhs, Known(Const(IMPL)),
                   diagnostics=True)
    assert not isinstance(result, TransferFailure)
    judgment, trace = result
    assert rules(trace) == ["App", "Env", "Table"]
    assert check_proof(env, ctx, judgment.proof,
                       app(judgment.relation, lhs, rhs))


FLIP_SCRIPT = """\
Parameter nat N : Set.
Parameter N.of_nat : nat → N.
Parameter N.to_nat : N → nat.
Parameter le : nat → nat → Prop.
Parameter N.le : N → N → Prop.
Axiom of_to : ∀ x' : N, N.of_nat (N.to_nat x') = x'.
Declare Surjection N.of_nat by (N.to_nat, of_to).
Definition natN x x' := N.of_nat x = x'.
Axiom le_up_rel : (natN ##> natN ##> impl) le N.le.
Declare Relation le_up_rel.
Axiom le_down_rel : (natN⁻¹ ##> natN⁻¹ ##> impl) N.le le.
Declare Relation le_down_rel.
Axiom le_flip : ∀ H H1 : nat, le H H1 → le H1 H.
Theorem N.le_flip : ∀ x' y' : N, N.le x' y' → N.le y' x'.
  transfer modulo le_flip.
Qed.
"""

FLIP_PROOF = (
    "N.of_nat_rel_surj (fun H : nat => ∀ H1 : nat, le H H1 → le H1 H) "
    "(fun x' : N => ∀ y' : N, N.le x' y' → N.le y' x') "
    "(fun (H : nat) (x' : N) (H' : N.of_nat_rel H x') => N.of_nat_rel_surj "
    "(fun H1 : nat => le H H1 → le H1 H) "
    "(fun y' : N => N.le x' y' → N.le y' x') "
    "(fun (H1 : nat) (y' : N) (H1' : N.of_nat_rel H1 y') => impl_respectful "
    "(le H H1) (N.le x' y') ((fun (y : nat) (x : N) (h : natN⁻¹ x y) "
    "(y'' : nat) (x'' : N) (h' : natN⁻¹ x'' y'') => "
    "le_down_rel x y h x'' y'' h') H x' H' H1 y' H1') (le H1 H) "
    "(N.le y' x') (le_up_rel H1 y' H1' H x' H'))) le_flip")

FLIP_TRACE = """\
Forall ∀ (H : nat) (H1 : nat), le H H1 → le H1 H ⇝[impl] ∀ (x' : N) (y' : N), N.le x' y' → N.le y' x'
  App all nat (fun H : nat => ∀ H1 : nat, le H H1 → le H1 H) ⇝[impl] all N (fun x' : N => ∀ y' : N, N.le x' y' → N.le y' x')
    Table all nat ⇝[(N.of_nat_rel ##> impl) ##> impl] all N
    Lambda fun H : nat => ∀ H1 : nat, le H H1 → le H1 H ⇝[N.of_nat_rel ##> impl] fun x' : N => ∀ y' : N, N.le x' y' → N.le y' x'
      Forall ∀ H1 : nat, le H H1 → le H1 H ⇝[impl] ∀ y' : N, N.le x' y' → N.le y' x'
        App all nat (fun H1 : nat => le H H1 → le H1 H) ⇝[impl] all N (fun y' : N => N.le x' y' → N.le y' x')
          Table all nat ⇝[(N.of_nat_rel ##> impl) ##> impl] all N
          Lambda fun H1 : nat => le H H1 → le H1 H ⇝[N.of_nat_rel ##> impl] fun y' : N => N.le x' y' → N.le y' x'
            Arrow le H H1 → le H1 H ⇝[impl] N.le x' y' → N.le y' x'
              App impl (le H H1) (le H1 H) ⇝[impl] impl (N.le x' y') (N.le y' x')
                App impl (le H H1) ⇝[impl ##> impl] impl (N.le x' y')
                  Table impl ⇝[impl⁻¹ ##> impl ##> impl] impl
                  App le H H1 ⇝[impl⁻¹] N.le x' y'
                    Env H1 ⇝[N.of_nat_rel] y'
                    App le H ⇝[natN ##> impl⁻¹] N.le x'
                      Env H ⇝[N.of_nat_rel] x'
                      Table-inv le ⇝[natN ##> natN ##> impl⁻¹] N.le
                App le H1 H ⇝[impl] N.le y' x'
                  Env H ⇝[N.of_nat_rel] x'
                  App le H1 ⇝[natN ##> impl] N.le y'
                    Env H1 ⇝[N.of_nat_rel] y'
                    Table le ⇝[natN ##> natN ##> impl] N.le"""


def test_lambda_hypotheses_are_named_by_enclosing_lambda_steps():
    """The source binds `H` and `H1`, the names the Lambda rule gives its
    first two hypotheses.  The rule counts its enclosing Lambda steps, so a
    source binder of that name does not shift the count; the printer then
    renames each hypothesis past the binder it would shadow."""
    options = RunOptions(engine="v2", trace=True)
    state = execute_script(FLIP_SCRIPT, options)
    assert exit_code(state) == 0, state.errors
    (result,) = state.results
    assert print_term(result.proof, state.env) == FLIP_PROOF
    assert "\n".join(result.trace_lines) == FLIP_TRACE
    hyps = [ctx_entry.name for ctx_entry in
            result.trace.steps[-1].ctx.entries[2::3]]
    assert hyps == ["H", "H1"]


def test_lambda_rule_requires_syntactic_functions(v2_env):
    # a partial application of impl unfolds to a lambda, but the Lambda
    # rule must not chase that unfolding (it would loop); the node fails
    env, tables = v2_env
    lhs = parse_and_elaborate(env, "impl False")
    result = synth(env, tables, LocalContext(), lhs, lhs,
                   Known(parse_and_elaborate(env, "impl ##> impl")))
    assert isinstance(result, TransferFailure)



@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(TERMS)
def test_the_lambda_rules_left_body_is_one_shift(body):
    """Under x, x' and H, the Lambda rule moves the left binder from 0 to 2
    and every other free index up by two, which is `shift(body, 2)`: the
    two-step walk it replaces gives the same term on open terms.  The right
    binder goes to 1, which no shift gives."""
    assert shift(body, 2) == replace_var(shift(body, 2, 1), 0, Var(2))
    if occurs_free(body, 0):
        assert replace_var(shift(body, 2, 1), 0, Var(1)) != shift(body, 2)


def underivable_identity():
    env = prelude_env()
    env = env.add_parameter("nat", SET)
    env = declare(env, "parameter", "P", "nat → Prop")
    env = declare(env, "axiom", "thm", "∀ x : nat, P x → P x")
    tables = prefill_core(DeclTables(), env)
    goal = parse_and_elaborate(env, "∀ x : nat, P x → P x")
    return transfer_modulo(env, tables, env.type_of("thm"), goal,
                           Const("thm"))


def test_failed_attempts_do_not_leak_solutions():
    # a dead-end table match must leave nothing behind for later rules,
    # and an underivable identity goal must fail finitely
    assert isinstance(underivable_identity(), TransferFailure)


def test_failure_message_is_printed_once_when_first_read(printer_calls):
    result = underivable_identity()
    assert isinstance(result, TransferFailure)
    assert printer_calls == []
    message = result.message
    printed = len(printer_calls)
    assert printed > 0 and "cannot relate" in message
    assert result.message == message
    assert len(printer_calls) == printed

