"""Acceptance suite: one test per criterion, run with `pytest -v`.

Each test prints a `criterion N: PASS` line on success (visible with -s or
-rA); the test name itself carries the criterion number for the verbose
listing.  Criterion 6 runs the full 500-problem randomized budget, so this
module takes a few seconds; everything else is instant.
"""

import time

import pytest

from transfer_kernel.cli import (
    EXIT_OK, RunOptions, execute_script, exit_code,
)
from transfer_kernel.kernel import (
    ALL, EQ, Const, LocalContext, App, app, check_proof, normalize,
)
from transfer_kernel.surface import parse_and_elaborate, print_term
from transfer_kernel.tables import (
    DeclTables, DuplicateEntry, declare_surjection, lookup_relation_v2,
    lookup_surjection, surjection_to_relational,
)
from transfer_kernel.transfer_v1 import (
    TransferFailure, exact_modulo, subst_polarized,
)
from transfer_kernel.transfer_v2 import transfer_modulo

from conftest import GOLDEN, script_text
from fuzz_helpers import v1_fixture, v1_problem, v2_fixture, v2_problem
from test_transfer_v1 import _polarity_fixture_cases, oracle_subst


def run(name: str, **kwargs):
    state = execute_script(script_text(name), RunOptions(**kwargs))
    return exit_code(state), state


def ok(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_empty_set_script():
    """The introductory script runs to exit 0 and its proof re-checks."""
    code, state = run("example1.tk")
    assert code == EXIT_OK
    (result,) = state.results
    assert result.status == "proved"
    goal = parse_and_elaborate(state.env, "∀ x' : A', False")
    assert check_proof(state.env, LocalContext(), result.proof, goal)
    ok(1, "script exit 0, emitted proof kernel-checks")


def test_criterion_2_transitivity_v1_with_trace():
    """Transitivity transfers; the trace shows three surjection branches,
    the downward lemma twice, the upward lemma once, one rewrite each."""
    code, state = run("example2.tk", trace=True)
    assert code == EXIT_OK
    (result,) = state.results
    goal = parse_and_elaborate(
        state.env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    assert check_proof(state.env, LocalContext(), result.proof, goal)
    cases = [line.strip().split()[0] for line in result.trace_lines]
    assert cases.count("product-surjection") == 3
    assert cases.count("rewrite") == 3
    atoms = [line.strip().split()[1] for line in result.trace_lines
             if line.strip().startswith("atom")]
    assert atoms == ["le_down", "le_down", "le_up"]
    assert cases.count("product-hypothesis") == 2
    ok(2, "3 surjection branches, le_down x2, le_up x1, 3 rewrites")


def test_criterion_3_asymmetric_surjectivity():
    """One-directional surjectivity suffices for one direction and the
    companion script fails with a no-table-entry diagnostic."""
    code, state = run("zn_transfer.tk")
    assert code == EXIT_OK
    assert state.results[0].status == "proved"
    code2, state2 = run("zn_missing.tk")
    assert code2 != EXIT_OK
    (result,) = state2.results
    assert result.status == "failed"
    assert result.failure.kind == "no-table-entry"
    ok(3, "forward transfer proved, reverse fails with no-table-entry")


def test_criterion_4_worked_v2_derivation():
    """The relational engine proves transitivity and the derivation trace
    matches the frozen golden trace node for node."""
    code, state = run("v2_letrans.tk", trace=True)
    assert code == EXIT_OK
    (result,) = state.results
    goal = parse_and_elaborate(
        state.env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    assert check_proof(state.env, LocalContext(), result.proof, goal)

    golden = (GOLDEN / "v2_letrans_trace.txt").read_text(
        encoding="utf-8").splitlines()
    assert result.trace_lines == golden  # trace node order exact

    rules = [line.strip().split()[0] for line in result.trace_lines]
    showcased = ["Forall", "App", "Table", "Lambda",
                 "Arrow", "App", "App", "Table",
                 "App", "Env", "App", "Env", "Table-inv"]
    it = iter(rules)
    assert all(any(r == want for r in it) for want in showcased)
    ok(4, "golden trace exact, showcased rule sequence in order")


def test_criterion_5_relational_encoding_of_surjections(nat_env):
    """The generated quantifier/equality entries print like the three
    declared forms and their proofs check; unfolded statements match."""
    tables = declare_surjection(DeclTables(), nat_env, "N.of_nat", "N.to_nat",
                                "of_to")
    entry = lookup_surjection(tables, nat_env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(tables, nat_env, entry)
    rel = "N.of_nat_rel"

    checks = [
        (App(Const(ALL), Const("nat")), App(Const(ALL), Const("N")),
         f"(({rel} ##> impl) ##> impl) (all nat) (all N)"),
        (App(Const(ALL), Const("N")), App(Const(ALL), Const("nat")),
         f"(({rel}⁻¹ ##> impl) ##> impl) (all N) (all nat)"),
        (App(Const(EQ), Const("nat")), App(Const(EQ), Const("N")),
         f"({rel} ##> {rel} ##> impl) (eq nat) (eq N)"),
    ]
    for lhs, rhs, expected in checks:
        found, via = lookup_relation_v2(tables, env, lhs, rhs)
        assert not via
        stmt = app(found.relation, found.lhs, found.rhs)
        assert print_term(stmt, env) == expected
        assert check_proof(env, LocalContext(), found.proof, stmt)

    surj_entry, _ = lookup_relation_v2(tables, env, App(Const(ALL), Const("nat")),
                                       App(Const(ALL), Const("N")))
    surj_unfolded = parse_and_elaborate(
        env,
        "∀ (P : nat → Prop) (P' : N → Prop), "
        f"(∀ (x : nat) (x' : N), {rel} x x' → P x → P' x') → "
        "(∀ x : nat, P x) → ∀ x' : N, P' x'")
    stmt = app(surj_entry.relation, surj_entry.lhs, surj_entry.rhs)
    assert normalize(env, stmt) == normalize(env, surj_unfolded)

    func_entry, _ = lookup_relation_v2(tables, env, App(Const(EQ), Const("nat")),
                                       App(Const(EQ), Const("N")))
    func_unfolded = parse_and_elaborate(
        env,
        f"∀ (x : nat) (x' : N), {rel} x x' → "
        f"∀ (y : nat) (y' : N), {rel} y y' → x = y → x' = y'")
    stmt = app(func_entry.relation, func_entry.lhs, func_entry.rhs)
    assert normalize(env, stmt) == normalize(env, func_unfolded)
    ok(5, "three printed declarations and both unfolded forms match")


def test_criterion_6_soundness_over_corpus_and_fuzz(rng):
    """Corpus plus 500 randomized problems: every success re-checks and
    prints to a term that parses back to it, every failure is a structured
    value, within 10 seconds per problem."""
    budget = 10.0
    # corpus scripts
    for name in ("example1.tk", "example2.tk", "v2_letrans.tk",
                 "zn_transfer.tk", "zn_missing.tk", "iszero.tk",
                 "agreement.tk"):
        state = execute_script(script_text(name), RunOptions())
        assert not state.internal_errors, name
        for result in state.results:
            assert result.status in ("proved", "failed")

    stats = {"v1": [0, 0], "v2": [0, 0]}
    env1, tables1 = v1_fixture()
    for i in range(250):
        mutate = rng.choice([None, None, None, "head", "drop"])
        src, tgt = v1_problem(rng, depth=3, mutate=mutate)
        hyp_env = env1.add_axiom(f"h{i}", src)
        started = time.perf_counter()
        outcome = exact_modulo(hyp_env, tables1, LocalContext(), src, tgt,
                               Const(f"h{i}"))
        assert time.perf_counter() - started < budget
        if isinstance(outcome, TransferFailure):
            stats["v1"][1] += 1
        else:
            stats["v1"][0] += 1
            assert check_proof(hyp_env, LocalContext(), outcome, tgt)
            assert parse_and_elaborate(
                hyp_env, print_term(outcome, hyp_env)) == outcome

    env2, tables2 = v2_fixture()
    for i in range(250):
        mutate = rng.choice([None, None, None, "head", "drop"])
        src, tgt = v2_problem(rng, depth=3, mutate=mutate)
        hyp_env = env2.add_axiom(f"h{i}", src)
        started = time.perf_counter()
        outcome = transfer_modulo(hyp_env, tables2, src, tgt, Const(f"h{i}"))
        assert time.perf_counter() - started < budget
        if isinstance(outcome, TransferFailure):
            stats["v2"][1] += 1
        else:
            stats["v2"][0] += 1
            proof, _ = outcome
            assert check_proof(hyp_env, LocalContext(), proof, tgt)
            assert parse_and_elaborate(
                hyp_env, print_term(proof, hyp_env)) == proof

    for engine, (wins, losses) in stats.items():
        assert wins > 0 and losses > 0, (engine, wins, losses)
    ok(6, f"v1 {stats['v1'][0]}+/{stats['v1'][1]}-, "
          f"v2 {stats['v2'][0]}+/{stats['v2'][1]}- over 500 problems")


def test_criterion_7_identity_and_negative_invariants(nat_env):
    """Convertible goals return the input proof unchanged; duplicates are
    transactional; deleting any required declaration flips the outcome."""
    # identity: alpha-variant goal gives back the very same proof object
    rho = Const("le_trans")
    variant = parse_and_elaborate(
        nat_env, "∀ a b c : nat, le a b → le b c → le a c")
    result = exact_modulo(nat_env, DeclTables(), LocalContext(),
                          nat_env.type_of("le_trans"), variant, rho)
    assert result is rho

    # duplicate declarations error and leave the tables untouched
    tables = declare_surjection(DeclTables(), nat_env, "N.of_nat", "N.to_nat",
                                "of_to")
    snapshot = tables.surjections
    with pytest.raises(DuplicateEntry):
        declare_surjection(tables, nat_env, "N.of_nat", "N.to_nat", "of_to")
    assert tables.surjections is snapshot

    # removing any single required declaration flips the scripts to failure
    removals = 0
    for name in ("example1.tk", "example2.tk", "zn_transfer.tk",
                 "v2_letrans.tk"):
        lines = script_text(name).splitlines(keepends=True)
        for i, line in enumerate(lines):
            if not line.startswith("Declare"):
                continue
            mutated = "".join(lines[:i] + lines[i + 1:])
            state = execute_script(mutated, RunOptions())
            assert exit_code(state) != EXIT_OK, (name, line)
            assert state.results and state.results[0].status == "failed"
            assert state.results[0].failure.kind in ("no-table-entry",
                                                     "no-derivation")
            removals += 1
    # and the pre-filled implication entry is required by the v2 script
    state = execute_script(script_text("v2_letrans.tk"),
                           RunOptions(prefill=False))
    assert exit_code(state) != EXIT_OK
    removals += 1
    ok(7, f"identity proof reused, duplicates transactional, "
          f"{removals} single-entry removals all fail")


def test_criterion_8_polarity_oracle_agreement():
    """The engine's polarity-aware substitution agrees with the two-pass
    annotate-then-rebuild oracle on all 50 fixture formulas."""
    cases = _polarity_fixture_cases()
    assert len(cases) == 50
    replacement = Const("t")
    for formula in cases:
        for covariant in (True, False):
            assert subst_polarized(formula, 0, replacement, covariant) == \
                oracle_subst(formula, 0, replacement, covariant)
    ok(8, "50 fixtures, both starting polarities")
