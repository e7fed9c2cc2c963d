"""Engine tests for the product/atom transfer (exact modulo)."""

import random

import pytest

from transfer_kernel.kernel import (
    App, Const, Lam, LocalContext, Pi, Term, Var, app, arrow, check_proof,
    convertible, shift,
)
from transfer_kernel.outcome import DerivationTrace, TransferFailure
from transfer_kernel.surface import parse_and_elaborate, print_term
from transfer_kernel.tables import (
    DeclTables, declare_surjection, declare_transfer_v1, lookup_surjection,
)
from transfer_kernel.transfer_v1 import (
    build_rewrite, exact_modulo, subst_polarized,
)

from conftest import declare


# --- independent polarity oracle -------------------------------------------
#
# Two-pass reference implementation written against the definition alone:
# first annotate every non-product leaf with its polarity, then rebuild the
# formula substituting at covariant leaves with a local, depth-tracking
# replacer.  Shares no traversal code with the engine.

def annotate_polarities(formula: Term):
    leaves = {}

    def walk(t: Term, path: tuple, covariant: bool) -> None:
        if isinstance(t, Pi):
            walk(t.ty, path + ("domain",), not covariant)
            walk(t.body, path + ("body",), covariant)
        else:
            leaves[path] = covariant

    walk(formula, (), True)
    return leaves


def oracle_subst(formula: Term, target: int, replacement: Term,
                 covariant_start: bool) -> Term:
    leaves = annotate_polarities(formula)
    if not covariant_start:
        leaves = {path: not cov for path, cov in leaves.items()}

    def naive_replace(t: Term, idx: int, repl: Term) -> Term:
        if isinstance(t, Var):
            return repl if t.index == idx else t
        if isinstance(t, App):
            return App(naive_replace(t.fn, idx, repl),
                       naive_replace(t.arg, idx, repl))
        if isinstance(t, Lam):
            return Lam(t.name, naive_replace(t.ty, idx, repl),
                       naive_replace(t.body, idx + 1, shift(repl, 1)))
        if isinstance(t, Pi):
            return Pi(t.name, naive_replace(t.ty, idx, repl),
                      naive_replace(t.body, idx + 1, shift(repl, 1)))
        return t

    def rebuild(t: Term, path: tuple, idx: int, repl: Term) -> Term:
        if isinstance(t, Pi):
            return Pi(t.name,
                      rebuild(t.ty, path + ("domain",), idx, repl),
                      rebuild(t.body, path + ("body",), idx + 1,
                              shift(repl, 1)))
        if leaves[path]:
            return naive_replace(t, idx, repl)
        return t

    return rebuild(formula, (), target, replacement)


def _polarity_fixture_cases():
    """50 formulas over one distinguished variable, nested to depth 4."""
    x = Var(0)  # the variable being replaced
    r = lambda *a: app(Const("R"), *a)  # noqa: E731
    q = Const("Q")
    cases = [
        r(x),
        arrow(r(x), q),
        arrow(q, r(x)),
        arrow(r(x), r(x)),
        arrow(arrow(r(x), q), q),
        arrow(arrow(q, r(x)), q),
        arrow(arrow(arrow(r(x), q), q), q),          # triple nesting
        arrow(arrow(arrow(q, r(x)), q), r(x)),
        arrow(arrow(q, arrow(q, r(x))), arrow(r(x), q)),
        Pi("y", Const("A"), app(Const("R2"), Var(1), Var(0))),
        Pi("y", r(x), r(shift(x, 1))),
        arrow(Pi("y", Const("A"), arrow(r(shift(x, 1)), q)), r(x)),
    ]
    rng = random.Random(7)

    def gen(depth: int, idx: int) -> Term:
        xx = Var(idx)
        atoms = [r(xx), q, app(Const("R2"), xx, xx), Const("S")]
        if depth == 0:
            return rng.choice(atoms)
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(atoms)
        if kind == 1:
            return arrow(gen(depth - 1, idx), gen(depth - 1, idx))
        return Pi("y", Const("A"), gen(depth - 1, idx + 1))

    while len(cases) < 50:
        cases.append(gen(4, 0))
    return cases


@pytest.mark.parametrize("idx,formula", list(enumerate(_polarity_fixture_cases())))
def test_polarity_oracle_agreement(idx, formula):
    replacement = Const("t")
    for covariant in (True, False):
        assert subst_polarized(formula, 0, replacement, covariant) == \
            oracle_subst(formula, 0, replacement, covariant), (idx, covariant)


def test_polarity_fixture_has_fifty_cases():
    assert len(_polarity_fixture_cases()) == 50


# --- subst_polarized reference behaviors ----------------------------------------

def test_subst_atom_covariant():
    formula = app(Const("R'"), Var(0))
    out = subst_polarized(formula, 0, Const("t"), covariant=True)
    assert out == app(Const("R'"), Const("t"))


def test_subst_hypothesis_untouched_conclusion_substituted():
    # x' <= y' -> x' <= z'  with x' = Var(2), y' = Var(1), z' = Var(0)
    hyp = app(Const("N.le"), Var(2), Var(1))
    concl = app(Const("N.le"), Var(2), Var(0))
    formula = arrow(hyp, concl)
    out = subst_polarized(formula, 2, Const("t"), covariant=True)
    assert out == arrow(hyp, app(Const("N.le"), Const("t"), Var(0)))


def test_subst_double_flip_restores_covariance():
    # (P(x') -> Q) -> Q'
    formula = arrow(arrow(app(Const("P"), Var(0)), Const("Q")), Const("Q'"))
    out = subst_polarized(formula, 0, Const("t"), covariant=True)
    assert out == arrow(arrow(app(Const("P"), Const("t")), Const("Q")),
                        Const("Q'"))


def test_subst_by_convertible_term_preserves_meaning(nat_env):
    env = nat_env
    ctx = LocalContext().push("x'", Const("N")).push("y'", Const("N"))
    formula = parse_and_elaborate(env, "N.le x' y' → N.le x' x'", ctx)
    # replacement beta-reduces to the variable itself
    replacement = App(Lam("u", Const("N"), Var(0)), Var(1))
    out = subst_polarized(formula, 1, replacement, covariant=True)
    assert out != formula
    assert convertible(env, out, formula)


# --- build_rewrite ---------------------------------------------------------------

@pytest.fixture
def rewrite_env(nat_env):
    tables = declare_surjection(DeclTables(), nat_env, "N.of_nat", "N.to_nat",
                                "of_to")
    return nat_env, tables


def test_build_rewrite_single_position(rewrite_env):
    env, tables = rewrite_env
    entry = lookup_surjection(tables, env, Const("nat"), Const("N"))
    ctx = LocalContext().push("z'", Const("N")).push("x'", Const("N"))
    goal = parse_and_elaborate(env, "N.le x' z'", ctx)
    from_term = App(entry.fn, App(entry.inverse, Var(0)))
    hyp_stmt = subst_polarized(goal, 0, from_term, covariant=True)
    ctx_h = ctx.push("h", hyp_stmt)
    proof = build_rewrite(shift(goal, 1), 1, shift(from_term, 1),
                          App(entry.proof, Var(1)), Var(0), Const("N"))
    assert check_proof(env, ctx_h, proof, shift(goal, 1))


def test_build_rewrite_constant_motive(rewrite_env):
    env, tables = rewrite_env
    entry = lookup_surjection(tables, env, Const("nat"), Const("N"))
    ctx = LocalContext().push("x'", Const("N"))
    goal = Const("False")  # no occurrence of the variable at all
    ctx_h = ctx.push("h", goal)
    from_term = shift(App(entry.fn, App(entry.inverse, Var(0))), 1)
    proof = build_rewrite(Const("False"), 1, from_term,
                          App(entry.proof, Var(1)), Var(0), Const("N"))
    assert check_proof(env, ctx_h, proof, Const("False"))


def test_build_rewrite_hypothesis_position_untouched(rewrite_env):
    env, tables = rewrite_env
    entry = lookup_surjection(tables, env, Const("nat"), Const("N"))
    ctx = LocalContext().push("y'", Const("N")).push("x'", Const("N"))
    goal = parse_and_elaborate(env, "N.le x' y' → N.le x' x'", ctx)
    from_term = App(entry.fn, App(entry.inverse, Var(0)))
    inner_stmt = subst_polarized(goal, 0, from_term, covariant=True)
    ctx_h = ctx.push("h", inner_stmt)
    proof = build_rewrite(shift(goal, 1), 1, shift(from_term, 1),
                          App(entry.proof, Var(1)), Var(0), Const("N"))
    assert check_proof(env, ctx_h, proof, shift(goal, 1))


# --- exact modulo -----------------------------------------------------------------

def test_identity_case_returns_proof_unchanged(nat_env):
    rho = Const("le_trans")
    stmt = nat_env.type_of("le_trans")
    alpha_variant = parse_and_elaborate(
        nat_env, "∀ a b c : nat, le a b → le b c → le a c")
    result = exact_modulo(nat_env, DeclTables(), LocalContext(), stmt,
                          alpha_variant, rho)
    assert result is rho


def test_empty_set_transfer(empty_set_env):
    env = empty_set_env
    tables = declare_surjection(DeclTables(), env, "f", "g", "surjf")
    goal = parse_and_elaborate(env, "∀ x' : A', False")
    trace = []
    proof = exact_modulo(env, tables, LocalContext(), env.type_of("emptyA"),
                         goal, Const("emptyA"), trace)
    assert not isinstance(proof, TransferFailure)
    assert check_proof(env, LocalContext(), proof, goal)
    # the transported fact is applied at the section of the surjection
    assert isinstance(proof, Lam)
    assert "emptyA (g x')" in print_term(proof, env)
    assert [s.rule for s in trace] == ["product-surjection", "identity",
                                       "rewrite"]


def test_untraced_transfer_prints_nothing(empty_set_env, printer_calls):
    env = empty_set_env
    tables = declare_surjection(DeclTables(), env, "f", "g", "surjf")
    goal = parse_and_elaborate(env, "∀ x' : A', False")
    proof = exact_modulo(env, tables, LocalContext(), env.type_of("emptyA"),
                         goal, Const("emptyA"))
    assert check_proof(env, LocalContext(), proof, goal)
    assert printer_calls == []
    steps = []
    exact_modulo(env, tables, LocalContext(), env.type_of("emptyA"), goal,
                 Const("emptyA"), steps)
    assert steps and printer_calls == []  # recording a trace prints nothing
    lines = DerivationTrace(tuple(steps), env).lines()
    assert printer_calls  # reading it does
    assert lines == ["product-surjection x' via f", "  identity",
                     "rewrite restore x' from f (g x')"]


@pytest.fixture
def example2(nat_env):
    tables = DeclTables()
    tables = declare_surjection(tables, nat_env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_transfer_v1(tables, nat_env, "le_down")
    tables = declare_transfer_v1(tables, nat_env, "le_up")
    goal = parse_and_elaborate(
        nat_env, "∀ x' y' z' : N, N.le x' y' → N.le y' z' → N.le x' z'")
    return nat_env, tables, goal


def test_transitivity_transfer(example2):
    env, tables, goal = example2
    trace = []
    proof = exact_modulo(env, tables, LocalContext(), env.type_of("le_trans"),
                         goal, Const("le_trans"), trace)
    assert not isinstance(proof, TransferFailure)
    assert check_proof(env, LocalContext(), proof, goal)
    cases = [s.rule for s in trace]
    assert cases.count("product-surjection") == 3
    assert cases.count("rewrite") == 3
    atoms = [s.parts[0].name for s in trace if s.rule == "atom"]
    assert atoms == ["le_down", "le_down", "le_up"]
    assert cases.count("product-hypothesis") == 2


def test_engine_makes_no_kernel_check(example2, kernel_checks):
    # product-surjection and rewrite steps included: nothing is checked
    # until the caller checks the result
    env, tables, goal = example2
    proof = exact_modulo(env, tables, LocalContext(), env.type_of("le_trans"),
                         goal, Const("le_trans"))
    assert kernel_checks == []
    assert check_proof(env, LocalContext(), proof, goal)


def test_missing_conclusion_lemma_is_named(example2):
    env, _, goal = example2
    tables = DeclTables()
    tables = declare_surjection(tables, env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_transfer_v1(tables, env, "le_down")
    result = exact_modulo(env, tables, LocalContext(), env.type_of("le_trans"),
                          goal, Const("le_trans"))
    assert isinstance(result, TransferFailure)
    assert result.kind == "no-table-entry"
    assert "le" in result.message and "N.le" in result.message


def test_missing_hypothesis_lemma_fails(example2):
    env, _, goal = example2
    tables = DeclTables()
    tables = declare_surjection(tables, env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_transfer_v1(tables, env, "le_up")
    result = exact_modulo(env, tables, LocalContext(), env.type_of("le_trans"),
                          goal, Const("le_trans"))
    assert isinstance(result, TransferFailure)
    assert result.kind == "no-table-entry"


def test_missing_surjection_fails(example2):
    env, _, goal = example2
    tables = DeclTables()
    tables = declare_transfer_v1(tables, env, "le_down")
    tables = declare_transfer_v1(tables, env, "le_up")
    result = exact_modulo(env, tables, LocalContext(), env.type_of("le_trans"),
                          goal, Const("le_trans"))
    assert isinstance(result, TransferFailure)
    assert result.kind == "no-table-entry"
    assert "surjection" in result.message


def test_shape_mismatch_is_structured(nat_env):
    env = nat_env
    src = parse_and_elaborate(env, "∀ x : nat, le x x")
    tgt = parse_and_elaborate(env, "N.le")  # not even a proposition shape
    result = exact_modulo(env, DeclTables(), LocalContext(), src,
                          env.type_of("le_trans"), Const("le_trans"))
    assert isinstance(result, TransferFailure)


def test_lemma_arity_mismatch_is_a_shape_failure(example2):
    """A relation's type fixes how many arguments make it a proposition,
    and a lemma's arity is that number, so only terms the kernel would
    reject reach this check.  The engine does not type-check its input; it
    still answers with the documented kind."""
    env, tables, _ = example2
    ctx = LocalContext().push("x", Const("nat"))
    x, image = Var(0), App(Const("N.of_nat"), Var(0))
    result = exact_modulo(env, tables, ctx, app(Const("le"), x, x, x),
                          app(Const("N.le"), image, image, image), Var(0))
    assert isinstance(result, TransferFailure)
    assert (result.kind, result.message) == (
        "shape-mismatch",
        "transfer lemma for (le, N.le) expects 2 arguments, atoms have 3")


def test_asymmetric_surjectivity_z_to_n(nat_env):
    # Only (nat, N) is declared; transfers into N work, the reverse fails.
    env = declare(nat_env, "axiom", "nle_trans",
                  "∀ x y z : N, N.le x y → N.le y z → N.le x z")
    tables = DeclTables()
    tables = declare_surjection(tables, env, "N.of_nat", "N.to_nat", "of_to")
    tables = declare_transfer_v1(tables, env, "le_down")
    tables = declare_transfer_v1(tables, env, "le_up")
    back_goal = parse_and_elaborate(
        env, "∀ x y z : nat, le x y → le y z → le x z")
    result = exact_modulo(env, tables, LocalContext(),
                          env.type_of("nle_trans"), back_goal,
                          Const("nle_trans"))
    assert isinstance(result, TransferFailure)
    assert result.kind == "no-table-entry"
    assert "surjection" in result.message


# --- fuzzing: soundness and failure totality ------------------------------------

def test_fuzz_soundness_and_totality(rng):
    from fuzz_helpers import v1_fixture, v1_problem
    env, tables = v1_fixture()
    successes = failures = 0
    for i in range(60):
        mutate = rng.choice([None, None, None, "head", "drop"])
        src, tgt = v1_problem(rng, depth=3, mutate=mutate)
        hyp_env = env.add_axiom(f"hyp{i}", src)
        result = exact_modulo(hyp_env, tables, LocalContext(), src, tgt,
                              Const(f"hyp{i}"))
        if isinstance(result, TransferFailure):
            failures += 1
            assert result.kind in ("no-table-entry", "argument-mismatch",
                                   "shape-mismatch")
        else:
            successes += 1
            assert check_proof(hyp_env, LocalContext(), result, tgt), \
                print_term(tgt, hyp_env)
    assert successes > 0 and failures > 0
