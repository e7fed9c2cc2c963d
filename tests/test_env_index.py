"""v2's Env rule reads a per-context hypothesis index.

The engine computes the candidate hypotheses `(i, R, a, b)` of a context
once and keeps them for as long as the engine runs.  `scanning_rule_env`
below is the rule as it was before: it scans the context on every call.
Patched in, it must give the same proofs, traces and failure messages.
"""

import random

import pytest

from transfer_kernel.cli import RunOptions, execute_script
from transfer_kernel.kernel import (
    EQ, SET, Const, LocalContext, Var, app, convertible, prelude_env, whnf,
)
from transfer_kernel.outcome import TransferFailure
from transfer_kernel.surface import parse_and_elaborate
from transfer_kernel.tables import DeclTables
from transfer_kernel.terms import spine
from transfer_kernel.transfer_v2 import (
    ANY, Judgment, _Synth, match_relation, synth, transfer_modulo,
)

from conftest import declare, script_text
from fuzz_helpers import v2_fixture, v2_problem


def scanning_rule_env(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
    """The Env rule without the index: every call shifts, reduces and
    splits the type of every context entry again, and tests each side by
    `convertible`.  Like every rule, it takes the pair's reduced sides and
    their shapes, here unused, and returns its label and judgment or the
    reason it does not apply."""
    for i in range(len(ctx)):
        ty = ctx.type_of(i)
        head, args = spine(whnf(self.env, ty, delta=False))
        if len(args) < 2:
            continue
        rel = app(head, *args[:-2])
        a, b = args[-2], args[-1]
        if not (convertible(self.env, a, lhs)
                and convertible(self.env, b, rhs)):
            continue
        if not match_relation(self.env, rel, expect):
            continue
        return "Env", Judgment(rel, Var(i))
    return "no hypothesis relates the two sides"


def both_rules(monkeypatch, run):
    """`run()` with the indexed Env rule, then with the scanning one."""
    indexed = run()
    with monkeypatch.context() as m:
        m.setattr(_Synth, "_rule_env", scanning_rule_env)
        scanned = run()
    return indexed, scanned


def outcome(result):
    """A transfer's verdict with its proof and trace, or its failure."""
    if isinstance(result, TransferFailure):
        return "failed", result.kind, result.message
    judgment_or_proof, trace = result
    proof = getattr(judgment_or_proof, "proof", judgment_or_proof)
    return "proved", repr(proof), trace.lines()


def rule_count(lines, rule):
    return sum(line.split()[0] == rule for line in lines)


@pytest.mark.parametrize("seed", [3, 11])
def test_fuzz_verdicts_equal_the_scanning_rule(monkeypatch, seed):
    env, tables = v2_fixture()

    def run():
        rng = random.Random(seed)
        found = []
        for i in range(200):
            mutate = rng.choice([None, None, None, "head", "drop"])
            src, tgt = v2_problem(rng, rng.randint(3, 6), mutate)
            hyp_env = env.add_axiom(f"h{i}", src)
            found.append(outcome(
                transfer_modulo(hyp_env, tables, src, tgt, Const(f"h{i}"))))
        return found

    indexed, scanned = both_rules(monkeypatch, run)
    assert indexed == scanned
    verdicts = [o[0] for o in indexed]
    assert 0 < verdicts.count("failed") < len(verdicts)
    assert sum(rule_count(o[2], "Env") for o in indexed if o[0] == "proved") > 100


def test_letrans_script_equals_the_scanning_rule(monkeypatch):
    text = script_text("v2_letrans.tk")

    def run():
        state = execute_script(text, RunOptions(trace=True))
        return state.errors, [
            (r.name, r.status, repr(r.proof),
             r.failure and (r.failure.kind, r.failure.message), r.trace_lines)
            for r in state.results]

    indexed, scanned = both_rules(monkeypatch, run)
    assert indexed == scanned
    errors, results = indexed
    assert errors == [] and [r[1] for r in results] == ["proved"]
    assert rule_count(results[0][4], "Env") > 0


@pytest.fixture
def eq_env():
    env = prelude_env().add_parameter("nat", SET)
    env = declare(env, "parameter", "a", "nat")
    env = declare(env, "parameter", "b", "nat")
    env = declare(env, "parameter", "le", "nat → nat → Prop")
    env = declare(env, "parameter", "P", "nat → Prop")
    return env


def test_env_finds_a_binder_that_is_not_a_hypothesis(monkeypatch, eq_env):
    """An entry that no Lambda step pushed, as `fun (p : eq nat a b) => …`
    does, is found by Env; an entry with fewer than two arguments is
    skipped, and the innermost of two candidates wins."""
    env, tables = eq_env, DeclTables()
    a, b = Const("a"), Const("b")
    ctx = (LocalContext()
           .push("p", parse_and_elaborate(env, "eq nat a b"))
           .push("r", parse_and_elaborate(env, "P a")))
    inner = ctx.push("q", parse_and_elaborate(env, "le a b"))

    def run():
        return [synth(env, tables, c, a, b, ANY) for c in (ctx, inner, ctx)]

    indexed, scanned = both_rules(monkeypatch, run)
    assert [outcome(r) for r in indexed] == [outcome(r) for r in scanned]
    expected = [(Var(1), app(Const(EQ), Const("nat"))),
                (Var(0), Const("le")),
                (Var(1), app(Const(EQ), Const("nat")))]
    for result, (proof, relation) in zip(indexed, expected):
        judgment, trace = result
        assert [step.rule for step in trace.steps] == ["Env"]
        assert (judgment.proof, judgment.relation) == (proof, relation)
    # Nothing relates b to a: the reversed pair fails in both.
    assert isinstance(synth(env, tables, ctx, b, a, ANY), TransferFailure)
