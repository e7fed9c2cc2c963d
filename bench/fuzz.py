"""Seeded v1/v2 transfer problems with answers known by construction.

The fixtures and generators are a frozen copy of the shapes the test suite
fuzzes (v1: surjection rewriting over `A`/`A'`; v2: relation entries over
`nat`/`N`), kept here so that an edit to the tests cannot change the
workload.  Only two things differ from a plain copy: every problem's root
is a quantifier (a real transfer always quantifies over the new type), and
each problem carries the verdict its construction implies.

Answer oracle: the target is the primed counterpart of the source, which
both engines prove.  A mutation that leaves the target unchanged therefore
still gives *proved*; a mutation that changes it must fail, with
`no-table-entry` (v1) or `no-derivation` (v2) for a swapped relation head,
and with a documented failure kind for a dropped hypothesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from transfer_kernel.kernel import (
    SET, App, Const, GlobalEnv, Pi, Term, Var, app, arrow, prelude_env,
    unshift,
)
from transfer_kernel.surface import parse_and_elaborate
from transfer_kernel.tables import (
    DeclTables, declare_relation_v2, declare_surjection, declare_transfer_v1,
    lookup_surjection, prefill_core, surjection_to_relational,
)

DEPTHS = (3, 4, 5, 6)
MUTATIONS = (None, None, None, "head", "drop")  # 3 none : 1 head : 1 drop
BLOCK = len(DEPTHS) * len(MUTATIONS)  # problems holding the exact mix

# Failure kinds each engine documents (TransferFailure's docstring for v1,
# transfer_modulo's single failure value for v2).
DOCUMENTED_KINDS = {
    "v1": frozenset({"no-table-entry", "argument-mismatch", "shape-mismatch"}),
    "v2": frozenset({"no-derivation"}),
}
HEAD_KIND = {"v1": "no-table-entry", "v2": "no-derivation"}


@dataclass(frozen=True)
class Problem:
    index: int
    engine: str           # "v1" | "v2"
    depth: int
    mutation: str | None  # None | "head" | "drop"
    source: Term
    target: Term
    expect_proved: bool   # the construction's verdict

    def allowed(self) -> frozenset:
        """Verdicts the construction allows: None (proved) or failure kinds."""
        if self.expect_proved:
            return frozenset({None})
        if self.mutation == "head":
            return frozenset({HEAD_KIND[self.engine]})
        return DOCUMENTED_KINDS[self.engine]


def _declare(env: GlobalEnv, kind: str, name: str, text: str) -> GlobalEnv:
    term = parse_and_elaborate(env, text)
    return (env.add_parameter(name, term) if kind == "parameter"
            else env.add_axiom(name, term))


def v1_fixture() -> tuple[GlobalEnv, DeclTables]:
    env = prelude_env()
    env = env.add_parameter("A", SET).add_parameter("A'", SET)
    env = _declare(env, "parameter", "fA", "A → A'")
    env = _declare(env, "parameter", "gA", "A' → A")
    env = _declare(env, "axiom", "surjA", "∀ x' : A', fA (gA x') = x'")
    env = _declare(env, "parameter", "R1", "A → Prop")
    env = _declare(env, "parameter", "R1'", "A' → Prop")
    env = _declare(env, "parameter", "R2", "A → A → Prop")
    env = _declare(env, "parameter", "R2'", "A' → A' → Prop")
    env = _declare(env, "parameter", "S1", "A → Prop")
    env = _declare(env, "parameter", "S1'", "A' → Prop")
    env = _declare(env, "axiom", "r1_up", "∀ x : A, R1 x → R1' (fA x)")
    env = _declare(env, "axiom", "r1_down", "∀ x' : A', R1' x' → R1 (gA x')")
    env = _declare(env, "axiom", "r2_up",
                   "∀ x y : A, R2 x y → R2' (fA x) (fA y)")
    env = _declare(env, "axiom", "r2_down",
                   "∀ x y : A', R2' x y → R2 (gA x) (gA y)")
    tables = DeclTables()
    tables = declare_surjection(tables, env, "fA", "gA", "surjA")
    for lemma in ("r1_up", "r1_down", "r2_up", "r2_down"):
        tables = declare_transfer_v1(tables, env, lemma)
    return env, tables


def v2_fixture() -> tuple[GlobalEnv, DeclTables]:
    env = prelude_env()
    env = env.add_parameter("nat", SET).add_parameter("N", SET)
    env = _declare(env, "parameter", "N.of_nat", "nat → N")
    env = _declare(env, "parameter", "N.to_nat", "N → nat")
    env = _declare(env, "axiom", "of_to", "∀ x' : N, N.of_nat (N.to_nat x') = x'")
    env = env.add_definition(
        "natN", parse_and_elaborate(env, "fun x x' => N.of_nat x = x'"))
    env = _declare(env, "parameter", "le", "nat → nat → Prop")
    env = _declare(env, "parameter", "N.le", "N → N → Prop")
    env = _declare(env, "parameter", "P", "nat → Prop")
    env = _declare(env, "parameter", "P'", "N → Prop")
    env = _declare(env, "parameter", "Q'", "N → Prop")
    env = _declare(env, "axiom", "le_up_rel", "(natN ##> natN ##> impl) le N.le")
    env = _declare(env, "axiom", "le_down_rel",
                   "(natN⁻¹ ##> natN⁻¹ ##> impl) N.le le")
    env = _declare(env, "axiom", "P_up", "(natN ##> impl) P P'")
    env = _declare(env, "axiom", "P_down", "(natN⁻¹ ##> impl) P' P")
    # identity-carrying entry: there is no reflexivity fallback
    env = _declare(env, "axiom", "false_id", "impl False False")
    tables = prefill_core(DeclTables(), env)
    tables = declare_surjection(tables, env, "N.of_nat", "N.to_nat", "of_to")
    for lemma in ("le_up_rel", "le_down_rel", "P_up", "P_down", "false_id"):
        tables = declare_relation_v2(tables, env, lemma)
    entry = lookup_surjection(tables, env, Const("nat"), Const("N"))
    tables, env = surjection_to_relational(tables, env, entry)
    return env, tables


# Per-engine vocabulary: (source type, target type, forall probability,
# unary pair, binary pair, head-swap pair).
_SHAPES = {
    "v1": ("A", "A'", 0.6, ("R1", "R1'"), ("R2", "R2'"), ("R1'", "S1'")),
    "v2": ("nat", "N", 0.5, ("P", "P'"), ("le", "N.le"), ("P'", "Q'")),
}


def _pair(rng: random.Random, engine: str, depth: int) -> tuple[Term, Term]:
    ty, ty2, p_forall, (u, u2), (b, b2), _ = _SHAPES[engine]

    def gen(d: int, n_vars: int, covariant: bool) -> tuple[Term, Term]:
        choices = ["atom"]
        if d > 0:
            if covariant and rng.random() < p_forall:
                choices.append("forall")
            choices.append("imp")
        kind = rng.choice(choices)
        if kind == "forall":
            src, tgt = gen(d - 1, n_vars + 1, covariant)
            return Pi("x", Const(ty), src), Pi("x'", Const(ty2), tgt)
        if kind == "imp":
            hs, ht = gen(d - 1, n_vars, not covariant)
            cs, ct = gen(d - 1, n_vars, covariant)
            return arrow(hs, cs), arrow(ht, ct)
        if n_vars == 0:
            return Const("False"), Const("False")
        if rng.random() < 0.5:
            i = rng.randrange(n_vars)
            return app(Const(u), Var(i)), app(Const(u2), Var(i))
        i, j = rng.randrange(n_vars), rng.randrange(n_vars)
        return app(Const(b), Var(i), Var(j)), app(Const(b2), Var(i), Var(j))

    return gen(depth, 0, True)


def _is_quantifier(t: Term) -> bool:
    return isinstance(t, Pi) and t.name != "_"


def problems(engine: str, seed: int):
    """Endless stream of quantifier-rooted problems for one engine.

    The same (engine, seed) always yields the same sequence.  Each BLOCK
    of problems pairs every depth with every mutation slot once, in seeded
    order, so depth is uniform and the mutation mix is exact in every
    block; only the formulas are random.
    """
    rng = random.Random(f"{engine}:{seed}")
    _, _, _, _, _, (old, new) = _SHAPES[engine]
    slots = [(d, m) for d in DEPTHS for m in MUTATIONS]
    index = 0
    while True:
        rng.shuffle(slots)
        for depth, mutation in slots:
            yield _problem(rng, engine, index, depth, mutation, old, new)
            index += 1


def _problem(rng: random.Random, engine: str, index: int, depth: int,
             mutation: str | None, old: str, new: str) -> Problem:
    src, tgt = _pair(rng, engine, depth)
    while not _is_quantifier(src):
        src, tgt = _pair(rng, engine, depth)
    mutated = tgt
    if mutation == "head":
        mutated = swap_heads(tgt, Const(old), Const(new))
    elif mutation == "drop":
        mutated = drop_one_arrow(tgt)
    return Problem(index, engine, depth, mutation, src, mutated,
                   expect_proved=(mutated == tgt))


def swap_heads(t: Term, old: Term, new: Term) -> Term:
    if isinstance(t, App):
        return App(swap_heads(t.fn, old, new), t.arg)
    if isinstance(t, Pi):
        return Pi(t.name, t.ty, swap_heads(t.body, old, new))
    return new if t == old else t


def drop_one_arrow(t: Term) -> Term:
    if isinstance(t, Pi) and t.name == "_":
        return unshift(t.body)
    if isinstance(t, Pi):
        return Pi(t.name, t.ty, drop_one_arrow(t.body))
    return t
