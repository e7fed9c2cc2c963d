"""Second transfer engine: deterministic synthesis of relatedness judgments.

A judgment relates a source term and a target term through a relation,
witnessed by a kernel-checkable proof.  The synthesizer tries its rules on
each pair in a fixed order: Forall/Arrow (a product viewed as an
application of `all` or `impl`), Env (a context hypothesis), Table (a
declared relation entry, or a stored one flipped), App (one application)
and Lambda (binders, when the expected relation is a relator arrow).  A
rule returns its derivation, or the reason it does not apply, or None: it
gives no reason when it applied and a pair below it failed, as that
failure is deeper, and Forall/Arrow gives none, as it only rewrites the
pair.  A failure names the deepest failing pair, where no rule applied,
with each rule's reason.  Lambda names its hypothesis `H`, `H1`, … by the
Lambda steps enclosing it, which it counts.

Each pair is reduced once: `synth` puts each side in weak head normal
form without delta, which Forall/Arrow, Table, App and Lambda read, and
finds the head shape of its full weak head normal form (`whnf_shape`),
which Env and Table read; the rules take both with the pair.  Env reads a
per-context index: the candidate hypotheses `Var(i) : R a b` of a context
are found once per engine run, since a context changes only when the
Lambda rule pushes a new one, and Env then tests them in the order a scan
from the innermost entry would.  A hypothesis side that is a variable is
convertible exactly with a side whose shape is that variable's, so Env
decides it by the shape and calls `convertible` only for other sides.

Relation expectations are patterns (`Known`, `RelArrow` and `ANY`, which
matches any closed relation), matched one way against hypothesis and table
relations by conversion, in no context; a match leaves no state, as the
relation matched is passed on in the derived judgment.  The rule order and
operand order are fixed, so identical inputs produce identical derivations.
Matching and resolving test a pattern's exact class, most frequent first,
so `Known`, `Any` and `RelArrow` must stay final; `ANY` is an empty tuple,
so falsy, and a pattern is never tested by truthiness.

The engine does not kernel-check what it emits unless asked to
(`diagnostics`); the proof it returns is checked by whoever trusts it.
Each derived judgment is recorded as a `TraceStep` (rule, side terms,
relation) and a failure as a `TransferFailure`; neither is printed here
(see `outcome`).
"""

from __future__ import annotations

from typing import NamedTuple

from .kernel import (
    ALL, IMPL, PROP, RESPECTFUL,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Term, TypeCheckError, Var,
    app, check_proof_report, convertible, infer_type, shift, unshift, whnf,
)
from .outcome import DerivationTrace, TraceStep, TransferFailure
from .surface import print_term
from .tables import (  # the benchmark's tracer wraps invert_entry here
    DeclTables, SynthesisError, invert_entry, relation_entries, whnf_shape,
)
from .terms import (
    occurs_free, relation_types, replace_var, respectful_view, spine,
)


# ---------------------------------------------------------------------------
# Relation expectations
# ---------------------------------------------------------------------------

class Known(NamedTuple):
    rel: Term


class Any(NamedTuple):
    """The pattern that matches any closed relation."""


ANY = Any()


class RelArrow(NamedTuple):
    """Expectation `dom ##> cod`, each side a pattern."""
    dom: "RelExpectation"
    cod: "RelExpectation"


RelExpectation = Known | Any | RelArrow


class Judgment(NamedTuple):
    ctx: LocalContext
    lhs: Term
    rhs: Term
    relation: Term
    proof: Term


# A judgment and its derivation's steps, in pre-order.
Derived = tuple[Judgment, tuple[TraceStep, ...]]


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def match_relation(env: GlobalEnv, stored: Term,
                   expect: RelExpectation) -> bool:
    """Whether a stored relation matches an expectation pattern, one way:
    the stored relation is never instantiated.  The rules call this once
    per match, which the benchmark counts; `_match` does the recursion."""
    return _match(env, stored, expect)


def _match(env: GlobalEnv, stored: Term, expect: RelExpectation) -> bool:
    cls = type(expect)
    if cls is Known:
        return convertible(env, expect.rel, stored)
    if cls is RelArrow:
        view = respectful_view(env, stored)
        if view is None:
            return False
        _, _, _, _, r, s = view
        return _match(env, r, expect.dom) and _match(env, s, expect.cod)
    if cls is Any:
        return stored.lbr == 0
    return False


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

class _FailurePoint(NamedTuple):
    depth: int
    ctx: LocalContext
    lhs: Term
    rhs: Term
    attempts: list[tuple[str, str]]


class _Synth:
    def __init__(self, env: GlobalEnv, tables: DeclTables, diagnostics: bool):
        self.env = env
        self.tables = tables
        self.diagnostics = diagnostics
        self.deepest_failure: _FailurePoint | None = None
        self._lambdas = 0  # Lambda steps enclosing the pair being derived
        # id(ctx) -> (ctx, its hypotheses); see `_hypotheses`.
        self._hyp_index: dict[int, tuple[LocalContext, list]] = {}

    # -- expectation helpers -------------------------------------------------

    def resolve(self, expect: RelExpectation,
                ctx: LocalContext) -> Term | None:
        """The expectation as a relation term, or None if it holds `ANY` or
        a side is not a binary relation."""
        cls = type(expect)
        if cls is Known:
            return expect.rel
        if cls is RelArrow:
            d = self.resolve(expect.dom, ctx)
            c = self.resolve(expect.cod, ctx)
            if d is None or c is None:
                return None
            try:
                x, y = relation_types(self.env, ctx, d)
                x2, y2 = relation_types(self.env, ctx, c)
            except TypeCheckError:
                return None
            return app(Const(RESPECTFUL), x, y, x2, y2, d, c)
        return None

    def record_failure(self, depth: int, ctx: LocalContext, lhs: Term,
                       rhs: Term, attempts: list[tuple[str, str]]) -> None:
        if self.deepest_failure is None or depth >= self.deepest_failure.depth:
            self.deepest_failure = _FailurePoint(depth, ctx, lhs, rhs,
                                                 attempts)

    def failure_message(self) -> str:
        fp = self.deepest_failure
        if fp is None:
            return "no derivation found"
        lhs = print_term(fp.lhs, self.env, fp.ctx)
        rhs = print_term(fp.rhs, self.env, fp.ctx)
        tried = "; ".join(f"{rule}: {why}" for rule, why in fp.attempts)
        return (f"cannot relate {lhs} to {rhs}"
                + (f" ({tried})" if tried else ""))

    # -- sort checks ----------------------------------------------------------

    def _sort_of(self, ctx: LocalContext, t: Term) -> Term | None:
        try:
            return whnf(self.env, infer_type(self.env, ctx, t))
        except TypeCheckError:
            return None

    # -- the rules -------------------------------------------------------------

    # Tried in this order; a rule's reason is shown under its name here.
    RULES = (("Forall/Arrow", "_forall_arrow_view"), ("Env", "_rule_env"),
             ("Table", "_rule_table"), ("App", "_rule_app"),
             ("Lambda", "_rule_lambda"))

    def synth(self, ctx: LocalContext, lhs: Term, rhs: Term,
              expect: RelExpectation,
              depth: int = 0) -> Derived | None:
        attempts: list[tuple[str, str]] = []
        # The pair's sides reduced once, and their shapes (module docstring).
        wl = whnf(self.env, lhs, delta=False)
        wr = whnf(self.env, rhs, delta=False)
        shapes = whnf_shape(self.env, wl), whnf_shape(self.env, wr)
        for name, rule in self.RULES:
            result = getattr(self, rule)(ctx, lhs, rhs, wl, wr, shapes,
                                         expect, depth)
            if isinstance(result, tuple):
                return result
            if result is not None:
                attempts.append((name, result))
        self.record_failure(depth, ctx, lhs, rhs, attempts)
        return None

    def _finish(self, judgment: Judgment, rule: str, depth: int,
                below: tuple[TraceStep, ...] = (),
                inverse: bool = False) -> Derived:
        """The judgment with its step, followed by the steps of the
        judgments it rests on (`below`)."""
        if self.diagnostics:
            stmt = app(judgment.relation, judgment.lhs, judgment.rhs)
            ok, diag = check_proof_report(self.env, judgment.ctx,
                                          judgment.proof, stmt)
            if not ok:
                raise SynthesisError(f"unsound judgment at {rule}: {diag}")
        step = TraceStep(depth, f"{rule}-inv" if inverse else rule,
                         judgment.ctx, (judgment.lhs, " ⇝[", judgment.relation,
                                        "] ", judgment.rhs))
        return judgment, (step, *below)

    # Forall / Arrow -----------------------------------------------------------

    def _forall_arrow_view(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        # Products are detected on the beta view only: the rewritten
        # `impl`/`all` applications must stay applications when recursing.
        if not (isinstance(wl, Pi) and isinstance(wr, Pi)):
            return None
        if not occurs_free(wl.body, 0) and not occurs_free(wr.body, 0) \
                and self._sort_of(ctx, wl.ty) == PROP \
                and self._sort_of(ctx, wr.ty) == PROP:
            rule = "Arrow"
            lhs2 = app(Const(IMPL), wl.ty, unshift(wl.body))
            rhs2 = app(Const(IMPL), wr.ty, unshift(wr.body))
        elif self._sort_of(ctx.push(wl.name, wl.ty), wl.body) == PROP \
                and self._sort_of(ctx.push(wr.name, wr.ty), wr.body) == PROP:
            rule = "Forall"
            lhs2 = app(Const(ALL), wl.ty, Lam(wl.name, wl.ty, wl.body))
            rhs2 = app(Const(ALL), wr.ty, Lam(wr.name, wr.ty, wr.body))
        else:
            return None
        sub = self.synth(ctx, lhs2, rhs2, expect, depth + 1)
        if sub is None:
            return None
        judgment, steps = sub
        wrapped = Judgment(ctx, lhs, rhs, judgment.relation, judgment.proof)
        return self._finish(wrapped, rule, depth, steps)

    # Env ----------------------------------------------------------------------

    def _rule_env(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        for i, rel, a, b in self._hypotheses(ctx):
            if not (self._converts(a, lhs, shapes[0])
                    and self._converts(b, rhs, shapes[1])):
                continue
            if not match_relation(self.env, rel, expect):
                continue
            return self._finish(Judgment(ctx, lhs, rhs, rel, Var(i)), "Env",
                                depth)
        return "no hypothesis relates the two sides"

    def _converts(self, side, pair_side, shape):
        """Whether a hypothesis's side is convertible with a pair's side,
        whose weak head normal form has `shape`.  A variable is convertible
        exactly with what reduces to it, so the shape decides it without a
        reduct."""
        if type(side) is Var:
            return shape == (Var, side.index, 0)
        return convertible(self.env, side, pair_side)

    def _hypotheses(self, ctx):
        """`(i, R, a, b)` for each entry `Var(i) : R a b` of the context
        (its type's beta-whnf has at least two arguments), innermost first.

        A context changes only when the Lambda rule pushes a new one, so
        the list is computed once per context object.  The memo holds the
        context itself, so its id cannot be reused by another one.
        """
        memo = self._hyp_index.get(id(ctx))
        if memo is None:
            found = []
            for i in range(len(ctx)):
                head, args = spine(whnf(self.env, ctx.type_of(i), delta=False))
                if len(args) >= 2:
                    found.append((i, app(head, *args[:-2]), args[-2], args[-1]))
            memo = self._hyp_index[id(ctx)] = (ctx, found)
        return memo[1]

    # Table ----------------------------------------------------------------------

    def _rule_table(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        for entry, via_inverse in relation_entries(self.tables, self.env,
                                                   wl, wr, shapes):
            if match_relation(self.env, entry.relation, expect):
                judgment = Judgment(ctx, lhs, rhs, entry.relation, entry.proof)
                return self._finish(judgment, "Table", depth,
                                    inverse=via_inverse)
        return "no matching entry (direct or inverted)"

    # App ------------------------------------------------------------------------

    def _rule_app(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        if not (isinstance(wl, App) and isinstance(wr, App)):
            return "sides are not both applications"
        fn_l, arg_l = wl.fn, wl.arg
        fn_r, arg_r = wr.fn, wr.arg

        # Variable arguments are pinned by Env first (the relation flows from
        # the argument); otherwise the function side determines the domain.
        args_are_vars = isinstance(arg_l, Var) and isinstance(arg_r, Var)
        if args_are_vars:
            arg_sub = self.synth(ctx, arg_l, arg_r, ANY, depth + 1)
            if arg_sub is None:
                return None
            fn_expect = RelArrow(Known(arg_sub[0].relation), expect)
        else:
            fn_expect = RelArrow(ANY, expect)
        fn_sub = self.synth(ctx, fn_l, fn_r, fn_expect, depth + 1)
        if fn_sub is None:
            return None
        fn_j, fn_steps = fn_sub
        view = respectful_view(self.env, fn_j.relation)
        if view is None:
            return "function relation is not a relator arrow"
        if args_are_vars:
            arg_j, arg_steps = arg_sub
            steps = arg_steps + fn_steps
        else:
            arg_sub = self.synth(ctx, arg_l, arg_r, Known(view[4]), depth + 1)
            if arg_sub is None:
                return None
            arg_j, arg_steps = arg_sub
            steps = fn_steps + arg_steps

        result_rel = view[5]
        proof = app(fn_j.proof, arg_l, arg_r, arg_j.proof)
        judgment = Judgment(ctx, lhs, rhs, result_rel, proof)
        return self._finish(judgment, "App", depth, steps)

    # Lambda -----------------------------------------------------------------------

    def _rule_lambda(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        resolved = self.resolve(expect, ctx)
        if resolved is None:
            return "expected relation is undetermined"
        view = respectful_view(self.env, resolved)
        if view is None:
            return "expected relation is not a relator arrow"
        _, _, _, _, rel_dom, rel_cod = view
        # Only syntactic functions: unfolding constants into lambdas here
        # would re-open the applications the other rules just decomposed.
        if not (isinstance(wl, Lam) and isinstance(wr, Lam)):
            return "sides are not both functions"
        n = self._lambdas
        hyp_name = "H" if n == 0 else f"H{n}"
        hyp_ty = app(shift(rel_dom, 2), Var(1), Var(0))
        ctx3 = (ctx.push(wl.name, wl.ty)
                   .push(wr.name, shift(wr.ty, 1))
                   .push(hyp_name, hyp_ty))
        # Under x, x', H: the left binder is Var(2), the right one Var(1).
        body_l = shift(wl.body, 2)
        body_r = replace_var(shift(wr.body, 2, 1), 0, Var(1))
        self._lambdas = n + 1
        sub = self.synth(ctx3, body_l, body_r, Known(shift(rel_cod, 3)),
                         depth + 1)
        self._lambdas = n
        if sub is None:
            return None
        body_j, body_steps = sub
        proof = Lam(wl.name, wl.ty,
                    Lam(wr.name, shift(wr.ty, 1),
                        Lam(hyp_name, hyp_ty, body_j.proof)))
        judgment = Judgment(ctx, lhs, rhs, resolved, proof)
        return self._finish(judgment, "Lambda", depth, body_steps)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def synth(env: GlobalEnv, tables: DeclTables, ctx: LocalContext, lhs: Term,
          rhs: Term, expect: RelExpectation, diagnostics: bool = False
          ) -> tuple[Judgment, DerivationTrace] | TransferFailure:
    """Derive a single judgment relating lhs to rhs under the expectation."""
    engine = _Synth(env, tables, diagnostics)
    result = engine.synth(ctx, lhs, rhs, expect)
    if result is None:
        return TransferFailure("no-derivation", engine.failure_message)
    judgment, steps = result
    return judgment, DerivationTrace(steps, env)


def transfer_modulo(env: GlobalEnv, tables: DeclTables, thm_statement: Term,
                    goal: Term, thm_proof: Term, diagnostics: bool = False
                    ) -> tuple[Term, DerivationTrace] | TransferFailure:
    """Produce a proof of goal from a proof of thm_statement, plus a trace.

    The root judgment is derived at the implication relation; the result is
    its proof applied to the theorem's proof.  That proof is not
    kernel-checked here: check it before trusting it (the CLI does so when
    it admits the theorem).  With `diagnostics`, every intermediate
    judgment is checked as it is derived and the first unsound one raises
    SynthesisError.
    """
    result = synth(env, tables, LocalContext(), thm_statement, goal,
                   Known(Const(IMPL)), diagnostics)
    if isinstance(result, TransferFailure):
        return result
    judgment, trace = result
    return App(judgment.proof, thm_proof), trace
