"""Second transfer engine: deterministic synthesis of relatedness judgments.

A judgment relates a source term and a target term through a relation,
witnessed by a kernel-checkable proof.  The synthesizer tries its rules on
each pair in a fixed order: Forall/Arrow (a product viewed as an
application of `all` or `impl`), Env (a context hypothesis), Table (a
declared relation entry, or a stored one flipped), App (one application)
and Lambda (binders, when the expected relation is a relator arrow).  A
rule only derives: it returns its step's label and the `Judgment` it
derives, or the reason it does not apply, or None: it gives no reason
when it applied and a pair below it failed, as that failure is deeper,
and Forall/Arrow gives none, as it only rewrites the pair.  `synth`
reserves the pair's step in the run's step list before it tries the
rules, so steps are in pre-order, fills it after the `diagnostics` check,
and deletes the steps a rule that did not apply left.  A failure names
the deepest failing pair, where no rule applied, with each rule's reason.
Lambda names its hypothesis `H`, `H1`, … by the Lambda steps enclosing
it, which it counts.

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
A step is a `TraceStep` (rule, side terms, relation) and a failure a
`TransferFailure`; neither is printed here (see `outcome`).
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
from .terms import occurs_free, relation_types, replace_var, respectful_view


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
    """The relation a derived pair is related by, and the proof of it."""
    relation: Term
    proof: Term


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

class _Synth:
    def __init__(self, env: GlobalEnv, tables: DeclTables, diagnostics: bool):
        self.env = env
        self.tables = tables
        self.diagnostics = diagnostics
        # (depth, ctx, lhs, rhs, attempts) of the deepest failing pair.
        self.deepest_failure: tuple | None = None
        self._lambdas = 0  # Lambda steps enclosing the pair being derived
        self.steps: list[TraceStep] = []  # the run's trace, in pre-order
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

    def failure_message(self) -> str:
        if self.deepest_failure is None:
            return "no derivation found"
        _, ctx, lhs, rhs, attempts = self.deepest_failure
        lhs = print_term(lhs, self.env, ctx)
        rhs = print_term(rhs, self.env, ctx)
        tried = "; ".join(f"{rule}: {why}" for rule, why in attempts)
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
              expect: RelExpectation, depth: int = 0) -> Judgment | None:
        """The pair's judgment, by the first rule that derives it, or None;
        the one place that checks a judgment and records its step."""
        attempts: list[tuple[str, str]] = []
        # The pair's sides reduced once, and their shapes (module docstring).
        wl = whnf(self.env, lhs, delta=False)
        wr = whnf(self.env, rhs, delta=False)
        shapes = whnf_shape(self.env, wl), whnf_shape(self.env, wr)
        steps = self.steps
        slot = len(steps)
        steps.append(None)
        for name, rule in self.RULES:
            result = getattr(self, rule)(ctx, lhs, rhs, wl, wr, shapes,
                                         expect, depth)
            if isinstance(result, tuple):
                label, judgment = result
                if self.diagnostics:
                    stmt = app(judgment.relation, lhs, rhs)
                    ok, diag = check_proof_report(self.env, ctx,
                                                  judgment.proof, stmt)
                    if not ok:
                        raise SynthesisError(
                            f"unsound judgment at "
                            f"{label.removesuffix('-inv')}: {diag}")
                steps[slot] = TraceStep(depth, label, ctx,
                                        (lhs, " ⇝[", judgment.relation, "] ",
                                         rhs))
                return judgment
            del steps[slot + 1:]
            if result is not None:
                attempts.append((name, result))
        del steps[slot]
        # The later of two equally deep failures wins.
        if self.deepest_failure is None or depth >= self.deepest_failure[0]:
            self.deepest_failure = depth, ctx, lhs, rhs, attempts
        return None

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
        return None if sub is None else (rule, sub)

    # Env ----------------------------------------------------------------------

    def _rule_env(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        for i, rel, a, b in self._hypotheses(ctx):
            if not (self._converts(a, lhs, shapes[0])
                    and self._converts(b, rhs, shapes[1])):
                continue
            if not match_relation(self.env, rel, expect):
                continue
            return "Env", Judgment(rel, Var(i))
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
        (its type's beta-whnf is `App(App(R, a), b)`, split in place as
        `declare_relation_v2` splits a lemma), innermost first.

        A context changes only when the Lambda rule pushes a new one, so
        the list is computed once per context object.  The memo holds the
        context itself, so its id cannot be reused by another one.
        """
        memo = self._hyp_index.get(id(ctx))
        if memo is None:
            found = []
            for i in range(len(ctx)):
                t = whnf(self.env, ctx.type_of(i), delta=False)
                if isinstance(t, App) and isinstance(t.fn, App):
                    found.append((i, t.fn.fn, t.fn.arg, t.arg))
            memo = self._hyp_index[id(ctx)] = (ctx, found)
        return memo[1]

    # Table ----------------------------------------------------------------------

    def _rule_table(self, ctx, lhs, rhs, wl, wr, shapes, expect, depth):
        for entry, via_inverse in relation_entries(self.tables, self.env,
                                                   wl, wr, shapes):
            if match_relation(self.env, entry.relation, expect):
                return ("Table-inv" if via_inverse else "Table",
                        Judgment(entry.relation, entry.proof))
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
            arg_j = self.synth(ctx, arg_l, arg_r, ANY, depth + 1)
            if arg_j is None:
                return None
            fn_expect = RelArrow(Known(arg_j.relation), expect)
        else:
            fn_expect = RelArrow(ANY, expect)
        fn_j = self.synth(ctx, fn_l, fn_r, fn_expect, depth + 1)
        if fn_j is None:
            return None
        view = respectful_view(self.env, fn_j.relation)
        if view is None:
            return "function relation is not a relator arrow"
        if not args_are_vars:
            arg_j = self.synth(ctx, arg_l, arg_r, Known(view[4]), depth + 1)
            if arg_j is None:
                return None
        return "App", Judgment(view[5],
                               app(fn_j.proof, arg_l, arg_r, arg_j.proof))

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
        body_j = self.synth(ctx3, body_l, body_r, Known(shift(rel_cod, 3)),
                            depth + 1)
        self._lambdas = n
        if body_j is None:
            return None
        return "Lambda", Judgment(resolved, Lam(
            wl.name, wl.ty, Lam(wr.name, shift(wr.ty, 1),
                                Lam(hyp_name, hyp_ty, body_j.proof))))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def synth(env: GlobalEnv, tables: DeclTables, ctx: LocalContext, lhs: Term,
          rhs: Term, expect: RelExpectation, diagnostics: bool = False
          ) -> tuple[Judgment, DerivationTrace] | TransferFailure:
    """Derive a single judgment relating lhs to rhs under the expectation."""
    engine = _Synth(env, tables, diagnostics)
    judgment = engine.synth(ctx, lhs, rhs, expect)
    if judgment is None:
        return TransferFailure("no-derivation", engine.failure_message)
    return judgment, DerivationTrace(tuple(engine.steps), env)


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
