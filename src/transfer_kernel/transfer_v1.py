"""First transfer engine: recursion over atoms and dependent products.

Given a proved source formula and a target formula of the same shape, the
engine builds an explicit proof of the target.  Atoms are bridged by
declared transfer lemmas; quantifiers first try to transfer the bound
hypothesis backwards, then fall back to a declared surjection, replacing
the source variable by `g x'` and rewriting `f (g x')` back to `x'` with
an equality eliminator.  The replacement happens only in covariant
positions so the atoms line up with the transfer-lemma shape.

Produced proofs are meant to kernel-check, but the engine checks none of
them: the caller checks a proof before trusting it (the CLI does so when it
admits the theorem).  Failures are returned as `TransferFailure` values,
never raised; given a list, the engine appends its `TraceStep`s to it.
Neither is printed here (see `outcome`).
"""

from __future__ import annotations

from .kernel import (
    EQ_IND,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Term, Var,
    app, convertible, shift, whnf,
)
from .outcome import TraceStep, TransferFailure
from .surface import print_term
from .tables import DeclTables, lookup_surjection, lookup_transfer_v1
from .terms import replace_var, spine


def subst_polarized(formula: Term, target: int, replacement: Term,
                    covariant: bool) -> Term:
    """Substitute for a variable only in positions of the given polarity.

    Descending into a product flips polarity for the domain and keeps it
    for the codomain; anything that is not a product is treated as an atom
    and replaced wholesale iff the current polarity is covariant.
    """
    if isinstance(formula, Pi):
        return Pi(formula.name,
                  subst_polarized(formula.ty, target, replacement,
                                  not covariant),
                  subst_polarized(formula.body, target + 1,
                                  shift(replacement, 1), covariant))
    if covariant:
        return replace_var(formula, target, replacement)
    return formula


def build_rewrite(goal: Term, var_index: int, from_term: Term,
                  eq_proof: Term, inner: Term, codomain: Term) -> Term:
    """Turn a proof of goal[covariant var := from_term] into a proof of goal.

    The motive abstracts exactly the covariant occurrences of the variable,
    so applying it to `from_term` is convertible with the inner statement
    and applying it to the variable is the goal itself.  eq_proof must
    prove `eq codomain from_term var`.  Purely syntactic: the result is not
    kernel-checked here.
    """
    motive_body = subst_polarized(shift(goal, 1), var_index + 1, Var(0),
                                  covariant=True)
    motive = Lam("w", codomain, motive_body)
    return app(Const(EQ_IND), codomain, from_term, motive, inner,
               Var(var_index), eq_proof)


def exact_modulo(env: GlobalEnv, tables: DeclTables, ctx: LocalContext,
                 source: Term, target: Term, proof: Term,
                 trace: list[TraceStep] | None = None,
                 _depth: int = 0) -> Term | TransferFailure:
    """Transfer `proof : source` into a proof of `target`, or fail.

    Case order: conversion short-circuit, then matching dependent products
    (hypothesis direction first, surjection second), then matching atoms
    through the transfer-lemma table.  `_depth` is the engine's own: the
    nesting of the steps it appends to `trace`.
    """
    if convertible(env, source, target):
        if trace is not None:
            trace.append(TraceStep(_depth, "identity", ctx))
        return proof

    ws = whnf(env, source)
    wt = whnf(env, target)
    if isinstance(ws, Pi) and isinstance(wt, Pi):
        return _product_case(env, tables, ctx, ws, wt, proof, trace, _depth)
    if isinstance(ws, Pi) or isinstance(wt, Pi):
        return TransferFailure(
            "shape-mismatch",
            lambda: f"{print_term(source, env, ctx)} and "
                    f"{print_term(target, env, ctx)} do not have the same "
                    "shape")
    return _atom_case(env, tables, ctx, source, target, proof, trace, _depth)


def _product_case(env, tables, ctx, ws: Pi, wt: Pi, proof, trace, depth):
    dom_s, body_s = ws.ty, ws.body
    dom_t, body_t = wt.ty, wt.body
    binder = wt.name if wt.name != "_" else ws.name
    ctx2 = ctx.push(binder, dom_t)
    lifted_proof = shift(proof, 1)

    # Hypothesis direction: turn the new variable (a proof of the target
    # domain) into a proof of the source domain.
    sub_trace: list[TraceStep] | None = [] if trace is not None else None
    witness = exact_modulo(env, tables, ctx2, shift(dom_t, 1), shift(dom_s, 1),
                           Var(0), sub_trace, depth + 2)
    if not isinstance(witness, TransferFailure):
        if trace is not None:
            trace.append(TraceStep(depth, "product-hypothesis", ctx,
                                   (binder, " : ", dom_t)))
            trace.extend(sub_trace or [])
        inst_body = replace_var(body_s, 0, witness)
        rec = exact_modulo(env, tables, ctx2, inst_body, body_t,
                           App(lifted_proof, witness), trace, depth + 1)
        if isinstance(rec, TransferFailure):
            return rec
        return Lam(binder, dom_t, rec)

    entry = lookup_surjection(tables, env, dom_s, dom_t)
    if entry is None:
        return TransferFailure(
            "no-table-entry",
            lambda: f"no surjection declared for ({print_term(dom_s, env, ctx)}, "
                    f"{print_term(dom_t, env, ctx)})")
    if trace is not None:
        trace.append(TraceStep(depth, "product-surjection", ctx,
                               (binder, " via ", entry.fn)))
    g_var = App(shift(entry.inverse, 1), Var(0))
    fg_var = App(shift(entry.fn, 1), g_var)
    inst_body = replace_var(body_s, 0, g_var)
    subst_goal = subst_polarized(body_t, 0, fg_var, covariant=True)
    rec = exact_modulo(env, tables, ctx2, inst_body, subst_goal,
                       App(lifted_proof, g_var), trace, depth + 1)
    if isinstance(rec, TransferFailure):
        return rec
    if trace is not None:
        trace.append(TraceStep(depth, "rewrite", ctx2,
                               ("restore ", binder, " from ", fg_var)))
    eq_proof = App(shift(entry.proof, 1), Var(0))
    wrapped = build_rewrite(body_t, 0, fg_var, eq_proof, rec,
                            shift(entry.codomain, 1))
    return Lam(binder, dom_t, wrapped)


def _atom_case(env, tables, ctx, source, target, proof, trace, depth):
    # Beta head reduction only: definitions stay folded so declared
    # relations stay recognizable.
    head_s, args_s = spine(whnf(env, source, delta=False))
    head_t, args_t = spine(whnf(env, target, delta=False))
    if len(args_s) != len(args_t):
        return TransferFailure(
            "shape-mismatch",
            lambda: f"atoms {print_term(source, env, ctx)} and "
                    f"{print_term(target, env, ctx)} have arities "
                    f"{len(args_s)} and {len(args_t)}")
    entry = lookup_transfer_v1(tables, env, head_s, head_t)
    if entry is None:
        return TransferFailure(
            "no-table-entry",
            lambda: f"no transfer lemma for ({print_term(head_s, env, ctx)}, "
                    f"{print_term(head_t, env, ctx)})")
    if entry.arity != len(args_s):
        return TransferFailure(
            "shape-mismatch",
            lambda: f"transfer lemma for ({print_term(head_s, env, ctx)}, "
                    f"{print_term(head_t, env, ctx)}) expects {entry.arity} "
                    f"arguments, atoms have {len(args_s)}")
    for i, (arg_s, arg_t) in enumerate(zip(args_s, args_t), start=1):
        image = App(entry.transfer_fn, arg_s)
        if not convertible(env, arg_t, image):
            return TransferFailure(
                "argument-mismatch",
                lambda: f"argument {i}: {print_term(arg_t, env, ctx)} is not "
                        f"{print_term(image, env, ctx)}")
    if trace is not None:
        trace.append(TraceStep(depth, "atom", ctx,
                               (entry.proof, " : ", head_s, " to ", head_t)))
    return app(entry.proof, *args_s, proof)
