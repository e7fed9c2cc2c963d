"""Term helpers for the engines, the tables, the elaborator and the
printer.  The kernel's checker never calls them, so they are not trusted
(see `kernel`)."""

from __future__ import annotations

from .kernel import (
    INV, RESPECTFUL,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Term, TypeCheckError, Var,
    app, infer_type, shift, unshift, whnf,
)


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose `h a1 ... an` into (h, [a1, ..., an])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def replace_var(t: Term, target: int, replacement: Term) -> Term:
    """Replace Var(target) without discharging the binder (indices keep).

    The walk is the module-level `_replace_var`, like the kernel's
    traversals: a nested function that calls itself is a reference cycle,
    garbage that only the cyclic collector frees, on every call.
    """
    return _replace_var(t, 0, target, replacement)


def _replace_var(t: Term, depth: int, target: int, replacement: Term) -> Term:
    if t.lbr <= target + depth:
        return t
    cls = type(t)
    if cls is Var:
        if t.index == target + depth:
            return shift(replacement, depth)
        return t
    if cls is App:
        return App(_replace_var(t.fn, depth, target, replacement),
                   _replace_var(t.arg, depth, target, replacement))
    if cls is Pi or cls is Lam:
        return cls(t.name, _replace_var(t.ty, depth, target, replacement),
                   _replace_var(t.body, depth + 1, target, replacement))
    return t


def occurs_free(t: Term, target: int) -> bool:
    if t.lbr <= target:
        return False
    cls = type(t)
    if cls is App:
        return occurs_free(t.fn, target) or occurs_free(t.arg, target)
    if cls is Var:
        return t.index == target
    if cls is Pi or cls is Lam:
        return occurs_free(t.ty, target) or occurs_free(t.body, target + 1)
    return False


def _head_view(env: GlobalEnv, t: Term, name: str, arity: int) \
        -> tuple[Term, ...] | None:
    """The arguments of t (up to head unfolding) as `name` applied to
    `arity` of them, or None.  Stops before unfolding `inv` or
    `respectful`.  The spine is walked once: a definition's body takes its
    name's place in front of the arguments already collected, and only a
    λ head with arguments is β-reduced, by `whnf`."""
    args: list[Term] = []  # the arguments, the last first
    head = t
    while True:
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        if type(head) is Lam and args:
            head = whnf(env, app(head, *reversed(args)), delta=False)
            args = []
            continue
        if type(head) is not Const:
            return None
        if head.name == name and len(args) == arity:
            return tuple(reversed(args))
        if head.name in (INV, RESPECTFUL) or not env.is_definition(head.name):
            return None
        head = env.body_of(head.name)


def respectful_view(env: GlobalEnv, t: Term) -> tuple[Term, Term, Term, Term, Term, Term] | None:
    """Decompose t (up to head unfolding) as `respectful X Y X' Y' R S`.

    Returns (X, Y, X', Y', R, S), or None if t is not such an application.
    """
    return _head_view(env, t, RESPECTFUL, 6)  # type: ignore[return-value]


def inv_view(env: GlobalEnv, t: Term) -> tuple[Term, Term, Term] | None:
    """Decompose t (up to head unfolding) as `inv X Y R` -> (X, Y, R)."""
    return _head_view(env, t, INV, 3)  # type: ignore[return-value]


def relation_domains(env: GlobalEnv, ty: Term) -> tuple[Term, Term] | None:
    """Domain pair (X, Y) of a relation type X -> Y -> ..., or None."""
    ty = whnf(env, ty)
    inner = whnf(env, ty.body) if isinstance(ty, Pi) else None
    if isinstance(inner, Pi) and not occurs_free(inner.ty, 0):
        return ty.ty, unshift(inner.ty)
    return None


def relation_types(env: GlobalEnv, ctx: LocalContext, rel: Term) -> tuple[Term, Term]:
    """Domain pair (X, Y) of a binary relation rel : X -> Y -> Prop."""
    if (domains := relation_domains(env, infer_type(env, ctx, rel))) is None:
        raise TypeCheckError(f"{rel!r} is not a binary relation")
    return domains
