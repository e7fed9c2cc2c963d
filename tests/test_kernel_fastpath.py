"""The kernel's de Bruijn fast paths against naive full traversals.

Every term caches its loose-bound-variable range (`lbr`), which lets the
kernel skip closed subterms, and `instantiate` discharges several binders
in one pass.  The references below visit every node and discharge one
binder at a time, as the kernel did before either shortcut existed.
"""

from hypothesis import given, settings, strategies as st

from transfer_kernel.kernel import (
    PROP, SET, App, Const, Lam, Pi, Sort, Term, Var, app, instantiate,
    max_free_index, occurs_free, prelude_env, replace_var, shift, substitute,
    whnf,
)
from transfer_kernel.surface import Meta

settings.register_profile("fastpath", derandomize=True, database=None,
                          deadline=None, max_examples=60)
FASTPATH = settings.get_profile("fastpath")


# --- naive references -----------------------------------------------------------

def naive_shift(t: Term, by: int, cutoff: int = 0) -> Term:
    match t:
        case Var(i):
            return Var(i + by) if i >= cutoff else t
        case App(f, a):
            return App(naive_shift(f, by, cutoff), naive_shift(a, by, cutoff))
        case Lam(x, ty, b):
            return Lam(x, naive_shift(ty, by, cutoff), naive_shift(b, by, cutoff + 1))
        case Pi(x, ty, b):
            return Pi(x, naive_shift(ty, by, cutoff), naive_shift(b, by, cutoff + 1))
    return t


def _rebuild(t: Term, depth: int, on_var) -> Term:
    match t:
        case Var(i):
            return on_var(i, depth)
        case App(f, a):
            return App(_rebuild(f, depth, on_var), _rebuild(a, depth, on_var))
        case Lam(x, ty, b):
            return Lam(x, _rebuild(ty, depth, on_var), _rebuild(b, depth + 1, on_var))
        case Pi(x, ty, b):
            return Pi(x, _rebuild(ty, depth, on_var), _rebuild(b, depth + 1, on_var))
    return t


def naive_substitute(body: Term, target: int, replacement: Term) -> Term:
    def on_var(i: int, depth: int) -> Term:
        if i == target + depth:
            return naive_shift(replacement, depth)
        return Var(i - 1) if i > target + depth else Var(i)
    return _rebuild(body, 0, on_var)


def naive_replace_var(t: Term, target: int, replacement: Term) -> Term:
    def on_var(i: int, depth: int) -> Term:
        return naive_shift(replacement, depth) if i == target + depth else Var(i)
    return _rebuild(t, 0, on_var)


def naive_occurs_free(t: Term, target: int) -> bool:
    match t:
        case Var(i):
            return i == target
        case App(f, a):
            return naive_occurs_free(f, target) or naive_occurs_free(a, target)
        case Lam(_, ty, b) | Pi(_, ty, b):
            return naive_occurs_free(ty, target) or naive_occurs_free(b, target + 1)
    return False


def naive_max_free_index(t: Term) -> int:
    match t:
        case Var(i):
            return i
        case App(f, a):
            return max(naive_max_free_index(f), naive_max_free_index(a))
        case Lam(_, ty, b) | Pi(_, ty, b):
            return max(naive_max_free_index(ty), naive_max_free_index(b) - 1)
    return -1


def naive_instantiate(body: Term, args: list[Term]) -> Term:
    """Sequential substitution: wrap `body` in one binder per argument and
    beta-reduce them one at a time."""
    t = body
    for _ in args:
        t = Lam("_", PROP, t)
    for a in args:
        t = naive_substitute(t.body, 0, a)
    return t


def naive_whnf_beta(t: Term) -> Term:
    """Beta-only weak head normal form, one binder per step."""
    while True:
        head, args = _spine(t)
        if not (isinstance(head, Lam) and args):
            return t
        t = app(naive_substitute(head.body, 0, args[0]), *args[1:])


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, args[::-1]


# --- term generators ------------------------------------------------------------

def decode(codes: list[int], lam: bool = True) -> Term:
    """Read a term from `codes` in prefix order.  Codes 0-9 pick a node
    (App, Lam, Pi), 10-15 a leaf; missing codes read as Var(0), so every
    term is finite and free variables are common.  A flat list of small
    integers is far cheaper for hypothesis to draw and shrink than a
    recursive strategy."""
    pos = 0

    def go() -> Term:
        nonlocal pos
        c = codes[pos] if pos < len(codes) else 12
        pos += 1
        if c < 6:
            return App(go(), go())
        if c < 8 and lam:
            return Lam("x", go(), go())
        if c < 10:
            return Pi("x", go(), go())
        if c == 10:
            return PROP
        if c == 11:
            return Const("a")
        return Var(c - 12)

    return go()


TERMS = st.lists(st.integers(0, 15), max_size=12).map(decode)
# Without Lam no redex can form, so beta stops after the head is consumed.
LAM_FREE = st.lists(st.integers(0, 15), max_size=5).map(
    lambda codes: decode(codes, lam=False))


# --- properties -----------------------------------------------------------------

@FASTPATH
@given(TERMS, TERMS, st.lists(TERMS, max_size=3), st.integers(0, 4),
       st.integers(0, 3))
def test_fast_paths_match_naive(t, other, args, index, by):
    assert t.lbr == naive_max_free_index(t) + 1
    assert max_free_index(t) == naive_max_free_index(t)
    assert occurs_free(t, index) == naive_occurs_free(t, index)
    assert shift(t, by, index) == naive_shift(t, by, index)
    assert substitute(t, index, other) == naive_substitute(t, index, other)
    assert replace_var(t, index, other) == naive_replace_var(t, index, other)
    out = instantiate(t, args)
    assert out == naive_instantiate(t, args)
    assert out.lbr == naive_max_free_index(out) + 1


ENV = prelude_env()


@FASTPATH
@given(st.integers(0, 4), LAM_FREE, st.lists(LAM_FREE, max_size=6))
def test_whnf_beta_matches_one_binder_at_a_time(binders, body, args):
    head = body
    for _ in range(binders):
        head = Lam("x", SET, head)
    t = app(head, *args)
    assert whnf(ENV, t, delta=False) == naive_whnf_beta(t)


def test_every_term_class_defines_lbr():
    for t in (PROP, Sort("Type"), Const("c"), Meta(1)):
        assert t.lbr == 0
    assert Var(4).lbr == 5
    assert Lam("x", PROP, Var(3)).lbr == 3
    assert Pi("x", Var(2), Var(0)).lbr == 3
    assert App(Var(1), Const("c")).lbr == 2
