"""What an engine returns besides a proof: a failure, or a trace of steps.

Both engines report failures as `TransferFailure` and record what they did
as `TraceStep`s.  Neither is printed when it is made: a step keeps the
terms it names together with their local context, and a failure keeps its
message as a thunk.  `DerivationTrace.lines` is the one place a trace is
printed; a failure's message is printed on the first read of `.message`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .kernel import GlobalEnv, LocalContext, Term
from .surface import print_term


class TransferFailure:
    """Failure of either engine.  `kind` is no-table-entry,
    argument-mismatch or shape-mismatch (first engine) or no-derivation
    (second engine).  The message is printed on its first read and kept;
    two threads reading it at once may both print it."""

    def __init__(self, kind: str, message: Callable[[], str]):
        self.kind = kind
        self._message: str | Callable[[], str] = message

    @property
    def message(self) -> str:
        message = self._message
        if callable(message):
            message = self._message = message()
        return message

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"

    def __repr__(self) -> str:
        return f"TransferFailure(kind={self.kind!r}, message={self.message!r})"


class TraceStep(NamedTuple):
    """One rule application at nesting `depth`.  `parts` follow the rule
    name on its line: strings as they are, terms printed in `ctx`."""
    depth: int
    rule: str
    ctx: LocalContext
    parts: tuple[str | Term, ...] = ()


class DerivationTrace(NamedTuple):
    """Steps in the order they are shown, and the environment the engine
    ran in, which is the one their terms are printed against."""
    steps: tuple[TraceStep, ...]
    env: GlobalEnv

    def lines(self) -> list[str]:
        out: list[str] = []
        for step in self.steps:
            text = "".join(
                part if isinstance(part, str)
                else print_term(part, self.env, step.ctx)
                for part in step.parts)
            out.append(f"{'  ' * step.depth}{step.rule} {text}".rstrip())
        return out
