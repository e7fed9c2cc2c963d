"""v2's failure messages, byte for byte.

A v2 failure names the deepest pair it could not relate and, for each rule
that was tried there, why that rule did not apply.  Other tests check only
the `cannot relate` prefix; this one pins the whole message.
`tests/golden/v2_failures.txt` holds one `kind: message` line for each
failing problem among the first `PROBLEMS` seeded v2 fuzz problems, then
the one for `v2_letrans.tk` run without the prefilled core entries.  After
a deliberate change to the messages, regenerate the file from the
repository root with

    PYTHONPATH=src:tests python3 -c "import test_v2_failures_golden as t; t.write_golden()"

and review the diff.
"""

import random

from transfer_kernel.cli import RunOptions, execute_script
from transfer_kernel.kernel import Const
from transfer_kernel.outcome import TransferFailure
from transfer_kernel.transfer_v2 import transfer_modulo

from conftest import GOLDEN, script_text
from fuzz_helpers import v2_fixture, v2_problem

FAILURES = GOLDEN / "v2_failures.txt"
SEED = 3
PROBLEMS = 60


def failure_lines() -> list[str]:
    lines = []
    env, tables = v2_fixture()
    rng = random.Random(SEED)
    for i in range(PROBLEMS):
        mutate = rng.choice([None, None, None, "head", "drop"])
        src, tgt = v2_problem(rng, rng.randint(3, 6), mutate)
        result = transfer_modulo(env.add_axiom(f"h{i}", src), tables, src, tgt,
                                 Const(f"h{i}"))
        if isinstance(result, TransferFailure):
            lines.append(f"{result.kind}: {result.message}")
    state = execute_script(script_text("v2_letrans.tk"),
                           RunOptions(prefill=False))
    lines.extend(f"{r.failure.kind}: {r.failure.message}"
                 for r in state.results if r.failure is not None)
    return lines


def _render(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def write_golden() -> None:
    FAILURES.write_text(_render(failure_lines()), encoding="utf-8")


def test_v2_failure_messages_match_golden():
    assert _render(failure_lines()) == FAILURES.read_text(encoding="utf-8")
