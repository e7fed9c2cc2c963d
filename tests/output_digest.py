"""Print sha256 digests of the program's observable outputs and compare
them with the recorded ones.

    python3 tests/output_digest.py

prints one line per output and exits 1, naming each output whose digest
differs from its entry in RECORDED, or 0 when all three match.  A change
that alters an output on purpose updates RECORDED and says so.

- corpus: the 7 `tests/scripts/*.tk` under six option sets, each run
  hashed as its exit code plus its report, with the human report's
  milliseconds masked;
- mutated: the 300 mutated corpus scripts of `tests/test_cli.py`'s
  never-raises test, exit code plus traced machine report;
- fuzz: 1,200 seed-3 problems per engine from `bench/fuzz.problems`, each
  hashed as its failure kind and message, or its proof's `repr` followed
  by its trace lines.

Each item is hashed as `f"{exit code}\\n{report}\\n"` (or the fuzz item's
lines), and the items of one input are concatenated in order.
`tests/test_output_digest.py` asserts the three recorded digests on every
pytest run.  It imports the package from the `src/` next to it.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import fuzz  # noqa: E402  (bench/fuzz.py)
from conftest import SCRIPTS, script_text  # noqa: E402
from test_cli import mutate_script  # noqa: E402
from transfer_kernel.cli import (  # noqa: E402
    RunOptions, execute_script, exit_code, report,
)
from transfer_kernel.kernel import Const, LocalContext  # noqa: E402
from transfer_kernel.outcome import (  # noqa: E402
    DerivationTrace, TransferFailure,
)
from transfer_kernel.surface import tokenize  # noqa: E402
from transfer_kernel.transfer_v1 import exact_modulo  # noqa: E402
from transfer_kernel.transfer_v2 import transfer_modulo  # noqa: E402

OPTION_SETS = (
    RunOptions(),
    RunOptions(trace=True, fmt="machine"),
    RunOptions(prefill=False, trace=True),
    RunOptions(engine="v2", keep_going=True, print_proofs=True),
    RunOptions(engine="v1", keep_going=True, fmt="machine"),
    RunOptions(diagnostics=True, trace=True, print_proofs=True),
)
MS = re.compile(r"\(\d+\.\d ms, ")
FUZZ_SEED, FUZZ_COUNT = 3, 1200
RECORDED = {
    "corpus": "5344e3bb7a913b0e68cd5e24a167feddad27aa12e332a035cb9114c651a114e5",
    "mutated": "4af31c43a627b8767e74d49a84dad937ea1406521355ba88f1be80400fb9eafa",
    "fuzz": "3683d8f137a9453a9f395ec986b5121f17ea536f6550cf95ac4593b095856e1b",
}


def _run(text: str, options: RunOptions) -> str:
    state = execute_script(text, options)
    return f"{exit_code(state)}\n{report(state, options.fmt, options)}\n"


def corpus_items():
    for path in sorted(SCRIPTS.glob("*.tk")):
        text = script_text(path.name)
        for options in OPTION_SETS:
            yield MS.sub("(<ms> ms, ", _run(text, options))


def mutated_items():
    """The never-raises test's loop, with the same draws in the same order."""
    texts = [script_text(path.name) for path in sorted(SCRIPTS.glob("*.tk"))]
    names = sorted({tok.value for text in texts for tok in tokenize(text)
                    if tok.kind == "ident"})
    rng = random.Random(15)
    for _ in range(300):
        text = mutate_script(rng, rng.choice(texts), names)
        options = RunOptions(engine=rng.choice([None, "v1", "v2"]),
                             keep_going=True, trace=True, fmt="machine")
        yield _run(text, options)


def fuzz_items():
    for engine, fixture in (("v1", fuzz.v1_fixture), ("v2", fuzz.v2_fixture)):
        base, tables = fixture()
        stream = fuzz.problems(engine, FUZZ_SEED)
        for _ in range(FUZZ_COUNT):
            p = next(stream)
            env = base.add_axiom("h", p.source)
            trace = None
            if engine == "v1":
                steps = []
                outcome = exact_modulo(env, tables, LocalContext(), p.source,
                                       p.target, Const("h"), steps)
                trace = DerivationTrace(tuple(steps), env)
            else:
                outcome = transfer_modulo(env, tables, p.source, p.target,
                                          Const("h"))
                if not isinstance(outcome, TransferFailure):
                    outcome, trace = outcome
            if isinstance(outcome, TransferFailure):
                yield f"{outcome.kind}\n{outcome.message}\n"
            else:
                yield "".join(f"{line}\n"
                              for line in [repr(outcome), *trace.lines()])


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    changed = []
    for name, items in (("corpus", corpus_items), ("mutated", mutated_items),
                        ("fuzz", fuzz_items)):
        value = digest(items())
        print(f"{name} {value}")
        if value != RECORDED[name]:
            changed.append(name)
    if changed:
        print(f"differs from the recorded digest: {', '.join(changed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
