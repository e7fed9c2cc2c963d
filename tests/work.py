"""Count the Python work of one benchmark workload's verdicts.

    python3 tests/work.py CHECKOUT --workload fuzz_v2 --seed 7 --problems 300 [--warmup 50]

builds the workload of `bench/workloads.py` in the directory CHECKOUT,
runs `--warmup` of its seeded problems as `bench/run.py` does (verdict,
then answer check), and then counts, over the next `--problems`
verdicts, the bytecodes and the Python calls they run, with a
`sys.settrace` opcode tracer that is on only inside each verdict; the
answer checks between them run untraced.  A call is a frame's start or a
generator's resumption.  Unlike a timing, the count does not depend on
the host or on what else runs on it, so two checkouts whose counts are
equal did the same work.

The measurement is made twice, each in a new interpreter, and the script
exits 1 if the two counts differ.  It prints one JSON line: the counts
per verdict and in total.  Nothing under `bench/` is changed; pytest does
not collect this file.  Tracing every opcode is slow: each measurement
of 300 fuzz_v2 problems takes about 4 s, and 14 corpus verdicts, whole
scripts, about as long.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def measure(checkout: Path, workload: str, seed: int, warmup: int,
            problems: int) -> dict:
    """One measurement in this interpreter: total bytecodes and calls."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads

    work = workloads.make(workload, checkout)
    work.build()
    stream = work.problems(seed)
    for _ in range(warmup):
        item = next(stream)
        work.check(item, work.verdict(item))
    counts = {"bytecodes": 0, "calls": 0}

    def local(frame, event, arg):
        if event == "opcode":
            counts["bytecodes"] += 1
        return local

    def tracer(frame, event, arg):
        counts["calls"] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    for _ in range(problems):
        item = next(stream)
        sys.settrace(tracer)
        try:
            result = work.verdict(item)
        finally:
            sys.settrace(None)
        errors = work.check(item, result)
        if errors:
            raise SystemExit(f"work: wrong verdict: {errors}")
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--problems", type=int, required=True)
    parser.add_argument("--warmup", type=int, default=50)
    parser.add_argument("--once", action="store_true",
                        help="measure once here and print the raw counts")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    if args.once:
        print(json.dumps(measure(checkout, args.workload, args.seed,
                                 args.warmup, args.problems)))
        return 0

    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, __file__, str(checkout), "--once",
             "--workload", args.workload, "--seed", str(args.seed),
             "--problems", str(args.problems), "--warmup", str(args.warmup)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"work: {checkout} {args.workload}: exit "
                  f"{proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    if runs[0] != runs[1]:
        print(f"work: the two measurements differ: {runs[0]} {runs[1]}",
              file=sys.stderr)
        return 1
    counts = runs[0]
    print(json.dumps({
        "checkout": str(checkout), "workload": args.workload,
        "seed": args.seed, "warmup": args.warmup, "problems": args.problems,
        "bytecodes_per_verdict": counts["bytecodes"] / args.problems,
        "calls_per_verdict": counts["calls"] / args.problems,
        **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
