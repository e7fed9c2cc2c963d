"""Run the benchmark's pair protocol on two checkouts and summarize it.

    python3 tests/pairs.py PARENT CHANGE --workload fuzz_v2 --seed 43 [--pairs 10]

Pair i runs `bench/run.py --workload W --seed SEED+i --seconds T --trace 0`
in the directory PARENT and then in CHANGE, or in the other order for odd
i, one run at a time; T is `run_seconds` of the `BENCHMARK.json` next to
this file, which also gives the end-to-end metrics and which direction of
each is better.  Both runs of a pair see the same seed.

It prints one JSON line: for each end-to-end metric, the median of each
side's runs, the pairs the change won (ties count for neither side) and
the distance between the quartiles of the parent's runs (null with fewer
than two pairs).  It exits 1, naming the run, as soon as a run exits
non-zero, is not `correct` or has `failed` > 0.  Nothing under `bench/`
is changed; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run's JSON line, or SystemExit(1) if it went wrong."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"] > 0:
        print(f"pairs: {checkout} {workload} seed {seed}: exit "
              f"{proc.returncode}\n{proc.stderr[-2000:]}{proc.stdout[-2000:]}",
              file=sys.stderr)
        raise SystemExit(1)
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload,
                                  args.seed + i, benchmark["run_seconds"]))

    summary = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        sign = 1 if metric["better"] == "higher" else -1
        q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else (None, None, None))
        summary[name] = {
            "parent": statistics.median(parent),
            "change": statistics.median(change),
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(parent, change)),
            "parent_iqr": None if q1 is None else q3 - q1,
        }
    print(json.dumps({"workload": args.workload, "pairs": args.pairs,
                      "seed": args.seed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
