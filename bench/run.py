"""Time-to-verdict benchmark for transfer-kernel.

Usage, from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next problem is
submitted only after the previous verdict is in.  Every verdict is timed
from outside with `time.perf_counter`, scaled to a nominal host speed (see
hostspeed.py), and checked against a known answer outside the timed
region.  `--trace 0` prints the end-to-end metrics; `--trace 1` replays a
fixed problem list untraced and then traced (wrappers installed from this
package, nothing under `src/` edited), checks that both passes give the
same verdicts, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the lines before it
show the same metrics, with units and sample counts, for a human reader.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "transfer_kernel" / "__init__.py"
CORPUS_DIRS = (ROOT / "tests" / "scripts", ROOT / "tests" / "golden")
WORKLOADS = ("corpus", "corpus_report", "fuzz_v1", "fuzz_v2")

SETUP_REPEATS = 9
MIN_TAIL = 10  # samples that must lie beyond a reported percentile
# Problems in the fixed list a traced run replays (a corpus cycle is 7).
TRACE_PROBLEMS = {"corpus": 70, "corpus_report": 70,
                  "fuzz_v1": 600, "fuzz_v2": 150}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def load_library(workload: str) -> None:
    """Make this checkout's `src` importable, and only it."""
    if not PACKAGE.is_file():
        raise BenchError(f"no transfer_kernel sources under {SRC}")
    if workload.startswith("corpus"):
        for d in CORPUS_DIRS:
            if not d.is_dir():
                raise BenchError(f"corpus directory {d} is missing")
    sys.path.insert(0, str(SRC))
    import transfer_kernel
    if Path(transfer_kernel.__file__).resolve() != PACKAGE.resolve():
        raise BenchError(f"imported {transfer_kernel.__file__}, not {PACKAGE}")


def reimport() -> None:
    """Import the package afresh, then put the original modules back, so
    everything already holding them keeps working with the same classes."""
    def ours():
        return [n for n in sys.modules
                if n == "transfer_kernel" or n.startswith("transfer_kernel.")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    try:
        importlib.import_module("transfer_kernel")
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)


def measure_setup(workload, host) -> tuple[list[float], list[float]]:
    """Package import plus shared-fixture build, repeated.  Returns the raw
    and the host-scaled seconds of each repeat."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        host.sample()
        started = time.perf_counter()
        reimport()
        workload.build()
        raw.append(time.perf_counter() - started)
        host.sample()
        scaled.append(raw[-1] * host.factor(started + raw[-1] / 2))
    return raw, scaled


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_count(n: int, q: float) -> int:
    return n - math.ceil(q * n)


class Run:
    """Verdicts timed one at a time, answer checks made between them."""

    def __init__(self, workload, host):
        self.workload = workload
        self.host = host
        self.starts: list[float] = []
        self.times: list[float] = []
        self.failed = 0
        self.gate_checks = 0

    def timed(self, item):
        """Run one verdict under the clock; None if it raised."""
        started = time.perf_counter()
        try:
            return self.workload.verdict(item)
        except Exception:  # a crash is a failed verdict, not a dead run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.times.append(time.perf_counter() - started)
            self.starts.append(started)

    def one(self, item, keep: bool = False):
        """Time one verdict, then check it.  Returns the result if `keep`."""
        result = self.timed(item)
        if result is not None:
            try:
                errors = self.workload.check(item, result)
            except Exception:  # e.g. a printed proof that does not parse
                errors = [traceback.format_exc()]
            self.report(errors)
        self.host.maybe_sample()
        return result if keep else None

    def report(self, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            for e in errors:
                print(f"wrong: {e}", file=sys.stderr)

    def gates(self) -> None:
        try:
            errors = self.workload.gates()
        except Exception:
            errors = [traceback.format_exc()]
        self.gate_checks += self.workload.gate_count
        self.report(errors)

    def scaled(self) -> list[float]:
        """Verdict times scaled to the nominal host speed."""
        return [t * self.host.factor(s + t / 2)
                for s, t in zip(self.starts, self.times)]

    @property
    def attempted(self) -> int:
        return len(self.times) + self.gate_checks


def closed_loop(workload, host, seed: int, seconds: float) -> Run:
    """Submit problems one at a time until `seconds` of wall time have
    passed, finishing the current cycle so every corpus script is run the
    same number of times."""
    run = Run(workload, host)
    stream = workload.problems(seed)
    host.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(workload.cycle):
            run.one(next(stream))
    host.sample()
    run.gates()
    return run


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> dict:
    """name -> (value, unit, note) for the untraced run."""
    raw = sorted(run.times)
    times = sorted(run.scaled())
    n = len(times)
    metrics = {
        "verdict_ms_p50": (statistics.median(times) * 1e3, "ms",
                           f"n={n}; raw {statistics.median(raw) * 1e3:.4g}"),
    }
    if tail_count(n, 0.9) >= MIN_TAIL:
        metrics["verdict_ms_p90"] = (
            percentile(times, 0.9) * 1e3, "ms",
            f"n={n}, {tail_count(n, 0.9)} beyond; "
            f"raw {percentile(raw, 0.9) * 1e3:.4g}")
    metrics["verdicts_per_s"] = (n / sum(times), "1/s",
                                 f"n={n}; raw {n / sum(raw):.4g}")
    metrics["error_rate"] = (run.failed / run.attempted, "ratio",
                             f"{run.failed} of {run.attempted} attempted")
    setup_raw, setup_scaled = setup
    metrics["setup_s"] = (statistics.median(setup_scaled), "s",
                          f"median of {len(setup_scaled)}; "
                          f"raw {statistics.median(setup_raw):.4g}")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
        "process max RSS")
    return metrics


def traced(workload, host, seed: int, modules) -> tuple[Run, dict]:
    """Replay a fixed problem list untraced, then traced; compare verdicts."""
    import tracing

    count = TRACE_PROBLEMS[workload.name]
    stream = workload.problems(seed)
    items = [next(stream) for _ in range(count)]
    plain = Run(workload, host)
    host.sample()
    expected = [workload.signature(r) if r is not None else None
                for r in (plain.one(item, keep=True) for item in items)]

    tracer = tracing.Tracer()
    tracer.install(modules)
    traced_run = Run(workload, host)
    results = []
    try:
        with tracer.root("setup"):
            workload.fixture()
        for item in items:
            with tracer.root("verdict"):
                results.append(traced_run.timed(item))
            host.maybe_sample()
    finally:
        leftovers = tracer.remove()
    host.sample()
    plain.report([f"wrapper left installed: {w}" for w in leftovers])

    for item, result, want in zip(items, results, expected):
        got = workload.signature(result) if result is not None else None
        if got != want:
            plain.report([f"traced verdict differs on problem {item.index}"])
    plain.gates()

    traced_scaled = sum(traced_run.scaled())
    scale = traced_scaled / sum(traced_run.times)
    return plain, per_layer(tracer, count, scale,
                            traced_scaled / sum(plain.scaled()))


def per_layer(tracer, verdicts: int, scale: float, overhead: float) -> dict:
    """name -> (value, unit) from the traced pass.  Times are ms per
    verdict, scaled like the verdicts they were taken in; counts are
    totals over the replayed list."""
    spans = tracer.summary("verdict")
    setup = tracer.summary("setup")
    counts = tracer.counts.get("verdict", {})

    def get(name: str, field: str, table=spans) -> float:
        return table.get(name, {}).get(field, 0)

    def ms(seconds: float) -> float:
        return seconds * scale * 1e3 / verdicts

    checks = get("kernel.check", "calls") + get("kernel.define", "calls")
    lookups = get("tables.lookup", "calls")
    m = {
        "kernel.check_calls": (checks, "count"),
        "kernel.checks_per_verdict": (checks / verdicts, "count"),
        "kernel.check_ms": (ms(get("kernel.check", "incl")), "ms"),
        "kernel.admit_ms": (ms(get("kernel.define", "incl")
                               + get("kernel.axiom", "incl")), "ms"),
    }
    for counter in ("whnf", "substitute", "shift", "convertible", "infer",
                    "normalize"):
        m[f"kernel.{counter}_calls"] = (counts.get(f"kernel.{counter}", 0),
                                        "count")
    m.update({
        "tables.key_calls": (get("tables.key", "calls"), "count"),
        "tables.key_ms": (ms(get("tables.key", "incl")), "ms"),
        "tables.lookup_yield": (get("tables.lookup", "hits") / lookups
                                if lookups else 0.0, "ratio"),
        "tables.declare_ms": (ms(get("tables.declare", "incl")), "ms"),
        "tables.encode_ms": (ms(get("tables.encode", "incl")), "ms"),
        "tables.setup_ms": ((get("tables.declare", "incl", setup)
                             + get("tables.encode", "incl", setup))
                            * scale * 1e3, "ms"),
        "transfer_v1.search_ms": (ms(get("transfer_v1.search", "self")), "ms"),
        "transfer_v1.steps": (get("transfer_v1.search", "calls"), "count"),
        "transfer_v1.rewrite_ms": (ms(get("transfer_v1.rewrite", "incl")), "ms"),
        "transfer_v2.search_ms": (ms(get("transfer_v2.search", "self")), "ms"),
        "transfer_v2.invert_calls": (get("transfer_v2.invert", "calls"), "count"),
        "transfer_v2.invert_ms": (ms(get("transfer_v2.invert", "incl")), "ms"),
        "transfer_v2.match_calls": (counts.get("transfer_v2.match", 0), "count"),
        "transfer_v2.render_ms": (ms(get("transfer_v2.render", "incl")), "ms"),
        "surface.parse_ms": (ms(get("surface.parse", "incl")), "ms"),
        "surface.elab_ms": (ms(get("surface.elab", "incl")), "ms"),
        "surface.print_ms": (ms(get("surface.print", "incl")), "ms"),
        "surface.print_calls": (get("surface.print", "calls"), "count"),
        "cli.self_ms": (ms(get("cli.execute", "self")
                           + get("cli.report", "self")), "ms"),
        "cli.report_ms": (ms(get("cli.report", "incl")), "ms"),
        "trace.verdict_ms": (ms(get("verdict", "incl")), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_library(args.workload)
    except (BenchError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    import fuzz
    import hostspeed
    import workloads

    workload = workloads.make(args.workload, ROOT)
    host = hostspeed.HostSpeed()
    if args.trace:
        workload.build()
        run, metrics = traced(workload, host, args.seed, (fuzz, workloads))
        print(f"{args.workload}: traced replay of {TRACE_PROBLEMS[args.workload]}"
              f" problems, seed {args.seed}; ms are per verdict, counts are"
              " totals")
        shown = {k: (v, u, "") for k, (v, u) in metrics.items()}
    else:
        setup = measure_setup(workload, host)
        run = closed_loop(workload, host, args.seed, args.seconds)
        print(f"{args.workload}: closed loop, 1 client, seed {args.seed}, "
              f"{args.seconds:g} s; times scaled to nominal host speed")
        shown = end_to_end(run, setup)
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<26} {value:>12.6g} {unit:<6} {note}")

    # error_rate is printed above; the JSON line carries it as failed and
    # attempted, and its metrics are exactly those BENCHMARK.json declares.
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in shown.items() if k != "error_rate"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
