"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fuzz  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from transfer_kernel import kernel  # noqa: E402
from transfer_kernel.kernel import App, Const, Lam, Pi  # noqa: E402

# Every metric name the benchmark promises, end to end and per layer.
END_TO_END = ("verdict_ms_p50", "verdict_ms_p90", "verdicts_per_s",
              "error_rate", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "kernel.check_calls", "kernel.checks_per_verdict", "kernel.check_ms",
    "kernel.admit_ms", "kernel.whnf_calls", "kernel.substitute_calls",
    "kernel.shift_calls", "kernel.convertible_calls", "kernel.infer_calls",
    "kernel.normalize_calls", "tables.key_calls", "tables.key_ms",
    "tables.lookup_yield", "tables.declare_ms", "tables.encode_ms",
    "transfer_v1.search_ms", "transfer_v1.steps", "transfer_v1.rewrite_ms",
    "transfer_v2.search_ms", "transfer_v2.invert_calls",
    "transfer_v2.invert_ms", "transfer_v2.match_calls",
    "transfer_v2.render_ms", "surface.parse_ms", "surface.elab_ms",
    "surface.print_ms", "surface.print_calls", "cli.self_ms",
    "cli.report_ms", "trace.overhead_ratio",
)


def _strip(t, suffix: str):
    """Undo a corpus renaming inside a term."""
    match t:
        case Const(name):
            return Const(name.replace(suffix, ""))
        case App(f, a):
            return App(_strip(f, suffix), _strip(a, suffix))
        case Lam(x, ty, b):
            return Lam(x, _strip(ty, suffix), _strip(b, suffix))
        case Pi(x, ty, b):
            return Pi(x, _strip(ty, suffix), _strip(b, suffix))
    return t


def _verdicts(state, suffix: str = ""):
    return [(r.name.replace(suffix, ""), r.status,
             None if r.proof is None else _strip(r.proof, suffix),
             None if r.failure is None else r.failure.kind,
             [line.replace(suffix, "") for line in r.trace_lines])
            for r in state.results]


@pytest.mark.parametrize("name", ["corpus", "corpus_report"])
def test_renamed_instances_are_alpha_equivalent(name):
    corpus = workloads.make(name, ROOT)
    original = {s: corpus.verdict(workloads.ScriptInstance(-1, s, "", text))
                for s, text in corpus.texts.items()}
    stream = corpus.problems(seed=3)
    for _ in range(len(workloads.CORPUS)):
        item = next(stream)
        assert item.text != corpus.texts[item.script]
        for declared in workloads.declared_names(corpus.texts[item.script]):
            assert declared + item.suffix in item.text
        result = corpus.verdict(item)
        assert corpus.check(item, result) == []
        state, _ = result
        base_state, _ = original[item.script]
        assert _verdicts(state, item.suffix) == _verdicts(base_state)
        proofs = [r.proof for r in state.results if r.proof is not None]
        base_proofs = [r.proof for r in base_state.results
                       if r.proof is not None]
        assert all(p != q for p, q in zip(proofs, base_proofs))


@pytest.mark.parametrize("name,count", [("fuzz_v1", 400), ("fuzz_v2", 120)])
def test_construction_oracle_agrees_with_engine(name, count):
    workload = workloads.make(name, ROOT)
    workload.build()
    stream = workload.problems(seed=11)
    seen = set()
    for _ in range(count):
        item = next(stream)
        p = item.problem
        assert isinstance(p.source, Pi) and p.source.name != "_"
        assert p.depth in fuzz.DEPTHS
        assert workload.check(item, workload.verdict(item)) == []
        seen.add((p.mutation, p.expect_proved))
    # every mutation occurs, and some mutations do change the target
    assert {m for m, _ in seen} == {None, "head", "drop"}
    assert (None, True) in seen and ("head", False) in seen \
        and ("drop", False) in seen


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_reproduces_problem_list(name):
    def listing(seed):
        workload = workloads.make(name, ROOT)
        workload.build()
        stream = workload.problems(seed)
        out = []
        for _ in range(30):
            item = next(stream)
            p = getattr(item, "problem", item)
            out.append((p.source, p.target, p.mutation) if name.startswith("fuzz")
                       else (item.script, item.text))
        return out

    assert listing(5) == listing(5)
    assert listing(5) != listing(6)


def test_tracer_wraps_every_binding_and_removes_them():
    workload = workloads.make("fuzz_v1", ROOT)
    workload.build()
    items = [next(workload.problems(seed=2)) for _ in range(1)]
    tracer = tracing.Tracer()
    tracer.install((fuzz, workloads))
    try:
        from transfer_kernel import transfer_v1
        assert hasattr(transfer_v1.whnf, tracing.WRAPPED)
        assert hasattr(kernel.whnf, tracing.WRAPPED)
        assert hasattr(kernel.GlobalEnv.add_definition, tracing.WRAPPED)
        for item in items:
            with tracer.root("verdict"):
                workload.verdict(item)
    finally:
        assert tracer.remove() == []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("transfer_kernel") or mod in (fuzz, workloads):
            for value in vars(mod).values():
                assert not hasattr(value, tracing.WRAPPED)
    spans = tracer.summary("verdict")
    assert spans["transfer_v1.search"]["calls"] >= 1
    assert spans["verdict"]["calls"] == 1
    assert tracer.counts["verdict"]["kernel.whnf"] > 0


def _run(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _shown(lines, names):
    """Each name appears on a human-readable line followed by value and unit."""
    for name in names:
        (line,) = [ln for ln in lines if ln.split()[:1] == [name]]
        _, value, unit, *_ = line.split()
        float(value)
        assert unit


def test_end_to_end_metrics_printed_with_units():
    lines, doc = _run("--workload", "fuzz_v1", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 100
    _shown(lines, END_TO_END)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", ["fuzz_v1", "corpus_report"])
def test_per_layer_metrics_printed_with_units(name):
    lines, doc = _run("--workload", name, "--seed", "1",
                      "--seconds", "1", "--trace", "1")
    assert doc["correct"] and doc["failed"] == 0
    _shown(lines, PER_LAYER)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]

