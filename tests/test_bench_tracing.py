"""The benchmark still fits the package.  Its outside-in tracing
(`bench/tracing.py`) finds every function it wraps where it looks,
removing the wrappers restores every binding, and the render span times
the one place a trace is printed.  Every call of the kernel's counted
functions is counted, its calls to itself included.  Every package name
the workloads read
at call time, and every name the problem generator imports, exists.  A
function that is renamed or moved breaks `bench/run.py`; these tests fail
first."""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import transfer_kernel  # noqa: F401  (loads every module, as the benchmark does)
from transfer_kernel import cli, kernel

from conftest import script_text

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings():
    """(owner, attribute, value) for every module-level and class-level
    binding in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "transfer_kernel":
            continue
        for attr, value in list(vars(module).items()):
            yield module, attr, value
            if isinstance(value, type):
                for member, inner in list(vars(value).items()):
                    yield value, member, inner


def test_tracer_wraps_every_traced_function_and_removes_cleanly():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        assert tracer.install() > 0
        for mod_name, attr, _ in tracing.SPANS + tracing.COUNTED:
            owner = sys.modules[f"{tracing.PACKAGE}.{mod_name}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, tracing.WRAPPED), f"{mod_name}.{attr}"
    finally:
        leftovers = tracer.remove()
    assert leftovers == []
    wrapped = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, value in _package_bindings()
               if hasattr(value, tracing.WRAPPED)]
    assert wrapped == []


def _render_calls(options) -> int:
    """`transfer_v2.render` spans in one traced run and report of
    `v2_letrans.tk`."""
    tracer = _load_tracing().Tracer()
    text = script_text("v2_letrans.tk")
    tracer.install()
    try:
        with tracer.root("verdict"):
            state = cli.execute_script(text, options)
            cli.report(state, options.fmt, options)
    finally:
        assert tracer.remove() == []
    return tracer.summary("verdict").get("transfer_v2.render",
                                         {"calls": 0})["calls"]


def test_render_span_records_only_traces_a_report_prints():
    assert _render_calls(cli.RunOptions(trace=True, fmt="machine")) == 1
    assert _render_calls(cli.RunOptions()) == 0


def test_counters_see_every_call_of_the_kernels_hot_functions():
    """The kernel's hot functions call each other through module
    attributes, so the counters see every call admission makes inside the
    kernel, not only its entry calls: each count equals the number of times
    the function's code ran.  A kernel that bound them locally would hide
    that work from the per-layer counters."""
    env = cli.execute_script(script_text("v2_letrans.tk"), cli.RunOptions()).env
    proof, statement = env.body_of("N.le_trans"), env.type_of("N.le_trans")
    names = {"infer_type": "kernel.infer", "whnf": "kernel.whnf",
             "convertible": "kernel.convertible", "shift": "kernel.shift"}
    codes = {getattr(kernel, attr).__code__: name for attr, name in names.items()}
    ran: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran[codes[frame.f_code]] += 1

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        with tracer.root("admit"):
            sys.setprofile(profile)
            try:
                env.add_definition("N.le_trans_again", proof, statement)
            finally:
                sys.setprofile(None)
    finally:
        assert tracer.remove() == []
    counts = tracer.counts["admit"]
    for name in names.values():
        assert counts[name] == ran[name] > 0, name


def _parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(module, name, bound as) for each `from transfer_kernel... import`."""
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "transfer_kernel"
            for alias in node.names]


def test_workloads_read_only_names_the_package_has():
    """`bench/workloads.py` reads `<module>.<attr>` at call time, so a
    missing name would show only as a failed benchmark run."""
    tree = _parse("workloads.py")
    modules = {bound: importlib.import_module(f"{module}.{name}")
               for module, name, bound in _package_imports(tree)}
    assert sorted(modules) == ["cli", "kernel", "surface", "transfer_v1",
                               "transfer_v2"]
    reads = {(node.value.id, node.attr)
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert len(reads) > 10
    assert [f"{m}.{a}" for m, a in sorted(reads)
            if not hasattr(modules[m], a)] == []


def test_fuzz_generator_imports_only_names_the_package_has():
    imports = _package_imports(_parse("fuzz.py"))
    assert imports
    assert [f"{module}.{name}" for module, name, _ in imports
            if not hasattr(importlib.import_module(module), name)] == []
