"""The benchmark's outside-in tracing (`bench/tracing.py`) still fits the
package: every function it wraps is found where it looks, removing the
wrappers restores every binding, and the render span times the one place
a trace is printed.  A traced function that is renamed or moved breaks
`bench/run.py --trace 1`; these tests fail first."""

import importlib.util
import sys
from pathlib import Path

import transfer_kernel  # noqa: F401  (loads every module, as the benchmark does)
from transfer_kernel import cli

from conftest import script_text

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
