"""Outside-in tracing: spans and counters wrapped around the library's
public functions, installed and removed by the benchmark.

A span (name, start, end, parent) is recorded at each layer boundary in
SPANS, but only under a root span the benchmark opens (`root`), so work
outside a verdict -- problem preparation, answer checks -- is not
attributed to it.  The hot kernel functions in COUNTED are counted per
root without spans.  A wrapper is installed in every namespace that holds
the original function -- each `from .kernel import whnf` binds a separate
copy -- and in the class for methods; `remove` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name).  Methods are "Class.method".
SPANS = (
    ("kernel", "check_proof", "kernel.check"),
    ("kernel", "check_proof_report", "kernel.check"),
    ("kernel", "GlobalEnv.add_definition", "kernel.define"),
    ("kernel", "GlobalEnv.add_axiom", "kernel.axiom"),
    ("surface", "parse_script", "surface.parse"),
    ("surface", "parse_term", "surface.parse"),
    ("surface", "elaborate", "surface.elab"),
    ("surface", "print_term", "surface.print"),
    ("tables", "table_key", "tables.key"),
    ("tables", "lookup_surjection", "tables.lookup"),
    ("tables", "lookup_transfer_v1", "tables.lookup"),
    ("tables", "lookup_relation_v2", "tables.lookup"),
    ("tables", "declare_surjection", "tables.declare"),
    ("tables", "declare_transfer_v1", "tables.declare"),
    ("tables", "declare_relation_v2", "tables.declare"),
    ("tables", "prefill_core", "tables.declare"),
    ("tables", "surjection_to_relational", "tables.encode"),
    ("transfer_v1", "exact_modulo", "transfer_v1.search"),
    ("transfer_v1", "build_rewrite", "transfer_v1.rewrite"),
    ("transfer_v2", "transfer_modulo", "transfer_v2.search"),
    ("transfer_v2", "synth", "transfer_v2.search"),
    ("transfer_v2", "invert_entry", "transfer_v2.invert"),
    ("transfer_v2", "DerivationTrace.lines", "transfer_v2.render"),
    ("cli", "execute_script", "cli.execute"),
    ("cli", "report", "cli.report"),
)

# check_proof calls check_proof_report: one check, not two.
COLLAPSED = frozenset({"kernel.check"})
# Spans whose non-None results are counted as hits.
YIELDING = frozenset({"tables.lookup"})

# (module, attribute, counter name): call counts, no spans.
COUNTED = (
    ("kernel", "whnf", "kernel.whnf"),
    ("kernel", "substitute", "kernel.substitute"),
    ("kernel", "shift", "kernel.shift"),
    ("kernel", "convertible", "kernel.convertible"),
    ("kernel", "normalize", "kernel.normalize"),
    ("kernel", "infer_type", "kernel.infer"),
    ("transfer_v2", "match_relation", "transfer_v2.match"),
)

PACKAGE = "transfer_kernel"
WRAPPED = "__bench_wrapped__"  # attribute a wrapper carries: the original


class Tracer:
    """Spans in parallel arrays, kept in memory until `summary`."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")  # no open ancestor has the same name
        self.hit = array("b")
        self.stack: list[int] = []
        self._depth: Counter[str] = Counter()
        self.counts: dict[str, Counter[str]] = {}  # root name -> counter
        self._counting: list[Counter[str] | None] = [None]
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.outermost.append(self._depth[name] == 0)
        self._depth[name] += 1
        self.hit.append(0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        self._depth[self.names[idx]] -= 1

    @contextmanager
    def root(self, name: str):
        """Open a root span; spans and counts are recorded only inside one."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        self._counting[0] = self.counts.setdefault(name, Counter())
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._counting[0] = None

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        stack, names, hit = self.stack, self.names, self.hit
        collapse, yielding = name in COLLAPSED, name in YIELDING
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if not stack or (collapse and names[stack[-1]] == name):
                return fn(*args, **kwargs)
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if yielding and result is not None:
                hit[idx] = 1
            return result

        return _dress(wrapper, fn)

    def _count_wrapper(self, fn, name: str):
        counting = self._counting

        def wrapper(*args, **kwargs):
            counter = counting[0]
            if counter is not None:
                counter[name] += 1
            return fn(*args, **kwargs)

        return _dress(wrapper, fn)

    def install(self, extra_modules=()) -> int:
        """Wrap every traced function in every namespace that holds it:
        the package's modules plus `extra_modules` (the benchmark's own).
        Returns the number of bindings replaced."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        modules += list(extra_modules)
        plan = [(mod, attr, name, self._span_wrapper) for mod, attr, name in SPANS]
        plan += [(mod, attr, name, self._count_wrapper)
                 for mod, attr, name in COUNTED]
        for mod_name, attr, name, make in plan:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._bind(cls, method, make(vars(cls)[method], name))
                continue
            original = vars(home)[attr]
            wrapper = make(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)
        return len(self._installed)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> list[str]:
        """Restore every original binding; returns any left wrapped."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        leftovers = [f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr, _ in self._installed
                     if hasattr(vars(owner)[attr], WRAPPED)]
        self._installed = []
        return leftovers

    # -- aggregation -----------------------------------------------------------

    def summary(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per span name, over the spans under roots called `root_name`:
        `calls`, `incl` (seconds, outermost spans of the name only), `self`
        (seconds: duration minus that of direct children) and `hits`."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        root_of = list(range(n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                root_of[i] = root_of[p]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.names[root_of[i]] != root_name:
                continue
            s = out.setdefault(self.names[i],
                               {"calls": 0, "incl": 0.0, "self": 0.0, "hits": 0})
            s["calls"] += 1
            s["hits"] += self.hit[i]
            if self.outermost[i]:
                s["incl"] += dur[i]
            s["self"] += dur[i] - child[i]
        return out


def _dress(wrapper, fn):
    setattr(wrapper, WRAPPED, fn)
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper
