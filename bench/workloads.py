"""The four benchmark workloads: what one verdict is, and how it is checked.

Each workload builds its shared fixture (`build`), turns a seed into a
stream of prepared problems (`problems`), runs one verdict (`verdict`,
the only timed call), and checks a verdict against its known answer
(`check`, untimed).  `gates` are run-level checks made once, outside the
timed region.  `signature` reduces a verdict to the values a traced run
must reproduce exactly.

Everything calls the library through module attributes (`cli.report`,
`kernel.check_proof`, ...) at call time, so wrappers installed by
`tracing.Tracer` see every call.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from transfer_kernel import cli, kernel, surface, transfer_v1, transfer_v2

import fuzz

CORPUS = ("agreement.tk", "example1.tk", "example2.tk", "iszero.tk",
          "v2_letrans.tk", "zn_missing.tk", "zn_transfer.tk")

# Known answers, from the hand-written acceptance suite: exit code, and the
# failure kind of each theorem (None = proved).
CORPUS_ANSWERS = {name: (cli.EXIT_OK, (None,)) for name in CORPUS}
CORPUS_ANSWERS["zn_missing.tk"] = (cli.EXIT_PROOF_FAILURE, ("no-table-entry",))

GOLDEN_SCRIPT = "v2_letrans.tk"
GOLDEN_THEOREM = "N.le_trans"
GOLDEN_TRACE = "v2_letrans_trace.txt"

_IDENT = re.compile(r"[^\W\d][\w']*(?:\.[^\W\d][\w']*)*")
_DECL = re.compile(r"^\s*(Parameter|Axiom|Definition|Theorem)\s+([^:]+?)\s*(?::=|:)",
                   re.MULTILINE)
_SUFFIX_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


def declared_names(text: str) -> list[str]:
    """Global names a script declares (Definition parameters excluded)."""
    names: list[str] = []
    for cmd, rest in _DECL.findall(text):
        words = rest.split()
        names.extend(words if cmd == "Parameter" else words[:1])
    return names


def rename(text: str, suffix: str) -> str:
    """Append `suffix` to every name the script declares, everywhere it
    occurs.  The renamed script is alpha-equivalent to the original up to
    the names of its constants, so its verdicts are the same, but no term
    it builds is equal to one built from another instance."""
    names = set(declared_names(text))
    return _IDENT.sub(
        lambda m: m.group(0) + suffix if m.group(0) in names else m.group(0),
        text)


@dataclass(frozen=True)
class ScriptInstance:
    index: int
    script: str   # file name in the corpus
    suffix: str
    text: str


class Corpus:
    """One verdict = `execute_script` + `report` on one renamed script."""

    def __init__(self, root: Path, name: str, options: cli.RunOptions):
        self.name = name
        self.options = options
        self.scripts = root / "tests" / "scripts"
        self.golden = root / "tests" / "golden" / GOLDEN_TRACE
        self.texts = {n: (self.scripts / n).read_text(encoding="utf-8")
                      for n in CORPUS}
        self.cycle = len(CORPUS)
        self.gate_count = 1 if options.fmt == "machine" else 0

    def fixture(self) -> None:
        """Nothing is shared between scripts: each run pays its own
        prelude, prefill, declarations and encodings, as the CLI does."""

    def build(self) -> None:
        self.fixture()

    def problems(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        index = 0
        while True:
            for script in CORPUS:
                suffix = "_" + "".join(rng.choice(_SUFFIX_CHARS)
                                       for _ in range(6))
                yield ScriptInstance(index, script, suffix,
                                     rename(self.texts[script], suffix))
                index += 1

    def verdict(self, item: ScriptInstance):
        state = cli.execute_script(item.text, self.options)
        out = cli.report(state, self.options.fmt, self.options)
        return state, out

    def check(self, item: ScriptInstance, result) -> list[str]:
        state, out = result
        code, kinds = CORPUS_ANSWERS[item.script]
        where = f"{item.script}{item.suffix}"
        errors: list[str] = []
        got_code = cli.exit_code(state)
        got_kinds = tuple(None if r.failure is None else r.failure.kind
                          for r in state.results)
        if got_code != code or got_kinds != kinds:
            errors.append(f"{where}: exit {got_code} {got_kinds}, "
                          f"expected exit {code} {kinds}")
        for r in state.results:
            if r.proof is None:
                continue
            goal = state.env.type_of(r.name)
            if not kernel.check_proof(state.env, kernel.LocalContext(),
                                      r.proof, goal):
                errors.append(f"{where}: proof of {r.name} does not check")
        errors.extend(self._check_report(where, state, out))
        return errors

    def _check_report(self, where: str, state, out: str) -> list[str]:
        if self.options.fmt != "machine":
            proved = sum(r.status == "proved" for r in state.results)
            tail = f"{proved}/{len(state.results)} theorems proved"
            if not out.endswith(tail):
                return [f"{where}: human report does not end with {tail!r}"]
            return []
        errors: list[str] = []
        doc = json.loads(out)
        for r, entry in zip(state.results, doc["theorems"], strict=True):
            if entry["theorem"] != r.name or entry["status"] != r.status:
                errors.append(f"{where}: machine report disagrees on {r.name}")
            if r.proof is None:
                continue
            back = surface.parse_and_elaborate(state.env, entry["proof"])
            if back != r.proof:
                errors.append(f"{where}: printed proof of {r.name} does not "
                              "parse back to the emitted term")
        return errors

    def gates(self) -> list[str]:
        """The un-renamed golden script's trace, under the report options
        with tracing on, must match the frozen trace line for line."""
        if self.options.fmt != "machine":
            return []
        state, out = self.verdict(
            ScriptInstance(-1, GOLDEN_SCRIPT, "", self.texts[GOLDEN_SCRIPT]))
        golden = self.golden.read_text(encoding="utf-8").splitlines()
        traces = {t["theorem"]: t["trace"] for t in json.loads(out)["theorems"]}
        if traces.get(GOLDEN_THEOREM) != golden:
            return [f"{GOLDEN_SCRIPT}: trace differs from {GOLDEN_TRACE}"]
        return []

    def signature(self, result):
        state, _ = result
        return (tuple((r.name, r.status, r.proof,
                       None if r.failure is None else
                       (r.failure.kind, r.failure.message),
                       tuple(r.trace_lines)) for r in state.results),
                tuple(state.errors), tuple(state.internal_errors))


@dataclass(frozen=True)
class FuzzInstance:
    problem: fuzz.Problem
    env: kernel.GlobalEnv  # the fixture plus the source as axiom `h`


class Fuzz:
    """One verdict = the engine call plus one independent `check_proof` of
    the emitted proof, as a library user would run it."""

    def __init__(self, name: str, engine: str):
        self.name = name
        self.engine = engine
        self.cycle = fuzz.BLOCK
        self.gate_count = 0
        self.env = self.tables = None

    def fixture(self):
        """The shared environment and tables every problem runs against."""
        return (fuzz.v1_fixture if self.engine == "v1" else fuzz.v2_fixture)()

    def build(self) -> None:
        self.env, self.tables = self.fixture()

    def problems(self, seed: int):
        for problem in fuzz.problems(self.engine, seed):
            yield FuzzInstance(problem, self.env.add_axiom("h", problem.source))

    def verdict(self, item: FuzzInstance):
        p, env, ctx = item.problem, item.env, kernel.LocalContext()
        if self.engine == "v1":
            outcome = transfer_v1.exact_modulo(env, self.tables, ctx, p.source,
                                               p.target, kernel.Const("h"))
        else:
            outcome = transfer_v2.transfer_modulo(env, self.tables, p.source,
                                                  p.target, kernel.Const("h"))
            if not isinstance(outcome, transfer_v1.TransferFailure):
                outcome = outcome[0]
        if isinstance(outcome, transfer_v1.TransferFailure):
            return outcome, None
        return outcome, kernel.check_proof(env, ctx, outcome, p.target)

    def check(self, item: FuzzInstance, result) -> list[str]:
        outcome, checked = result
        p = item.problem
        failed = isinstance(outcome, transfer_v1.TransferFailure)
        kind = outcome.kind if failed else None
        if kind not in p.allowed():
            want = sorted(k or "proved" for k in p.allowed())
            return [f"{self.engine} problem {p.index} (depth {p.depth}, "
                    f"mutation {p.mutation}): got {kind or 'proved'}, "
                    f"expected {' or '.join(want)}"]
        if not failed and not checked:
            return [f"{self.engine} problem {p.index}: emitted proof rejected"]
        return []

    def gates(self) -> list[str]:
        return []

    def signature(self, result):
        outcome, checked = result
        if isinstance(outcome, transfer_v1.TransferFailure):
            return ("failed", outcome.kind, outcome.message)
        return ("proved", outcome, checked)


def make(name: str, root: Path):
    if name == "corpus":
        return Corpus(root, name, cli.RunOptions())
    if name == "corpus_report":
        return Corpus(root, name, cli.RunOptions(trace=True, fmt="machine"))
    if name == "fuzz_v1":
        return Fuzz(name, "v1")
    if name == "fuzz_v2":
        return Fuzz(name, "v2")
    raise ValueError(f"unknown workload {name!r}")
