"""Batch front-end: execute vernacular scripts and report results.

Commands run in order against an evolving environment and set of tables.
The environment starts as `library_env()`: the prelude plus the lemmas that
generated table entries cite.
Theorem commands dispatch one of the two engines (`exact modulo` runs the
recursive product/atom engine, `transfer modulo` the judgment synthesizer).
The engines are untrusted: an emitted proof is kernel-checked once, by
`GlobalEnv.add_definition` when the theorem is admitted.  A theorem's
trace is kept unprinted and printed only when a report reads it (the
machine format, or `--trace`).

Exit codes: 0 all theorems proved, 1 a transfer failed, 2 parse or
semantic error, 3 an engine produced a proof the kernel rejected, 4 the
report could not be written (a full device, a closed pipe); 3 outranks 2,
and 2 outranks 1.  The per-command `try` in `execute_script` is the one
place that maps a command's exception to its outcome: `SynthesisError` to
3, any other `ScriptError`, `SurfaceError`, `KernelError` or `TableError`,
and `RecursionError`, to 2.
"""

from __future__ import annotations

import os
import sys
import time
from json.encoder import encode_basestring
from typing import NamedTuple

from .kernel import (
    PROP, Const, GlobalEnv, KernelError, LocalContext, Term, TypeCheckError,
    infer_type, whnf,
)
from .surface import (
    CmdAxiom, CmdDeclareRelation, CmdDeclareSurjection, CmdDeclareTransfer,
    CmdDefinition, CmdParameter, CmdTheorem, EXACT_MODULO, NESTED_TOO_DEEPLY,
    SurfaceError, elaborate, parse_script, print_term,
)
from .tables import (
    DeclTables, SynthesisError, TableError, declare_relation_v2,
    declare_surjection, declare_transfer_v1, library_env, prefill_core,
    surjection_to_relational,
)
from .outcome import DerivationTrace, TraceStep, TransferFailure
from .transfer_v1 import exact_modulo
from .transfer_v2 import transfer_modulo

EXIT_OK = 0
EXIT_PROOF_FAILURE = 1
EXIT_SCRIPT_ERROR = 2
EXIT_INTERNAL = 3
EXIT_UNWRITTEN = 4


class TheoremResult(NamedTuple):
    name: str
    engine: str  # "v1" | "v2"
    status: str  # "proved" | "failed"
    seconds: float  # engine run and checked admission; see README
    proof: Term | None = None
    failure: TransferFailure | None = None
    trace: DerivationTrace | None = None

    @property
    def trace_lines(self) -> list[str]:
        """The trace, printed anew on each read."""
        return self.trace.lines() if self.trace is not None else []


class SessionState:
    def __init__(self, env: GlobalEnv, tables: DeclTables):
        self.env = env
        self.tables = tables
        self.results: list[TheoremResult] = []
        self.errors: list[str] = []
        self.internal_errors: list[str] = []
        # How many of `tables.surjections`, in store order, have been given
        # their relational encoding; the store only grows.
        self.encoded = 0


class RunOptions(NamedTuple):
    engine: str | None = None  # force "v1" or "v2"; None = per-tactic keyword
    trace: bool = False
    print_proofs: bool = False
    keep_going: bool = False
    prefill: bool = True
    diagnostics: bool = False
    fmt: str = "human"


class ScriptError(Exception):
    pass


def execute_script(text: str, options: RunOptions = RunOptions()) -> SessionState:
    """Run a script's commands in order; never raises.  A command's
    exception becomes its outcome here and nowhere else: an internal error
    stops the script, and so, without `keep_going`, does the first script
    error (`line N: <message>`) or failed theorem."""
    state = SessionState(env=library_env(), tables=DeclTables())
    try:
        script = parse_script(text)
    except SurfaceError as e:
        state.errors.append(str(e))
        return state
    if options.prefill:
        state.tables = prefill_core(state.tables, state.env)
    for cmd in script.commands:
        try:
            if isinstance(cmd, CmdTheorem):
                _execute_theorem(state, cmd, options)
            else:
                _declare(state, cmd)
        except SynthesisError as e:  # first: it is a TableError
            state.internal_errors.append(f"line {cmd.line}: {e}")
            break
        except (ScriptError, SurfaceError, KernelError, TableError) as e:
            state.errors.append(f"line {cmd.line}: {e}")
        except RecursionError:
            state.errors.append(f"line {cmd.line}: {NESTED_TOO_DEEPLY}")
        # Without `keep_going`, nothing failed before this command.
        if not options.keep_going and (state.errors or (
                state.results and state.results[-1].status != "proved")):
            break
    return state


def _declare(state: SessionState, cmd) -> None:
    env, tables = state.env, state.tables
    cls = type(cmd)
    if cls is CmdParameter:
        ty = elaborate(env, cmd.ty)
        for name in cmd.names:
            env = env.add_parameter(name, ty)
        state.env = env
    elif cls is CmdAxiom:
        state.env = env.add_axiom(cmd.name, elaborate(env, cmd.statement))
    elif cls is CmdDefinition:
        state.env = env.add_definition(cmd.name, elaborate(env, cmd.body))
    elif cls is CmdDeclareSurjection:
        state.tables = declare_surjection(tables, env, cmd.fn_name,
                                          cmd.inverse_name, cmd.proof_name)
    elif cls is CmdDeclareTransfer:
        state.tables = declare_transfer_v1(tables, env, cmd.lemma_name)
    elif cls is CmdDeclareRelation:
        state.tables = declare_relation_v2(tables, env, cmd.lemma_name)


def _execute_theorem(state: SessionState, cmd: CmdTheorem,
                     options: RunOptions) -> None:
    env = state.env
    goal = elaborate(env, cmd.statement)
    if whnf(env, infer_type(env, LocalContext(), goal)) != PROP:
        raise ScriptError(f"statement of '{cmd.name}' is not a proposition")
    if cmd.source not in env:
        raise ScriptError(f"unknown source theorem '{cmd.source}'")
    if cmd.name in env:
        raise ScriptError(f"'{cmd.name}' is already declared")
    source_stmt = env.type_of(cmd.source)
    source_proof = Const(cmd.source)

    engine = options.engine or ("v1" if cmd.tactic == EXACT_MODULO else "v2")
    started = time.perf_counter()
    trace: DerivationTrace | None = None

    if engine == "v1":
        steps: list[TraceStep] | None = [] if options.trace else None
        outcome = exact_modulo(env, state.tables, LocalContext(), source_stmt,
                               goal, source_proof, steps)
        if steps:
            trace = DerivationTrace(tuple(steps), env)
    else:
        # Surjections are given their relational encoding on demand.
        for entry in state.tables.surjections[state.encoded:]:
            state.tables, env = surjection_to_relational(
                state.tables, env, entry)
            state.env = env
            state.encoded += 1
        outcome = transfer_modulo(env, state.tables, source_stmt, goal,
                                  source_proof,
                                  diagnostics=options.diagnostics)
        if not isinstance(outcome, TransferFailure):
            outcome, trace = outcome

    if isinstance(outcome, TransferFailure):
        state.results.append(TheoremResult(cmd.name, engine, "failed",
                                           time.perf_counter() - started,
                                           failure=outcome, trace=trace))
        return

    # Admission is the one kernel check of the emitted proof.
    try:
        state.env = env.add_definition(cmd.name, outcome, goal)
    except TypeCheckError as e:
        raise SynthesisError(
            f"engine {engine} produced a rejected proof for '{cmd.name}': {e}"
        ) from None
    state.results.append(TheoremResult(cmd.name, engine, "proved",
                                       time.perf_counter() - started,
                                       proof=outcome, trace=trace))


def exit_code(state: SessionState) -> int:
    if state.internal_errors:
        return EXIT_INTERNAL
    if state.errors:
        return EXIT_SCRIPT_ERROR
    if any(r.status != "proved" for r in state.results):
        return EXIT_PROOF_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(state: SessionState, fmt: str = "human",
           options: RunOptions = RunOptions()) -> str:
    if fmt == "machine":
        return _machine_report(state)
    return _human_report(state, options)


def _human_report(state: SessionState, options: RunOptions) -> str:
    lines: list[str] = []
    for r in state.results:
        if r.status == "proved":
            lines.append(f"{r.name} : proved ({r.seconds * 1000:.1f} ms, "
                         f"engine {r.engine})")
        else:
            lines.append(f"{r.name} : failed ({r.failure})")
        if options.print_proofs and r.proof is not None:
            lines.append(f"  proof: {print_term(r.proof, state.env)}")
        if options.trace:
            lines.extend(f"  | {t}" for t in r.trace_lines)
    for e in state.errors:
        lines.append(f"error: {e}")
    for e in state.internal_errors:
        lines.append(f"internal error: {e}")
    proved = sum(1 for r in state.results if r.status == "proved")
    lines.append(f"{proved}/{len(state.results)} theorems proved")
    return "\n".join(lines)


def _machine_report(state: SessionState) -> str:
    doc = {
        "theorems": [
            {
                "theorem": r.name,
                "engine": r.engine,
                "status": r.status,
                "proof": (print_term(r.proof, state.env)
                          if r.proof is not None else None),
                "failure": (None if r.failure is None
                            else {"kind": r.failure.kind,
                                  "message": r.failure.message}),
                "trace": r.trace_lines,
            }
            for r in state.results
        ],
        "errors": list(state.errors),
        "internal_errors": list(state.internal_errors),
    }
    return _json(doc, "\n")


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)` for
    the report's values (objects, lists, strings and None), where `indent`
    is a line feed and the value's own indentation.  The standard encoder
    takes its pure-Python path when indenting, and its nested closures leave
    a reference cycle per call; this function recurses by its module name."""
    if value is None:
        return "null"
    if type(value) is str:
        return encode_basestring(value)
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = indent + "  "
    if type(value) is dict:
        items = [f"{encode_basestring(key)}: {_json(value[key], inner)}"
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [_json(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def run_script(path: str, options: RunOptions = RunOptions(),
               out=None) -> int:
    """Execute the script at path and print a report; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCRIPT_ERROR
    except UnicodeDecodeError as e:
        print(f"error: {path}: not valid UTF-8 (byte 0x{e.object[e.start]:02x} "
              f"at offset {e.start}: {e.reason})", file=sys.stderr)
        return EXIT_SCRIPT_ERROR
    state = execute_script(text, options)
    try:
        rendered, code = report(state, options.fmt, options), exit_code(state)
    except RecursionError:
        print(f"error: {NESTED_TOO_DEEPLY}", file=sys.stderr)
        return EXIT_SCRIPT_ERROR
    try:
        print(rendered, file=out)
        out.flush()
    except OSError as e:
        print(f"error: cannot write the report: {e}", file=sys.stderr)
        if out is sys.stdout:
            # What the failed write left buffered is flushed again at exit;
            # to the null device that flush cannot fail.
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), out.fileno())
        return EXIT_UNWRITTEN
    return code


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line uses it; importing the package does not

    parser = argparse.ArgumentParser(
        prog="transfer-kernel",
        description="Run proof-transfer scripts against the kernel.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a script file")
    run.add_argument("file", help="script file (UTF-8)")
    run.add_argument("--engine", choices=["v1", "v2"],
                     help="force one engine for every theorem")
    run.add_argument("--trace", action="store_true",
                     help="record and print derivation traces")
    run.add_argument("--print-proofs", action="store_true",
                     help="print emitted proof terms")
    run.add_argument("--keep-going", action="store_true",
                     help="continue past failed commands")
    run.add_argument("--no-prefill", action="store_true",
                     help="start with empty tables (no implication entry)")
    run.add_argument("--diagnostics", action="store_true",
                     help="kernel-check every intermediate v2 judgment")
    run.add_argument("--format", choices=["human", "machine"],
                     default="human", dest="fmt")
    args = parser.parse_args(argv)
    options = RunOptions(engine=args.engine, trace=args.trace,
                         print_proofs=args.print_proofs,
                         keep_going=args.keep_going,
                         prefill=not args.no_prefill,
                         diagnostics=args.diagnostics, fmt=args.fmt)
    return run_script(args.file, options)
