"""Print the statements of the package that the output digest's inputs
never execute.

    python3 tests/reach.py

runs every input `tests/output_digest.py` hashes (the 7 corpus scripts
under six option sets, the 300 mutated scripts and 2,400 seed-3 fuzz
problems) under a `sys.settrace` line tracer installed before the package
is imported, so module-level code counts too.  For each module of
`src/transfer_kernel` it prints the line and source of each statement
that has code and never ran, or nothing for a module whose every
statement ran.  A compound statement counts by its header: an `if` that
ran counts even when a branch did not, and that branch's statements are
listed on their own.  A docstring compiles to no code and is never
listed.  Code that only the tests reach shows up here, which is what to
check before removing it as dead; the run takes about half a minute.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "transfer_kernel"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]


def line_tracer(executed: dict[str, set[int]]):
    """A global tracer that adds each line run in a package file to
    `executed[file]`, and traces no other frame."""
    package = str(PACKAGE)

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        lines = executed[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return tracer


def code_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it run on."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.AST):
    """Each statement with its own lines: a compound statement's header
    (up to its first child statement), a simple statement's whole span."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        children = [child for field in ("body", "orelse", "handlers",
                                        "finalbody", "cases")
                    for child in getattr(node, field, ())]
        end = min((child.lineno for child in children),
                  default=node.end_lineno + 1) - 1
        yield node, range(node.lineno, max(end, node.lineno) + 1)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """The line and source of each statement of `path` with code on no
    line in `ran`."""
    source = path.read_text(encoding="utf-8")
    code = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    for node, lines in statements(ast.parse(source)):
        own = code.intersection(lines)
        if own and not own & ran:
            found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(set(found))


def main() -> int:
    executed: dict[str, set[int]] = defaultdict(set)
    sys.settrace(line_tracer(executed))
    try:
        import output_digest
        for items in (output_digest.corpus_items, output_digest.mutated_items,
                      output_digest.fuzz_items):
            for _ in items():
                pass
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path, executed.get(str(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements never run")
        for line, text in missed:
            print(f"  {line:4d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
