"""Every corpus script's traced machine report, byte for byte.

`tests/golden/reports/<script>.json` holds the exit code and the machine
report (`RunOptions(trace=True, fmt="machine")`, which carries proofs,
failures and traces but no timings) of each `tests/scripts/*.tk`.  A change
that alters any emitted proof, trace or report byte fails here.  After a
deliberate output change, regenerate the files from the repository root
with

    PYTHONPATH=src:tests python3 -c "import test_golden_reports as t; t.write_golden()"

and review the diff.
"""

import json

import pytest

from transfer_kernel.cli import RunOptions, execute_script, exit_code, report

from conftest import GOLDEN, SCRIPTS

REPORTS = GOLDEN / "reports"
OPTIONS = RunOptions(trace=True, fmt="machine")


def _render(doc) -> str:
    # The machine report's own JSON settings, so that re-rendering the stored
    # report reproduces its bytes.
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def _run(name: str) -> tuple[int, str]:
    state = execute_script((SCRIPTS / name).read_text(encoding="utf-8"),
                           OPTIONS)
    return exit_code(state), report(state, OPTIONS.fmt, OPTIONS)


def write_golden() -> None:
    REPORTS.mkdir(exist_ok=True)
    for path in sorted(SCRIPTS.glob("*.tk")):
        code, text = _run(path.name)
        doc = {"exit_code": code, "report": json.loads(text)}
        (REPORTS / f"{path.stem}.json").write_text(_render(doc) + "\n",
                                                    encoding="utf-8")


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.tk")))
def test_machine_report_matches_golden(name):
    golden = json.loads((REPORTS / f"{name[:-3]}.json")
                        .read_text(encoding="utf-8"))
    code, text = _run(name)
    assert code == golden["exit_code"]
    assert text == _render(golden["report"])


def test_every_script_has_a_golden_report():
    assert sorted(p.stem for p in REPORTS.glob("*.json")) \
        == sorted(p.stem for p in SCRIPTS.glob("*.tk"))
