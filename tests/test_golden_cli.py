"""Replay a recorded CLI transcript: stdout and exit code must not change.

``golden_cli.json`` lists commands with the exit code and stdout each
produced.  ``bench`` rows are compared without their last column, the
measured ``micros``.  A command that exits 2 must also write its error to
stderr.  After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qmult.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
CASES = json.loads(GOLDEN.read_text())


def run_case(case) -> tuple[int, str, str]:
    """Exit code, stdout (without ``micros`` for bench) and stderr of one case."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.delenv("QMULT_BRUTE_CAP", raising=False)
        for key, value in case.get("env", {}).items():
            mp.setenv(key, value)
        code = main(list(case["argv"]))
    text = out.getvalue()
    if case["argv"][:1] == ["bench"]:
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    return code, text, err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "(none)" for c in CASES])
def test_transcript(case):
    code, out, err = run_case(case)
    assert (code, out) == (case["exit"], case["stdout"])
    if code == 2:
        assert out == "" and err.strip()


def test_transcript_covers_every_subcommand_and_exit_code():
    assert {c["argv"][0] for c in CASES if c["argv"]} == {
        "partition", "altset", "multiplicity", "verify", "bench"}
    assert {c["exit"] for c in CASES} == {0, 2}


if __name__ == "__main__":
    for case in CASES:
        case["exit"], case["stdout"], _ = run_case(case)
    GOLDEN.write_text(json.dumps(CASES, indent=1, ensure_ascii=False) + "\n")
