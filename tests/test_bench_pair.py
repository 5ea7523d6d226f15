"""Tests for ``scripts/bench_pair.py``: what each benchmark run sees."""

import sys
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench_pair  # noqa: E402

from altset_oracle import term_tally_runs  # noqa: E402
from qmult.intervals import IndexSet  # noqa: E402


def test_copy_leaves_out_bytecode_and_run_records(tmp_path):
    checkout = tmp_path / "checkout"
    for rel in ("BENCHMARK.json", "perfbench/run.py", "src/qmult/__init__.py",
                "perfbench/__pycache__/run.cpython-311.pyc",
                "perfbench/runs/verify-seed1.json",
                "src/qmult/__pycache__/cli.cpython-311.pyc"):
        path = checkout / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rel)
    copy = bench_pair.copy_checkout(checkout, tmp_path / "copy")
    copied = sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*"))
    assert copied == ["BENCHMARK.json", "perfbench", "perfbench/run.py",
                      "src", "src/qmult", "src/qmult/__init__.py"]
    assert (copy / "src/qmult/__init__.py").read_text() == "src/qmult/__init__.py"


def test_runs_write_no_bytecode_and_use_no_prefix(monkeypatch):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/nowhere")
    env = bench_pair.run_env()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in env


def test_import_footprint_lists_what_the_cli_import_adds():
    repo = Path(__file__).resolve().parents[1]
    footprint = bench_pair.import_footprint(repo)
    modules = footprint["modules"]
    assert footprint["count"] == len(modules) == len(set(modules))
    assert modules == sorted(modules)
    assert {"qmult", "qmult.cli", "qmult.poly", "argparse"} <= set(modules)
    assert not {"dataclasses", "inspect", "ast", "dis", "typing"} & set(modules)


def test_altset_counts_what_each_call_walks():
    # one scan of the strip accounts for every element of m_q_altset's
    # alternation set under a few (|J|, n) keys; alt_set_closed lists every
    # element from the words on either side of one cut, O(sqrt |A|) of them
    calls = bench_pair.altset_terms()
    assert [c["call"] for c in calls] == ["m_q_altset"] * 3 + ["alt_set_closed"]
    for c in calls:
        assert c["terms"] == c["alt_set_size"], c
        if c["call"] == "m_q_altset":
            runs_tally = term_tally_runs(IndexSet(c["rank"], c["members"]))
            assert c["keys"] == len(runs_tally), c
            assert c["keys"] <= (c["rank"] // 2 + 1) * (c["rank"] + 1) < c["terms"], c
        else:
            ceil_sqrt = isqrt(c["terms"] - 1) + 1
            assert 0 < c["joined"] <= 4 * ceil_sqrt + 2 * (c["rank"] + 1), c

