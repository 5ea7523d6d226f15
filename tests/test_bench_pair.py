"""Tests for ``scripts/bench_pair.py``: what each benchmark run sees."""

import importlib
import json
import sys
from math import isqrt
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench_pair  # noqa: E402
import workloads  # noqa: E402

import qmult  # noqa: E402


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
    # one scan of the strip, one step per coordinate, accounts for every
    # element of m_q_altset's alternation set; alt_set_closed lists every
    # element from the words on either side of one cut, O(sqrt |A|) of them
    calls = bench_pair.altset_terms()
    assert [c["call"] for c in calls] == ["m_q_altset"] * 3 + ["alt_set_closed"]
    for c in calls:
        assert c["terms"] == c["alt_set_size"], c
        if c["call"] == "m_q_altset":
            assert c["steps"] == c["rank"] < c["terms"], c
        else:
            ceil_sqrt = isqrt(c["terms"] - 1) + 1
            assert 0 < c["joined"] <= 4 * ceil_sqrt + 2 * (c["rank"] + 1), c


def test_sweep_layer_records_node_rates():
    # the node counts are structural
    rates = bench_pair.sweep_rates()
    assert [(r["case"], r["sweeps"], r["nodes"]) for r in rates] == [
        ("verify --max-rank 6", 120, 2993),
        ("rank 8, mu = -2", 1, 1228 + 964),
        ("rank 9, mu = -4", 1, 27553 + 8455),
    ]
    for r in rates:
        assert r["best_s"] > 0 and r["nodes_per_s"] == r["nodes"] / r["best_s"], r


def test_pass_layer_times_every_partition_input():
    rates = bench_pair.pass_rates()
    assert [r["xi"] for r in rates] == workloads.generate("partition", 1)["xis"]
    assert len(rates) == 15 and rates[0]["xi"] == [59, 61, 59]
    for r in rates:
        assert r["best_s"] > 0, r


def test_route_layer_times_every_verify_index_set():
    # the control m_q_altset rides beside the two formula routes
    rates = bench_pair.route_rates()
    assert [(r["case"], r["calls"]) for r in rates] == [
        ("m_q_closed_general", 120), ("m_q_rank_reduction", 120), ("m_q_altset", 120)]
    for r in rates:
        assert r["best_s"] > 0, r


def test_timed_runs_alternate_and_keep_each_cases_fastest(monkeypatch):
    # one slow process on a side must not set that side's record
    calls = []
    times = iter([[3.0, 1.0], [2.0, 2.0], [1.0, 5.0], [4.0, 4.0], [5.0, 0.5], [0.5, 3.0]])

    def fake(checkout, count):
        calls.append(checkout)
        return [{"case": i, "best_s": s} for i, s in enumerate(next(times))]

    monkeypatch.setattr(bench_pair, "fresh_count", fake)
    monkeypatch.setattr(bench_pair, "RATE_RUNS", 3)
    best = bench_pair.fastest_runs({"before": "B", "after": "A"}, "pass_rates")
    assert calls == ["B", "A", "A", "B", "B", "A"]
    assert best == {"before": [{"case": 0, "best_s": 3.0}, {"case": 1, "best_s": 0.5}],
                    "after": [{"case": 0, "best_s": 0.5}, {"case": 1, "best_s": 2.0}]}


def _run(wall_s, rate, failed=0, correct=True):
    """One ``perfbench/run.py`` result line, as the pairs hold it."""
    return {"correct": correct, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s}, "rate": {"value": rate}}}


# four pairs: the after side is faster in two and has the higher rate in
# three; the before side fails one operation and has one incorrect run
PAIRS = [{"before": b, "after": a} for b, a in zip(
    [_run(1, 10), _run(2, 10), _run(3, 10, failed=1), _run(4, 10, correct=False)],
    [_run(2, 11), _run(1, 12, failed=2), _run(1, 10), _run(5, 13)])]
METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]


def test_summary_counts_wins_failures_and_incorrect_runs():
    summary = bench_pair.summarize(PAIRS, METRICS)
    assert summary["wall_s"] == {"before": {"q1": 1.25, "median": 2.5, "q3": 3.75},
                                 "after": {"q1": 1.0, "median": 1.5, "q3": 4.25},
                                 "after_won": 2}
    assert summary["rate"] == {"before": {"q1": 10.0, "median": 10.0, "q3": 10.0},
                               "after": {"q1": 10.25, "median": 11.5, "q3": 12.75},
                               "after_won": 3}
    assert summary["failed"] == {"before": 1, "after": 2}
    assert summary["incorrect"] == {"before": 1, "after": 0}
    assert summary["pairs"] == 4


@pytest.mark.parametrize("before, code", [
    (_run(1, 10, correct=False), 1), (_run(1, 10, failed=1), 1), (_run(1, 10), 0)])
def test_record_is_written_and_a_bad_run_exits_1(tmp_path, monkeypatch, before, code):
    repo = Path(__file__).resolve().parents[1]
    pairs = [{"before": before, "after": _run(1, 10)}] * 2
    monkeypatch.setattr(bench_pair, "run_pairs", lambda sides, workload: pairs)
    monkeypatch.setattr(bench_pair, "fresh_count", lambda checkout, count: None)
    monkeypatch.setattr(bench_pair, "fastest_runs", lambda sides, count: {})
    monkeypatch.setattr(bench_pair, "import_footprint", lambda checkout: {})
    spec = {"workloads": [{"name": "verify"}], "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for part in ("src", "perfbench"):
        (tmp_path / part).mkdir()
    out = tmp_path / "bench.json"
    argv = ["--before", str(repo), "--after", str(tmp_path), "--out", str(out)]
    assert bench_pair.main(argv) == code
    summary = json.loads(out.read_text())["workloads"]["verify"]["summary"]
    assert summary == bench_pair.summarize(pairs, METRICS)


def _bindings():
    """Every attribute of every qmult module and of every class a qmult
    module defines, as (owner, name) -> the object bound."""
    package = Path(qmult.__file__).parent
    modules = [qmult] + [importlib.import_module(f"qmult.{p.stem}")
                         for p in sorted(package.glob("*.py")) if p.stem != "__init__"]
    bound = {}
    for module in modules:
        for name, value in vars(module).items():
            bound[module, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                bound.update(((value, attr), v) for attr, v in vars(value).items())
    return bound


def test_no_qmult_function_is_replaced():
    # a counting wrapper swapped in for a qmult function and restored after
    # the call leaves the bindings as they were, so qmult code calling into
    # this script is watched for too
    script = bench_pair.__file__
    package = str(Path(qmult.__file__).parent)
    callbacks = []

    def watch(frame, event, arg):
        if (event == "call" and frame.f_code.co_filename == script
                and frame.f_back.f_code.co_filename.startswith(package)):
            callbacks.append(frame.f_code.co_name)

    before = _bindings()
    sys.setprofile(watch)
    try:
        bench_pair.sweep_counts()
        bench_pair.count_partition()
        bench_pair.altset_terms()
        bench_pair.sweep_rates()
        bench_pair.pass_rates()
        bench_pair.route_rates()
    finally:
        sys.setprofile(None)
    after = _bindings()
    assert callbacks == []
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
