"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

Takes about a minute: every workload runs traced twice.
"""

import json
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def worker(workload: str, seed: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), *extra],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts_and_no_failures(workload):
    first = worker(workload, 7, "--trace")
    second = worker(workload, 7, "--trace")
    assert first["failures"] == [] and second["failures"] == []
    assert first["inputs"] == second["inputs"]
    assert first["counts"] == second["counts"]
    for rank, (calls, rows) in first["counts"]["altset.sweep.rows_by_rank"].items():
        assert rows == calls * factorial(int(rank) + 1)


def test_untraced_counts_match_traced():
    plain = worker("altset", 3)
    traced = worker("altset", 3, "--trace")
    for key, value in plain["counts"].items():
        assert traced["counts"][key] == value
    terms = sum(workloads.alt_set_size(28, s) for s in plain["inputs"]["index_sets"])
    assert plain["counts"]["multiplicity.altset.terms"] == terms


def test_replay_from_record(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"inputs": workloads.generate("partition", 11)}))
    replayed = worker("partition", 0, "--inputs", str(record))
    assert replayed["inputs"] == workloads.generate("partition", 11)
    assert replayed["failures"] == []


def test_probe_scales_the_window_by_the_mean_speed():
    probe = calib.Probe()
    nominal = calib.NOMINAL_S[calib.PROBE_N]
    # Half the probes ran at the nominal speed and half at a third of it.
    probe.samples = [(nominal, nominal), (3 * nominal, 3 * nominal)] * 5
    raw = 1.0 + 20 * nominal
    assert probe.scale(raw, 0) == pytest.approx((1 + 1 / 3) / 2)
    assert probe.scale(raw, 1) == pytest.approx((1 + 1 / 3) / 2)


def test_times_are_scaled_by_the_hosts_speed():
    setup = worker("altset", 2, "--setup-only")
    assert set(setup) == {"setup_s", "raw"}
    assert setup["setup_s"] == pytest.approx(
        setup["raw"]["setup_s"] * calib.NOMINAL_S[calib.REF_N] / setup["raw"]["ref_s"])
    rep = worker("altset", 2)
    assert rep["raw"]["probes"] >= rep["raw"]["wall_s"] / calib.INTERVAL_S / 2
    assert 0.2 < rep["wall_s"] / rep["raw"]["wall_s"] < 1.5


def test_generation_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate("brute", 5) != workloads.generate("brute", 6)


def test_inputs_stay_in_their_bands():
    for seed in range(20):
        alt = workloads.generate("altset", seed)
        for members in alt["index_sets"]:
            lo, hi = workloads.ALTSET_BAND
            assert lo <= workloads.alt_set_size(28, members) <= hi
        xis = workloads.generate("partition", seed)["xis"]
        assert sum(0 in xi[1:-1] for xi in xis) == len(xis) // 3


def test_wrong_results_are_failures():
    inputs = workloads.generate("brute", 1)
    assert workloads.check("brute", inputs, [ValueError("cap")] * 4)[0].startswith("raised")
    assert workloads.check("brute", inputs, [(2, "")] * 4)[0].startswith("exit 2")
    verify = workloads.generate("verify", 1)
    assert workloads.check("verify", verify, [(0, "VERIFY PASS (1 checks)\n")])[0]
    assert workloads.expected_verify_checks(7) == 1729


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s",
                                                      "peak_rss_mb"}


def test_without_the_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
