"""Benchmark entry point.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Sets the workload up alone in SETUP_SAMPLES fresh worker processes, then
runs it again and again, each repetition in a fresh worker process, and
stops at the repetition boundary expected to lie closest to --seconds.
Then it prints one JSON line with the median of each metric.  Times are
scaled by the host's speed, which the workers sample while they work (see
calib.py), so that the host's drifting speed cancels out.  With --trace 0
the metrics are the end-to-end ones;
with --trace 1 repetitions alternate untraced and traced, and the metrics
are the per-layer ones from the traced repetitions plus the tracing
overhead.  Every repetition's inputs, timings, counts and spans go to a
record under perfbench/runs/.  Exits 1 when any operation fails its check
or the structural counts differ between repetitions, and 2 when qmult's
source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, is_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# As in workloads.WORKLOADS, which cannot be imported before the source check.
WORKLOADS = ("verify", "brute", "altset", "partition")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# A run must end within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170
# Set-ups measured in workers that stop after set-up, besides the one in
# every repetition.
SETUP_SAMPLES = 9


def run_worker(workload: str, seed: int, traced: bool, inputs: str | None,
               timeout: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if inputs:
        cmd += ["--inputs", inputs]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", help="run record whose inputs to replay")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmult" / "__init__.py").is_file():
        print(f"error: no qmult source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        setups = [run_worker(args.workload, args.seed, False, args.inputs,
                             RUN_LIMIT_S, setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    reps: list[dict] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.perf_counter()
        left = RUN_LIMIT_S - (began - start)
        try:
            rep = run_worker(args.workload, args.seed, traced, args.inputs, left)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: repetition {len(reps)} failed: {exc}", file=sys.stderr)
            return 1
        rep["traced"] = traced
        reps.append(rep)
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = not args.trace or len(reps) >= 2
        if enough and elapsed + longest / 2 > min(args.seconds, RUN_LIMIT_S - longest):
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    problems = list(failures)
    if any(r["inputs"] != reps[0]["inputs"] for r in reps):
        problems.append("repetitions generated different inputs")
    for group in (plain, traced_reps):
        if any(r["counts"] != group[0]["counts"] for r in group):
            problems.append("structural counts differ between repetitions")
    if traced_reps and any(traced_reps[0]["counts"].get(k) != v
                           for k, v in plain[0]["counts"].items()):
        problems.append("traced and untraced repetitions disagree on counts")

    def median(rs: list[dict], key: str, sub: str | None = None) -> float:
        return statistics.median((r[sub] if sub else r)[key] for r in rs)

    if args.trace:
        metrics = {name: metric(median(traced_reps, name, "layer"), unit)
                   for name, unit, _ in PER_LAYER if name in traced_reps[0]["layer"]}
        metrics["trace.overhead"] = metric(
            median(traced_reps, "wall_s") / median(plain, "wall_s"), "ratio")
        metrics["raw.wall_s"] = metric(median(plain, "wall_s", "raw"), "s")
        metrics["raw.ref_s"] = metric(median(plain, "ref_s", "raw"), "s")
        metrics["error_rate"] = metric(len(failures) / attempted, "ratio")
    else:
        metrics = {name: metric(median(plain, name), unit)
                   for name, unit in END_TO_END.items()}
        metrics["setup_s"] = metric(median(setups + plain, "setup_s"), "s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "inputs": reps[0]["inputs"],
        "counts": {"untraced": plain[0]["counts"],
                   "traced": traced_reps[0]["counts"] if traced_reps else None},
        "problems": problems,
        "metrics": metrics,
        "setups": setups,
        "repetitions": reps,
    }
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    summary = ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()
                        if not is_count(k))
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_reps)} traced repetitions; {summary}; record {runs / name}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
