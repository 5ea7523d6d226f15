"""One repetition of a workload in a fresh process, so that qmult's module
caches start cold as they do for a command-line user.

    python3 perfbench/worker.py --workload brute --seed 1 [--trace] [--inputs RECORD]

Prints one JSON object: set-up, wall and CPU time, peak memory, the
verdict on every operation, structural counts, and with --trace the
per-layer metrics and spans.  Times are scaled by the host's speed, which
``calib`` samples during set-up and the timed window; the raw times go
under ``raw``.
``--inputs`` replays the inputs stored in a run record instead of
generating them from the seed.  ``--setup-only`` stops after set-up.
"""

import time

_START = time.perf_counter()  # set-up time counts from before qmult is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calib  # noqa: E402
import workloads  # noqa: E402
from qmult import multiplicity, partition  # noqa: E402
from qmult.altset import AltSet  # noqa: E402
from tracing import Tracer, is_count  # noqa: E402


def result_counts(workload: str, results: list) -> dict:
    """Counts read from the results alone, so untraced runs record them too."""
    counts = {"partition.tables": partition.table_for.cache_info().currsize}
    for res in results:
        if isinstance(res, multiplicity.MultiplicityResult):
            key = f"multiplicity.{res.method}.terms"
            counts[key] = counts.get(key, 0) + res.terms_evaluated
        elif isinstance(res, AltSet):
            counts["altset.closed.elements"] = (
                counts.get("altset.closed.elements", 0) + len(res.elements))
    if workload == "verify":
        counts["cli.verify.checks"] = workloads.verify_checks(results)
    if workload == "brute":
        rows = [workloads.brute_result(res) for res in results if isinstance(res, tuple)]
        counts["multiplicity.brute.terms"] = sum(row["terms"] for row in rows if row)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inputs", help="run record whose inputs to replay")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time alone")
    args = parser.parse_args(argv)

    if args.inputs:
        with open(args.inputs) as f:
            inputs = json.load(f)["inputs"]
    else:
        inputs = workloads.generate(args.workload, args.seed)
    ops = workloads.build(args.workload, inputs)
    setup_raw = time.perf_counter() - _START

    ref = calib.reference()
    setup = {"setup_s": setup_raw * calib.NOMINAL_S[calib.REF_N] / ref[0],
             "raw": {"setup_s": setup_raw, "ref_s": ref[0]}}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    results = []
    probe = calib.Probe()
    probe.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, (_, call) in enumerate(ops):
        try:
            results.append(tracer.run_op(k, call) if tracer else call())
        except Exception as exc:  # a crash or a cap refusal fails this operation only
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    counts = result_counts(args.workload, results)
    verdicts = workloads.check(args.workload, inputs, results)
    out = {
        "inputs": inputs,
        "setup_s": setup["setup_s"],
        "wall_s": probe.scale(wall_s, 0),
        "cpu_s": probe.scale(cpu_s, 1),
        "peak_rss_mb": peak_rss_mb,
        "raw": {**setup["raw"], "wall_s": wall_s, "cpu_s": cpu_s,
                "probes": len(probe.samples),
                "probe_s": statistics.median(s[0] for s in probe.samples)},
        "attempted": len(ops),
        "failures": [f"{label}: {v}" for (label, _), v in zip(ops, verdicts) if v],
        "counts": counts,
    }
    if tracer:
        layer = tracer.layer_metrics(counts["partition.tables"],
                                     counts.get("cli.verify.checks", 0))
        out["layer"] = layer
        out["counts"] = {**counts, **{k: v for k, v in layer.items() if is_count(k)},
                         "altset.sweep.rows_by_rank": tracer.rows_by_rank}
        out["spans"] = tracer.span_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
