"""Write a before/after benchmark record for one change.

    python3 scripts/bench_pair.py --before DIR --after DIR --out BENCH_10.json

DIR is a checkout (source, perfbench/ and BENCHMARK.json) of the parent
commit and of the change.  For every workload in BENCHMARK.json this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0

in the before checkout and then in the after checkout, and keeps the last
line each run prints (its JSON result).  It also records structural
counts.  The number of entries in the partition memo and of calls to its
recursion ``_solve`` after the seed-1 ``partition`` inputs are counted in
each checkout, each in a fresh process.  The rest are computed with the
after checkout's source: the pruned Weyl sweep on the seed-1 ``brute``
inputs (rows are leaves, each pruned subtree is one dropped prefix, and
leaves plus pruned elements account for (rank+1)!), and the
alternation-set elements visited on the seed-1 ``altset`` inputs
(``terms_evaluated`` of each ``m_q_altset`` call and the element count of
the ``alt_set_closed`` call), each of which must equal perfbench's
independent ``alt_set_size``.  ``src_lines`` is the line count of
``src/qmult/*.py`` in each checkout, as ``wc -l`` gives it, so a change's
size is read from the record.  Timings depend on the host, which the
record names; the counts do not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from math import factorial
from pathlib import Path

SEED = 1
SECONDS = 20


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_workload(checkout: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} in {checkout} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def src_lines(checkout: Path) -> int:
    """Newlines in the package's modules, the total ``wc -l src/qmult/*.py`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "qmult").glob("*.py"))


def sweep_counts() -> dict:
    import workloads
    from qmult.altset import WeylSweep
    from qmult.roots import RootVector, highest_root

    inputs = workloads.generate("brute", SEED)
    rank = inputs["rank"]
    calls = []
    for mu in inputs["mus"]:
        coeffs = mu.get("coeffs") or [int(k + 1 in mu["members"]) for k in range(rank)]
        sweep = WeylSweep(highest_root(rank), RootVector(rank, coeffs))
        for _ in sweep:
            pass
        calls.append({"mu": mu, "leaves": sweep.leaves, "pruned_subtrees": sweep.pruned,
                      "accounted": sweep.accounted})
    return {"workload": "brute", "seed": SEED, "rank": rank,
            "rows_per_call_before": factorial(rank + 1), "calls": calls}


def count_partition() -> dict:
    """The memo's entry count and the number of ``_solve`` calls after the
    seed-1 ``partition`` inputs, from a cleared memo.  The recursion calls
    the module global ``_solve``, so a wrapper put there counts every call."""
    import workloads
    from qmult import partition
    from qmult.roots import RootVector

    solve, calls = partition._solve, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    partition._MEMO.clear()
    partition._solve = counted
    try:
        for xi in workloads.generate("partition", SEED)["xis"]:
            partition.kostant_q(RootVector(len(xi), xi))
    finally:
        partition._solve = solve
    return {"entries": len(partition._MEMO), "calls": calls}


def partition_counts(checkout: Path) -> dict:
    """``count_partition`` on the checkout's source, in a fresh process."""
    here = str(Path(__file__).resolve().parent)
    code = (f"import json, sys; sys.path[:0] = ['src', 'perfbench', {here!r}]; "
            "import bench_pair; print(json.dumps(bench_pair.count_partition()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def altset_terms() -> dict:
    import workloads
    from qmult.altset import alt_set_closed
    from qmult.intervals import IndexSet
    from qmult.multiplicity import m_q_altset

    inputs = workloads.generate("altset", SEED)
    calls = []
    for members in inputs["index_sets"]:
        res = m_q_altset(IndexSet(inputs["rank"], members))
        calls.append({"call": "m_q_altset", "rank": inputs["rank"], "members": members,
                      "terms": res.terms_evaluated,
                      "alt_set_size": workloads.alt_set_size(inputs["rank"], members)})
    c = inputs["closed"]
    elements = alt_set_closed(IndexSet(c["rank"], c["members"])).cardinality
    calls.append({"call": "alt_set_closed", "rank": c["rank"], "members": c["members"],
                  "terms": elements,
                  "alt_set_size": workloads.alt_set_size(c["rank"], c["members"])})
    for call in calls:
        if call["terms"] != call["alt_set_size"]:
            raise RuntimeError(f"alternation set miscounted: {call}")
    return {"workload": "altset", "seed": SEED, "calls": calls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        results[name] = {"before": run_workload(args.before, name),
                         "after": run_workload(args.after, name)}
    counts = {"before": partition_counts(args.before), "after": partition_counts(args.after)}
    sys.path[:0] = [str(args.after / "src"), str(args.after / "perfbench")]
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0",
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "platform": platform.platform(),
                 "python": platform.python_version()},
        "workloads": results,
        "src_lines": {"before": src_lines(args.before), "after": src_lines(args.after)},
        "sweep_counts": sweep_counts(),
        "partition_memo": {"workload": "partition", "seed": SEED,
                           "entries": {k: c["entries"] for k, c in counts.items()}},
        "partition_calls": {"workload": "partition", "seed": SEED,
                            "calls": {k: c["calls"] for k, c in counts.items()}},
        "altset_terms": altset_terms(),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
