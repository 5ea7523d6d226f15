"""Write a before/after benchmark record for one change.

    python3 scripts/bench_pair.py --before DIR --after DIR --out BENCH_30.json

DIR is a checkout of the parent commit or of the change.  Its ``src/``,
``perfbench/`` (less ``runs/`` and every ``__pycache__/``) and
``BENCHMARK.json`` are copied into a temporary directory, and every run reads
the copies with PYTHONDONTWRITEBYTECODE=1 and no PYTHONPYCACHEPREFIX, so
qmult and perfbench compile from source while the standard library reads
its installed bytecode cache, as in a run from a fresh checkout (a prefix
would compile the standard library too).

The record holds:
- ``workloads``: for each workload of BENCHMARK.json, PAIRS runs per side of
  ``python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0``,
  interleaved, the pairs alternating which side runs first so that a drift
  of the host's speed falls on both sides alike; each run's JSON result
  line and, for each end-to-end metric, each side's median and quartiles
  and the pairs the after side won, beside each side's failed operations
  and its runs that ``run.py`` found incorrect.  The script still writes
  the record when any of those is nonzero, then exits 1.
- ``src_lines``: the line count of ``src/qmult/*.py``, as ``wc -l`` gives it.
- ``sweep_counts``: the pruned Weyl sweep's leaves, pruned subtrees and
  accounted elements ((rank+1)! each) on the seed-1 ``brute`` inputs.
- ``partition_entries``: the entries the answer cache ``_CACHE`` holds
  after the seed-1 ``partition`` inputs.
- ``altset_terms``: the alternation-set elements each seed-1 ``altset`` call
  accounts for, checked against perfbench's ``alt_set_size``, with the
  ``steps`` of ``m_q_altset``'s scan of the strip, one per coordinate (a
  checkout from before the scan records the same number, though its
  (|J|, n) tally stepped over rank - 2 coordinates), and the words
  ``joined`` in the lists ``alt_set_closed`` joins (``altset._halves``).
- ``import_footprint``: the modules ``import qmult.cli`` adds to a
  ``python -I -S`` interpreter, sorted, and their count.
- ``sweep_rates``: sweep nodes (leaves plus pruned subtrees) per second on
  the sweeps one seed-1 ``verify`` run makes, on rank 8 with mu = -2 and on
  rank 9 with mu = -4.
- ``cache_answered``: for the seed-1 ``verify``, ``brute`` and ``partition``
  operations, each run once from a cache that holds only the empty xi, the
  division-pass calls (``partition._divide``) and how many of them the
  answer cache answers whole, every state of nonzero weight cached on
  entry.  Such a call reads values and divides nothing, so what it costs
  is the pass's set-up.  A profile hook on ``_divide``'s code object sees
  the calls; no function is replaced.
- ``pass_rates``: the division pass ``partition._divide`` alone on each
  seed-1 ``partition`` xi, stripped as ``kostant_q`` keys it; the pass only
  reads the answer cache, so every round is cold.
- ``route_rates``: ``m_q_closed_general``, ``m_q_rank_reduction`` and
  ``m_q_altset`` each called on the index sets of one seed-1 ``verify`` run;
  ``m_q_altset`` is the route under change, and the formula routes, which
  share no code with it, are the control.

Each count is taken in a fresh process per checkout.  Each rate is the best
of RATE_ROUNDS rounds in process; RATE_RUNS fresh processes run per
checkout, the checkouts alternating which goes first.  Each case keeps its
fastest run, and beside it every process's best (``runs_s``, in the order
run) and their median (``median_s``), so that a slow spell on one side shows
as spread, not as a difference.  Timings depend on the host, which the
record names; the counts do not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from math import factorial
from statistics import median, quantiles
from pathlib import Path

SEED = 1
SECONDS = 20
# interleaved before/after pairs per workload: one pair cannot resolve a
# change of a few percent in an operation of a few milliseconds
PAIRS = 10
# rounds of each in-process timing, of which the fastest is kept
RATE_ROUNDS = 5
# fresh processes per checkout for the in-process timings
RATE_RUNS = 5


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def copy_checkout(checkout: Path, dest: Path) -> Path:
    """What a benchmark run reads of a checkout, copied to dest without
    bytecode caches or earlier run records."""
    skip = shutil.ignore_patterns("runs", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part, ignore=skip)
    shutil.copy(checkout / "BENCHMARK.json", dest)
    return dest


def run_env() -> dict:
    """The environment of a run: no bytecode written and no cache prefix."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    return {**env, "PYTHONDONTWRITEBYTECODE": "1"}


def run_workload(checkout: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=run_env())
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} in {checkout} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(sides: dict, workload: str) -> list:
    """PAIRS before/after runs of the workload, the first side alternating."""
    pairs = []
    for i in range(PAIRS):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        runs = {side: run_workload(sides[side], workload) for side in order}
        pairs.append({"first": order[0], "before": runs["before"], "after": runs["after"]})
    return pairs


def summarize(pairs: list, end_to_end: list) -> dict:
    """Each metric's median and quartiles on each side, and the pairs the
    after side won; failed operations and incorrect runs are summed."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("before", "after")}
        out[name] = {}
        for side, v in values.items():
            q1, mid, q3 = quantiles(v, n=4)
            out[name][side] = {"q1": q1, "median": mid, "q3": q3}
        out[name]["after_won"] = sum((a < b) if lower else (a > b)
                                     for b, a in zip(values["before"], values["after"]))
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("before", "after")}
    out["incorrect"] = {side: sum(not p[side]["correct"] for p in pairs)
                        for side in ("before", "after")}
    out["pairs"] = len(pairs)
    return out


def src_lines(checkout: Path) -> int:
    """Newlines in the package's modules, the total ``wc -l src/qmult/*.py`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "qmult").glob("*.py"))


def sweep_counts() -> dict:
    """The pruned sweep's leaves, pruned subtrees and accounted elements for
    each seed-1 ``brute`` input."""
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


def count_partition() -> int:
    """The entries the partition engine's answer cache ``_CACHE`` holds
    after the seed-1 ``partition`` inputs, counted from a fresh process."""
    import workloads
    from qmult import partition
    from qmult.roots import RootVector

    for xi in workloads.generate("partition", SEED)["xis"]:
        partition.kostant_q(RootVector(len(xi), xi))
    return len(partition._CACHE)


def cache_answered() -> list:
    """The division-pass calls of the seed-1 ``verify``, ``brute`` and
    ``partition`` operations, each workload run once from a cache that holds
    only the empty xi, and how many of them the answer cache answers whole.

    A profile hook on ``partition._divide``'s code object reads each call's
    weights as it starts; it replaces nothing, and a profile function set
    before it is called too.  The cache is restored afterwards."""
    import workloads
    from qmult import partition

    code, cache = partition._divide.__code__, partition._CACHE
    saved = dict(cache)
    prev = sys.getprofile()
    tallies = []
    for workload in ("verify", "brute", "partition"):
        seen = {"calls": 0, "answered_whole": 0}

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is code:
                seen["calls"] += 1
                seen["answered_whole"] += all(
                    partition._strip(xi) in cache
                    for xi, w in frame.f_locals["weights"].items() if w)
            if prev is not None:
                prev(frame, event, arg)

        ops = workloads.build(workload, workloads.generate(workload, SEED))
        cache.clear()
        cache[()] = saved[()]
        sys.setprofile(hook)
        try:
            for _, call in ops:
                call()
        finally:
            sys.setprofile(prev)
        tallies.append({"workload": workload, "operations": len(ops), **seen})
    cache.clear()
    cache.update(saved)
    return tallies


def verify_index_sets() -> tuple:
    """The max rank of one seed-1 ``verify`` run and the index sets it
    checks: every nonempty one up to that rank."""
    import workloads
    from qmult.intervals import IndexSet

    argv = workloads.generate("verify", SEED)["argv"]
    max_rank = int(argv[argv.index("--max-rank") + 1])
    return max_rank, [IndexSet(r, [k + 1 for k in range(r) if mask >> k & 1])
                      for r in range(1, max_rank + 1) for mask in range(1, 1 << r)]


def sweep_rates() -> list:
    """Sweep nodes (leaves plus pruned subtrees) per second on the sweeps of
    one seed-1 ``verify`` run, on rank 8 with mu = -2 and on rank 9 with
    mu = -4, each case timed in process as the best of RATE_ROUNDS rounds."""
    import time

    from qmult.altset import WeylSweep
    from qmult.roots import RootVector, highest_root

    max_rank, index_sets = verify_index_sets()
    cases = {
        f"verify --max-rank {max_rank}": [(highest_root(s.rank), s.to_root_vector())
                                          for s in index_sets],
        "rank 8, mu = -2": [(highest_root(8), RootVector(8, (-2,) * 8))],
        "rank 9, mu = -4": [(highest_root(9), RootVector(9, (-4,) * 9))],
    }
    rates = []
    for name, pairs in cases.items():
        best = float("inf")
        for _ in range(RATE_ROUNDS):
            nodes = 0
            start = time.perf_counter()
            for lam, mu in pairs:
                sweep = WeylSweep(lam, mu)
                for _ in sweep:
                    pass
                nodes += sweep.leaves + sweep.pruned
            best = min(best, time.perf_counter() - start)
        rates.append({"case": name, "sweeps": len(pairs), "nodes": nodes,
                      "best_s": best, "nodes_per_s": nodes / best})
    return rates


def pass_rates() -> list:
    """The division pass alone on each seed-1 ``partition`` xi, stripped as
    ``kostant_q`` keys it, timed in process as the best of RATE_ROUNDS
    rounds; the pass only reads the answer cache, so every round is cold."""
    import time

    import workloads
    from qmult import partition

    rates = []
    for xi in workloads.generate("partition", SEED)["xis"]:
        weights = {partition._strip(tuple(xi)): 1}
        best = float("inf")
        for _ in range(RATE_ROUNDS):
            start = time.perf_counter()
            partition._divide(weights)
            best = min(best, time.perf_counter() - start)
        rates.append({"xi": xi, "best_s": best})
    return rates


def route_rates() -> list:
    """The control formula routes ``m_q_closed_general`` and
    ``m_q_rank_reduction`` and the route under change ``m_q_altset``, each
    called on every index set of one seed-1 ``verify`` run, timed in process
    as the best of RATE_ROUNDS rounds."""
    import time

    from qmult import multiplicity

    _, index_sets = verify_index_sets()
    rates = []
    for name in ("m_q_closed_general", "m_q_rank_reduction", "m_q_altset"):
        route = getattr(multiplicity, name)
        best = float("inf")
        for _ in range(RATE_ROUNDS):
            start = time.perf_counter()
            for index_set in index_sets:
                route(index_set)
            best = min(best, time.perf_counter() - start)
        rates.append({"case": name, "calls": len(index_sets), "best_s": best})
    return rates


def fresh_count(checkout: Path, count: str):
    """The named counting function of this script, run on the checkout's
    source in a fresh process."""
    here = str(Path(__file__).resolve().parent)
    code = (f"import json, sys; sys.path[:0] = ['src', 'perfbench', {here!r}]; "
            f"import bench_pair; print(json.dumps(bench_pair.{count}()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def fastest_runs(sides: dict, count: str) -> dict:
    """The named timing function of this script, run RATE_RUNS times in each
    checkout, each time in a fresh process, the checkouts alternating which
    goes first; per case, the run with the least ``best_s``, with every
    run's ``best_s`` in the order run (``runs_s``) and their median."""
    runs: dict = {"before": [], "after": []}
    for i in range(RATE_RUNS):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            runs[side].append(fresh_count(sides[side], count))
    out = {}
    for side, got in runs.items():
        out[side] = []
        for case in zip(*got):
            times = [r["best_s"] for r in case]
            fastest = min(case, key=lambda r: r["best_s"])
            out[side].append({**fastest, "runs_s": times, "median_s": median(times)})
    return out


def import_footprint(checkout: Path) -> dict:
    """The modules ``import qmult.cli`` adds to a bare interpreter, sorted,
    and their count."""
    src = str(checkout / "src")
    code = (f"import sys; before = set(sys.modules); sys.path.insert(0, {src!r}); "
            "import qmult.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, check=True)
    modules = proc.stdout.split()
    return {"count": len(modules), "modules": modules}


def altset_terms() -> list:
    """The alternation-set elements each seed-1 ``altset`` operation accounts
    for, checked against perfbench's ``alt_set_size``, the steps of
    ``m_q_altset``'s scan (one per coordinate of the strip) and the words
    ``alt_set_closed`` joined across its cut."""
    import workloads
    from qmult import altset, multiplicity
    from qmult.intervals import IndexSet

    inputs = workloads.generate("altset", SEED)
    calls = []
    for members in inputs["index_sets"]:
        index_set = IndexSet(inputs["rank"], members)
        res = multiplicity.m_q_altset(index_set)
        calls.append({"call": "m_q_altset", "rank": inputs["rank"], "members": members,
                      "terms": res.terms_evaluated,
                      "steps": index_set.rank,
                      "alt_set_size": workloads.alt_set_size(inputs["rank"], members)})
    c = inputs["closed"]
    closed = IndexSet(c["rank"], c["members"])
    calls.append({"call": "alt_set_closed", "rank": c["rank"], "members": c["members"],
                  "terms": len(altset.alt_set_closed(closed).elements),
                  "joined": sum(len(heads) + len(tails)
                                for heads, tails in altset._halves(closed)),
                  "alt_set_size": workloads.alt_set_size(c["rank"], c["members"])})
    for call in calls:
        if call["terms"] != call["alt_set_size"]:
            raise RuntimeError(f"alternation set miscounted: {call}")
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    tmp = tempfile.TemporaryDirectory()
    sides = {k: copy_checkout(d, Path(tmp.name) / k)
             for k, d in (("before", args.before), ("after", args.after))}
    spec = json.loads((sides["after"] / "BENCHMARK.json").read_text())
    results = {}
    for w in spec["workloads"]:
        pairs = run_pairs(sides, w["name"])
        results[w["name"]] = {"summary": summarize(pairs, spec["end_to_end"]), "pairs": pairs}
    swept = {k: fresh_count(d, "sweep_counts") for k, d in sides.items()}
    counts = {k: fresh_count(d, "count_partition") for k, d in sides.items()}
    terms = {k: fresh_count(d, "altset_terms") for k, d in sides.items()}
    answered = {k: fresh_count(d, "cache_answered") for k, d in sides.items()}
    imports = {k: import_footprint(d) for k, d in sides.items()}
    rates = fastest_runs(sides, "sweep_rates")
    passes = fastest_runs(sides, "pass_rates")
    routes = fastest_runs(sides, "route_rates")
    timing = (f"in process, best of {RATE_ROUNDS} rounds in each of {RATE_RUNS} "
              "fresh processes per checkout, alternated; best_s is the fastest "
              "process, runs_s every process in the order run")
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0",
        "pairs_per_workload": PAIRS,
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "platform": platform.platform(),
                 "python": platform.python_version()},
        "workloads": results,
        "src_lines": {k: src_lines(d) for k, d in sides.items()},
        "sweep_counts": swept,
        "partition_entries": {"workload": "partition", "seed": SEED, "store": "_CACHE",
                              "entries": counts},
        "altset_terms": {"workload": "altset", "seed": SEED, "calls": terms},
        "cache_answered": {"seed": SEED, "start": "a cache holding only the empty xi",
                           **answered},
        "import_footprint": {"command": "python3 -I -S -c 'import qmult.cli'", **imports},
        "sweep_rates": {"timing": timing, **rates},
        "pass_rates": {"workload": "partition", "seed": SEED, "timing": timing, **passes},
        "route_rates": {"workload": "verify", "seed": SEED, "timing": timing, **routes},
    }
    tmp.cleanup()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return int(any(sum(r["summary"][k].values()) for r in results.values()
                   for k in ("failed", "incorrect")))


if __name__ == "__main__":
    sys.exit(main())
