"""Write a before/after benchmark record for one change.

    python3 scripts/bench_pair.py --before DIR --after DIR --out BENCH_21.json

DIR is a checkout (source, perfbench/ and BENCHMARK.json) of the parent
commit and of the change.  Each checkout's ``src/``, ``perfbench/`` (without
``runs/`` and every ``__pycache__/``) and ``BENCHMARK.json`` are copied once
into a temporary directory, and everything below runs in the copies.  For
every workload in BENCHMARK.json this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0

in the before and the after checkout, PAIRS times each, interleaved: the
pairs alternate which side runs first, so a drift of the host's speed
falls on both sides alike.  It keeps the last line each run prints (its
JSON result) for every pair, and for each end-to-end metric of
BENCHMARK.json the median and quartiles of each side and the number of
pairs in which the after side was better.  Every run has
PYTHONDONTWRITEBYTECODE=1 and no PYTHONPYCACHEPREFIX, so both sides' qmult
and perfbench compile from source while the standard library reads its
installed bytecode cache, as in a run from a fresh checkout; a prefix would
compile the standard library too and dilute ``setup_s`` and
``peak_rss_mb``.  It also records structural counts, each
counted in each checkout in a fresh process: the pruned Weyl sweep on the
seed-1 ``brute`` inputs (rows are leaves, each pruned subtree is one
dropped prefix, and leaves plus pruned elements account for (rank+1)!),
the entries the partition engine's answer cache ``_CACHE`` holds after the
seed-1 ``partition`` inputs, the number of passes over a ``WeylSweep``
(calls of its ``__iter__``) that one run of the seed-1 ``verify`` inputs
makes, and the alternation-set elements accounted for on the seed-1
``altset`` inputs (``terms_evaluated`` of each ``m_q_altset`` call and the
element count of the ``alt_set_closed`` call, each of which must equal
perfbench's independent ``alt_set_size``), beside, for ``m_q_altset``,
the distinct (|J|, n) keys of its tally ``multiplicity._term_tally`` and,
for ``alt_set_closed``, the words in the lists its join reads
(``altset._halves``; null in a checkout without it).  The import
footprint is the sorted names of the modules that ``import qmult.cli`` adds
to a ``python -I -S`` interpreter (no site, no environment, no bytecode
written), and their count.
``src_lines`` is the line count of
``src/qmult/*.py`` in each checkout, as ``wc -l`` gives it, so a change's
size is read from the record.  Timings depend on the host, which the
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
from statistics import quantiles
from pathlib import Path

SEED = 1
SECONDS = 20
# interleaved before/after pairs per workload: one pair cannot resolve a
# change of a few percent in an operation of a few milliseconds
PAIRS = 10


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
    after side won; failed operations are summed over the runs."""
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


def count_verify_sweeps() -> int:
    """The passes over a ``WeylSweep`` that one run of the seed-1 ``verify``
    inputs makes.  Every pass calls the class's ``__iter__``, so a wrapper
    put there counts them, whichever module the sweep is reached through."""
    import contextlib
    import io

    import workloads
    from qmult import cli
    from qmult.altset import WeylSweep

    iterate, passes = WeylSweep.__iter__, 0

    def counted(self):
        nonlocal passes
        passes += 1
        return iterate(self)

    WeylSweep.__iter__ = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workloads.generate("verify", SEED)["argv"])
    finally:
        WeylSweep.__iter__ = iterate
    if code != 0:
        raise RuntimeError(f"verify exited {code}")
    return passes


def fresh_count(checkout: Path, count: str):
    """The named counting function of this script, run on the checkout's
    source in a fresh process."""
    here = str(Path(__file__).resolve().parent)
    code = (f"import json, sys; sys.path[:0] = ['src', 'perfbench', {here!r}]; "
            f"import bench_pair; print(json.dumps(bench_pair.{count}()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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


class JoinedWords:
    """Counts the words in the (heads, tails) lists that ``module.name``
    returns while the context is open; the count stays None if the module
    has no such function."""

    def __init__(self, module, name: str):
        self.module, self.name, self.count = module, name, None

    def __enter__(self):
        self.halves = halves = getattr(self.module, self.name, None)
        if halves is None:
            return self
        self.count = 0

        def counted(*args):
            pairs = halves(*args)
            self.count += sum(len(heads) + len(tails) for heads, tails in pairs)
            return pairs

        setattr(self.module, self.name, counted)
        return self

    def __exit__(self, *exc):
        if self.halves is not None:
            setattr(self.module, self.name, self.halves)


def altset_terms() -> list:
    """The alternation-set elements each seed-1 ``altset`` operation accounts
    for, checked against perfbench's ``alt_set_size``, the keys of
    ``m_q_altset``'s tally and the words ``alt_set_closed`` joined across
    its cut."""
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
                      "keys": len(multiplicity._term_tally(index_set)),
                      "alt_set_size": workloads.alt_set_size(inputs["rank"], members)})
    c = inputs["closed"]
    with JoinedWords(altset, "_halves") as joined:
        elements = len(altset.alt_set_closed(IndexSet(c["rank"], c["members"])).elements)
    calls.append({"call": "alt_set_closed", "rank": c["rank"], "members": c["members"],
                  "terms": elements, "joined": joined.count,
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
    sweeps = {k: fresh_count(d, "count_verify_sweeps") for k, d in sides.items()}
    terms = {k: fresh_count(d, "altset_terms") for k, d in sides.items()}
    imports = {k: import_footprint(d) for k, d in sides.items()}
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
        "verify_sweeps": {"workload": "verify", "seed": SEED, "passes": sweeps},
        "altset_terms": {"workload": "altset", "seed": SEED, "calls": terms},
        "import_footprint": {"command": "python3 -I -S -c 'import qmult.cli'", **imports},
    }
    tmp.cleanup()
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
