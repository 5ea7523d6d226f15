"""The four benchmark workloads: seeded inputs, timed calls, independent checks.

Inputs are plain JSON data made from a seed alone, so a run's record can
replay it.  ``build`` turns them into the calls the timed window makes, and
``check`` judges each call's result by a route other than the one timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from math import factorial, prod

from qmult import altset, cli, multiplicity, partition
from qmult.intervals import IndexSet
from qmult.poly import QPolynomial
from qmult.roots import RootVector
from qmult.weyl import commuting_indices

WORKLOADS = ("verify", "brute", "altset", "partition")

# verify: 840 checks in 1-2 s.  Rank 7 (1729 checks) takes 24 s on a 2-core
# Xeon VM, too long to repeat inside one run.
VERIFY_MAX_RANK = 6
# brute: the smallest rank whose Weyl sweep is streamed, not cached.  Run
# through the CLI, as users reach the only route for arbitrary mu.
BRUTE_RANK = 8
# altset: m_q_altset on three index sets whose alternation sets fall in a
# narrow size band, so that every seed asks for about the same work.
ALTSET_RANK = 28
ALTSET_SETS = 3
ALTSET_BAND = (124_000, 130_000)
CLOSED_RANK = 22
CLOSED_BAND = (10_000, 14_000)
# partition: coordinate bands per rank.  The cost grows steeply with the
# coordinates, so the bands are narrow.
PARTITION_BANDS = {3: (59, 61), 4: (19, 21), 5: (10, 11), 6: (6, 7), 7: (4, 5)}
# kostant_q_oracle's default cap on the coefficient sum.
ORACLE_WEIGHT = 20

_VERIFY_PASS = re.compile(r"^VERIFY PASS \((\d+) checks\)$")


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def alt_set_size(rank: int, members) -> int:
    """Alternation-set size for theta against alpha_I, counted directly.

    The set is the products of commuting simple reflections over
    nonconsecutive subsets of {2, ..., rank - 1} minus I; a run of n free
    indices has fib(n + 2) such subsets.
    """
    picked = set(members)
    sizes, run = [], 0
    for k in range(2, rank):
        if k in picked:
            sizes.append(run)
            run = 0
        else:
            run += 1
    sizes.append(run)
    return prod(fib(n + 2) for n in sizes)


def expected_verify_checks(max_rank: int) -> int:
    """Checks ``qmult verify`` makes up to rank 7: seven per nonempty index set.

    One complement run count, three closed-form checks, one factorization
    (rank <= 8) and two brute-force checks (rank <= 7).
    """
    if max_rank > 7:
        raise ValueError("the count holds up to rank 7")
    return 7 * (2 ** (max_rank + 1) - 2 - max_rank)


def _draw_index_set(rng: random.Random, rank: int, band: tuple[int, int]) -> list[int]:
    while True:
        members = sorted(rng.sample(range(1, rank + 1), rng.randint(1, 5)))
        if band[0] <= alt_set_size(rank, members) <= band[1]:
            return members


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed, as JSON data."""
    rng = random.Random(seed)
    if workload == "verify":
        argv = ["verify", "--max-rank", str(VERIFY_MAX_RANK), "--seed", str(seed)]
        return {"argv": argv, "expected_checks": expected_verify_checks(VERIFY_MAX_RANK)}
    if workload == "brute":
        r = BRUTE_RANK
        index_sets = []
        while len(index_sets) < 2:
            members = sorted(rng.sample(range(1, r + 1), rng.randint(1, r)))
            if members not in index_sets:
                index_sets.append(members)
        while True:
            coeffs = [rng.randint(-2, 2) for _ in range(r)]
            if any(c not in (0, 1) for c in coeffs):
                break
        mus = [{"members": m} for m in index_sets]
        mus += [{"coeffs": [0] * r}, {"coeffs": coeffs}]
        return {"rank": r, "mus": mus}
    if workload == "altset":
        sets = []
        while len(sets) < ALTSET_SETS:
            members = _draw_index_set(rng, ALTSET_RANK, ALTSET_BAND)
            if members not in sets:
                sets.append(members)
        return {
            "rank": ALTSET_RANK,
            "index_sets": sets,
            "closed": {"rank": CLOSED_RANK,
                       "members": _draw_index_set(rng, CLOSED_RANK, CLOSED_BAND)},
        }
    if workload == "partition":
        xis = []
        for rank, (lo, hi) in PARTITION_BANDS.items():
            xis.append([rng.randint(lo, hi) for _ in range(rank)])
            zeroed = [rng.randint(lo, hi) for _ in range(rank)]
            zeroed[rng.randint(1, rank - 2)] = 0
            xis.append(zeroed)
            xis.append([rng.randint(1, ORACLE_WEIGHT // rank) for _ in range(rank)])
        return {"xis": xis}
    raise ValueError(f"unknown workload {workload!r}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def build(workload: str, inputs: dict) -> list[tuple[str, object]]:
    """(label, zero-argument call) for every operation of the timed window.

    The calls go through module attributes, so a tracer that replaced an
    entry point sees them.
    """
    if workload == "verify":
        argv = inputs["argv"]
        return [("cli verify", lambda: _run_cli(argv))]
    if workload == "brute":
        ops = []
        for mu in inputs["mus"]:
            spec = (",".join(map(str, mu["members"])) if "members" in mu
                    else "coeffs:" + ",".join(map(str, mu["coeffs"])))
            argv = ["multiplicity", "--rank", str(inputs["rank"]), "--mu", spec,
                    "--method", "brute", "--format", "json"]
            ops.append((f"qmult {' '.join(argv)}", lambda argv=argv: _run_cli(argv)))
        return ops
    if workload == "altset":
        ops = []
        for members in inputs["index_sets"]:
            index_set = IndexSet(inputs["rank"], members)
            ops.append((f"m_q_altset {members}",
                        lambda s=index_set: multiplicity.m_q_altset(s)))
        closed = IndexSet(inputs["closed"]["rank"], inputs["closed"]["members"])
        ops.append((f"alt_set_closed {list(closed.members)}",
                    lambda: altset.alt_set_closed(closed)))
        return ops
    if workload == "partition":
        ops = []
        for xi in inputs["xis"]:
            vec = RootVector(len(xi), xi)
            ops.append((f"kostant_q {xi}", lambda vec=vec: partition.kostant_q(vec)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _is_root(coeffs) -> bool:
    """Whether coeffs is a positive or negative root: a block of 1s or of -1s."""
    nz = [k for k, c in enumerate(coeffs) if c]
    if not nz or nz != list(range(nz[0], nz[-1] + 1)):
        return False
    return len({coeffs[k] for k in nz}) == 1 and abs(coeffs[nz[0]]) == 1


def brute_result(res) -> dict | None:
    """The one result row of ``qmult multiplicity --method brute --format
    json``, or None when the call failed or printed something else."""
    code, out = res
    try:
        (row,) = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return None
    return row if code == 0 else None


def _check_brute(r: int, mu: dict, res) -> str | None:
    row = brute_result(res)
    if row is None:
        return f"exit {res[0]}, output {res[1][:200]!r}"
    if row.get("terms") != factorial(r + 1):
        return f"{row.get('terms')} terms, want {factorial(r + 1)}"
    value = QPolynomial(row["coeffs"])
    if "members" in mu:
        want = multiplicity.m_q_closed_general(IndexSet(r, mu["members"]))
        return None if value == want else f"got {value}, closed form {want}"
    coeffs = mu["coeffs"]
    if not any(coeffs):
        want = multiplicity.m_q_closed_zero(r)
        return None if value == want else f"got {value}, closed form {want}"
    want_at_one = 1 if _is_root(coeffs) else 0
    got = value.eval_at_one()
    return None if got == want_at_one else f"value at q=1 is {got}, want {want_at_one}"


def _check_closed(rank: int, members: list[int], alt) -> str | None:
    """Every element is a product of commuting reflections over a free set,
    no two alike, and there are as many as nonconsecutive free subsets."""
    allowed = set(range(2, rank)) - set(members)
    for w in alt.elements:
        idx = commuting_indices(w)
        if idx is None or not set(idx) <= allowed:
            return f"element {w} is not a product of reflections over free indices"
    want = alt_set_size(rank, members)
    return None if len(alt.elements) == want else f"{len(alt.elements)} elements, want {want}"


def _check_partition(xi: list[int], value) -> str | None:
    rank = len(xi)
    if sum(xi) <= ORACLE_WEIGHT:
        want = partition.kostant_q_oracle(RootVector(rank, xi))
        return None if value == want else f"got {value}, oracle {want}"
    if 0 in xi[1:-1]:
        k = xi.index(0, 1)
        want = (partition.PartitionTable(k).kostant_q(RootVector(k, xi[:k]))
                * partition.PartitionTable(rank - k - 1).kostant_q(
                    RootVector(rank - k - 1, xi[k + 1:])))
        return None if value == want else f"got {value}, product over segments {want}"
    # The diagram flip i -> rank + 1 - i permutes the positive roots, so the
    # value is unchanged by reversing xi; a fresh table takes other DP paths.
    # Using only simple roots gives the single top term q^|xi|.
    want = partition.PartitionTable(rank).kostant_q(RootVector(rank, xi[::-1]))
    if value != want:
        return f"got {value}, reversed xi gives {want}"
    if value.degree != sum(xi) or value.coeffs[-1] != 1:
        return f"top term of {value} is not q^{sum(xi)}"
    return None


def check(workload: str, inputs: dict, results: list) -> list[str | None]:
    """One verdict per operation: None when correct, else what went wrong.

    A result that is an exception, a cap refusal included, is a failure.
    """
    verdicts: list[str | None] = []
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            verdicts.append(f"raised {type(res).__name__}: {res}")
            continue
        if workload == "verify":
            code, out = res
            lines = out.splitlines()
            want = f"VERIFY PASS ({inputs['expected_checks']} checks)"
            ok = code == 0 and lines and lines[-1] == want
            verdicts.append(None if ok else f"exit {code}, last line {lines[-1:]}, want {want!r}")
        elif workload == "brute":
            verdicts.append(_check_brute(inputs["rank"], inputs["mus"][k], res))
        elif workload == "altset":
            if k < len(inputs["index_sets"]):
                members = inputs["index_sets"][k]
                index_set = IndexSet(inputs["rank"], members)
                want = multiplicity.m_q_closed_general(index_set)
                terms = alt_set_size(inputs["rank"], members)
                if res.value != want:
                    verdicts.append(f"got {res.value}, closed form {want}")
                elif res.terms_evaluated != terms:
                    verdicts.append(f"{res.terms_evaluated} terms, want {terms}")
                else:
                    verdicts.append(None)
            else:
                c = inputs["closed"]
                verdicts.append(_check_closed(c["rank"], c["members"], res))
        else:
            verdicts.append(_check_partition(inputs["xis"][k], res))
    return verdicts


def verify_checks(results: list) -> int:
    """The check count a verify run printed, 0 when it printed none."""
    for res in results:
        if isinstance(res, tuple):
            m = _VERIFY_PASS.match(res[1].splitlines()[-1] if res[1] else "")
            if m:
                return int(m.group(1))
    return 0
