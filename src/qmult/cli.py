"""Command-line front end.

Subcommands: ``partition`` evaluates the q-analog partition function,
``altset`` lists an alternation set, ``multiplicity`` computes the
q-multiplicity by one or all methods, ``verify`` cross-checks every route
against every other up to a rank bound, and ``bench`` emits a CSV of term
counts and timings.

Exit codes: 0 on success, 1 when routes that must agree do not, 2 on usage
errors or when a request exceeds a brute-force cap.  The environment
variable QMULT_BRUTE_CAP overrides the default cap; the --brute-cap flag
overrides both.  All output except bench timings is byte-identical across
runs for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Union

from .altset import (
    alt_set_brute,
    alt_set_cardinality,
    alt_set_closed,
    fib_profile,
)
from .intervals import IndexSet, interval_partition, n_of_complement
from .multiplicity import (
    m_q_altset,
    m_q_brute,
    m_q_closed_general,
    m_q_closed_zero,
    m_q_rank_reduction,
)
from .partition import (
    factorize_over_intervals,
    kostant_q,
    kostant_q_oracle,
    table_for,
)
from .poly import QPolynomial
from .roots import RootVector, highest_root
from .weyl import DEFAULT_BRUTE_CAP, CapExceededError, WeylElement, commuting_indices

ENV_BRUTE_CAP = "QMULT_BRUTE_CAP"

# verify: exhaustive index-set sweeps stop here, sampling takes over beyond
_VERIFY_EXHAUSTIVE_MAX = 12
# verify: brute-force cross-checks stop here regardless of the cap
_VERIFY_BRUTE_MAX = 10
# verify: sampled index sets are redrawn while the alternation set is bigger
_VERIFY_TERMS_CAP = 50_000


@dataclass
class RunConfig:
    """A fully parsed request; ``run`` turns it into output and an exit code."""

    command: str
    rank: int = 0
    xi: Optional[tuple[int, ...]] = None
    mu_spec: Optional[str] = None
    method: str = "all"
    fmt: str = "text"
    brute_cap: int = DEFAULT_BRUTE_CAP
    seed: int = 0
    max_rank: int = 0
    samples: int = 25


def parse_index_set(spec: str, rank: int) -> IndexSet:
    """Parse the index-set grammar: comma-separated ``k`` or ``a-b`` items.

    Ranges are inclusive and duplicates across items are merged.
    """
    members: list[int] = []
    for raw in spec.split(","):
        item = raw.strip()
        if not item:
            raise ValueError(f"empty item in index-set spec {spec!r}")
        if "-" in item:
            a, _, b = item.partition("-")
            try:
                lo, hi = int(a), int(b)
            except ValueError:
                raise ValueError(f"malformed range {item!r} in index-set spec") from None
            if lo > hi:
                raise ValueError(f"empty range {item!r} in index-set spec")
            members.extend(range(lo, hi + 1))
        else:
            try:
                members.append(int(item))
            except ValueError:
                raise ValueError(f"malformed item {item!r} in index-set spec") from None
    if not members:
        raise ValueError(f"index-set spec {spec!r} names no indices")
    try:
        return IndexSet(rank, members)
    except ValueError as exc:
        raise ValueError(f"bad index set {spec!r}: {exc}") from None


def _parse_coeff_list(body: str, rank: int, what: str) -> tuple[int, ...]:
    try:
        cs = tuple(int(x.strip()) for x in body.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} coefficient list {body!r}") from None
    if len(cs) != rank:
        raise ValueError(f"{what} needs {rank} coefficients, got {len(cs)}")
    return cs


def parse_mu(spec: str, rank: int) -> Union[IndexSet, RootVector]:
    """Parse --mu: an index-set spec, or ``coeffs:c1,...,cr`` for arbitrary mu."""
    if spec.startswith("coeffs:"):
        return RootVector(rank, _parse_coeff_list(spec[len("coeffs:"):], rank, "mu"))
    return parse_index_set(spec, rank)


def _as_index_set(mu: Union[IndexSet, RootVector]) -> Optional[IndexSet]:
    """The index set behind mu when mu is a nonzero 0/1 vector, else None."""
    if isinstance(mu, IndexSet):
        return mu
    if any(c not in (0, 1) for c in mu.coeffs) or mu.is_zero():
        return None
    return IndexSet(mu.rank, (k + 1 for k, c in enumerate(mu.coeffs) if c))


def _element_sort_key(w: WeylElement) -> tuple:
    indices = commuting_indices(w)
    return (w.length(), indices if indices is not None else w.perm)


def _print_poly(value: QPolynomial, fmt: str) -> None:
    if fmt == "latex":
        print(value.latex())
    else:
        print(value)


def _run_partition(cfg: RunConfig) -> int:
    xi = RootVector(cfg.rank, cfg.xi or ())
    value = kostant_q_oracle(xi) if cfg.method == "oracle" else kostant_q(xi)
    if cfg.fmt == "json":
        print(json.dumps({
            "rank": cfg.rank,
            "xi": list(xi.coeffs),
            "method": cfg.method,
            "coeffs": list(value.coeffs),
        }))
    else:
        _print_poly(value, cfg.fmt)
    return 0


def _run_altset(cfg: RunConfig) -> int:
    index_set = parse_index_set(cfg.mu_spec or "", cfg.rank)
    if cfg.method == "brute":
        elements = alt_set_brute(
            highest_root(cfg.rank), index_set.to_root_vector(), cfg.brute_cap
        )
    else:
        elements = alt_set_closed(index_set).elements
    profile = fib_profile(index_set)
    words = [w.word() for w in sorted(elements, key=_element_sort_key)]
    if cfg.fmt == "json":
        print(json.dumps({
            "rank": cfg.rank,
            "mu": list(index_set.members),
            "method": cfg.method,
            "cardinality": len(elements),
            "fib_profile": list(profile),
            "elements": words,
        }))
    else:
        print(f"cardinality: {len(elements)}")
        print("fib_profile: " + ",".join(str(k) for k in profile))
        print("elements: " + " ".join(words))
    return 0


def _multiplicity_methods(cfg: RunConfig, index_set: Optional[IndexSet],
                          mu_is_zero: bool) -> list[str]:
    closed_ok = index_set is not None or mu_is_zero
    if cfg.method == "all":
        if index_set is not None:
            return ["brute", "altset", "rank_reduction", "closed"]
        if mu_is_zero:
            return ["brute", "closed"]
        return ["brute"]
    name = {"reduce": "rank_reduction"}.get(cfg.method, cfg.method)
    if name == "brute":
        return [name]
    if name in ("altset", "rank_reduction") and index_set is None:
        raise ValueError(
            f"mu is not a nonzero sum of distinct simple roots; "
            f"method {cfg.method} needs one (use --method brute)"
        )
    if name == "closed" and not closed_ok:
        raise ValueError(
            "mu is neither zero nor a sum of distinct simple roots; "
            "no closed form applies (use --method brute)"
        )
    return [name]


def _run_multiplicity(cfg: RunConfig) -> int:
    rank = cfg.rank
    mu = parse_mu(cfg.mu_spec or "", rank)
    index_set = _as_index_set(mu)
    mu_vec = mu.to_root_vector() if isinstance(mu, IndexSet) else mu
    mu_is_zero = mu_vec.is_zero()
    methods = _multiplicity_methods(cfg, index_set, mu_is_zero)
    results: list[tuple[str, QPolynomial, Optional[int]]] = []
    for method in methods:
        if method == "brute":
            res = m_q_brute(highest_root(rank), mu_vec, cfg.brute_cap)
            results.append(("brute", res.value, res.terms_evaluated))
        elif method == "altset":
            res = m_q_altset(index_set)
            results.append(("altset", res.value, res.terms_evaluated))
        elif method == "rank_reduction":
            results.append(("rank_reduction", m_q_rank_reduction(index_set), None))
        else:
            value = (m_q_closed_zero(rank) if index_set is None
                     else m_q_closed_general(index_set))
            results.append(("closed", value, None))
    agree = all(value == results[0][1] for _, value, _ in results)
    if cfg.fmt == "json":
        mu_json = ({"members": list(index_set.members)} if index_set is not None
                   else {"coeffs": list(mu_vec.coeffs)})
        payload = {
            "rank": rank,
            "mu": mu_json,
            "results": [
                {"method": m, "coeffs": list(v.coeffs)} if t is None
                else {"method": m, "coeffs": list(v.coeffs), "terms": t}
                for m, v, t in results
            ],
            "agree": agree,
        }
        print(json.dumps(payload))
    elif len(results) == 1:
        _print_poly(results[0][1], cfg.fmt)
    else:
        render = (lambda v: v.latex()) if cfg.fmt == "latex" else str
        for method, value, terms in results:
            suffix = "" if terms is None else f"  [terms {terms}]"
            print(f"{method}: {render(value)}{suffix}")
        print(f"verdict: {'AGREE' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def _nonempty_subsets(rank: int):
    for mask in range(1, 1 << rank):
        yield IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))


def _sampled_subsets(rank: int, rng: random.Random, samples: int):
    for _ in range(samples):
        for _ in range(200):
            mask = rng.randrange(1, 1 << rank)
            index_set = IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))
            if alt_set_cardinality(index_set) <= _VERIFY_TERMS_CAP:
                yield index_set
                break


def _verify_one(index_set: IndexSet, brute_cap: Optional[int],
                failures: list[str]) -> int:
    """Run every applicable cross-check on one index set, the brute-force ones
    only under a given ``brute_cap``; returns check count."""
    r = index_set.rank
    checks = 0

    def expect(ok: bool, label: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(f"rank {r}, I={index_set}: {label}")

    n = interval_partition(index_set).n
    has_1, has_r = 1 in index_set, r in index_set
    predicted = n - 1 if (has_1 and has_r) else n + 1 if not (has_1 or has_r) else n
    expect(n_of_complement(index_set) == predicted, "complement run count")

    res_alt = m_q_altset(index_set)
    closed = m_q_closed_general(index_set)
    expect(res_alt.value == closed, "altset sum vs closed form")
    expect(m_q_rank_reduction(index_set) == closed, "rank reduction vs closed form")
    expect(res_alt.terms_evaluated == alt_set_cardinality(index_set),
           "term count vs Fibonacci product")

    if r <= 8:
        expect(
            table_for(r).kostant_q(index_set.to_root_vector())
            == factorize_over_intervals(index_set),
            "partition factorization over runs",
        )
    if brute_cap is not None:
        alt = alt_set_closed(index_set)
        mu = index_set.to_root_vector()
        brute_elems = alt_set_brute(highest_root(r), mu, brute_cap)
        expect(alt.elements == brute_elems, "alternation set closed vs brute")
        expect(m_q_brute(highest_root(r), mu, brute_cap).value == closed,
               "brute multiplicity vs closed form")
    return checks


def _run_verify(cfg: RunConfig) -> int:
    rng = random.Random(cfg.seed)
    failures: list[str] = []
    total = 0
    empty: list[int] = []
    for r in range(1, cfg.max_rank + 1):
        brute_cap = cfg.brute_cap if r <= min(_VERIFY_BRUTE_MAX, cfg.brute_cap) else None
        if r <= _VERIFY_EXHAUSTIVE_MAX:
            sets = list(_nonempty_subsets(r))
            mode = "exhaustive"
        else:
            sets = list(_sampled_subsets(r, rng, cfg.samples))
            mode = "sampled"
        if not sets:
            empty.append(r)
        for index_set in sets:
            total += _verify_one(index_set, brute_cap, failures)
        scope = "closed forms" if brute_cap is None else "all methods"
        print(f"rank {r}: {len(sets)} index sets ({mode}, {scope})")
    for line in failures:
        print(f"MISMATCH {line}")
    if failures or empty:
        unchecked = (f", no index set checked at rank {', '.join(map(str, empty))}"
                     if empty else "")
        print(f"VERIFY FAIL ({len(failures)} of {total} checks failed{unchecked})")
        return 1
    print(f"VERIFY PASS ({total} checks)")
    return 0


def _run_bench(cfg: RunConfig) -> int:
    probe = parse_index_set(cfg.mu_spec or "", cfg.max_rank)
    min_rank = max(probe.members)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["rank", "mu", "method", "terms", "micros"])
    for r in range(min_rank, cfg.max_rank + 1):
        index_set = parse_index_set(cfg.mu_spec or "", r)
        mu_vec = index_set.to_root_vector()
        rows: list[tuple[str, int, float]] = []
        if r <= cfg.brute_cap:
            start = time.perf_counter()
            res = m_q_brute(highest_root(r), mu_vec, cfg.brute_cap)
            rows.append(("brute", res.terms_evaluated, time.perf_counter() - start))
        start = time.perf_counter()
        res = m_q_altset(index_set)
        rows.append(("altset", res.terms_evaluated, time.perf_counter() - start))
        start = time.perf_counter()
        m_q_rank_reduction(index_set)
        rows.append(("rank_reduction", 0, time.perf_counter() - start))
        start = time.perf_counter()
        m_q_closed_general(index_set)
        rows.append(("closed", 0, time.perf_counter() - start))
        for method, terms, seconds in rows:
            writer.writerow([r, cfg.mu_spec, method, terms, int(seconds * 1_000_000)])
    return 0


def run(cfg: RunConfig) -> int:
    """Execute a parsed request; returns the process exit code."""
    runner = {
        "partition": _run_partition,
        "altset": _run_altset,
        "multiplicity": _run_multiplicity,
        "verify": _run_verify,
        "bench": _run_bench,
    }[cfg.command]
    return runner(cfg)


def _at_least_one(value: int, source: str) -> int:
    if value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return value


def _default_brute_cap() -> int:
    raw = os.environ.get(ENV_BRUTE_CAP)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_BRUTE_CAP} must be an integer, got {raw!r}") from None
    return _at_least_one(cap, ENV_BRUTE_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmult",
        description="Exact partition q-analogs, alternation sets, and "
                    "weight q-multiplicities for type-A root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="evaluate the q-analog partition function")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--xi", required=True, metavar="c1,...,cr",
                   help="coefficients over the simple-root basis")
    p.add_argument("--method", choices=["dp", "oracle"], default="dp")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                   default="text")

    p = sub.add_parser("altset", help="list a Weyl alternation set")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC",
                   help="index set, e.g. '1,3-5'")
    p.add_argument("--method", choices=["brute", "closed"], default="closed")
    p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    p.add_argument("--brute-cap", type=int, default=None)

    p = sub.add_parser("multiplicity", help="compute the weight q-multiplicity")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC",
                   help="index set, or coeffs:c1,...,cr for arbitrary mu")
    p.add_argument("--method",
                   choices=["brute", "altset", "reduce", "closed", "all"],
                   default="all")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                   default="text")
    p.add_argument("--brute-cap", type=int, default=None)

    p = sub.add_parser("verify", help="cross-check all computation routes")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--samples", type=int, default=25,
                   help="random index sets per rank beyond the exhaustive range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--brute-cap", type=int, default=None)

    p = sub.add_parser("bench", help="CSV of method term counts and timings")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC")
    p.add_argument("--brute-cap", type=int, default=None)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cap = getattr(args, "brute_cap", None)
    cap = _default_brute_cap() if cap is None else _at_least_one(cap, "--brute-cap")
    cfg = RunConfig(command=args.command, brute_cap=cap)
    if args.command == "partition":
        cfg.rank = _at_least_one(args.rank, "--rank")
        cfg.xi = _parse_coeff_list(args.xi, args.rank, "xi")
        cfg.method = args.method
        cfg.fmt = args.fmt
    elif args.command in ("altset", "multiplicity"):
        cfg.rank = _at_least_one(args.rank, "--rank")
        cfg.mu_spec = args.mu
        cfg.method = args.method
        cfg.fmt = getattr(args, "fmt", "text")
    elif args.command == "verify":
        cfg.max_rank = _at_least_one(args.max_rank, "--max-rank")
        cfg.samples = _at_least_one(args.samples, "--samples")
        cfg.seed = args.seed
    else:
        cfg.max_rank = _at_least_one(args.max_rank, "--max-rank")
        cfg.mu_spec = args.mu
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
