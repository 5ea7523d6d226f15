"""Command-line front end.

Subcommands: ``partition`` evaluates the q-analog partition function,
``altset`` lists an alternation set, ``multiplicity`` computes the
q-multiplicity by one or all routes, ``verify`` cross-checks every route
against every other up to a rank bound, and ``bench`` emits a CSV of term
counts and timings.  ``multiplicity`` and ``bench`` reach the routes, in the
order of ``multiplicity.METHODS``, through ``_route`` alone; ``verify``
builds one table of labelled checks per index set, (label, passed) pairs
that it counts and whose failures it lists, and sweeps each index set once
for the brute route: the rows' permutations are the brute alternation set
(a row's xi >= 0 has partition count >= 1); their ``signed_sum`` is
m_q_brute's value.

Exit codes: 0 on success, 1 when routes that must agree do not, 2 on usage
errors, on a request past a brute-force cap, or when memory or the
interpreter's recursion limit runs out.  The subcommands with a brute-force
route (``altset``, ``multiplicity``, ``verify``, ``bench``) read the cap on
every call, from --brute-cap, else the environment variable QMULT_BRUTE_CAP,
else the default; ``partition`` reads neither.  The grammar is built once
per process, on the first ``main()`` call.  All output except bench timings
is byte-identical across runs for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
import time
from collections.abc import Iterable

from .altset import (
    WeylSweep,
    alt_set_brute,
    alt_set_cardinality,
    alt_set_closed,
    fib_profile,
)
from .intervals import IndexSet, interval_partition, n_of_complement
from .multiplicity import (
    METHODS,
    m_q_altset,
    m_q_brute,
    m_q_closed_general,
    m_q_closed_zero,
    m_q_rank_reduction,
    signed_sum,
)
from .partition import factorize_over_intervals, kostant_q, kostant_q_oracle
from .poly import QPolynomial
from .roots import RootVector, highest_root
from .weyl import DEFAULT_BRUTE_CAP, commuting_indices, length

ENV_BRUTE_CAP = "QMULT_BRUTE_CAP"

# verify: exhaustive index-set sweeps stop here, sampling takes over beyond
_VERIFY_EXHAUSTIVE_MAX = 12
# verify: brute-force cross-checks stop here regardless of the cap
_VERIFY_BRUTE_MAX = 10


def parse_index_set(spec: str, rank: int) -> IndexSet:
    """Parse the index-set grammar: comma-separated ``k`` or ``a-b`` items.

    Ranges are inclusive and duplicates across items are merged.  Each item
    is checked against [1, rank] before it is expanded, and an error names
    only the offending item.
    """
    members: list[int] = []
    for raw in spec.split(","):
        item = raw.strip()
        if not item:
            raise ValueError("empty item in index-set spec")
        a, dash, b = item.partition("-")
        try:
            lo, hi = (int(a), int(b)) if dash else (int(item),) * 2
        except ValueError:
            raise ValueError(f"malformed item {_shown(item)} in index-set spec") from None
        if lo > hi:
            raise ValueError(f"empty range {_shown(item)} in index-set spec")
        if lo < 1 or hi > rank:
            raise ValueError(f"item {_shown(item)} of the index set lies outside [1, {rank}]")
        members.extend(range(lo, hi + 1))
    return IndexSet(rank, members)


def _shown(item: str) -> str:
    """An item as an error message quotes it: its first 32 characters."""
    return repr(item[:32]) + ("..." if len(item) > 32 else "")


def _parse_coeff_list(body: str, rank: int, what: str) -> tuple[int, ...]:
    """Parse ``c1,...,crank``; an error names only the offending entry."""
    cs = []
    for pos, raw in enumerate(body.split(","), 1):
        try:
            cs.append(int(raw))
        except ValueError:
            raise ValueError(f"malformed {what} coefficient {_shown(raw.strip())} "
                             f"at position {pos}") from None
    if len(cs) != rank:
        raise ValueError(f"{what} needs {rank} coefficients, got {len(cs)}")
    return tuple(cs)


def parse_mu(spec: str, rank: int) -> RootVector:
    """Parse --mu: an index-set spec I gives alpha_I, ``coeffs:c1,...,cr`` any mu."""
    if spec.startswith("coeffs:"):
        return RootVector(rank, _parse_coeff_list(spec[len("coeffs:"):], rank, "mu"))
    return parse_index_set(spec, rank).to_root_vector()


def _as_index_set(mu: RootVector) -> IndexSet | None:
    """The index set behind mu when mu is a nonzero 0/1 vector, else None."""
    if any(c not in (0, 1) for c in mu.coeffs) or mu.is_zero():
        return None
    return IndexSet(mu.rank, (k + 1 for k, c in enumerate(mu.coeffs) if c))


def element_words(elements: Iterable[tuple[int, ...]]) -> list[str]:
    """The words of an alternation set, by length and then reflection indices:
    ``s2*s5`` (``1`` for the identity) for the product over J of commuting
    simple reflections, whose length is len(J); else the one-line ``[2,3,1]``,
    sorted by inversion count and then one-line word."""
    keyed = []
    for w in elements:
        j = commuting_indices(w)
        if j is None:
            keyed.append((length(w), w, "[" + ",".join(map(str, w)) + "]"))
        else:
            keyed.append((len(j), j, "*".join(f"s{i}" for i in j) or "1"))
    return [word for *_, word in sorted(keyed)]


def _render(value: QPolynomial, fmt: str) -> str:
    return value.latex() if fmt == "latex" else str(value)


def _run_partition(args: argparse.Namespace) -> int:
    xi = RootVector(args.rank, _parse_coeff_list(args.xi, args.rank, "xi"))
    value = kostant_q_oracle(xi) if args.method == "oracle" else kostant_q(xi)
    if args.fmt == "json":
        print(json.dumps({
            "rank": args.rank,
            "xi": list(xi.coeffs),
            "method": args.method,
            "coeffs": list(value.coeffs),
        }))
    else:
        print(_render(value, args.fmt))
    return 0


def _run_altset(args: argparse.Namespace) -> int:
    cap = _brute_cap(args)
    index_set = parse_index_set(args.mu, args.rank)
    if args.method == "brute":
        elements = alt_set_brute(highest_root(args.rank), index_set.to_root_vector(), cap)
    else:
        elements = alt_set_closed(index_set).elements
    profile = fib_profile(index_set)
    words = element_words(elements)
    if args.fmt == "json":
        print(json.dumps({
            "rank": args.rank,
            "mu": list(index_set.members),
            "method": args.method,
            "cardinality": len(elements),
            "fib_profile": list(profile),
            "elements": words,
        }))
    else:
        print(f"cardinality: {len(elements)}")
        print("fib_profile: " + ",".join(str(k) for k in profile))
        print("elements: " + " ".join(words))
    return 0


def _route(method: str, mu: RootVector,
           cap: int) -> tuple[QPolynomial, int | None] | None:
    """One route's value at mu and its term count (None for the formula
    routes), or None when the route does not apply to mu."""
    if method == "brute":
        res = m_q_brute(highest_root(mu.rank), mu, cap)
        return res.value, res.terms_evaluated
    index_set = _as_index_set(mu)
    if index_set is None:
        if method == "closed" and mu.is_zero():
            return m_q_closed_zero(mu.rank), None
        return None
    if method == "altset":
        res = m_q_altset(index_set)
        return res.value, res.terms_evaluated
    if method == "rank_reduction":
        return m_q_rank_reduction(index_set), None
    return m_q_closed_general(index_set), None


def _run_multiplicity(args: argparse.Namespace) -> int:
    cap = _brute_cap(args)
    mu = parse_mu(args.mu, args.rank)
    names = METHODS if args.method == "all" else (
        {"reduce": "rank_reduction"}.get(args.method, args.method),)
    results: list[tuple[str, QPolynomial, int | None]] = []
    for name in names:
        out = _route(name, mu, cap)
        if out is not None:
            results.append((name, *out))
        elif args.method != "all":
            raise ValueError(f"method {args.method} does not apply to this mu; "
                             f"only brute takes any mu (use --method brute)")
    agree = all(value == results[0][1] for _, value, _ in results)
    if args.fmt == "json":
        index_set = _as_index_set(mu)
        mu_json = ({"members": list(index_set.members)} if index_set is not None
                   else {"coeffs": list(mu.coeffs)})
        print(json.dumps({
            "rank": args.rank,
            "mu": mu_json,
            "results": [
                {"method": m, "coeffs": list(v.coeffs)} if t is None
                else {"method": m, "coeffs": list(v.coeffs), "terms": t}
                for m, v, t in results
            ],
            "agree": agree,
        }))
    elif len(results) == 1:
        print(_render(results[0][1], args.fmt))
    else:
        for method, value, terms in results:
            suffix = "" if terms is None else f"  [terms {terms}]"
            print(f"{method}: {_render(value, args.fmt)}{suffix}")
        print(f"verdict: {'AGREE' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def _from_mask(rank: int, mask: int) -> IndexSet:
    """The index set whose members are the set bits of mask, bit 0 being 1."""
    return IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))


def _verify_one(index_set: IndexSet, brute_cap: int | None) -> list[tuple[str, bool]]:
    """Every applicable cross-check on one index set, as (label, passed)
    pairs in the order run; the brute-force ones only under a ``brute_cap``."""
    r = index_set.rank
    n = len(interval_partition(index_set))
    has_1, has_r = 1 in index_set, r in index_set
    predicted = n - 1 if (has_1 and has_r) else n + 1 if not (has_1 or has_r) else n
    checks = [("complement run count", n_of_complement(index_set) == predicted)]
    res_alt = m_q_altset(index_set)
    closed = m_q_closed_general(index_set)
    checks += [
        ("altset sum vs closed form", res_alt.value == closed),
        ("rank reduction vs closed form", m_q_rank_reduction(index_set) == closed),
        ("term count vs Fibonacci product",
         res_alt.terms_evaluated == alt_set_cardinality(index_set)),
    ]
    if r <= 8:
        checks.append(("partition factorization over runs",
                       kostant_q(index_set.to_root_vector())
                       == factorize_over_intervals(index_set)))
    if brute_cap is not None:
        rows = list(WeylSweep(highest_root(r), index_set.to_root_vector(), brute_cap))
        checks.append(("alternation set closed vs brute",
                       alt_set_closed(index_set).elements
                       == {perm for perm, _, _ in rows}))
        checks.append(("brute multiplicity vs closed form", signed_sum(rows) == closed))
    return checks


def _run_verify(args: argparse.Namespace) -> int:
    cap = _brute_cap(args)
    rng = random.Random(args.seed)
    failures: list[str] = []
    total = 0
    empty: list[int] = []
    for r in range(1, args.max_rank + 1):
        brute_cap = cap if r <= min(_VERIFY_BRUTE_MAX, cap) else None
        if r <= _VERIFY_EXHAUSTIVE_MAX:
            sets = [_from_mask(r, mask) for mask in range(1, 1 << r)]
            mode = "exhaustive"
        else:
            sets = [_from_mask(r, rng.randrange(1, 1 << r)) for _ in range(args.samples)]
            mode = "sampled"
        if not sets:
            empty.append(r)
        for index_set in sets:
            checks = _verify_one(index_set, brute_cap)
            total += len(checks)
            failures += [f"rank {r}, I={index_set}: {label}"
                         for label, passed in checks if not passed]
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


def _run_bench(args: argparse.Namespace) -> int:
    cap = _brute_cap(args)
    members = parse_index_set(args.mu, args.max_rank).members
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["rank", "mu", "method", "terms", "micros"])
    for r in range(members[-1], args.max_rank + 1):
        mu = IndexSet(r, members).to_root_vector()
        for name in METHODS:
            if name == "brute" and r > cap:
                continue
            start = time.perf_counter()
            _, terms = _route(name, mu, cap)
            micros = int((time.perf_counter() - start) * 1_000_000)
            writer.writerow([r, args.mu, name, terms or 0, micros])
    return 0


def _at_least_one(text: str) -> int:
    """argparse type for ranks, counts and caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _brute_cap(args: argparse.Namespace) -> int:
    """The brute-force cap: --brute-cap, else QMULT_BRUTE_CAP, else the default."""
    if args.brute_cap is not None:
        return args.brute_cap
    raw = os.environ.get(ENV_BRUTE_CAP)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        return _at_least_one(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{ENV_BRUTE_CAP} {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmult",
        description="Exact partition q-analogs, alternation sets, and "
                    "weight q-multiplicities for type-A root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="evaluate the q-analog partition function")
    p.set_defaults(handler=_run_partition)
    p.add_argument("--rank", type=_at_least_one, required=True)
    p.add_argument("--xi", required=True, metavar="c1,...,cr",
                   help="coefficients over the simple-root basis; write a "
                        "negative first coefficient as --xi=-1,2,1")
    p.add_argument("--method", choices=["dp", "oracle"], default="dp")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                   default="text")

    p = sub.add_parser("altset", help="list a Weyl alternation set")
    p.set_defaults(handler=_run_altset)
    p.add_argument("--rank", type=_at_least_one, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC",
                   help="index set, e.g. '1,3-5'")
    p.add_argument("--method", choices=["brute", "closed"], default="closed")
    p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    p.add_argument("--brute-cap", type=_at_least_one, default=None)

    p = sub.add_parser("multiplicity", help="compute the weight q-multiplicity")
    p.set_defaults(handler=_run_multiplicity)
    p.add_argument("--rank", type=_at_least_one, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC",
                   help="index set, or coeffs:c1,...,cr for arbitrary mu")
    p.add_argument("--method",
                   choices=["brute", "altset", "reduce", "closed", "all"],
                   default="all")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                   default="text")
    p.add_argument("--brute-cap", type=_at_least_one, default=None)

    p = sub.add_parser("verify", help="cross-check all computation routes")
    p.set_defaults(handler=_run_verify)
    p.add_argument("--max-rank", type=_at_least_one, required=True)
    p.add_argument("--samples", type=_at_least_one, default=25,
                   help="random index sets per rank beyond the exhaustive range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--brute-cap", type=_at_least_one, default=None)

    p = sub.add_parser("bench", help="CSV of method term counts and timings")
    p.set_defaults(handler=_run_bench)
    p.add_argument("--max-rank", type=_at_least_one, required=True)
    p.add_argument("--mu", required=True, metavar="SPEC")
    p.add_argument("--brute-cap", type=_at_least_one, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, MemoryError, RecursionError) as exc:  # CapExceededError included
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
