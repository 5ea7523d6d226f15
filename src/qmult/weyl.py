"""The Weyl group of A_rank, realized as permutations of rank+1 coordinates.

An element is the plain tuple of its one-line notation: ``perm[k-1]`` is
the image of k.  The simple reflection s_i swaps coordinates i and i+1, and
:func:`length` is the inversion count of the one-line word.  Both producers,
``WeylSweep`` and ``alt_set_closed``, build permutations of 1..rank+1 by
construction, and no entry point takes one from outside the program, so the
tuples are not checked again here.
"""

from __future__ import annotations

# The pruned sweep visits up to (rank+1)! leaves, how many depending on lam
# and mu, so brute-force entry points refuse ranks above this unless the
# caller raises the cap.
DEFAULT_BRUTE_CAP = 9


class CapExceededError(ValueError):
    """A brute-force or enumeration request exceeded its configured cap."""


def length(perm: tuple[int, ...]) -> int:
    """Coxeter length: the number of inversions of the one-line word."""
    n = len(perm)
    return sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])


def commuting_indices(perm: tuple[int, ...]) -> tuple[int, ...] | None:
    """Recover the index set when perm is a product of nonconsecutive simple
    reflections; None if perm has no such factorization."""
    found = []
    k = 1
    n = len(perm)
    while k <= n:
        if perm[k - 1] == k:
            k += 1
        elif k < n and perm[k - 1] == k + 1 and perm[k] == k:
            found.append(k)
            k += 2
        else:
            return None
    return tuple(found)
