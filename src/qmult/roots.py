"""Root geometry for the type A_r root system.

Vectors live in two coordinate systems.  A ``RootVector`` holds coefficients
over the simple-root basis alpha_1, ..., alpha_r; this is where the partition
function is evaluated.  :func:`embed` gives the r+1 ambient coordinates (over
the standard basis e_1, ..., e_{r+1} that the Weyl group permutes) as a plain
tuple, with alpha_i = e_i - e_{i+1}.

The Weyl sweep uses the integer vector (r, r-1, ..., 1, 0) as the Weyl
vector rho.  It differs from the true half-sum of positive
roots by a constant vector, which permutations fix, so sigma(v + rho) - rho
is unchanged by the substitution; tests confirm this against the honest
half-sum for small ranks.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter, index


class _Frozen:
    """An immutable value: a frozen dataclass's equality, hash and repr over the
    fields ``_fields`` names, which ``__init__`` sets by ``object.__setattr__``.
    Nothing reads ``vars(self)``, which would give each instance a dict."""

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)  # the bare value when there is one field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"


class RootVector(_Frozen):
    """An integer vector over the simple-root basis of A_rank."""

    _fields = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Iterable[int]):
        rank = index(rank)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        cs = tuple(map(index, coeffs))
        if len(cs) != rank:
            raise ValueError(f"expected {rank} coefficients, got {len(cs)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", cs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def positive_root(i: int, j: int, rank: int) -> RootVector:
    """The positive root alpha_i + alpha_{i+1} + ... + alpha_j."""
    if not 1 <= i <= j <= rank:
        raise ValueError(f"positive root needs 1 <= i <= j <= rank, got ({i}, {j}, {rank})")
    return RootVector(rank, tuple(1 if i <= k <= j else 0 for k in range(1, rank + 1)))


def highest_root(rank: int) -> RootVector:
    """The highest root alpha_1 + ... + alpha_rank."""
    return positive_root(1, rank, rank)


def embed(v: RootVector) -> tuple[int, ...]:
    """Expand a root-basis vector into ambient coordinates via alpha_i = e_i - e_{i+1}."""
    padded = (0,) + v.coeffs + (0,)
    return tuple(b - a for a, b in zip(padded, padded[1:]))
