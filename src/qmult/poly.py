"""Exact polynomials in the formal variable q with integer coefficients.

Every partition-function and multiplicity value in this package is such a
polynomial; evaluating at q = 1 recovers the plain (unweighted) count.
Coefficients are Python ints, so no overflow is possible.  :func:`pack` and
:func:`unpack` turn a coefficient sequence into an int at q = 2^K and back,
for the partition pass.  ``QPolynomial``'s only operators are ``+`` and ``*`` of
two QPolynomials; the tests' algebra lives in ``tests/poly_helpers.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import add

from .roots import _Frozen


def pack(coeffs: Sequence[int], K: int) -> int:
    """The polynomial's value at q = 2^K: sum coeffs[k] * 2^(K*k)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << K) + c
    return value


def unpack(value: int, K: int) -> tuple[int, ...]:
    """The coefficients that :func:`pack` packed at K, read as balanced
    base-2^K digits in [-2^(K-1), 2^(K-1)); exact when every coefficient lies
    strictly inside +-2^(K-1).  Trailing zeros are trimmed, so 0 gives ().
    K must be at least 2: the digits at K = 1, [-1, 1), cannot hold +1."""
    if K < 2:
        raise ValueError(f"packing width K must be at least 2, got {K}")
    coeffs = []
    mask = (1 << K) - 1
    half = 1 << (K - 1)
    while value:
        digit = value & mask
        value >>= K
        if digit >= half:  # a negative digit borrows one from the next
            digit -= mask + 1
            value += 1
        coeffs.append(digit)
    return tuple(coeffs)


class QPolynomial(_Frozen):
    """A dense polynomial in q, stored as coefficients in ascending order.

    ``coeffs[k]`` is the coefficient of q^k.  The tuple is canonical:
    trailing zeros are trimmed, and the zero polynomial is the empty tuple,
    so equality and hashing are structural.

    >>> QPolynomial([0, 1]) + QPolynomial([0, 1])
    QPolynomial(coeffs=(0, 2))
    >>> QPolynomial([0, -1, 1]) + QPolynomial([0, 1]) == QPolynomial([0, 0, 1])
    True
    >>> str(QPolynomial([0, 1]) * QPolynomial([1, 2, 1]))
    'q^3 + 2q^2 + q'
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial((*map(add, a, b), *a[len(b):]))

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return QPolynomial(out)

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the sum of the coefficients.

        >>> (QPolynomial([0, 1]) * QPolynomial([1, 2, 1])).eval_at_one()
        4
        """
        return sum(self.coeffs)

    def __str__(self) -> str:
        return self._format(latex=False)

    def latex(self) -> str:
        """LaTeX form with terms in descending powers, e.g. ``q^{3}-q^{2}``."""
        return self._format(latex=True)

    def _format(self, latex: bool) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else (f"q^{{{k}}}" if latex else f"q^{k}")
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            elif latex:
                parts.append(("+" if c > 0 else "-") + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


ZERO = QPolynomial()
ONE = QPolynomial((1,))
