"""The q-polynomial algebra the tests write expected values in.

``qmult.poly.QPolynomial`` keeps only what the package computes with: ``+``
and ``*`` of two QPolynomials.  ``Poly`` adds, for the tests and the chain
oracles in ``closed_forms``, int operands, unary and binary ``-``, ``**`` and
``monomial``; ``Q`` is q itself.  A Poly equals the library QPolynomial with
the same coefficients, from either side, and hashes alike, so
``library_value == expected`` compares coefficients instead of classes.

>>> Q * (Q + 1) ** 2
Poly(coeffs=(0, 1, 2, 1))
>>> QPolynomial([0, -1, 1]) == Q ** 2 - Q
True
"""

from qmult.poly import QPolynomial


def _poly(value):
    """value as a Poly: a QPolynomial's coefficients or an int constant;
    None for any other type."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, QPolynomial):
        return Poly(value.coeffs)
    if isinstance(value, int):
        return Poly((value,))
    return None


class Poly(QPolynomial):
    """A QPolynomial with the whole operator algebra."""

    __hash__ = QPolynomial.__hash__

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, QPolynomial) else NotImplemented

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "Poly":
        """The polynomial ``coefficient * q**power``.

        >>> Poly.monomial(3, -2)
        Poly(coeffs=(0, 0, 0, -2))
        """
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coefficient,))

    def __add__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else Poly(QPolynomial.__add__(self, other).coeffs)

    __radd__ = __add__

    def __mul__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else Poly(QPolynomial.__mul__(self, other).coeffs)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _poly(other)
        return NotImplemented if other is None else other + -self

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result, base = ONE, self
        while exponent:  # square and multiply
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result


ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))
