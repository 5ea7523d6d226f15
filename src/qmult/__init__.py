"""Exact type-A computations around the highest root: Kostant partition
q-analogs, Weyl alternation sets with Fibonacci-product sizes, and weight
q-multiplicities by four mutually checking routes."""

from .altset import AltSet, alt_set_brute, alt_set_closed
from .intervals import IndexSet
from .multiplicity import (
    MultiplicityResult,
    m_q_altset,
    m_q_brute,
    m_q_closed_general,
    m_q_closed_zero,
    m_q_rank_reduction,
)
from .partition import kostant_q, kostant_q_oracle
from .poly import QPolynomial
from .roots import RootVector, highest_root
from .weyl import CapExceededError

__version__ = "0.1.0"

__all__ = [
    "AltSet",
    "CapExceededError",
    "IndexSet",
    "MultiplicityResult",
    "QPolynomial",
    "RootVector",
    "alt_set_brute",
    "alt_set_closed",
    "highest_root",
    "kostant_q",
    "kostant_q_oracle",
    "m_q_altset",
    "m_q_brute",
    "m_q_closed_general",
    "m_q_closed_zero",
    "m_q_rank_reduction",
]
