"""Exact scalar arithmetic: binomials, integer powers, Bernoulli numbers.

Everything in this package computes over arbitrary-precision rationals
(``fractions.Fraction``); there is no floating point anywhere.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate

__all__ = ["BernoulliCache", "bernoulli_plus", "binomial", "int_pow"]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def int_pow(base: int | Fraction, exp: int) -> int | Fraction:
    """base**exp, exact, with the convention 0**0 = 1: Python's ``**`` for
    exp >= 0 (an int for an int base), a Fraction for exp < 0.

    This is the single choke point for powers, so the 0**0 = 1 rule is
    applied consistently across the package (it is what makes the zero
    offset collapse onto the plain sums).
    """
    if exp >= 0:
        return base**exp
    if not base:
        raise ValueError("int_pow: zero base with negative exponent")
    return Fraction(base) ** exp


class BernoulliCache:
    """Append-only cache of Bernoulli numbers in the B_1 = +1/2 convention.

    Integers only, from the Seidel-Entringer (boustrophedon) triangle:
    row 0 is [1], and row r is the running sums of row r-1 reversed,
    starting from 0,

        row_r[0] = 0,   row_r[i] = row_r[i-1] + row_{r-1}[r-i].

    The last entry of row r is the Euler zigzag number E_r, and the odd
    ones are the tangent numbers T_j = E_{2j-1} (1, 2, 16, 272, ...), so

        B_2j = (-1)**(j-1) * 2j * T_j / (4**j * (4**j - 1))

    (Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers", arXiv:1108.0286), one reduction per value. B_0 = 1 and
    B_1 = +1/2 are stored as such, and odd indices >= 3 are 0. Growth is
    incremental: the cache keeps the last triangle row it built, and two
    more rows give the next even value. Row r has r + 1 entries, so the
    row states its own index: a growth cut short by an exception leaves
    a valid row and a valid prefix, and the next growth resumes from
    both. Growth is lock-guarded; readers always see a consistent prefix
    and the same index always yields the same value.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1), Fraction(1, 2)]
        self._row: list[int] = [1]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"Bernoulli index must be nonnegative, got {k}")
        if k >= len(self._values):
            with self._lock:
                self._grow(k)
        return self._values[k]

    def _grow(self, k: int) -> None:
        values = self._values
        for m in range(len(values), k + 1):
            if m % 2:
                values.append(Fraction(0))
                continue
            while len(self._row) < m:  # row m - 1 ends with T_j, j = m/2
                self._row = list(accumulate(reversed(self._row), initial=0))
            j = m // 2
            four_j = 4**j
            signed_tangent = self._row[-1] if j % 2 else -self._row[-1]  # (-1)**(j-1) * T_j
            values.append(Fraction(m * signed_tangent, four_j * (four_j - 1)))


_CACHE = BernoulliCache()


def bernoulli_plus(k: int) -> Fraction:
    """The k-th Bernoulli number with the +1/2 convention at index 1."""
    return _CACHE.get(k)
