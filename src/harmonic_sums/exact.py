"""Exact scalar arithmetic: binomials, integer powers, Bernoulli numbers.

Everything in this package computes over arbitrary-precision rationals
(``fractions.Fraction``); there is no floating point anywhere.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

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


def _next_column(column: list[int]) -> list[int]:
    """Column i of the tangent recurrence from column i - 1 (see BernoulliCache)."""
    i = len(column) + 1
    c = (i - 1) * column[0]
    out = [c]
    for a, p in zip(range(i - 2, 0, -1), column[1:]):  # a = i - k, p = p_k
        c = a * p + (a + 2) * c
        out.append(c)
    out.append(2 * c)
    return out


class BernoulliCache:
    """Append-only cache of Bernoulli numbers in the B_1 = +1/2 convention.

    Integers only, from the tangent numbers T_j (1, 2, 16, 272, ...) of
    Brent & Harvey's TangentNumbers recurrence ("Fast computation of
    Bernoulli, Tangent and Secant numbers", arXiv:1108.0286), and

        B_2j = (-1)**(j-1) * 2j * T_j / (4**j * (4**j - 1)),

    one reduction per value. B_0 = 1 and B_1 = +1/2 are stored as such,
    and odd indices >= 3 are 0.

    The in-place algorithm sets T_i = (i-1)! in its first pass, and pass
    k >= 2 updates T_i = (i-k) T_{i-1} + (i-k+2) T_i for every i >= k.
    Let t_k(i) be T_i after pass k. The cache keeps the column
    t_1(j)..t_j(j) of the last tangent index j, and T_j = t_j(j). The
    column p of index i - 1 gives the column c of index i in one loop,

        c_1 = (i-1) p_1,   c_k = (i-k) p_k + (i-k+2) c_{k-1}  (1 < k < i),
        c_i = 2 c_{i-1},

    so growth is append-only: one new column per tangent number, and no
    work past the index asked for. The new column is built in a local
    list and published by one assignment; its length states its own
    index, so a growth cut short by an exception leaves a valid column
    and a valid prefix, and the next growth resumes from both. Growth is
    lock-guarded; readers always see a consistent prefix and the same
    index always yields the same value.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1), Fraction(1, 2)]
        self._column: list[int] = [1]  # t_1(1) = T_1
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
            j = m // 2
            while len(self._column) < j:  # the column of index j ends with T_j
                self._column = _next_column(self._column)
            four_j = 4**j
            signed_tangent = self._column[-1] if j % 2 else -self._column[-1]  # (-1)**(j-1) * T_j
            values.append(Fraction(m * signed_tangent, four_j * (four_j - 1)))


_CACHE = BernoulliCache()


def bernoulli_plus(k: int) -> Fraction:
    """The k-th Bernoulli number with the +1/2 convention at index 1."""
    return _CACHE.get(k)
