"""The benchmark's own exact arithmetic: literal sums, JSON evaluation, reference kernel.

Nothing here imports ``harmonic_sums``. The checks compare the program's
outputs with these computations, so a fault in the program cannot hide
behind a shared helper, and the reference kernel times the machine, not
the program.
"""

from __future__ import annotations

import functools
import gc
from fractions import Fraction
from time import perf_counter


class HarmonicTable:
    """Prefix sums H_j^(m) = sum_{i=1}^j i**(-m), grown on demand per order m."""

    def __init__(self) -> None:
        self._prefix: dict[int, list[Fraction]] = {}

    def value(self, j: int, m: int) -> Fraction:
        if j < 0:
            raise ValueError(f"harmonic number at negative index {j}")
        prefix = self._prefix.setdefault(m, [Fraction(0)])
        while len(prefix) <= j:
            i = len(prefix)
            term = Fraction(1, i**m) if m > 0 else Fraction(i ** -m)
            prefix.append(prefix[-1] + term)
        return prefix[j]


def literal_sum(
    table: HarmonicTable, family: str, p: int, m: int, a: int, b: int, n: int
) -> Fraction:
    """sum_{k=0}^n k**p H_{s+k}^(m) (family F) or H_{s+n-k}^(m) (family G), s = a*n+b.

    Python's 0**0 == 1 gives the k = 0, p = 0 summand its conventional value.
    """
    s = a * n + b
    total = Fraction(0)
    for k in range(n + 1):
        j = s + k if family == "F" else s + n - k
        total += k**p * table.value(j, m)
    return total


def power_sum(table: HarmonicTable, p: int, n: int) -> Fraction:
    """sum_{k=1}^n k**p, which is H_n^(-p)."""
    return table.value(n, -p)


def _poly_at(coeffs: list[str], n: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * n + int(c)
    return value


def _ratfunc_at(data: dict, n: int) -> Fraction:
    den = _poly_at(data["den"], n)
    if den == 0:
        raise ZeroDivisionError(f"pole at n = {n}")
    return Fraction(_poly_at(data["num"], n), den)


def evaluate_json(closed_form: dict, table: HarmonicTable, n: int) -> Fraction:
    """Value at n of a closed form in the published JSON layout, read field by field."""
    total = _ratfunc_at(closed_form["constant"], n)
    for term in closed_form["terms"]:
        arg = term["arg"]["a"] * n + term["arg"]["b"]
        total += _ratfunc_at(term["coeff"], n) * table.value(arg, term["order"])
    return total


def small_fractions_kernel() -> Fraction:
    """H_199^(2) summed term by term: many small rationals, interpreter-bound.

    Its cost is shaped like the constructors', the grid's cells and the
    renderers'.
    """
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k * k)
    return total


@functools.cache
def _big_harmonics() -> tuple[Fraction, ...]:
    """H_j^(2) for j = 1000..1012, rationals of about 860 digits."""
    h = sum(Fraction(1, j * j) for j in range(1, 1000))
    out = []
    for j in range(1000, 1013):
        h += Fraction(1, j * j)
        out.append(h)
    return tuple(out)


def big_fractions_kernel() -> Fraction:
    """sum_{j=1000}^{1012} j**2 H_j^(2): a few products and sums of 860-digit rationals.

    Its cost is shaped like the oracle's at n in the hundreds, where
    big-integer arithmetic rather than the interpreter takes the time.
    """
    total = Fraction(0)
    for j, h in enumerate(_big_harmonics(), start=1000):
        total += Fraction(j) ** 2 * h
    return total


# Each workload divides its times by the kernel shaped like its own work.
# On verify-deep a slow spell of the host slowed the small kernel by
# about twice as much as the workload, so normalising by it over-corrected.
REFERENCE_KERNELS = {
    "small-fractions": small_fractions_kernel,
    "big-fractions": big_fractions_kernel,
}


@functools.cache
def _reference_value(kernel: str) -> Fraction:
    return REFERENCE_KERNELS[kernel]()


def time_reference(kernel: str) -> float:
    """Seconds for one call of a reference kernel, with the garbage collector paused.

    The kernels use the stdlib alone and never import ``harmonic_sums``,
    so no change to the program changes them. Pausing the collector keeps
    collections of whatever heap the caller has built out of the
    reference time. A wrong value means the kernel itself is broken.
    """
    expected = _reference_value(kernel)
    run_kernel = REFERENCE_KERNELS[kernel]
    gc.disable()
    try:
        start = perf_counter()
        value = run_kernel()
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    if value != expected:
        raise RuntimeError(f"reference kernel {kernel} returned a different value")
    return elapsed
