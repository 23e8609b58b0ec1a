"""Brute-force ground truth for every closed form in the package.

The evaluators here compute harmonic numbers and the weighted double sums
literally, term by term, sharing no code with the closed-form
constructors (no Bernoulli numbers, no power-sum polynomials). The
double sum ``lhs_direct`` exchanges the order of summation, so that
sum_k w_k H_{base+k} = W H_base + sum_j C_j / (base+j)**m with C_j a
running suffix sum of the integer weights: each summand is one big
// small and one big * small over one common denominator, and the total
is reduced once. Every
check is a sweep that yields one exact ``CheckRow`` per n: ``grid_rows``
for a constructed closed form, ``sbp_rows`` and ``corollary_rows`` for
the summation-by-parts and corollary identities. ``grid_rows`` receives
the closed form under test as an argument, so the dependency arrow points
strictly from the constructors to this module and never back.

Comparison is always exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .closed_form import ClosedForm, LinearArg, evaluate_cf
from .exact import int_pow

__all__ = [
    "COROLLARY_START",
    "CheckRow",
    "corollary_rows",
    "grid_rows",
    "harmonic_direct",
    "lhs_direct",
    "sbp_rows",
]

# Per-run memo of harmonic prefix sums, keyed by (offset, order). Entries
# only ever grow and a given index always holds the same value, so
# repeated lookups are deterministic. Growth holds the lock so that two
# threads never append the same index twice.
_PREFIX: dict[tuple[int, int], list[Fraction]] = {}
_PREFIX_LOCK = threading.Lock()


def harmonic_direct(c: int, n: int, m: int) -> Fraction:
    """H_{c,n}^(m) = sum_{k=1}^n 1/(c+k)**m, summed term by term."""
    if c < 0:
        raise ValueError(f"offset must be nonnegative, got {c}")
    if n < 0:
        raise ValueError(f"upper limit must be nonnegative, got {n}")
    return _prefix(c, m, n)[n]


def _prefix(c: int, m: int, n: int) -> list[Fraction]:
    """The memoized list H_{c,0}^(m), H_{c,1}^(m), ..., grown to index n at least."""
    prefix = _PREFIX.setdefault((c, m), [Fraction(0)])
    if len(prefix) <= n:
        with _PREFIX_LOCK:
            while len(prefix) <= n:
                k = len(prefix)
                prefix.append(prefix[-1] + int_pow(Fraction(c + k), -m))
    return prefix


def lhs_direct(family: str, p: int, m: int, s: LinearArg, n: int) -> Fraction:
    """The literal double sum being given a closed form, at a concrete n.

    family 'F': sum_{k=0}^n k**p H_{s+k}^(m)
    family 'G': sum_{k=0}^n k**p H_{s+n-k}^(m)

    With base = s(n) and w_k the weight of H_{base+k} (k**p for F,
    (n-k)**p for G, each the integer ``int_pow``, so 0**0 = 1), the order
    of summation is exchanged: H_{base+k} = H_base + sum_{j=1}^k
    1/(base+j)**m, so

        sum_k w_k H_{base+k} = W H_base + sum_{j=1}^n C_j / (base+j)**m,

    where W = sum_k w_k and C_j = sum_{k>=j} w_k is a running suffix sum
    of the integer weights. H_base comes from the oracle's own prefix.
    For m > 0 the summands are added as integers over one common
    denominator D, the lcm of den(H_base) and lcm(base+1..base+n)**m, each
    costing one big // small and one big * small; for m <= 0 they are
    integers already. The total is reduced once.
    """
    if p < 0 or n < 0:
        raise ValueError("p and n must be nonnegative")
    family = family.upper()
    if family not in ("F", "G"):
        raise ValueError(f"unknown family {family!r}; expected 'F' or 'G'")
    base = s.at(n)
    if base < 0:
        raise ValueError(f"offset {s} must be nonnegative at n = {n}, got {base}")
    weights = [int_pow(k, p) for k in range(n + 1)]
    if family == "G":
        weights.reverse()
    h = _prefix(0, m, base)[base]
    suffix = total = 0
    if m > 0:
        den = lcm(lcm(*range(base + 1, base + n + 1)) ** m, h.denominator)
        for j in range(n, 0, -1):
            suffix += weights[j]
            total += suffix * (den // (base + j) ** m)
    else:  # integer summands, and H_base is an integer
        den = 1
        for j in range(n, 0, -1):
            suffix += weights[j]
            total += suffix * (base + j) ** -m
    total += (suffix + weights[0]) * h.numerator * (den // h.denominator)
    return Fraction(total, den)


@dataclass(frozen=True)
class CheckRow:
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def grid_rows(
    family: str, p: int, m: int, s: LinearArg, cf: ClosedForm, n_max: int
) -> Iterator[CheckRow]:
    """Check the closed form ``cf`` of one (family, p, m, s) sum against ``lhs_direct``.

    Yields one row for each n = 0..n_max; a failing row is yielded, never
    raised. The offset s = a*n+b moves with n, so every row sums afresh.
    """
    for n in range(n_max + 1):
        yield CheckRow(n, lhs_direct(family, p, m, s, n), evaluate_cf(cf, n))


def sbp_rows(m: int, w: int, n_max: int) -> Iterator[CheckRow]:
    """Check sum_{k=0}^n [(k+1)**w - k**w] H_k^(m) == (n+1)**w H_n^(m) - H_n^(m-w).

    Yields one row for each n = 0..n_max. Both sides are computed by
    direct rational summation, the left one as a running sum. The k = 0
    term is zero regardless of w because H_0 = 0, so it is skipped and
    the 0**w pole for negative w never materializes.
    """
    lhs = Fraction(0)
    for n in range(n_max + 1):
        h = harmonic_direct(0, n, m)
        if n:
            lhs += (int_pow(Fraction(n + 1), w) - int_pow(Fraction(n), w)) * h
        rhs = int_pow(Fraction(n + 1), w) * h - harmonic_direct(0, n, m - w)
        yield CheckRow(n, lhs, rhs)


# The first n at which each corollary is stated.
COROLLARY_START = {"inv_k": 1, "inv_k_plus_1": 0}


def corollary_rows(which: str, n_max: int) -> Iterator[CheckRow]:
    """Check one of the classical weighted harmonic sum identities.

    'inv_k':        sum_{k=1}^n H_k / k     == (H_n**2 + H_n^(2)) / 2
    'inv_k_plus_1': sum_{k=0}^n H_k / (k+1) == (H_{n+1}**2 - H_{n+1}^(2)) / 2

    Yields one row for each n = COROLLARY_START[which]..n_max, with the
    left side kept as a running sum. Both read sum H_k / (k+d) ==
    (H_{n+d}**2 +- H_{n+d}^(2)) / 2 with d = 1 - start.
    """
    if which not in COROLLARY_START:
        raise ValueError(f"unknown corollary {which!r}")
    start = COROLLARY_START[which]
    sign = 1 if start else -1
    lhs = Fraction(0)
    for n in range(start, n_max + 1):
        top = n + 1 - start
        lhs += harmonic_direct(0, n, 1) / top
        h = harmonic_direct(0, top, 1)
        yield CheckRow(n, lhs, (h * h + sign * harmonic_direct(0, top, 2)) / 2)
