"""Brute-force ground truth for every closed form in the package.

The evaluators here compute harmonic numbers and the weighted double sums
literally, term by term, sharing no code with the closed-form
constructors (no Bernoulli numbers, no power-sum polynomials). Grid
verification receives the closed forms to check as an argument, so the
dependency arrow points strictly from the constructors to this module and
never back. The summation-by-parts and corollary sweeps check those
identities the same way, one exact row per n.

Comparison is always exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .closed_form import ClosedForm, LinearArg, evaluate_cf
from .exact import int_pow

__all__ = [
    "COROLLARY_START",
    "CheckRow",
    "GridCell",
    "GridSpec",
    "VerificationReport",
    "corollary_rows",
    "harmonic_direct",
    "lhs_direct",
    "sbp_rows",
    "verify_grid",
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
    prefix = _PREFIX.setdefault((c, m), [Fraction(0)])
    if len(prefix) <= n:
        with _PREFIX_LOCK:
            while len(prefix) <= n:
                k = len(prefix)
                prefix.append(prefix[-1] + int_pow(Fraction(c + k), -m))
    return prefix[n]


def lhs_direct(family: str, p: int, m: int, s: LinearArg, n: int) -> Fraction:
    """The literal double sum being given a closed form, at a concrete n.

    family 'F': sum_{k=0}^n k**p H_{s+k}^(m)
    family 'G': sum_{k=0}^n k**p H_{s+n-k}^(m)

    k**p uses 0**0 = 1 at k = 0, p = 0.
    """
    if p < 0 or n < 0:
        raise ValueError("p and n must be nonnegative")
    base = s.at(n)
    family = family.upper()
    total = Fraction(0)
    for k in range(n + 1):
        if family == "F":
            h = harmonic_direct(0, base + k, m)
        elif family == "G":
            h = harmonic_direct(0, base + n - k, m)
        else:
            raise ValueError(f"unknown family {family!r}; expected 'F' or 'G'")
        total += int_pow(Fraction(k), p) * h
    return total


@dataclass(frozen=True)
class CheckRow:
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


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


@dataclass(frozen=True)
class GridSpec:
    """A rectangle of (p, m, offset, n) cells for one sum family."""

    family: str
    p_range: tuple[int, int]
    m_range: tuple[int, int]
    offsets: tuple[LinearArg, ...]
    n_range: tuple[int, int]

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("p_range", self.p_range),
            ("m_range", self.m_range),
            ("n_range", self.n_range),
        ):
            if lo > hi:
                raise ValueError(f"empty {name}: {lo}..{hi}")
        if not self.offsets:
            raise ValueError("at least one offset is required")
        if self.n_range[0] < 0:
            raise ValueError("n_range must start at 0 or above")

    def cell_count(self) -> int:
        spans = [
            self.p_range[1] - self.p_range[0] + 1,
            self.m_range[1] - self.m_range[0] + 1,
            len(self.offsets),
            self.n_range[1] - self.n_range[0] + 1,
        ]
        total = 1
        for s in spans:
            total *= s
        return total


@dataclass(frozen=True)
class GridCell:
    family: str
    p: int
    m: int
    s: LinearArg
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class VerificationReport:
    """All grid cells with their exact pass/fail outcomes."""

    cells: list[GridCell]

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def passed(self) -> int:
        return sum(1 for cell in self.cells if cell.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[GridCell]:
        return [cell for cell in self.cells if not cell.passed]


Builder = Callable[[str, int, int, LinearArg], ClosedForm]


def verify_grid(spec: GridSpec, build: Builder) -> VerificationReport:
    """Compare the literal sums against a builder's closed forms, cell by cell.

    ``build(family, p, m, s)`` supplies the closed form under test;
    failures are recorded in the report, never raised.
    """
    cells: list[GridCell] = []
    p_lo, p_hi = spec.p_range
    m_lo, m_hi = spec.m_range
    n_lo, n_hi = spec.n_range
    for p in range(p_lo, p_hi + 1):
        for m in range(m_lo, m_hi + 1):
            for s in spec.offsets:
                cf = build(spec.family, p, m, s)
                for n in range(n_lo, n_hi + 1):
                    lhs = lhs_direct(spec.family, p, m, s, n)
                    rhs = evaluate_cf(cf, n)
                    cells.append(GridCell(spec.family, p, m, s, n, lhs, rhs))
    return VerificationReport(cells)
