"""Brute-force ground truth for every closed form in the package.

The evaluators here compute harmonic numbers and the weighted double sums
literally, term by term, sharing no code with the closed-form
constructors (no Bernoulli numbers, no power-sum polynomials). The
harmonic prefixes are running integer numerators over a power of the
running lcm, so no Fraction is reduced while they grow. The double sum
``lhs_direct`` exchanges the order of summation, so that
sum_k w_k H_{base+k} = W H_base + sum_j C_j / (base+j)**m with C_j a
running suffix sum of the integer weights: each summand is one big
// small and one big * small over one common denominator. The sum is an
unreduced integer pair, which ``lhs_direct`` reduces once. Every check is
a sweep that yields one exact ``CheckRow`` per n, two integer numerators
over one denominator: ``grid_rows`` for a constructed closed form, which
reads one table of powers per sweep, takes the closed form's unreduced
pairs from one evaluation sweep and cross-multiplies them with the
direct sum's; ``sbp_rows`` and
``corollary_rows`` for the summation-by-parts and corollary identities,
whose rows share one running denominator. ``grid_rows`` receives the
closed form under test as an argument, so the dependency arrow points
strictly from the constructors to this module and never back.

Comparison is always exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .closed_form import ClosedForm, LinearArg, _evaluate_pairs
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

# Per-run memo of harmonic prefix sums, keyed by (offset, order). Entry k of
# a list is the integer pair (num, l) with H_{c,k}^(m) = num / l**m and
# l = lcm(c+1..c+k), or (H_{c,k}^(m), 1) for m <= 0; nothing is reduced.
# Entries only ever grow and a given index always holds the same pair, so
# repeated lookups are deterministic. Growth holds the lock so that two
# threads never append the same index twice, and it appends one whole pair
# per index, so an interrupted growth leaves a valid prefix.
_PREFIX: dict[tuple[int, int], list[tuple[int, int]]] = {}
_PREFIX_LOCK = threading.Lock()


def harmonic_direct(c: int, n: int, m: int) -> Fraction:
    """H_{c,n}^(m) = sum_{k=1}^n 1/(c+k)**m, summed term by term."""
    if c < 0:
        raise ValueError(f"offset must be nonnegative, got {c}")
    if n < 0:
        raise ValueError(f"upper limit must be nonnegative, got {n}")
    num, l = _prefix(c, m, n)[n]
    return Fraction(num, l**m) if m > 0 else Fraction(num)


def _prefix(c: int, m: int, n: int) -> list[tuple[int, int]]:
    """The memoized pairs of H_{c,0}^(m), H_{c,1}^(m), ..., grown to index n at least.

    The step to index k scales the numerator by (l_new // l)**m when the
    lcm moves, then adds l**m // (c+k)**m; for m <= 0 it adds (c+k)**-m.
    """
    prefix = _PREFIX.get((c, m))
    if prefix is None or len(prefix) <= n:
        with _PREFIX_LOCK:
            prefix = _PREFIX.setdefault((c, m), [(0, 1)])
            num, l = prefix[-1]
            big = l**m if m > 0 else 1
            while len(prefix) <= n:
                k = c + len(prefix)
                if m > 0:
                    step = k // gcd(l % k, k)  # lcm(l, k) // l
                    if step > 1:
                        scale = int_pow(step, m)
                        l, big, num = l * step, big * scale, num * scale
                    num += big // int_pow(k, m)
                else:
                    num += int_pow(k, -m)
                prefix.append((num, l))
    return prefix


def _checked_family(family: str, p: int, s: LinearArg, n: int) -> str:
    """The family in upper case, after refusing p < 0, n < 0, a family other
    than F or G and an offset s(n) < 0."""
    if p < 0 or n < 0:
        raise ValueError("p and n must be nonnegative")
    family = family.upper()
    if family not in ("F", "G"):
        raise ValueError(f"unknown family {family!r}; expected 'F' or 'G'")
    base = s.at(n)
    if base < 0:
        raise ValueError(f"offset {s} must be nonnegative at n = {n}, got {base}")
    return family


def lhs_direct(family: str, p: int, m: int, s: LinearArg, n: int) -> Fraction:
    """The literal double sum being given a closed form, at a concrete n.

    family 'F': sum_{k=0}^n k**p H_{s+k}^(m)
    family 'G': sum_{k=0}^n k**p H_{s+n-k}^(m)

    The value of ``_direct_pair`` over the powers 0**p..n**p, reduced once.
    """
    family = _checked_family(family, p, s, n)
    powers = [int_pow(k, p) for k in range(n + 1)]
    return Fraction(*_direct_pair(family, powers, m, s, n))


def _direct_pair(
    family: str, powers: list[int], m: int, s: LinearArg, n: int
) -> tuple[int, int]:
    """``lhs_direct`` of a checked upper-case family as an unreduced pair
    (total, den), den > 0, with powers[k] = k**p for k = 0..n at least.

    With base = s(n) and w_k the weight of H_{base+k} (powers[k] for F,
    powers[n-k] for G, each the integer ``int_pow``, so 0**0 = 1), the order
    of summation is exchanged: H_{base+k} = H_base + sum_{j=1}^k
    1/(base+j)**m, so

        sum_k w_k H_{base+k} = W H_base + sum_{j=1}^n C_j / (base+j)**m,

    where W = sum_k w_k and C_j = sum_{k>=j} w_k is a running suffix sum
    of the integer weights. For m > 0 the summands are added as integers
    over one common denominator D = l**m, l = lcm(1..base+n), each costing
    one big // small and one big * small; for m <= 0 they are integers
    already and D = 1. The oracle's own prefix, grown to base+n, gives l and
    H_base = h / l_base**m, which joins D as h * (l // l_base)**m.
    """
    weights = powers if family == "F" else powers[n::-1]
    base = s.at(n)
    prefix = _prefix(0, m, base + n)
    h, l_base = prefix[base]
    suffix = total = 0
    if m > 0:
        l = prefix[base + n][1]
        den = l**m
        for j in range(n, 0, -1):
            suffix += weights[j]
            total += suffix * (den // (base + j) ** m)
        h *= (l // l_base) ** m
    else:  # integer summands, and H_base is an integer
        den = 1
        for j in range(n, 0, -1):
            suffix += weights[j]
            total += suffix * (base + j) ** -m
    total += (suffix + weights[0]) * h
    return total, den


@dataclass(frozen=True)
class CheckRow:
    """Row n of a check: the direct sum lhs_num / den against the closed form rhs_num / den.

    Both sides are unreduced integer numerators over one positive
    denominator, so the row passes when they are equal. ``lhs`` and ``rhs``
    build the reduced Fractions only when asked, as for the row that is
    reported failing.
    """

    n: int
    lhs_num: int
    rhs_num: int
    den: int

    @property
    def passed(self) -> bool:
        return self.lhs_num == self.rhs_num

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.den)


def grid_rows(
    family: str, p: int, m: int, s: LinearArg, cf: ClosedForm, n_max: int
) -> Iterator[CheckRow]:
    """Check the closed form ``cf`` of one (family, p, m, s) sum against the direct sum.

    Yields one row for each n = 0..n_max; a failing row is yielded, never
    raised. The arguments are refused as by ``lhs_direct`` before the first
    row, and the powers 0**p..n_max**p are computed once for the sweep. The
    offset s = a*n+b moves with n, so every row sums afresh. Each side
    arrives as an unreduced pair: the direct sum's (ln, ld), and the closed
    form's (rn, rd) from one ``_evaluate_pairs`` sweep over 0..n_max. The row
    compares ln * rd with rn * ld over ld * rd.
    """
    family = _checked_family(family, p, s, 0)  # s(n) only grows with n
    powers = [int_pow(k, p) for k in range(n_max + 1)]
    for n, (rn, rd) in enumerate(_evaluate_pairs(cf, 0, n_max)):
        ln, ld = _direct_pair(family, powers, m, s, n)
        yield CheckRow(n, ln * rd, rn * ld, ld * rd)


def _lcm_steps(n_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, l, step) for n = 0..n_max: l = lcm(1..n+1) and step = l // lcm(1..n)."""
    l = 1
    for n in range(n_max + 1):
        step = (n + 1) // gcd(l % (n + 1), n + 1)
        l *= step
        yield n, l, step


def _times_power(x: int, k: int, e: int) -> int:
    """x * k**e for k >= 1; for e < 0, k**-e must divide x."""
    return x * int_pow(k, e) if e >= 0 else x // int_pow(k, -e)


def sbp_rows(m: int, w: int, n_max: int) -> Iterator[CheckRow]:
    """Check sum_{k=0}^n [(k+1)**w - k**w] H_k^(m) == (n+1)**w H_n^(m) - H_n^(m-w).

    Yields one row for each n = 0..n_max. Both sides are integers over one
    running denominator L**e, with L = lcm(1..n+1) and e = max(m, 0) +
    max(-w, 0), which clears every denominator in the row. H_n^(m),
    H_n^(m-w) and the left side are running numerators over it, scaled
    when L grows; each step adds L**e / n**m, L**e / n**(m-w) and
    [(n+1)**w - n**w] H_n^(m), all exact integers. The k = 0 term is zero
    regardless of w because H_0 = 0, so it is skipped and the 0**w pole
    for negative w never materializes.
    """
    e = max(m, 0) + max(-w, 0)
    den = 1
    lhs = h = h_mw = 0  # the left side, H_n^(m) and H_n^(m-w), each times den
    for n, _, step in _lcm_steps(n_max):
        if step > 1:
            scale = int_pow(step, e)
            den, lhs, h, h_mw = den * scale, lhs * scale, h * scale, h_mw * scale
        up = 0  # (n+1)**w H_n^(m), times den
        if n:
            h += _times_power(den, n, -m)
            h_mw += _times_power(den, n, w - m)
            up = _times_power(h, n + 1, w)
            lhs += up - _times_power(h, n, w)
        yield CheckRow(n, lhs, up - h_mw, den)


# The first n at which each corollary is stated.
COROLLARY_START = {"inv_k": 1, "inv_k_plus_1": 0}


def corollary_rows(which: str, n_max: int) -> Iterator[CheckRow]:
    """Check one of the classical weighted harmonic sum identities.

    'inv_k':        sum_{k=1}^n H_k / k     == (H_n**2 + H_n^(2)) / 2
    'inv_k_plus_1': sum_{k=0}^n H_k / (k+1) == (H_{n+1}**2 - H_{n+1}^(2)) / 2

    Yields one row for each n = COROLLARY_START[which]..n_max. Both read
    sum H_k / (k+d) == (H_t**2 +- H_t^(2)) / 2 with d = 1 - start and
    t = n + d. With L = lcm(1..n+1), h = H_t L, h_2 = H_t^(2) L**2 and
    the left side times L**2 are running integers, scaled when L grows,
    and each row compares 2 lhs with h**2 +- h_2 over 2 L**2.
    """
    if which not in COROLLARY_START:
        raise ValueError(f"unknown corollary {which!r}")
    start = COROLLARY_START[which]
    sign = 1 if start else -1
    square = 1  # L**2
    h = h2 = lhs = 0
    for n, l, step in _lcm_steps(n_max):
        if step > 1:
            h, h2, lhs, square = h * step, h2 * step**2, lhs * step**2, square * step**2
        top = n + 1 - start
        if top:
            q = l // top
            h += q
            h2 += q * q
            lhs += (h - (1 - start) * q) * q  # H_{top-d} / top, times L**2
        if n >= start:
            yield CheckRow(n, 2 * lhs, h * h + sign * h2, 2 * square)
