"""Closed-form constructors for weighted harmonic sums.

The constructors produce canonical closed forms for

    sum_f:        sum_{k=0}^n k**p * H_k^(m)
    sum_g:        sum_{k=0}^n k**p * H_{n-k}^(m)
    offset_sum_f: sum_{k=0}^n k**p * H_{s+k}^(m)      (s = a*n+b, a,b >= 0)
    offset_sum_g: sum_{k=0}^n k**p * H_{s+n-k}^(m)

by one summation by parts over j = s..N, N = s+n. The weight's antidifference
P(x) = sum_{k=0}^x k**p moves onto j as Q(j) = sigma R(j + lambda n), R(x) =
P(sigma x + c): (sigma, c, lambda) = (1, -b-1, -a) gives F's P(j-s-1) and
(-1, b, -a-1) G's -P(N-j). Q(N+1) - Q(s) = P(n) and Q is zero at one end, so the
boundary term sits at the other, e = N+1 (F) or s (G), and the sum is
P(n) H_e^(m) - sum_t q_t (H_{N+1}^(m-t) - H_s^(m-t)) for Q(j) = sum_t q_t j**t,
on ``offset_basis(s)`` (H_{n+1} for the plain sums, s = 0): no basis shift follows.
An order m-t <= 0 sums j**(t-m) over s < j <= N+1, a difference of power-sum
polynomials. The H_{s,k}^(m) = H_{s+k}^(m) - H_s^(m) variant is the offset sum
minus ``harmonic_term(s, m).scale(P(n))``.
"""

from __future__ import annotations

import functools

from .closed_form import ClosedForm, LinearArg, harmonic_part
from .exact import binomial, int_pow
from .polynomial import Polynomial, faulhaber_poly

__all__ = [
    "build_closed_form",
    "offset_basis",
    "offset_sum_f",
    "offset_sum_g",
    "sum_f",
    "sum_g",
]

_ZERO_OFFSET = LinearArg(0, 0)


def sum_f(p: int, m: int) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_k^(m), over the H_{n+1} basis."""
    return _by_parts(_power_sum(p), m, _ZERO_OFFSET)


def sum_g(p: int, m: int) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{n-k}^(m), over the H_{n+1} basis."""
    return _by_parts(_power_sum(p), m, _ZERO_OFFSET, reverse=True)


def offset_basis(s: LinearArg) -> frozenset[LinearArg]:
    """Presentation basis for offset identities: H_{(a+1)n+b+1} and H_{an+b}."""
    targets = {LinearArg(s.a + 1, s.b + 1)}
    if s.a >= 1:
        targets.add(s)
    return frozenset(targets)


def _power_sum(p: int) -> Polynomial:
    """P(x) = sum_{k=0}^x k**p: the power sum with its k = 0 term."""
    if p < 0:
        raise ValueError(f"power exponent p must be nonnegative, got {p}")
    return faulhaber_poly(p) + int_pow(0, p)


def offset_sum_f(p: int, m: int, s: LinearArg) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{s+k}^(m) for the offset s = a*n+b."""
    return _by_parts(_power_sum(p), m, s)


def offset_sum_g(p: int, m: int, s: LinearArg) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{s+n-k}^(m) for the offset s = a*n+b."""
    return _by_parts(_power_sum(p), m, s, reverse=True)


# Q depends on the weight and the row (sigma, c, lambda), never on m, so every
# order of one (p, s) shares it: a bare `verify` makes 630 builds over 126
# distinct Qs, an `emit` benchmark round 494 builds over 132-133, and `table`
# 66 over 30. An entry is a tuple of immutable polynomials, so the callers
# share it.
_Q_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_Q_CACHE_SIZE)
def _q_coefficients(antidiff: Polynomial, sigma: int, c: int, slope: int) -> tuple[Polynomial, ...]:
    """The q_t of Q(j) = sigma R(j + slope n) = sum_t q_t j**t, R(x) = P(sigma x + c):
    one ``compose_linear`` of P gives R = sum_i r_i x**i, and one Taylor shift
    q_t = sigma sum_u C(t+u, t) r_{t+u} (slope n)**u."""
    r = antidiff.compose_linear(sigma, c)
    nums, k = r.nums, len(r.nums)
    powers = [sigma * int_pow(slope, u) for u in range(k)]  # 0**0 = 1 at slope 0
    return tuple(
        Polynomial([binomial(t + u, t) * nums[t + u] * powers[u] for u in range(k - t)], r.den)
        for t in range(k)
    )


def _by_parts(antidiff: Polynomial, m: int, s: LinearArg, reverse: bool = False) -> ClosedForm:
    """sum_{j=s}^N (Q(j+1) - Q(j)) H_j^(m), N = s+n, where the weight's antidifference
    P = ``antidiff`` gives Q(j) = sigma P(c + sigma (j + lambda n)): P(j-s-1), or -P(N-j)
    with ``reverse``, which only picks the row (sigma, c, lambda, e). For Q(j) = sum_t
    q[t] j**t that is P(n) H_e^(m) - sum_t q[t] (H_{N+1}^(m-t) - H_s^(m-t)) on
    ``offset_basis(s)``. The q[t] come from ``_q_coefficients``, built once for every
    m. Where both ends fold to power-sum polynomials (order m-t <= 0) their
    difference takes one product. The parts are merged as polynomials and the
    ``ClosedForm`` is built once."""
    if s.b < 0:  # s must be a nonnegative integer for every n >= 0
        raise ValueError(f"offset {s} is negative at n = 0")
    top = LinearArg(s.a + 1, s.b + 1)
    sigma, c, slope, end = (-1, s.b, -s.a - 1, s) if reverse else (1, -s.b - 1, -s.a, top)
    parts = [(antidiff, harmonic_part(end, m))]  # Q is zero at the other end
    constant, terms = Polynomial(), {}
    for t, q_t in enumerate(_q_coefficients(antidiff, sigma, c, slope)):
        upper, lower = harmonic_part(top, m - t), harmonic_part(s, m - t)
        if isinstance(upper, Polynomial):  # order <= 0, so lower is a polynomial too
            constant += q_t * (lower - upper)
        else:
            parts += [(-q_t, upper), (q_t, lower)]
    for coeff, part in parts:
        if isinstance(part, Polynomial):
            constant += coeff * part
        else:
            terms[part] = terms.get(part, 0) + coeff
    return ClosedForm(constant, terms)


def build_closed_form(family: str, p: int, m: int, s: LinearArg) -> ClosedForm:
    """Constructor dispatch keyed by family name ('F' or 'G')."""
    if family.upper() not in ("F", "G"):
        raise ValueError(f"unknown family {family!r}; expected 'F' or 'G'")
    return _by_parts(_power_sum(p), m, s, reverse=family.upper() == "G")
