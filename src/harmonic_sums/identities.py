"""Closed-form constructors for weighted harmonic sums.

The constructors produce canonical closed forms for

    sum_f:        sum_{k=0}^n k**p * H_k^(m)
    sum_g:        sum_{k=0}^n k**p * H_{n-k}^(m)
    offset_sum_f: sum_{k=0}^n k**p * H_{s+k}^(m)      (s = a*n+b, a,b >= 0)
    offset_sum_g: sum_{k=0}^n k**p * H_{s+n-k}^(m)

built exactly as linear combinations over the power-sum polynomials and
then shifted onto the presentation basis (H_{n+1} for the plain sums;
H_{(a+1)n+b+1} together with H_{an+b} for the offset sums). The
``offset_harmonic`` flag switches the offset constructors to the sums over
H_{s,k}^(m) = H_{s+k}^(m) - H_s^(m), which differ by an explicit
H_s^(m)-weighted correction. One kernel, _binomial_sum (Horner in -s or n+1),
reduces both offset families to the plain ones, which are their s = 0 case.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from .closed_form import (
    ClosedForm,
    LinearArg,
    harmonic_term,
    shift_basis,
    substitute_n,
)
from .exact import bernoulli_plus, binomial, int_pow
from .polynomial import Polynomial, faulhaber_poly

__all__ = [
    "build_closed_form",
    "offset_basis",
    "offset_sum_f",
    "offset_sum_g",
    "sum_f",
    "sum_g",
]

_ARG_N = LinearArg(1, 0)
_ZERO_OFFSET = LinearArg(0, 0)


def _require_exponent(p: int) -> None:
    if p < 0:
        raise ValueError(f"power exponent p must be nonnegative, got {p}")


def _require_offset(s: LinearArg) -> None:
    # must evaluate to a nonnegative integer for every n >= 0
    if s.b < 0:
        raise ValueError(f"offset {s} is negative at n = 0")


# The two term builders are memoized for runs that build many rows in one
# process, such as `harmsum table` and the default `harmsum verify` grid.
# offset_sum_f(p, m, s) needs _sum_f_terms(i, m) for i = 0..p, and
# offset_sum_g(p, m, s) needs _sum_g_terms(i, m), so every row with the same
# m asks again for the forms that rows of lower p already built. A single
# identity repeats almost none of its requests. The builders are pure and
# their forms are never mutated. Each cache keeps at most _TERMS_CACHE_SIZE
# forms; the default verify grid uses 35 keys per builder. The public
# constructors stay unmemoized.
_TERMS_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _sum_f_terms(p: int, m: int) -> ClosedForm:
    """sum_{k=0}^n k**p H_k^(m) over the H_n basis (no final shift)."""
    total = harmonic_term(_ARG_N, m).scale(faulhaber_poly(p))
    total = total + harmonic_term(_ARG_N, m - p)
    for k, c in enumerate(faulhaber_poly(p).coeffs[1:], start=1):
        total = total - harmonic_term(_ARG_N, m - k).scale(c)
    return total


@functools.lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _sum_g_terms(p: int, m: int) -> ClosedForm:
    """sum_{k=0}^n k**p H_{n-k}^(m) over the H_n basis (no final shift)."""
    weight = faulhaber_poly(p) + int_pow(0, p)
    total = harmonic_term(_ARG_N, m).scale(weight)
    for k in range(1, p + 2):
        bracket = bernoulli_plus(p - k + 1)
        if k <= p:  # the k = p+1 bracket term carries factor p-k+1 = 0
            bracket = bracket + (p - k + 1) * faulhaber_poly(p - k)
        c = Fraction((-1) ** k * binomial(p + 1, k), p + 1)
        total = total + harmonic_term(_ARG_N, m - k).scale(bracket * c)
    return total


def sum_f(p: int, m: int) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_k^(m), over the H_{n+1} basis."""
    return offset_sum_f(p, m, _ZERO_OFFSET)


def sum_g(p: int, m: int) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{n-k}^(m), over the H_{n+1} basis."""
    return offset_sum_g(p, m, _ZERO_OFFSET)


def offset_basis(s: LinearArg) -> frozenset[LinearArg]:
    """Presentation basis for offset identities: H_{(a+1)n+b+1} and H_{an+b}."""
    targets = {LinearArg(s.a + 1, s.b + 1)}
    if s.a >= 1:
        targets.add(s)
    return frozenset(targets)


def _binomial_sum(
    p: int, x: Polynomial, piece: Callable[[int], ClosedForm]
) -> ClosedForm:
    """sum_{i=0}^p C(p,i) x**(p-i) piece(i), by Horner in x with each step's
    binomial ratio C(p,i-1)/C(p,i) = i/(p-i+1) folded into x."""
    total = piece(0)
    for i in range(1, p + 1):
        total = total.scale(x * Fraction(i, p - i + 1)) + piece(i)
    return total


def offset_sum_f(
    p: int, m: int, s: LinearArg, offset_harmonic: bool = False
) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{s+k}^(m) for the offset s = a*n+b.

    With ``offset_harmonic=True`` the summand is H_{s,k}^(m) instead,
    i.e. the H_s^(m) * sum_{k=0}^n k**p correction is subtracted.
    """
    _require_exponent(p)
    _require_offset(s)
    if s == _ZERO_OFFSET:  # the plain sum: no pieces below the offset
        total = _sum_f_terms(p, m)
    else:
        upper, lower = LinearArg(s.a + 1, s.b), LinearArg(s.a, s.b - 1)
        total = _binomial_sum(p, -s.as_poly(), lambda i: (
            substitute_n(_sum_f_terms(i, m), upper) - substitute_n(_sum_f_terms(i, m), lower)
        ))
    if offset_harmonic:
        total = total - _offset_correction(p, m, s)
    return shift_basis(total, offset_basis(s))


def offset_sum_g(
    p: int, m: int, s: LinearArg, offset_harmonic: bool = False
) -> ClosedForm:
    """Closed form of sum_{k=0}^n k**p H_{s+n-k}^(m) for the offset s = a*n+b."""
    _require_exponent(p)
    _require_offset(s)
    total = substitute_n(_sum_g_terms(p, m), LinearArg(s.a + 1, s.b))
    if s != _ZERO_OFFSET:  # the plain sum has no pieces below the offset
        lower = LinearArg(s.a, s.b - 1)
        total = total - _binomial_sum(p, Polynomial.linear(1, 1), lambda i: (
            substitute_n(_sum_g_terms(i, m), lower)
        ))
    if offset_harmonic:
        total = total - _offset_correction(p, m, s)
    return shift_basis(total, offset_basis(s))


def _offset_correction(p: int, m: int, s: LinearArg) -> ClosedForm:
    """H_s^(m) * sum_{k=0}^n k**p, the H_{s,k} vs H_{s+k} difference."""
    weight = faulhaber_poly(p) + int_pow(0, p)
    return harmonic_term(s, m).scale(weight)


def build_closed_form(family: str, p: int, m: int, s: LinearArg) -> ClosedForm:
    """Constructor dispatch keyed by family name ('F' or 'G')."""
    if family.upper() == "F":
        return offset_sum_f(p, m, s)
    if family.upper() == "G":
        return offset_sum_g(p, m, s)
    raise ValueError(f"unknown family {family!r}; expected 'F' or 'G'")

