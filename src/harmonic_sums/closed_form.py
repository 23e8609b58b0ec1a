"""Symbolic closed forms: linear combinations of harmonic-number symbols.

A closed form is a rational-function constant plus finitely many terms
coeff * H_{a*n+b}^{(m)} with rational-function coefficients. Canonical
forms never contain symbols of order <= 0 (those expand to power-sum
polynomials) or symbols with constant argument (those fold to exact
rationals), so structural equality decides mathematical equality on the
symbol family used here.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .exact import int_pow
from .polynomial import Polynomial, RationalFunction, _as_rf, _value_pair, faulhaber_poly

__all__ = [
    "ClosedForm",
    "DEFAULT_BASIS",
    "HarmonicSymbol",
    "LinearArg",
    "evaluate_cf",
    "harmonic_part",
    "harmonic_term",
    "harmonic_value",
    "shift_basis",
    "substitute_n",
]

Coefficient = Union["RationalFunction", Polynomial, int, Fraction]


@dataclass(frozen=True)
class LinearArg:
    """The linear form a*n + b used as a harmonic-symbol argument."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"argument slope must be nonnegative, got {self.a}")
        if self.a == 0 and self.b < 0:
            raise ValueError(f"constant argument must be nonnegative, got {self.b}")

    @property
    def is_constant(self) -> bool:
        return self.a == 0

    def at(self, n: int) -> int:
        return self.a * n + self.b

    def as_poly(self) -> Polynomial:
        return Polynomial.linear(self.a, self.b)

    def shifted(self, d: int) -> LinearArg:
        return LinearArg(self.a, self.b + d)

    def __str__(self) -> str:
        return _plain_poly((self.b, self.a), latex=False)


@dataclass(frozen=True)
class HarmonicSymbol:
    """The symbol H_{a*n+b}^{(m)} with order m >= 1 and non-constant argument."""

    arg: LinearArg
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(
                f"symbol order must be >= 1, got {self.order} "
                "(nonpositive orders expand to polynomials)"
            )
        if self.arg.is_constant:
            raise ValueError("constant-argument symbols fold to rationals")

    def sort_key(self) -> tuple[int, int, int]:
        # descending order, then descending slope, then offset
        return (-self.order, -self.arg.a, self.arg.b)

    def __str__(self) -> str:
        return _harmonic_label(str(self.arg), str(self.order), latex=False)


def _harmonic_label(sub: str, order: str, latex: bool) -> str:
    """H_sub^(order), 'H_{n+1}^(2)' or 'H_{n+1}^{(2)}' in LaTeX: the subscript
    braced past one character, no superscript for order 1. The order is text,
    so that the power-sum label H_n^(-0) keeps its sign."""
    if len(sub) > 1:
        sub = "{" + sub + "}"
    if order == "1":
        return f"H_{sub}"
    return f"H_{sub}^{{({order})}}" if latex else f"H_{sub}^({order})"


def _power(base: str, e: int, latex: bool) -> str:
    """base^e, 'n^2' or 'n^{2}' in LaTeX; base^1 prints as base, and base^0
    as nothing, the implicit factor 1 of a constant term."""
    if e <= 1:
        return base if e else ""
    return f"{base}^{{{e}}}" if latex else f"{base}^{e}"


def _plain_poly(nums: tuple[int, ...], latex: bool) -> str:
    """Unfactored integer coefficients, constant term first, printed in
    descending powers: '2n^2+2n-1', '2n+1', and '0' for no nonzero term."""
    parts: list[str] = []
    for power in range(len(nums) - 1, -1, -1):
        c = nums[power]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mono = _power("n", power, latex)
        mag = "" if abs(c) == 1 and mono else abs(c)
        parts.append(f"{sign}{mag}{mono}")
    return "".join(parts) or "0"


# Direct-summation harmonic values, memoized per order >= 1 as prefix lists.
# Entry c of a list is the integer pair (num, l) with H_c^(order) =
# num / l**order and l = lcm(1..c); nothing is reduced. Kept local to this
# module so evaluation shares no code with the oracle. Growth holds the lock
# so that two threads never append the same index twice, and it appends one
# whole pair per index, so an interrupted growth leaves a valid prefix. A
# sweep grows each list it reads once, then reads it without the lock: a list
# only grows, and an index once written keeps its pair.
_VALUE_CACHE: dict[int, list[tuple[int, int]]] = {}
_VALUE_LOCK = threading.Lock()


def harmonic_value(c: int, order: int) -> Fraction:
    """H_c^(order) = sum_{k=1}^{c} k**(-order): by direct summation for order
    >= 1, and otherwise as ``faulhaber_poly(-order)`` at c, as canonical forms do."""
    if c < 0:
        raise ValueError(f"harmonic number at negative argument {c}")
    if order <= 0:
        return faulhaber_poly(-order).evaluate(c)
    num, l = _prefix(order, c)[c]
    return Fraction(num, l**order)


def _prefix(order: int, c: int) -> list[tuple[int, int]]:
    """The memoized pairs of H_0^(order), H_1^(order), ..., grown to index c at
    least: the step to index k scales the numerator by (l_new // l)**order
    where the lcm moves, then adds l**order // k**order."""
    prefix = _VALUE_CACHE.get(order)
    if prefix is None or len(prefix) <= c:
        with _VALUE_LOCK:
            prefix = _VALUE_CACHE.setdefault(order, [(0, 1)])
            num, l = prefix[-1]
            big = l**order
            while len(prefix) <= c:
                k = len(prefix)
                step = k // gcd(l % k, k)  # lcm(l, k) // l
                if step > 1:
                    scale = int_pow(step, order)
                    l, big, num = l * step, big * scale, num * scale
                num += big // int_pow(k, order)
                prefix.append((num, l))
    return prefix


class ClosedForm:
    """Canonical constant + sum of coeff * H_{a*n+b}^{(m)} terms."""

    __slots__ = ("constant", "terms")

    def __init__(
        self,
        constant: Coefficient = 0,
        terms: Mapping[HarmonicSymbol, Coefficient]
        | Iterable[tuple[HarmonicSymbol, Coefficient]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[HarmonicSymbol, RationalFunction] = {}
        for sym, coeff in items:
            coeff = _as_rf(coeff)
            if sym in merged:
                coeff = merged[sym] + coeff
            merged[sym] = coeff
        self.constant: RationalFunction = _as_rf(constant)
        self.terms: tuple[tuple[HarmonicSymbol, RationalFunction], ...] = tuple(
            sorted(
                ((s, c) for s, c in merged.items() if not c.is_zero),
                key=lambda item: item[0].sort_key(),
            )
        )

    @classmethod
    def zero(cls) -> ClosedForm:
        return cls()

    @property
    def is_zero(self) -> bool:
        return self.constant.is_zero and not self.terms

    @property
    def is_polynomial(self) -> bool:
        """True when there are no symbols and the constant is polynomial."""
        return not self.terms and self.constant.is_polynomial

    def coefficient(self, sym: HarmonicSymbol) -> RationalFunction:
        for s, c in self.terms:
            if s == sym:
                return c
        return RationalFunction(0)

    def symbols(self) -> tuple[HarmonicSymbol, ...]:
        return tuple(s for s, _ in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self.constant == other.constant and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.constant, self.terms))

    def __add__(self, other: ClosedForm) -> ClosedForm:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm(
            self.constant + other.constant, list(self.terms) + list(other.terms)
        )

    def __neg__(self) -> ClosedForm:
        return ClosedForm(-self.constant, [(s, -c) for s, c in self.terms])

    def __sub__(self, other: ClosedForm) -> ClosedForm:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Coefficient) -> ClosedForm:
        factor = _as_rf(factor)
        return ClosedForm(
            self.constant * factor, [(s, c * factor) for s, c in self.terms]
        )

    def __repr__(self) -> str:
        from .render import render

        return f"ClosedForm({render(self, 'text')!r})"

    def __str__(self) -> str:
        from .render import render

        return render(self, "text")


def harmonic_part(arg: LinearArg, order: int) -> HarmonicSymbol | Polynomial:
    """H_{arg}^(order) folded by the canonical rules: a polynomial or a symbol.

    Order <= 0 expands through the power-sum polynomial, a constant
    argument folds to its exact rational as a constant polynomial, and
    anything else is a genuine symbol.
    """
    if order <= 0:
        return faulhaber_poly(-order).compose_linear(arg.a, arg.b)
    if arg.is_constant:
        return Polynomial.constant(harmonic_value(arg.b, order))
    return HarmonicSymbol(arg, order)


def harmonic_term(arg: LinearArg, order: int) -> ClosedForm:
    """H_{arg}^(order) as a canonical closed form, folded by ``harmonic_part``."""
    part = harmonic_part(arg, order)
    if isinstance(part, HarmonicSymbol):
        return ClosedForm(0, {part: 1})
    return ClosedForm(part)


def evaluate_cf(cf: ClosedForm, n: int) -> Fraction:
    """Exact value of the closed form at an integer n >= 0: the one pair of
    ``_evaluate_pairs`` over n..n, reduced once. Raises ``PoleError`` at a
    coefficient's pole."""
    (pair,) = _evaluate_pairs(cf, n, n)
    return Fraction(*pair)


def _evaluate_pairs(cf: ClosedForm, n_lo: int, n_hi: int) -> Iterator[tuple[int, int]]:
    """The value of the closed form at each integer n = n_lo..n_hi, n_lo >= 0,
    as an unreduced pair (num, den), den > 0; an empty range yields nothing.

    Each coefficient's numerators are reversed once per sweep, for
    ``_value_pair``'s integer Horner. Each symbol's argument is smallest at
    n_lo and largest at n_hi, since a >= 1, so a negative argument is
    refused with ``ValueError`` before the first pair, and the symbol's
    prefix is grown once, to its argument at n_hi. Per n, the sum starts
    from the constant's pair, and each term's pair is its coefficient's
    times the prefix entry (h, l**order). The running denominator is the lcm
    of the pairs' denominators so far; when it grows, the running numerator
    is scaled up to it. Raises ``PoleError`` at the first n where a
    coefficient has a pole.
    """
    if n_lo < 0:
        raise ValueError(f"closed forms are evaluated at n >= 0, got {n_lo}")
    if n_lo > n_hi:
        return
    constant = cf.constant.num.nums[::-1], cf.constant.num.den, cf.constant.poles
    terms = []
    for sym, coeff in cf.terms:
        a, b, order = sym.arg.a, sym.arg.b, sym.order
        if a * n_lo + b < 0:
            raise ValueError(f"harmonic number at negative argument {a * n_lo + b}")
        prefix = _prefix(order, a * n_hi + b)
        terms.append((coeff.num.nums[::-1], coeff.num.den, coeff.poles, a, b, order, prefix))
    for n in range(n_lo, n_hi + 1):
        total, common = _value_pair(*constant, n)
        for nums, c_den, poles, a, b, order, prefix in terms:
            num, den = _value_pair(nums, c_den, poles, n)
            h, l = prefix[a * n + b]
            den *= l**order
            if common % den:
                grown = lcm(common, den)
                total *= grown // common
                common = grown
            total += num * h * (common // den)
        yield total, common


def substitute_n(cf: ClosedForm, t: LinearArg) -> ClosedForm:
    """Replace n by t.a*n + t.b throughout, keeping the result canonical.

    A constant substitution target folds the whole form to a number
    (symbols at negative constant arguments raise, matching evaluation).
    """
    if t.is_constant:
        return ClosedForm(evaluate_cf(cf, t.b))
    constant = cf.constant.compose_linear(t.a, t.b)
    terms = []
    for sym, coeff in cf.terms:
        arg = LinearArg(sym.arg.a * t.a, sym.arg.a * t.b + sym.arg.b)
        terms.append((HarmonicSymbol(arg, sym.order), coeff.compose_linear(t.a, t.b)))
    return ClosedForm(constant, terms)


DEFAULT_BASIS: frozenset[LinearArg] = frozenset({LinearArg(1, 1)})


def shift_basis(
    cf: ClosedForm, targets: frozenset[LinearArg] = DEFAULT_BASIS
) -> ClosedForm:
    """Rewrite symbols one step below a target argument up onto it.

    Uses H_c^(m) = H_{c+1}^(m) - 1/(c+1)**m, moving the correction into
    the constant. Symbols already on a target, or unrelated to every
    target, are left alone; the operation is idempotent. No constructor
    calls it, since summation by parts lands on ``offset_basis(s)`` itself.
    It serves forms assembled by other routes, such as a binomial expansion
    over plain forms substituted at N and s-1, and it is the only place that
    creates the pole of the correction 1/(c+1)**m.
    """
    constant = cf.constant
    terms: list[tuple[HarmonicSymbol, RationalFunction]] = []
    for sym, coeff in cf.terms:
        up = sym.arg.shifted(1)
        if sym.arg not in targets and up in targets:
            terms.append((HarmonicSymbol(up, sym.order), coeff))
            # 1/(a*n + b)**m == a**-m / (n + b/a)**m: the pole is known, not searched for
            root, order = Fraction(-up.b, up.a), sym.order
            constant -= coeff * RationalFunction(Fraction(1, up.a**order), [(root, order)])
        else:
            terms.append((sym, coeff))
    return ClosedForm(constant, terms)
