"""Dense univariate polynomials and reduced rational functions over Q.

The variable is always the summation limit n. A polynomial is stored as
integer numerators over one denominator, without trailing zeros or common
factor, so equal polynomials are structurally equal. Rational functions
keep their denominator factored as poles and are reduced for the same reason.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .exact import bernoulli_plus, binomial

__all__ = [
    "PoleError",
    "Polynomial",
    "ROOT_BOUND",
    "RationalFunction",
    "faulhaber_poly",
    "linear_factors",
]

Scalar = Union[int, Fraction]
Pole = tuple[Fraction, int]  # (r, e): the factor (n - r)**e of a denominator

# The one root search, linear_factors, scans once for zeros p/q, |p|, q <= this.
ROOT_BOUND = 1000


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _value_pair(
    nums: tuple[int, ...], den: int, poles: Iterable[Pole], x: Scalar
) -> tuple[Scalar, Scalar]:
    """(nums[0] x**deg + ... + nums[deg]) / den / prod (x - r)**e, numerators
    from the highest power down, as an unreduced pair (num, den), den > 0: the
    one evaluator of polynomials, rational functions and sweeps. Plain Horner,
    then each pole r = rp/rq puts rq**e above and (x*rq - rp)**e below. The
    pair is integers at an integer x and Fractions at any other rational.
    Raises ``PoleError`` at a pole.
    """
    num = 0
    for c in nums:
        num = num * x + c
    for r, e in poles:
        rq = r.denominator
        gap = x * rq - r.numerator
        if not gap:
            raise PoleError(f"pole at n = {x}")
        num *= rq**e
        den *= gap**e
    return (num, den) if den > 0 else (-num, -den)


class Polynomial:
    """Polynomial in n: n**i has coefficient ``nums[i] / den``, den > 0.

    Canonical means no trailing zero numerator and gcd(den, *nums) == 1;
    zero is ``((), 1)`` and reports degree -1. The constructor takes integer
    numerators only and makes them canonical; ``of`` takes Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int] = (), den: int = 1) -> None:
        nums = list(nums)  # integers only: gcd raises TypeError on a Fraction
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)  # den // g > 0
        if g != 1:
            nums = [c // g for c in nums]
        self.nums: tuple[int, ...] = tuple(nums)
        self.den: int = den // g

    @classmethod
    def of(cls, coeffs: Iterable[Scalar]) -> Polynomial:
        """The polynomial with ``coeffs[i]`` of n**i, ints or Fractions."""
        coeffs = list(coeffs)
        den = 1  # a running lcm; lcm(*genexpr) first unpacks every denominator
        for c in coeffs:
            den = lcm(den, c.denominator)
        return cls([c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return cls.of((value,))

    @classmethod
    def variable(cls) -> Polynomial:
        """The polynomial n itself."""
        return cls((0, 1))

    @classmethod
    def linear(cls, a: Scalar, b: Scalar) -> Polynomial:
        """The polynomial a*n + b."""
        return cls.of((b, a))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ``coeffs[i]`` of n**i: a read-only view."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = [c * a for c in self.nums] + [0] * (len(other.nums) - len(self.nums))
        for i, c in enumerate(other.nums):
            out[i] += c * b
        return Polynomial(out, den)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.nums], self.den)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> Polynomial:
        return _as_poly(other) + (-self)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return Polynomial([c * p for c in self.nums], self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        # integer convolution of the numerators over the product of denominators
        xs, ys = self.nums, other.nums
        out = [0] * (len(xs) + len(ys) - 1)
        for i, ci in enumerate(xs):
            if ci:
                for j, cj in enumerate(ys):
                    out[i + j] += ci * cj
        return Polynomial(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> Polynomial:
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))  # covers 0**0 = 1
        for _ in range(exp):
            result = result * self
        return result

    def __truediv__(self, other: object) -> Polynomial | RationalFunction:
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero scalar")
            q = other.denominator
            return Polynomial([c * q for c in self.nums], self.den * other.numerator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # the algebra's one root search: an expanded denominator becomes poles
        if other.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        roots, scale = linear_factors(other)
        if scale.degree > 0:
            raise ValueError(f"denominator {other!r} does not split within ROOT_BOUND = {ROOT_BOUND}")
        return RationalFunction(self / scale.leading, roots)

    def __rtruediv__(self, other: Scalar) -> RationalFunction:
        return _as_poly(other) / self if isinstance(other, (int, Fraction)) else NotImplemented

    def divide_linear(self, root: Fraction) -> Polynomial | None:
        """self / (n - root) if root is a zero of the nonzero self, else None.
        Integer synthetic division by q*n - p for root = p/q: by Gauss's lemma an
        exact quotient is integral, so an inexact step shows root is no zero."""
        nums = self.nums
        p, q = root.numerator, root.denominator
        quot, carry = [], 0
        for c in reversed(nums[1:]):
            carry, rem = divmod(c + p * carry, q)
            if rem:
                return None
            quot.append(q * carry)
        if nums[0] + p * carry:
            return None
        quot.reverse()
        return Polynomial(quot, self.den)

    def value_at(self, x: Scalar) -> tuple[Scalar, Scalar]:
        """The value at x as an unreduced pair (num, den), den > 0, by Horner
        (``_value_pair``): integers at an integer x, Fractions at any other."""
        return _value_pair(self.nums[::-1], self.den, (), x)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x, with one reduction of ``value_at``'s pair."""
        return Fraction(*self.value_at(x))

    def compose_linear(self, a: int, b: int) -> Polynomial:
        """The polynomial p(a*n + b) for integers a and b, expanded and canonical.

        An integer Taylor shift (nums[j] += b * nums[j+1]) gives p(n + b);
        coefficient j is then scaled by a**j from a running product. For
        a = 0 the numerators are just the constant p(b)'s, one evaluation.
        """
        nums = list(self.nums) if a else [self.value_at(b)[0]]
        deg = len(nums) - 1
        if b:
            for i in range(deg):
                for j in range(deg - 1, i - 1, -1):
                    nums[j] += b * nums[j + 1]
        a_power = 1
        for j, c in enumerate(nums):
            nums[j] = c * a_power
            a_power *= a
        return Polynomial(nums, self.den)

    def __repr__(self) -> str:
        from .render import polynomial_text

        return f"Polynomial({polynomial_text(self)!r})"


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def linear_factors(poly: Polynomial) -> tuple[list[Pole], Polynomial]:
    """The zeros r = p/q of a nonzero poly with |p|, q <= ROOT_BOUND, each with
    its multiplicity e, and the cofactor c: poly == c * prod (n - r)**e.

    After the zero root, one scan (p, then q ascending; +p before -p) divides
    each zero out fully. Gauss's lemma filters, taken once from the primitive
    form P: q - p divides P(1) and q + p divides P(-1). A cofactor's zeros are
    zeros of P later in the scan, so the order is that of a restarted search.
    """
    roots: list[Pole] = []
    zeros = next((i for i, c in enumerate(poly.nums) if c), 0)
    if zeros:
        roots.append((Fraction(0), zeros))
        poly = Polynomial(poly.nums[zeros:], poly.den)
    if poly.degree < 1:
        return roots, poly
    content = gcd(*poly.nums)
    nums = [c // content for c in poly.nums]
    at_one, at_minus_one = sum(nums), sum(nums[::2]) - sum(nums[1::2])
    qs = _divisors(nums[-1])
    candidates = (
        Fraction(num, q)
        for p in _divisors(nums[0]) for q in qs if gcd(p, q) == 1 for num in (p, -p)
        if _divides(q - num, at_one) and _divides(q + num, at_minus_one)
    )  # fmt: skip
    for root in candidates:
        if poly.degree < 1:
            break
        count = 0
        while (quot := poly.divide_linear(root)) is not None:
            poly, count = quot, count + 1
        if count:
            roots.append((root, count))
    return roots, poly


def _divides(d: int, n: int) -> bool:
    return n % d == 0 if d else n == 0


def _divisors(n: int) -> list[int]:  # n != 0: a zero constant is stripped first
    return [d for d in range(1, min(abs(n), ROOT_BOUND) + 1) if n % d == 0]


_ONE = Polynomial((1,))


def _expand(poles: Iterable[Pole]) -> Polynomial:
    """The monic polynomial prod (n - r)**e."""
    out = _ONE
    for r, e in poles:
        out = out * Polynomial.linear(1, -r) ** e
    return out


def _cancel(num: Polynomial, poles: Iterable[Pole]) -> tuple[Polynomial, tuple[Pole, ...]]:
    """Divide every zero num shares with the poles out of both."""
    if num.is_zero:
        return num, ()
    kept = []
    for r, e in sorted(poles):
        while e and (quot := num.divide_linear(r)) is not None:
            num, e = quot, e - 1
        if e:
            kept.append((r, e))
    return num, tuple(kept)


class RationalFunction:
    """num / prod (n - r)**e over the sorted poles ((r, e), ...), e >= 1.

    The constructor takes that layout, distinct roots r with exponents e,
    and divides out every zero num shares with them. Canonical means the
    numerator vanishes at no pole (zero has none), so equality is
    structural. A denominator given expanded enters by division, num / den.
    """

    __slots__ = ("num", "poles")

    def __init__(self, num: Polynomial | Scalar = 0, poles: Iterable[Pole] = ()) -> None:
        self.num, self.poles = _cancel(_as_poly(num), poles)

    @property
    def den(self) -> Polynomial:
        """The monic denominator, expanded."""
        return _expand(self.poles)

    @property
    def is_polynomial(self) -> bool:
        return not self.poles

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Polynomial, int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.poles == other.poles

    def __hash__(self) -> int:
        return hash((self.num, self.poles))

    def __add__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        if self.poles == other.poles:  # mostly both empty: no cross products
            return RationalFunction(self.num + other.num, self.poles)
        mine, theirs = dict(self.poles), dict(other.poles)
        poles = {r: max(mine.get(r, 0), theirs.get(r, 0)) for r in mine | theirs}
        num = self.num * _expand((r, e - mine.get(r, 0)) for r, e in poles.items())
        num += other.num * _expand((r, e - theirs.get(r, 0)) for r, e in poles.items())
        return RationalFunction(num, poles.items())

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.poles)

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return self + (-_as_rf(other))

    def __rsub__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) + (-self)

    def __mul__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        poles = dict(self.poles)
        for r, e in other.poles:
            poles[r] = poles.get(r, 0) + e
        return RationalFunction(self.num * other.num, poles.items())

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        try:
            reciprocal = other.den / other.num  # ZeroDivisionError for a zero other
        except ValueError:
            # a numerator with no rational roots cannot become poles
            raise ValueError(
                f"cannot divide by {other!r}: its numerator {other.num!r} "
                f"does not split within ROOT_BOUND = {ROOT_BOUND}"
            ) from None
        return self * reciprocal

    def __rtruediv__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) / self

    def value_at(self, x: Scalar) -> tuple[Scalar, Scalar]:
        """The value at x as an unreduced pair (num, den), den > 0: the
        numerator's pair times rq**e / (x*rq - rp)**e for each pole r = rp/rq
        (``_value_pair``). Raises ``PoleError`` at a pole."""
        return _value_pair(self.num.nums[::-1], self.num.den, self.poles, x)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x: ``value_at``'s pair, reduced once.
        Raises ``PoleError`` at a pole."""
        return Fraction(*self.value_at(x))

    def compose_linear(self, a: int, b: int) -> RationalFunction:
        """self(a*n + b). A pole r moves to (r - b)/a, since
        a*n + b - r == a * (n - (r - b)/a); a = 0 folds to the value at b."""
        if a == 0:
            return RationalFunction(self.evaluate(b))
        num = self.num.compose_linear(a, b)
        if self.poles:
            num = num / a ** sum(e for _, e in self.poles)
        return RationalFunction(num, [((r - b) / a, e) for r, e in self.poles])

    def __repr__(self) -> str:
        from .render import rational_function_text

        return f"RationalFunction({rational_function_text(self)!r})"


def _as_rf(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(value)


# One offset_sum_g(80, -10, 10n+10) build asks 166 times, for 82 distinct
# exponents up to 80 + 10 + 1, and rows built in one process ask again for
# the same exponents; the polynomials are never mutated.
_FAULHABER_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_FAULHABER_CACHE_SIZE)
def faulhaber_poly(p: int) -> Polynomial:
    """The power-sum polynomial: the unique q with q(n) = 1**p + ... + n**p.

    Built from Bernoulli numbers as
    q(n) = 1/(p+1) * sum_{k=1}^{p+1} C(p+1, k) B+_{p-k+1} n**k,
    which has degree p+1, leading coefficient 1/(p+1) and zero constant
    term.
    """
    if p < 0:
        raise ValueError(f"faulhaber_poly: p must be nonnegative, got {p}")
    coeffs = [binomial(p + 1, k) * bernoulli_plus(p - k + 1) for k in range(1, p + 2)]
    return Polynomial.of([0, *coeffs]) / (p + 1)
