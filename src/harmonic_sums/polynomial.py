"""Dense univariate polynomials and reduced rational functions over Fraction.

The variable is always the summation limit n. Polynomials are stored as a
tuple of coefficients indexed by degree with no trailing zeros, so equal
polynomials are structurally equal. Rational functions keep their
denominator factored as poles and are reduced for the same reason.
"""

from __future__ import annotations

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

# The package's only root search, which splits denominators given expanded
# and factors for display, finds the zeros p/q with |p|, q <= ROOT_BOUND.
ROOT_BOUND = 1000


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Polynomial in n with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of n**i; the zero polynomial stores
    an empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return cls((value,))

    @classmethod
    def variable(cls) -> Polynomial:
        """The polynomial n itself."""
        return cls((0, 1))

    @classmethod
    def linear(cls, a: Scalar, b: Scalar) -> Polynomial:
        """The polynomial a*n + b."""
        return cls((b, a))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Polynomial((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return Polynomial(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> Polynomial:
        return _as_poly(other) + (-self)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        # integer convolution of the numerators, one division per coefficient
        xs, dx = self._integer_form()
        ys, dy = other._integer_form()
        out = [0] * (len(xs) + len(ys) - 1)
        for i, ci in enumerate(xs):
            if ci:
                for j, cj in enumerate(ys):
                    out[i + j] += ci * cj
        den = dx * dy
        return Polynomial(Fraction(c, den) for c in out)

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
            return Polynomial(c / other for c in self.coeffs)
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    def _integer_form(self) -> tuple[list[int], int]:
        """Integer numerators over the common denominator D: coeffs[i] == nums[i] / D."""
        den = 1  # a running lcm; lcm(*genexpr) first unpacks every denominator
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def divide_linear(self, root: Fraction) -> Polynomial | None:
        """self / (n - root) if root is a zero of the nonzero self, else None.
        Integer synthetic division by q*n - p for root = p/q: by Gauss's lemma an
        exact quotient is integral, so an inexact step shows root is no zero."""
        nums, den = self._integer_form()
        p, q = root.numerator, root.denominator
        quot, carry = [], 0
        for c in reversed(nums[1:]):
            carry, rem = divmod(c + p * carry, q)
            if rem:
                return None
            quot.append(carry)
        if nums[0] + p * carry:
            return None
        return Polynomial(Fraction(q * c, den) for c in reversed(quot))

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x = p/q by integer Horner with one final division.

        Accumulates sum nums[i] * p**i * q**(deg-i), then divides by D * q**deg.
        """
        if not self.coeffs:
            return Fraction(0)
        x = _as_fraction(x)
        p, q = x.numerator, x.denominator
        nums, den = self._integer_form()
        acc, q_power = nums[-1], 1
        for c in reversed(nums[:-1]):
            q_power *= q
            acc = acc * p + c * q_power
        return Fraction(acc, den * q_power)

    def compose_linear(self, a: int, b: int) -> Polynomial:
        """The polynomial p(a*n + b), expanded and canonical.

        An integer Taylor shift (nums[j] += b * nums[j+1]) gives p(n + b);
        coefficient j is then scaled by a**j from a running product, so
        a = 0 yields the constant p(b) without evaluating 0**0.
        """
        nums, den = self._integer_form()
        deg = len(nums) - 1
        if b:
            for i in range(deg):
                for j in range(deg - 1, i - 1, -1):
                    nums[j] += b * nums[j + 1]
        out = []
        a_power = 1
        for c in nums:
            out.append(Fraction(c * a_power, den))
            a_power *= a
        return Polynomial(out)

    def __repr__(self) -> str:
        from .render import polynomial_text

        return f"Polynomial({polynomial_text(self)!r})"


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial((value,))


def linear_factors(poly: Polynomial) -> tuple[list[Pole], Polynomial]:
    """The zeros r = p/q of a nonzero poly with |p|, q <= ROOT_BOUND, each with
    its multiplicity e, and the cofactor c: poly == c * prod (n - r)**e."""
    roots: list[Pole] = []
    while poly.degree >= 1 and (root := _rational_root(poly)) is not None:
        count = 0
        while (quot := poly.divide_linear(root)) is not None:
            poly, count = quot, count + 1
        roots.append((root, count))
    return roots, poly


def _rational_root(poly: Polynomial) -> Fraction | None:
    """A zero p/q of poly with |p|, q <= ROOT_BOUND, or None. By Gauss's lemma
    q*n - p then divides the primitive integer form P, so q - p divides P(1)
    and q + p divides P(-1): integer tests that discard most candidates."""
    if not poly.coeffs[0]:
        return Fraction(0)
    nums, _ = poly._integer_form()
    content = gcd(*nums)
    nums = [c // content for c in nums]
    at_one, at_minus_one = sum(nums), sum(nums[::2]) - sum(nums[1::2])
    for p in _divisors(nums[0]):
        for q in _divisors(nums[-1]):
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if (
                    _divides(q - num, at_one)
                    and _divides(q + num, at_minus_one)
                    and not poly.evaluate(Fraction(num, q))
                ):
                    return Fraction(num, q)
    return None


def _divides(d: int, n: int) -> bool:
    return n % d == 0 if d else n == 0


def _divisors(n: int) -> list[int]:
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

    Canonical means the numerator vanishes at no pole (zero has none), so
    equality is structural. The algebra computes the poles it creates; only
    a denominator given expanded, as ``den`` here, goes through the root
    search, and one that does not split within ROOT_BOUND raises ValueError.
    """

    __slots__ = ("num", "poles")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1) -> None:
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        roots, scale = linear_factors(den)
        if scale.degree > 0:
            raise ValueError(f"denominator {den!r} does not split within ROOT_BOUND = {ROOT_BOUND}")
        num = _as_poly(num)
        if scale.coeffs[0] != 1:
            num = num / scale.coeffs[0]
        self.num, self.poles = _cancel(num, roots)

    @classmethod
    def from_poles(cls, num: Polynomial | Scalar, poles: Iterable[Pole]) -> RationalFunction:
        """num / prod (n - r)**e, for distinct roots r and exponents e >= 1."""
        rf = cls.__new__(cls)
        rf.num, rf.poles = _cancel(_as_poly(num), poles)
        return rf

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
            return RationalFunction.from_poles(self.num + other.num, self.poles)
        mine, theirs = dict(self.poles), dict(other.poles)
        poles = {r: max(mine.get(r, 0), theirs.get(r, 0)) for r in mine | theirs}
        num = self.num * _expand((r, e - mine.get(r, 0)) for r, e in poles.items())
        num += other.num * _expand((r, e - theirs.get(r, 0)) for r, e in poles.items())
        return RationalFunction.from_poles(num, poles.items())

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction.from_poles(-self.num, self.poles)

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return self + (-_as_rf(other))

    def __rsub__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) + (-self)

    def __mul__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        poles = dict(self.poles)
        for r, e in other.poles:
            poles[r] = poles.get(r, 0) + e
        return RationalFunction.from_poles(self.num * other.num, poles.items())

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) / self

    def evaluate(self, x: Scalar) -> Fraction:
        value = self.num.evaluate(x)
        for r, e in self.poles:
            if x == r:
                raise PoleError(f"pole at n = {x}")
            value /= (x - r) ** e
        return value

    def compose_linear(self, a: int, b: int) -> RationalFunction:
        """self(a*n + b). A pole r moves to (r - b)/a, since
        a*n + b - r == a * (n - (r - b)/a); a = 0 folds to the value at b."""
        if a == 0:
            return RationalFunction(self.evaluate(b))
        num = self.num.compose_linear(a, b)
        if self.poles:
            num = num / a ** sum(e for _, e in self.poles)
        return RationalFunction.from_poles(num, [((r - b) / a, e) for r, e in self.poles])

    def __repr__(self) -> str:
        from .render import rational_function_text

        return f"RationalFunction({rational_function_text(self)!r})"


def _as_rf(value: RationalFunction | Polynomial | Scalar) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(value)


def faulhaber_poly(p: int) -> Polynomial:
    """The power-sum polynomial: the unique q with q(n) = 1**p + ... + n**p.

    Built from Bernoulli numbers as
    q(n) = 1/(p+1) * sum_{k=1}^{p+1} C(p+1, k) B+_{p-k+1} n**k,
    which has degree p+1, leading coefficient 1/(p+1) and zero constant
    term.
    """
    if p < 0:
        raise ValueError(f"faulhaber_poly: p must be nonnegative, got {p}")
    coeffs = [Fraction(0)] * (p + 2)
    for k in range(1, p + 2):
        coeffs[k] = Fraction(binomial(p + 1, k), p + 1) * bernoulli_plus(p - k + 1)
    return Polynomial(coeffs)
