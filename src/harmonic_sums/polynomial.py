"""Dense univariate polynomials and reduced rational functions over Fraction.

The variable is always the summation limit n. Polynomials are stored as a
tuple of coefficients indexed by degree with no trailing zeros, so equal
polynomials are structurally equal. Rational functions are kept fully
reduced with a monic denominator for the same reason.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .exact import bernoulli_plus, binomial

__all__ = [
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "faulhaber_poly",
]

Scalar = Union[int, Fraction]


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

    def divmod(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Euclidean division over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = self.degree, other.degree
        if dd < dv:
            return Polynomial(), self
        quot = [Fraction(0)] * (dd - dv + 1)
        lead = other.leading
        for shift in range(dd - dv, -1, -1):
            c = rem[shift + dv] / lead
            quot[shift] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[shift + j] -= c * oc
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other: Polynomial) -> Polynomial:
        return self.divmod(other)[1]

    def exact_div(self, other: Polynomial) -> Polynomial:
        quot, rem = self.divmod(other)
        if not rem.is_zero:
            raise ValueError("exact_div: division is not exact")
        return quot

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def _integer_form(self) -> tuple[list[int], int]:
        """Integer numerators over the common denominator D: coeffs[i] == nums[i] / D."""
        den = 1  # a running lcm; lcm(*genexpr) first unpacks every denominator
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

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


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclidean algorithm)."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


class RationalFunction:
    """Quotient of two polynomials in n, in canonical form.

    Canonical means: denominator nonzero and monic, gcd(num, den) = 1,
    and zero is 0/1. Equality is structural equality of the pair.
    """

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: Polynomial | Scalar,
        den: Polynomial | Scalar = 1,
    ) -> None:
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Polynomial(), Polynomial((1,))
        elif den.degree == 0:  # coprime already: only the scale needs fixing
            lead = den.coeffs[0]
            if lead != 1:
                num, den = num / lead, Polynomial((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        self.num = num
        self.den = den

    @property
    def is_polynomial(self) -> bool:
        return self.den == Polynomial((1,))

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
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        if self.den == other.den:  # mostly both 1: no cross products
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        return self + (-_as_rf(other))

    def __rsub__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) + (-self)

    def __mul__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Polynomial | Scalar) -> RationalFunction:
        return _as_rf(other) / self

    def evaluate(self, x: Scalar) -> Fraction:
        d = self.den.evaluate(x)
        if not d:
            raise PoleError(f"pole at n = {x}")
        return self.num.evaluate(x) / d

    def compose_linear(self, a: int, b: int) -> RationalFunction:
        num = self.num.compose_linear(a, b)
        den = self.den.compose_linear(a, b)
        if den.is_zero:
            raise PoleError(f"substitution n -> {a}n+{b} hits a pole")
        return RationalFunction(num, den)

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
