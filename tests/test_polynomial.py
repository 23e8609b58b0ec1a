"""Polynomial ring, rational functions, and the power-sum polynomial."""

import random
from fractions import Fraction

import pytest

from harmonic_sums import PoleError, Polynomial, RationalFunction, faulhaber_poly

N = Polynomial.variable()


def direct_power_sum(p: int, n: int) -> Fraction:
    """Brute-force oracle for sum_{k=1}^n k**p."""
    return Fraction(sum(k**p for k in range(1, n + 1)))


class TestPolynomialArithmetic:
    def test_product(self):
        assert (N + 1) * (N - 1) == N**2 - 1

    def test_zero_annihilates(self):
        zero = Polynomial()
        assert zero * (N**3 + 2) == zero
        assert zero.degree == -1

    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])

    def test_constructor_takes_integer_numerators_only(self):
        with pytest.raises(TypeError):
            Polynomial([Fraction(1, 2)])
        assert Polynomial([1, 4], 6) == Polynomial.of([Fraction(1, 6), Fraction(2, 3)])

    def test_scalar_mixing(self):
        assert 2 * N + Fraction(1, 2) == Polynomial.of([Fraction(1, 2), 2])

    def test_reflected_subtraction_and_scalar_equality(self):
        assert 3 - N == Polynomial([3, -1])
        assert Fraction(1, 2) - N == Polynomial([1, -2], 2)
        assert Polynomial.constant(3) == 3
        assert Polynomial.constant(Fraction(1, 2)) == Fraction(1, 2)
        assert Polynomial.constant(3) != 4

    def test_leading_coefficient(self):
        assert Polynomial([1, 4], 6).leading == Fraction(2, 3)
        with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
            Polynomial().leading

    def test_negative_power_refused(self):
        assert N**0 == 1
        with pytest.raises(ValueError, match="^negative polynomial power$"):
            N**-1

    def test_foreign_operand_is_not_implemented(self):
        assert N.__eq__("n") is NotImplemented
        assert N.__mul__("n") is NotImplemented
        assert N.__truediv__("n") is NotImplemented
        assert (N == "n") is False
        with pytest.raises(TypeError):
            N * "n"
        with pytest.raises(TypeError):
            N / "n"

    def test_quotient_reduces_to_polynomial(self):
        rf = (N**2 - 1) / (N + 1)
        assert isinstance(rf, RationalFunction)
        assert rf.is_polynomial
        assert rf.as_polynomial() == N - 1

    @pytest.mark.parametrize(
        "poly,root,expected",
        [
            (N**2 - 1, Fraction(1), N + 1),
            (2 * N - 1, Fraction(1, 2), Polynomial([2])),
            ((3 * N + 2) ** 2 * (N - 5), Fraction(-2, 3), (3 * N + 2) * (N - 5) * 3),
            (N**2 + 1, Fraction(-1), None),
            (6 * N - 4, Fraction(1, 3), None),
            (Polynomial([7]), Fraction(0), None),
        ],
    )
    def test_divide_linear(self, poly, root, expected):
        assert poly.divide_linear(root) == expected

    @pytest.mark.parametrize(
        "poly,a,b,expected",
        [
            (N**2, 1, 1, N**2 + 2 * N + 1),
            (N, 2, 0, 2 * N),
            (N**2 + N, 0, 3, Polynomial([12])),
        ],
    )
    def test_compose_linear(self, poly, a, b, expected):
        assert poly.compose_linear(a, b) == expected

    def test_compose_linear_composes(self):
        rng = random.Random(7)
        for _ in range(50):
            poly = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
            a1, b1 = rng.randint(0, 3), rng.randint(-3, 3)
            a2, b2 = rng.randint(0, 3), rng.randint(-3, 3)
            lhs = poly.compose_linear(a1, b1).compose_linear(a2, b2)
            rhs = poly.compose_linear(a1 * a2, a1 * b2 + b1)
            assert lhs == rhs

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_compose_linear_takes_integers_only(self, a):
        # a = 0 folds to the constant p(b); at b = 1/2 that is 11/4, never 11
        with pytest.raises(TypeError):
            Polynomial([1, 2, 3]).compose_linear(a, Fraction(1, 2))

    @pytest.mark.parametrize(
        "poly,x,expected",
        [
            (N**2 + 2 * N + 1, 3, 16),
            (N**3, Fraction(1, 2), Fraction(1, 8)),
        ],
    )
    def test_evaluate(self, poly, x, expected):
        assert poly.evaluate(x) == expected

    @pytest.mark.parametrize(
        "x,pair",
        [
            (2, (1 + 2 * 2 + 3 * 4, 4)),
            (-3, (1 - 2 * 3 + 3 * 9, 4)),
            (Fraction(2, 3), (Fraction(11, 3), 4)),  # 1 + 2(2/3) + 3(4/9): the value 11/12
            (Fraction(-1, 2), (Fraction(3, 4), 4)),  # 1 - 2(1/2) + 3(1/4): the value 3/16
        ],
    )
    def test_value_at_is_the_documented_pair(self, x, pair):
        # (sum nums[i] * x**i, den), unreduced: an integer numerator at an
        # integer x, a Fraction at any other rational
        num, den = Polynomial([1, 2, 3], 4).value_at(x)
        assert (num, den) == pair
        assert type(num) is type(x) and type(den) is int


class TestRationalFunction:
    def test_evaluate_and_pole(self):
        rf = 1 / (N + 1)
        assert rf.evaluate(0) == 1
        with pytest.raises(PoleError):
            rf.evaluate(-1)

    @pytest.mark.parametrize(
        "x,pair",
        [
            (4, (9 * 2**3, 3**3)),
            (1, (-3 * 2**3, 3**3)),
            # 1 + 2/3 times 2**3 over (2/3 - 5)**3: the value -360/2197
            (Fraction(1, 3), (Fraction(-5, 3) * 2**3, Fraction(13, 3) ** 3)),
        ],
    )
    def test_value_at_folds_each_pole_into_the_pair(self, x, pair):
        # the pole r = rp/rq puts rq**e above and (x*rq - rp)**e below; at 1
        # and 1/3 that gap is negative, to an odd power, and the pair's signs
        # are flipped so that den > 0
        rf = RationalFunction(Polynomial([1, 2]), [(Fraction(5, 2), 3)])
        assert rf.value_at(x) == pair
        with pytest.raises(PoleError, match=r"^pole at n = 5/2$"):
            rf.value_at(Fraction(5, 2))

    def test_expanded_denominator_is_not_a_pole_list(self):
        # the constructor takes poles; an expanded denominator enters by division
        with pytest.raises(TypeError):
            RationalFunction(1, N + 1)
        with pytest.raises(TypeError):
            RationalFunction(N, 2)
        assert RationalFunction(1, [(Fraction(-1), 1)]) == 1 / (N + 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            N / Polynomial()
        with pytest.raises(ZeroDivisionError):
            (1 / N) / RationalFunction(0)

    def test_canonical_form(self):
        rf = (2 * N + 2) / (4 * N)
        assert rf.den.leading == 1
        assert rf == (N + 1) / (2 * N)

    def test_canonicalization_idempotent(self):
        rf = ((N + 1) * (N - 2)) / ((N - 2) * N**2)
        again = rf.num / rf.den
        assert rf == again
        assert rf.num == N + 1

    def test_scale_invariance(self):
        # a denominator must split over small rational roots, so the
        # denominator and the common factor are drawn as products of
        # linear factors q*n - p
        rng = random.Random(11)

        def split_polynomial() -> Polynomial:
            poly = Polynomial.constant(rng.choice([1, -2, 3, Fraction(-1, 2)]))
            for _ in range(rng.randint(0, 3)):
                poly = poly * Polynomial.linear(rng.randint(1, 5), rng.randint(-5, 5))
            return poly

        for _ in range(60):
            num = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            den, scale = split_polynomial(), split_polynomial()
            assert (num * scale) / (den * scale) == num / den

    def test_poles_are_sorted_and_reduced(self):
        rf = ((N - 2) * (N + 4)) / ((N - 2) ** 2 * (2 * N + 1) * 3)
        assert rf.poles == ((Fraction(-1, 2), 1), (Fraction(2), 1))
        assert rf.num == Fraction(1, 6) * (N + 4)
        assert rf.den == (N - 2) * (N + Fraction(1, 2))

    @pytest.mark.parametrize("den", [N**2 + 1, N + 1001, (N - 1) * (N**2 - 2)])
    def test_denominator_that_does_not_split_is_refused(self, den):
        with pytest.raises(ValueError, match="does not split"):
            1 / den

    def test_division_by_a_numerator_that_does_not_split_names_the_divisor(self):
        divisor = RationalFunction(N**2 + 1)
        with pytest.raises(ValueError) as info:
            (N + 1) / (N + 2) / divisor
        message = str(info.value)
        assert message.startswith(f"cannot divide by {divisor!r}: its numerator {divisor.num!r}")
        assert "does not split" in message and "denominator" not in message

    def test_division_by_a_rational_function(self):
        quotient = ((N + 1) / (N + 2)) / ((N + 3) / (N + 4))
        assert quotient == ((N + 1) * (N + 4)) / ((N + 2) * (N + 3))
        assert quotient.poles == ((Fraction(-3), 1), (Fraction(-2), 1))

    def test_root_at_the_bound_is_found(self):
        rf = 1 / (N + 1000)
        assert rf.poles == ((Fraction(-1000), 1),)
        assert (1 / (1000 * N - 1)).poles == ((Fraction(1, 1000), 1),)

    def test_computed_poles_are_not_bounded(self):
        # poles the algebra creates are never searched for, however far out
        rf = RationalFunction(1, [(Fraction(-5001), 2)])
        assert rf.evaluate(-5000) == 1
        assert (rf * (N + 5001)).poles == ((Fraction(-5001), 1),)
        assert rf.compose_linear(2, 1).poles == ((Fraction(-2501), 2),)
        assert rf.compose_linear(0, 3) == RationalFunction(Fraction(1, 5004**2))
        with pytest.raises(PoleError):
            rf.compose_linear(0, -5001)

    def test_structural_equality_matches_pointwise(self):
        # equal canonical forms agree everywhere; unequal ones differ somewhere
        rng = random.Random(13)
        a = ((N + 1) * (N + 3)) / ((N + 2) * (N + 3))
        b = (N + 1) / (N + 2)
        assert a == b
        c = (N + 1) / (N + 3)
        assert a != c
        points = []
        while len(points) < 20:
            x = rng.randint(0, 200)
            if x not in points:
                points.append(x)
        assert all(a.evaluate(x) == b.evaluate(x) for x in points)
        assert any(a.evaluate(x) != c.evaluate(x) for x in points)

    def test_field_arithmetic(self):
        a = 1 / (N + 1)
        b = 1 / (N + 2)
        total = a + b
        assert total == (2 * N + 3) / ((N + 1) * (N + 2))
        assert a * b == 1 / ((N + 1) * (N + 2))
        assert (a - a).is_zero
        assert a / b == (N + 2) / (N + 1)

    def test_reflected_operators_and_polynomial_equality(self):
        rf = 1 / (N + 1)
        assert Fraction(1, 2) - rf == (N - 1) / (2 * N + 2)
        assert (Fraction(1, 2) - rf).evaluate(3) == Fraction(1, 4)
        assert 1 / rf == N + 1
        assert isinstance(1 / rf, RationalFunction)
        assert RationalFunction(N) == N
        assert RationalFunction(Fraction(2, 3)) == Fraction(2, 3)
        assert rf != N + 1

    def test_foreign_operand_is_not_implemented(self):
        rf = 1 / (N + 1)
        assert rf.__eq__("1/(n+1)") is NotImplemented
        assert (rf == "1/(n+1)") is False

    def test_hash_follows_structural_equality(self):
        a = (N**2 - 1) / (N + 1)
        b = RationalFunction(N - 1)
        c = (N + 2) / ((N + 1) * (N + 2))
        assert hash(a) == hash(b)
        assert hash(c) == hash(1 / (N + 1))
        assert len({a, b, c, 1 / (N + 1)}) == 2

    def test_as_polynomial_refuses_a_pole(self):
        with pytest.raises(ValueError, match="is not a polynomial$"):
            (1 / (N + 1)).as_polynomial()


class TestConstantDenominator:
    """A constant denominator is divided into the numerator and leaves no pole."""

    NUM = Polynomial.of([Fraction(1, 2), -3, 0, 7])

    @pytest.mark.parametrize("c", [1, -1, 3, Fraction(-2, 3)])
    def test_matches_scaled_numerator(self, c):
        for rf in (RationalFunction(self.NUM / c), self.NUM / Polynomial.constant(c)):
            assert rf == RationalFunction(self.NUM / c)
            assert rf.num == self.NUM / c
            assert rf.den == Polynomial((1,))
            assert rf.den.coeffs == (Fraction(1),)
            assert type(rf.den.coeffs[0]) is Fraction

    @pytest.mark.parametrize("c", [1, -1, 3, Fraction(-2, 3)])
    def test_zero_numerator_is_zero_over_one(self, c):
        rf = RationalFunction(Polynomial() / c)
        assert rf.num == Polynomial()
        assert rf.den.coeffs == (Fraction(1),)

    def test_zero_denominator_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(self.NUM / 0)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(self.NUM / Fraction(0))


class TestFaulhaber:
    def test_smallest_cases(self):
        assert faulhaber_poly(0) == N
        assert faulhaber_poly(1) == Fraction(1, 2) * N * (N + 1)
        assert faulhaber_poly(2) == Fraction(1, 6) * N * (N + 1) * (2 * N + 1)

    def test_p5(self):
        expected = Fraction(1, 12) * N**2 * (N + 1) ** 2 * (2 * N**2 + 2 * N - 1)
        assert faulhaber_poly(5) == expected

    def test_spot_value(self):
        # 1 + 8 + 27 + 64
        assert faulhaber_poly(3).evaluate(4) == 100

    def test_matches_direct_sums(self):
        for p in range(9):
            poly = faulhaber_poly(p)
            for n in range(61):
                assert poly.evaluate(n) == direct_power_sum(p, n), (p, n)

    def test_shape_invariants(self):
        for p in range(9):
            poly = faulhaber_poly(p)
            assert poly.degree == p + 1
            assert poly.leading == Fraction(1, p + 1)
            assert poly.evaluate(0) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            faulhaber_poly(-1)
