"""Randomized property suites over the closed-form algebra.

Each of the four core properties (basis-shift value preservation,
substitution/evaluation commutation, canonicalization idempotence, and
the offset-splitting law for direct harmonic numbers) runs on at least
200 generated instances. The integer accumulation of ``lhs_direct``, of
``evaluate_cf`` and of its sweep over a range of n, the integer
polynomial kernels (sum, negation, scalar product and quotient, product,
division by a linear factor, linear composition, evaluation), the pole
arithmetic of rational functions and their integer evaluation are checked
against Fraction reference implementations kept in this file, and every
kernel result is checked for the canonical integer layout. The one-pass root search is checked against
the search that restarts after every root, also kept here.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from harmonic_sums import (
    ClosedForm,
    HarmonicSymbol,
    LinearArg,
    PoleError,
    Polynomial,
    RationalFunction,
    build_closed_form,
    evaluate_cf,
    harmonic_direct,
    lhs_direct,
    parse_closed_form,
    render,
    shift_basis,
    substitute_n,
)
from harmonic_sums.closed_form import _evaluate_pairs
from harmonic_sums.polynomial import ROOT_BOUND, linear_factors
from harmonic_sums.render import factor_for_display

MANY = settings(max_examples=200, deadline=None)


def _fraction(d, k, bound=20):
    """The k-th of the 2 * bound * d + 1 fractions j/d in [-bound, bound], in the
    order 0, 1/d, -1/d, 2/d, -2/d, ..., so that the zero draw is 0 and shrinking
    moves toward it."""
    k %= 2 * bound * d + 1
    return Fraction((k + 1) // 2 if k % 2 else -(k // 2), d)


# The values of st.fractions(-20, 20, max_denominator=12), drawn without its
# flatmap, which builds a new numerator strategy on every draw; the boundaries
# it favours (0, +-20, denominator 12) are also @examples of the tests that
# draw fractions directly.
fractions = st.builds(_fraction, st.integers(1, 12), st.integers(0, 480))

polynomials = st.lists(fractions, min_size=0, max_size=4).map(Polynomial.of)

# Denominators (n + c) with c >= 1 have no roots at integer n >= 0, so
# every generated coefficient is evaluable on the whole test grid.
safe_denominators = st.one_of(
    st.just(Polynomial([1])),
    st.integers(min_value=1, max_value=5).map(lambda c: Polynomial([c, 1])),
)

coefficients = st.builds(
    lambda num, den: num / den, polynomials, safe_denominators
)

symbols = st.builds(
    HarmonicSymbol,
    st.builds(
        LinearArg, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    st.integers(min_value=1, max_value=4),
)

closed_forms = st.builds(
    ClosedForm,
    coefficients,
    st.dictionaries(symbols, coefficients, min_size=0, max_size=4),
)


@MANY
@given(closed_forms, st.sets(symbols, max_size=3), st.integers(min_value=0, max_value=12))
def test_shift_basis_preserves_evaluation(cf, shifted_symbols, n):
    targets = frozenset(sym.arg.shifted(1) for sym in shifted_symbols)
    shifted = shift_basis(cf, targets)
    assert evaluate_cf(shifted, n) == evaluate_cf(cf, n)
    assert shift_basis(shifted, targets) == shifted


@MANY
@given(
    closed_forms,
    st.builds(
        LinearArg, st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=3)
    ),
    st.integers(min_value=0, max_value=10),
)
def test_substitution_commutes_with_evaluation(cf, target, n):
    substituted = substitute_n(cf, target)
    assert evaluate_cf(substituted, n) == evaluate_cf(cf, target.at(n))


@MANY
@given(closed_forms)
def test_canonicalization_is_idempotent(cf):
    assert ClosedForm(cf.constant, cf.terms) == cf
    assert ClosedForm(cf.constant, dict(cf.terms)) == cf
    for _, coeff in cf.terms:
        assert coeff.num / coeff.den == coeff
        assert coeff.den.leading == 1


@MANY
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=-3, max_value=5),
)
def test_offset_harmonic_splits_into_difference(c, n, m):
    assert harmonic_direct(c, n, m) == harmonic_direct(0, c + n, m) - harmonic_direct(
        0, c, m
    )


def reference_lhs_direct(family, p, m, s, n):
    """sum_k k**p H_j^(m) with j = s+k (F) or s+n-k (G), one Fraction addition
    per summand, over harmonic numbers from a running Fraction sum."""
    base = s.at(n)
    h = [Fraction(0)]
    for i in range(1, base + n + 1):
        h.append(h[-1] + Fraction(i) ** -m)
    total = Fraction(0)
    for k in range(n + 1):
        total += k**p * h[base + k if family == "F" else base + n - k]  # int 0**0 == 1
    return total


@MANY
@given(
    st.sampled_from("FG"),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=-4, max_value=5),
    st.builds(
        LinearArg, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    st.integers(min_value=0, max_value=60),
)
@example("F", 0, 2, LinearArg(0, 3), 0)  # the lone summand is 0**0 * H_3^(2)
@example("G", 0, 1, LinearArg(1, 2), 0)
@example("F", 3, 0, LinearArg(2, 1), 10)  # m = 0: H_j^(0) = j
@example("G", 5, 0, LinearArg(0, 0), 7)
# each path of the exchanged summation: m < 0 (integer summands), n = 0
# and s(n) = 0 (H_0 = 0) with m > 0, and constant offsets (a = 0) with b
# beyond the drawn range
@example("F", 2, -3, LinearArg(1, 2), 9)
@example("G", 3, -1, LinearArg(0, 4), 11)
@example("G", 0, 3, LinearArg(2, 5), 0)
@example("F", 0, 1, LinearArg(0, 0), 0)
@example("G", 1, 3, LinearArg(3, 0), 0)
@example("F", 2, 2, LinearArg(0, 0), 9)
@example("G", 4, 1, LinearArg(0, 0), 12)
@example("F", 2, 3, LinearArg(0, 6), 12)
@example("G", 0, 4, LinearArg(0, 7), 10)
def test_lhs_direct_matches_fraction_reference(family, p, m, s, n):
    assert lhs_direct(family, p, m, s, n) == reference_lhs_direct(family, p, m, s, n)


@MANY
@given(closed_forms, closed_forms)
def test_addition_is_commutative(x, y):
    assert x + y == y + x


@MANY
@given(closed_forms, closed_forms, closed_forms)
def test_addition_is_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@MANY
@given(closed_forms, closed_forms, coefficients)
def test_scaling_distributes_over_addition(x, y, factor):
    assert (x + y).scale(factor) == x.scale(factor) + y.scale(factor)


@MANY
@given(closed_forms)
def test_subtraction_inverts_addition(x):
    assert (x - x).is_zero
    assert x + ClosedForm.zero() == x


@MANY
@given(closed_forms)
def test_json_round_trip(cf):
    assert parse_closed_form(render(cf, "json")) == cf


# (p, q) for a linear factor q*n - p
small_roots = st.tuples(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=50)
)


@MANY
@given(st.lists(small_roots, max_size=5), polynomials.filter(bool), st.booleans())
def test_display_factoring_is_exact_and_finds_small_roots(roots, remainder, past_bound):
    poly = remainder
    for p, q in roots:
        poly = poly * Polynomial.linear(q, -p)
    far = Fraction(1, ROOT_BOUND + 1)  # a zero just past the search bound
    if past_bound:
        poly = poly * Polynomial.linear(far.denominator, -far.numerator) ** 2
    scalar, factors = factor_for_display(poly)

    product = Polynomial.constant(scalar)
    for nums, mult in factors:
        product = product * Polynomial(nums) ** mult
    assert product == poly
    assert all(nums[-1] > 0 for nums, _ in factors)
    assert (scalar < 0) == (poly.leading < 0)
    assert all(all(isinstance(c, int) for c in nums) and gcd(*nums) == 1 for nums, _ in factors)
    keys = [(len(nums) - 1, nums[-1], nums) for nums, _ in factors]  # degree, leading, coefficients
    assert keys == sorted(keys)

    found = {Polynomial(nums): mult for nums, mult in factors}
    drawn = Counter(Polynomial.linear(q // gcd(p, q), -p // gcd(p, q)) for p, q in roots)
    for factor, mult in drawn.items():
        assert found.get(factor, 0) >= mult

    if past_bound:
        # the squared zero past the bound stays in the remainder: one factor
        # of degree >= 2 and multiplicity 1 holds it, never a linear factor
        holding = [
            (len(nums) > 2, mult) for nums, mult in factors if not Polynomial(nums).evaluate(far)
        ]
        assert holding == [(True, 1)]


def reference_linear_factors(poly):
    """The root search that restarts on each cofactor: find the first zero in
    the scan order (zero, then p ascending, q ascending, +p before -p), divide
    it out as often as it divides, and search the cofactor from the start."""

    def divisors(n):
        return [d for d in range(1, min(abs(n), ROOT_BOUND) + 1) if n % d == 0]

    def divides(d, n):
        return n % d == 0 if d else n == 0

    def first_root(poly):
        if not poly.nums[0]:
            return Fraction(0)
        content = gcd(*poly.nums)
        nums = [c // content for c in poly.nums]
        at_one, at_minus_one = sum(nums), sum(nums[::2]) - sum(nums[1::2])
        for p in divisors(nums[0]):
            for q in divisors(nums[-1]):
                if gcd(p, q) != 1:
                    continue
                for num in (p, -p):
                    if (
                        divides(q - num, at_one)
                        and divides(q + num, at_minus_one)
                        and not poly.evaluate(Fraction(num, q))
                    ):
                        return Fraction(num, q)
        return None

    roots = []
    while poly.degree >= 1 and (root := first_root(poly)) is not None:
        count = 0
        while (quot := poly.divide_linear(root)) is not None:
            poly, count = quot, count + 1
        roots.append((root, count))
    return roots, poly


# (p, q, e) for the factor (q*n - p)**e, roots up to just past ROOT_BOUND
bounded_powers = st.tuples(
    st.integers(min_value=-ROOT_BOUND - 1, max_value=ROOT_BOUND + 1),
    st.integers(min_value=1, max_value=ROOT_BOUND + 1),
    st.integers(min_value=1, max_value=3),
)


@MANY
@given(st.lists(bounded_powers, max_size=4), polynomials.filter(bool))
@example([(-1000, 1, 1), (1, 1000, 2), (1000, 999, 3)], Polynomial([1]))
@example([(-1000, 1, 2), (1, 1000, 1), (1000, 999, 1)], Polynomial([3, 0, 1]))
@example([(1001, 1, 1), (1, 1001, 2), (2, 1, 1)], Polynomial([1]))
@example([(0, 1, 2), (1, 1, 3), (-1, 1, 1)], Polynomial([1]))
def test_linear_factors_matches_restarting_search(powers, remainder):
    poly = remainder
    for p, q, e in powers:
        poly = poly * Polynomial.linear(q, -p) ** e
    roots, cofactor = linear_factors(poly)
    assert (roots, cofactor) == reference_linear_factors(poly)

    found = dict(roots)
    for p, q, e in powers:
        root = Fraction(p, q)
        if abs(root.numerator) <= ROOT_BOUND and root.denominator <= ROOT_BOUND:
            assert found.get(root, 0) >= e, root
        else:  # past the bound: the factor stays in the cofactor
            assert root not in found and not cofactor.evaluate(root), root


# ---------------------------------------------------------------------------
# integer kernels against Fraction references


def reference_product(xs, ys):
    """Coefficient list of the product, by Fraction convolution."""
    if not xs or not ys:
        return []
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def reference_compose_linear(poly, a, b):
    """p(a*n + b) by Horner over Fraction coefficient lists."""
    acc = []
    for c in reversed(poly.coeffs):
        acc = reference_product(acc, [Fraction(b), Fraction(a)]) or [Fraction(0)]
        acc[0] += c
    return Polynomial.of(acc)


def reference_evaluate(poly, x):
    """Fraction Horner evaluation."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def reference_sum(xs, ys):
    """Coefficient list of the sum, padded with Fraction zeros."""
    n = max(len(xs), len(ys))
    xs, ys = list(xs) + [Fraction(0)] * (n - len(xs)), list(ys) + [Fraction(0)] * (n - len(ys))
    return [x + y for x, y in zip(xs, ys)]


def reference_divide_linear(xs, root):
    """(quotient, remainder) of the division by n - root, by Fraction synthetic division."""
    quot, carry = [], Fraction(0)
    for c in reversed(xs[1:]):
        carry = c + root * carry
        quot.append(carry)
    remainder = (xs[0] + root * carry) if xs else Fraction(0)
    return quot[::-1], remainder


def assert_layout(poly):
    """Integer numerators over one positive denominator, with no trailing zero
    and no common factor; the Fraction view round-trips to an equal, equally
    hashed polynomial."""
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int for c in poly.nums)
    assert gcd(poly.den, *poly.nums) == 1
    assert not poly.nums or poly.nums[-1] != 0
    assert poly.nums or poly.den == 1
    again = Polynomial.of(poly.coeffs)
    assert again == poly and hash(again) == hash(poly)


kernel_polynomials = st.lists(fractions, min_size=0, max_size=9).map(Polynomial.of)

points = st.one_of(st.integers(min_value=-50, max_value=50), fractions)
scalars = st.one_of(st.integers(min_value=-30, max_value=30), fractions)


@MANY
@given(st.lists(fractions, max_size=9), st.integers(min_value=-60, max_value=60).filter(bool))
@example([], 7)
@example([Fraction(2, 3), 0, 4, 0, 0], -6)
@example([Fraction(20), Fraction(-239, 12), 0, Fraction(-20)], 12)
def test_layout_is_canonical_for_any_scaling(coeffs, den):
    # the same polynomial given as Fractions, or as integers over a denominator
    poly = Polynomial.of([Fraction(c, den) for c in coeffs])
    common = lcm(1, *[c.denominator for c in coeffs])
    scaled = Polynomial([int(c * common) * abs(den) for c in coeffs], common * den * abs(den))
    assert_layout(poly)
    assert_layout(scaled)
    assert scaled == poly and hash(scaled) == hash(poly)
    assert poly.coeffs == tuple([c / den for c in Polynomial.of(coeffs).coeffs])


@MANY
@given(kernel_polynomials, kernel_polynomials)
@example(Polynomial.of([1, Fraction(1, 2)]), Polynomial.of([0, Fraction(-1, 2)]))
@example(Polynomial.of([Fraction(1, 6)]), Polynomial.of([Fraction(1, 3), Fraction(1, 4)]))
def test_sum_and_negation_match_fraction_reference(x, y):
    results = {
        "+": (x + y, reference_sum(x.coeffs, y.coeffs)),
        "-": (x - y, reference_sum(x.coeffs, [-c for c in y.coeffs])),
        "neg": (-x, [-c for c in x.coeffs]),
    }
    for op, (result, reference) in results.items():
        assert_layout(result)
        assert result == Polynomial.of(reference), op
    assert (x - x).is_zero and (x - x).den == 1


@MANY
@given(kernel_polynomials, scalars)
@example(Polynomial.of([Fraction(1, 2), 3]), Fraction(2, 3))
@example(Polynomial([4, 6]), Fraction(-1, 2))
@example(Polynomial([1, 2]), 0)
def test_scalar_product_and_quotient_match_fraction_reference(poly, c):
    products = (poly * c, c * poly)
    for result in products:
        assert_layout(result)
        assert result == Polynomial.of([a * c for a in poly.coeffs])
    if c:
        quotient = poly / c
        assert_layout(quotient)
        assert quotient == Polynomial.of([a / c for a in poly.coeffs])


@MANY
@given(kernel_polynomials.filter(bool), fractions)
@example(Polynomial.of([Fraction(-3, 2), 1]), Fraction(3, 2))
@example(Polynomial([5]), Fraction(0))
@example(Polynomial.of([Fraction(1, 3), 0, 1]), Fraction(-1, 4))
@example(Polynomial.of([Fraction(-20), Fraction(1, 12)]), Fraction(20))
@example(Polynomial.of([20]), Fraction(-239, 12))
def test_divide_linear_matches_fraction_synthetic_division(poly, root):
    # a drawn poly is rarely divisible, so also divide its multiple by n - root
    multiple = poly * Polynomial.linear(1, -root)
    quotient = multiple.divide_linear(root)
    assert quotient == poly
    assert_layout(quotient)
    reference, remainder = reference_divide_linear(list(poly.coeffs), root)
    quotient = poly.divide_linear(root)
    if remainder:
        assert quotient is None
    else:
        assert_layout(quotient)
        assert quotient == Polynomial.of(reference)


@MANY
@given(kernel_polynomials, kernel_polynomials)
@example(Polynomial(), Polynomial([1, 2]))
def test_product_matches_fraction_convolution(x, y):
    assert_layout(x * y)
    assert x * y == Polynomial.of(reference_product(x.coeffs, y.coeffs))


@MANY
@given(kernel_polynomials)
@example(Polynomial())
@example(Polynomial.of([Fraction(1, 2), 0, Fraction(-3, 7)]))
def test_compose_linear_matches_fraction_horner(poly):
    # a = 0 folds to the constant p(b); negative b arises as LinearArg(a, b - 1)
    for a in range(6):
        for b in range(-5, 6):
            composed = poly.compose_linear(a, b)
            assert_layout(composed)
            assert composed == reference_compose_linear(poly, a, b), (a, b)


@MANY
@given(kernel_polynomials, st.integers(min_value=-(10**6), max_value=10**6))
@example(Polynomial(), 3)
@example(Polynomial.of([Fraction(-1, 4), 0, Fraction(1, 4)]), -1)
def test_constant_composition_is_the_value(poly, b):
    composed = poly.compose_linear(0, b)
    assert_layout(composed)
    assert composed == Polynomial.constant(poly.evaluate(b))


@MANY
@given(kernel_polynomials, st.lists(points, min_size=1, max_size=6))
@example(Polynomial(), [0, -3, Fraction(2, 5)])
@example(Polynomial.of([Fraction(5, 6), 1, Fraction(-1, 4)]), [0, -1, -7, Fraction(-3, 2)])
def test_evaluate_matches_fraction_horner(poly, xs):
    for x in xs:
        value = poly.evaluate(x)
        assert type(value) is Fraction
        assert value == reference_evaluate(poly, Fraction(x)), x


# ---------------------------------------------------------------------------
# rational functions over split denominators against Fraction references

# c * prod (q*n - p)**e with |p|, q <= 20 and e <= 3
linear_powers = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
)


def _split_polynomial(content, factors):
    poly = Polynomial.constant(content)
    for p, q, e in factors:
        poly = poly * Polynomial.linear(q, -p) ** e
    return poly


split_polynomials = st.builds(
    _split_polynomial, fractions.filter(bool), st.lists(linear_powers, max_size=3)
)

# (numerator, denominator) pairs as drawn, before canonicalisation
quotients = st.tuples(kernel_polynomials, split_polynomials)
split_quotients = st.tuples(split_polynomials, split_polynomials)


def reference_value(pair, x):
    """num(x) / den(x) by Fraction Horner, or None at a zero of den."""
    den = reference_evaluate(pair[1], x)
    return reference_evaluate(pair[0], x) / den if den else None


def assert_canonical(rf):
    assert rf.num / rf.den == rf
    assert all(rf.num.evaluate(r) for r, _ in rf.poles)
    assert [r for r, _ in rf.poles] == sorted({r for r, _ in rf.poles})
    assert rf.den.leading == 1


@MANY
@given(quotients, split_quotients, st.lists(points, min_size=1, max_size=4))
@example((Polynomial([1]), Polynomial([1, 1])), (Polynomial([1, 1]), Polynomial([2, 1])), [0, 3])
@example((Polynomial([-1, 1]), Polynomial([-1, 1])), (Polynomial([1]), Polynomial([-1, 1])), [2])
def test_pole_arithmetic_matches_fraction_reference(x, y, ts):
    fx, fy = x[0] / x[1], y[0] / y[1]
    results = {
        "+": (fx + fy, lambda u, v: u + v),
        "-": (fx - fy, lambda u, v: u - v),
        "*": (fx * fy, lambda u, v: u * v),
    }
    if fy:
        results["/"] = (fx / fy, lambda u, v: u / v)
    for rf, _ in results.values():
        assert_canonical(rf)
    for t in ts:
        u, v = reference_value(x, t), reference_value(y, t)
        if u is None or v is None:
            continue
        for op, (rf, reference) in results.items():
            if op == "/" and not v:
                continue
            assert rf.evaluate(t) == reference(u, v), (op, t)


@MANY
@given(
    quotients,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-5, max_value=5),
    st.lists(points, min_size=1, max_size=4),
)
def test_pole_composition_matches_fraction_reference(x, a, b, ts):
    composed = (x[0] / x[1]).compose_linear(a, b)
    assert_canonical(composed)
    for t in ts:
        value = reference_value(x, a * Fraction(t) + b)
        if value is not None:
            assert composed.evaluate(t) == value, t


# ---------------------------------------------------------------------------
# integer evaluation of rational functions and closed forms against the
# term-by-term Fraction loop


def reference_rf_value(rf, x):
    """num(x) divided by (x - r)**e once per pole, in Fractions."""
    value = reference_evaluate(rf.num, Fraction(x))
    for r, e in rf.poles:
        if x == r:
            raise PoleError(f"pole at n = {x}")
        value /= (x - r) ** e
    return value


def reference_harmonic(c, order):
    total = Fraction(0)
    for k in range(1, c + 1):
        total += Fraction(1, k**order)
    return total


def reference_evaluate_cf(cf, n):
    """The constant plus one Fraction product and addition per term."""
    total = reference_rf_value(cf.constant, n)
    for sym, coeff in cf.terms:
        total += reference_rf_value(coeff, n) * reference_harmonic(sym.arg.at(n), sym.order)
    return total


# integer roots in 0..12 are hit by the evaluation points n below; the
# others are the values of st.fractions(-6, 6, max_denominator=5), drawn as
# `fractions` is, with its boundaries (+-6, denominator 5) as @examples
pole_roots = st.one_of(
    st.integers(min_value=0, max_value=12).map(Fraction),
    st.builds(_fraction, st.integers(1, 5), st.integers(0, 60), st.just(6)),
)
pole_functions = st.builds(
    RationalFunction,
    polynomials,
    st.dictionaries(pole_roots, st.integers(min_value=1, max_value=3), max_size=3).map(
        lambda poles: sorted(poles.items())
    ),
)


@MANY
@given(pole_functions, st.lists(points, min_size=1, max_size=4))
# x - r = -5 to an odd power: the denominator's sign is normalised
@example(RationalFunction(Polynomial([1]), [(Fraction(5), 1)]), [0, Fraction(1, 2)])
# a negative gap to an odd power, at an integer and at a fraction
@example(RationalFunction(Polynomial([1, 2]), [(Fraction(5, 2), 3)]), [1, Fraction(1, 3)])
@example(RationalFunction(Polynomial([2, 3]), [(Fraction(-1, 3), 3), (Fraction(4), 2)]), [1, -2])
# the boundaries of the fractional roots: +-6 and denominator 5
@example(
    RationalFunction(
        Polynomial([1]), [(Fraction(-6), 2), (Fraction(-29, 5), 3), (Fraction(6), 1)]
    ),
    [Fraction(29, 5), 0, Fraction(-6)],
)
def test_rational_value_at_matches_fraction_reference(rf, xs):
    poles = [r for r, _ in rf.poles]
    for x in xs + poles:
        if x in poles:
            for evaluate in (rf.value_at, rf.evaluate):
                with pytest.raises(PoleError):
                    evaluate(x)
            continue
        want = reference_rf_value(rf, x)
        num, den = rf.value_at(x)
        assert den > 0, x
        if type(x) is int:
            assert type(num) is int and type(den) is int, x
        assert Fraction(num, den) == want, x
        assert rf.evaluate(x) == want, x
        # the documented pair: each pole r = rp/rq puts rq**e above the
        # numerator's pair and (x*rq - rp)**e below
        num, den = rf.num.value_at(x)
        for r, e in rf.poles:
            num *= r.denominator**e
            den *= (x * r.denominator - r.numerator) ** e
        assert rf.value_at(x) == ((num, den) if den > 0 else (-num, -den)), x


@MANY
@given(polynomials, st.lists(points, min_size=1, max_size=4))
def test_polynomial_value_at_is_the_documented_pair(poly, xs):
    # (sum nums[i] * x**i, den): an integer pair at an integer x, and the
    # same exact pair at a Fraction
    for x in [*xs, *map(Fraction, xs)]:
        num, den = poly.value_at(x)
        assert (num, den) == (sum(c * x**i for i, c in enumerate(poly.nums)), poly.den), x
        if type(x) is int:
            assert type(num) is int and type(den) is int, x


built_forms = st.builds(
    build_closed_form,
    st.sampled_from("FG"),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-3, max_value=5),
    st.builds(
        LinearArg, st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=3)
    ),
)


@MANY
@given(built_forms, st.sets(symbols, max_size=3), st.integers(min_value=0, max_value=15))
@example(build_closed_form("G", 3, 2, LinearArg(2, 1)), set(), 7)
def test_evaluate_cf_matches_fraction_reference_on_built_forms(cf, shifted_symbols, n):
    # the constructors' own output, and its basis shift, which adds poles
    # to the constant
    targets = frozenset(sym.arg.shifted(1) for sym in shifted_symbols)
    for form in (cf, shift_basis(cf, targets)):
        assert evaluate_cf(form, n) == reference_evaluate_cf(form, n)


@MANY
@given(
    pole_functions,
    st.dictionaries(symbols, pole_functions, max_size=3),
    st.integers(min_value=0, max_value=12),
)
@example(
    RationalFunction(Polynomial([1]), [(Fraction(3), 1)]),
    {HarmonicSymbol(LinearArg(1, 0), 2): RationalFunction(Polynomial([1, 1]), [(Fraction(-1, 2), 1)])},
    3,
)
@example(
    RationalFunction(Polynomial([1]), [(Fraction(-6), 1), (Fraction(6), 2)]),
    {
        HarmonicSymbol(LinearArg(2, 1), 3): RationalFunction(
            Polynomial([3]), [(Fraction(-29, 5), 1)]
        )
    },
    6,
)
def test_evaluate_cf_matches_fraction_reference_with_poles(constant, terms, n):
    cf = ClosedForm(constant, terms)
    poles = {r for rf in (cf.constant, *(c for _, c in cf.terms)) for r, _ in rf.poles}
    if n in poles:
        with pytest.raises(PoleError):
            evaluate_cf(cf, n)
    else:
        assert evaluate_cf(cf, n) == reference_evaluate_cf(cf, n)


# the constructors' output with its basis shift, whose poles lie below n = 0,
# and forms whose poles the sweep range may hit
sweep_forms = st.one_of(
    st.builds(
        lambda cf, symbols: shift_basis(cf, frozenset(sym.arg.shifted(1) for sym in symbols)),
        built_forms,
        st.sets(symbols, max_size=3),
    ),
    st.builds(ClosedForm, pole_functions, st.dictionaries(symbols, pole_functions, max_size=3)),
)


@MANY
@given(sweep_forms, st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
# (n - 5)**-1 below its pole at n = 5, where the sweep stops
@example(
    ClosedForm(
        RationalFunction(Polynomial([1]), [(Fraction(5), 1)]),
        {HarmonicSymbol(LinearArg(1, 0), 2): RationalFunction(Polynomial([0, 2, 1]))},
    ),
    2,
    9,
)
@example(build_closed_form("G", 3, 2, LinearArg(2, 1)), 0, 15)
@example(
    ClosedForm(
        RationalFunction(Polynomial([1]), [(Fraction(-6), 1), (Fraction(6, 5), 2)]),
        {
            HarmonicSymbol(LinearArg(1, 0), 1): RationalFunction(
                Polynomial([1]), [(Fraction(-29, 5), 1), (Fraction(6), 1)]
            )
        },
    ),
    0,
    15,
)
# one argument carrying orders 1 and 3 but not 2, over coefficient
# denominators 2 and 3: the Horner in l multiplies through the absent order
@example(
    ClosedForm(
        RationalFunction(Polynomial([2])),
        {
            HarmonicSymbol(LinearArg(1, 1), 1): RationalFunction(Polynomial([1, 3], 2)),
            HarmonicSymbol(LinearArg(1, 1), 3): RationalFunction(Polynomial([-5, 0, 1], 3)),
            HarmonicSymbol(LinearArg(2, 0), 2): RationalFunction(Polynomial([0, 1])),
        },
    ),
    0,
    12,
)
# two coefficients at one argument whose pairs have different pole
# denominators, n + 1 and (2n + 5)**2: they are cross-multiplied
@example(
    ClosedForm(
        RationalFunction(Polynomial([1])),
        {
            HarmonicSymbol(LinearArg(1, 0), 1): RationalFunction(Polynomial([1]), [(Fraction(-1), 1)]),
            HarmonicSymbol(LinearArg(1, 0), 2): RationalFunction(
                Polynomial([1, 1]), [(Fraction(-5, 2), 2)]
            ),
        },
    ),
    0,
    9,
)
def test_evaluate_pairs_match_fraction_reference(cf, lo, hi):
    n_lo, n_hi = min(lo, hi), max(lo, hi)
    poles = {r for rf in (cf.constant, *(c for _, c in cf.terms)) for r, _ in rf.poles}
    pairs = _evaluate_pairs(cf, n_lo, n_hi)
    for n in range(n_lo, n_hi + 1):
        if n in poles:  # the values below the pole were yielded
            with pytest.raises(PoleError, match=rf"^pole at n = {n}$"):
                next(pairs)
            return
        num, den = next(pairs)
        assert type(num) is int and type(den) is int and den > 0, n
        assert Fraction(num, den) == reference_evaluate_cf(cf, n), n
        # each part's pair too: the running lcm would hide a negative den
        for rf in (cf.constant, *(c for _, c in cf.terms)):
            part_num, part_den = rf.value_at(n)
            assert type(part_den) is int and part_den > 0, n
            assert Fraction(part_num, part_den) == reference_rf_value(rf, n), n
    assert next(pairs, None) is None
