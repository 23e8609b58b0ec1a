"""Closed-form constructors and the oracle's summation-by-parts and corollary sweeps."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

import known_identities as known
from harmonic_sums.closed_form import _power_sum_at
from harmonic_sums.identities import _by_parts, _q_coefficients
from harmonic_sums.polynomial import ROOT_BOUND
from harmonic_sums import (
    ClosedForm,
    LinearArg,
    Polynomial,
    bernoulli_plus,
    binomial,
    build_closed_form,
    corollary_rows,
    evaluate_cf,
    faulhaber_poly,
    grid_rows,
    harmonic_direct,
    harmonic_term,
    int_pow,
    lhs_direct,
    offset_basis,
    offset_sum_f,
    offset_sum_g,
    parse_closed_form,
    render,
    sbp_rows,
    shift_basis,
    substitute_n,
    sum_f,
    sum_g,
)

S0 = LinearArg(0, 0)


def h_sk_variant(builder, p: int, m: int, s: LinearArg) -> ClosedForm:
    """sum_{k=0}^n k**p H_{s,k}^(m), H_{s,k} = H_{s+k} - H_s (H_{s,n-k} for G): the
    offset sum minus P(n) H_s^(m), P(x) = sum_{k=0}^x k**p with its k = 0 term."""
    return builder(p, m, s) - harmonic_term(s, m).scale(faulhaber_poly(p) + int_pow(0, p))


BAD_P = "power exponent p must be nonnegative, got -1"
BAD_S = "offset n-1 is negative at n = 0"


class TestForwardSums:
    @pytest.mark.parametrize("p,m", sorted(known.F_SUMS))
    def test_catalog(self, p, m):
        assert sum_f(p, m) == known.F_SUMS[(p, m)]

    def test_spot_value(self):
        # 0*H_0 + 1*H_1 + 2*H_2 = 0 + 1 + 3
        assert evaluate_cf(sum_f(1, 1), 2) == 4
        assert lhs_direct("F", 1, 1, S0, 2) == 4

    def test_coefficient_degree_bound(self):
        for p in range(7):
            for m in range(1, 6):
                cf = sum_f(p, m)
                assert cf.constant.is_polynomial
                assert cf.constant.num.degree <= p + 1
                for _, coeff in cf.terms:
                    assert coeff.is_polynomial
                    assert coeff.num.degree <= p + 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            sum_f(-1, 1)


class TestReversedSums:
    @pytest.mark.parametrize("p,m", sorted(known.G_SUMS))
    def test_catalog(self, p, m):
        assert sum_g(p, m) == known.G_SUMS[(p, m)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_p0_equals_forward_sum(self, m):
        assert sum_g(0, m) == sum_f(0, m)

    def test_spot_value(self):
        # 1*H_2 + 4*H_1 + 9*H_0 = 3/2 + 4
        assert evaluate_cf(sum_g(2, 1), 3) == Fraction(11, 2)

    def test_reversal_consistency(self):
        # sum k**p H_{n-k} equals sum (n-k)**p H_k, both brute force
        for p in range(4):
            for m in (1, 2):
                for n in range(12):
                    reversed_weight = sum(
                        int_pow(Fraction(n - k), p) * harmonic_direct(0, k, m)
                        for k in range(n + 1)
                    )
                    assert lhs_direct("G", p, m, S0, n) == reversed_weight


class TestOffsetSums:
    @pytest.mark.parametrize("p,m,s", sorted(known.OFFSET_F_SUMS))
    def test_forward_catalog(self, p, m, s):
        assert offset_sum_f(p, m, LinearArg(*s)) == known.OFFSET_F_SUMS[(p, m, s)]

    @pytest.mark.parametrize("p,m,s", sorted(known.OFFSET_G_SUMS))
    def test_reversed_catalog(self, p, m, s):
        assert offset_sum_g(p, m, LinearArg(*s)) == known.OFFSET_G_SUMS[(p, m, s)]

    @pytest.mark.parametrize("p", range(6))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_zero_offset_degenerates_to_plain_sum(self, p, m):
        assert offset_sum_f(p, m, S0) == sum_f(p, m)
        assert offset_sum_g(p, m, S0) == sum_g(p, m)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("variant", [False, True])
    @pytest.mark.parametrize("m,s", [(1, S0), (3, LinearArg(1, 2)), (0, LinearArg(2, 0)),
                                     (-2, LinearArg(0, 3)), (2, LinearArg(0, 1))])  # fmt: skip
    def test_zero_antidifference_is_the_zero_form(self, m, s, variant, reverse):
        """A zero weight has the zero antidifference, and both rows build nothing from it;
        nor does the H_{s,k} variant, whose P(n) H_s^(m) correction is then zero too."""
        cf = _by_parts(Polynomial(), m, s, reverse)
        if variant:
            cf = cf - harmonic_term(s, m).scale(Polynomial())
        assert cf == ClosedForm()

    def test_p0_families_coincide_at_equal_offset(self):
        s = LinearArg(1, 0)
        assert offset_sum_f(0, 1, s) == offset_sum_g(0, 1, s)

    def test_constant_offset_spot_value(self):
        # 0*H_3 + 1*H_4 + 2*H_5, frozen from the brute-force oracle
        cf = offset_sum_f(1, 1, LinearArg(0, 3))
        expected = lhs_direct("F", 1, 1, LinearArg(0, 3), 2)
        assert expected == Fraction(133, 20)
        assert evaluate_cf(cf, 2) == expected

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            offset_sum_f(1, 1, LinearArg(1, -1))

    @pytest.mark.parametrize("family,builder", [("F", offset_sum_f), ("G", offset_sum_g)])
    def test_offset_harmonic_variant(self, family, builder):
        # the H_{s,k} variant, built by the subtraction, equals the literal sum
        # over H_{s,*}, and its value is the plain one minus the oracle's
        # H_s^(m) * (power sum + [p = 0])
        for p in range(4):
            for m in (1, 2):
                for a, b in [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1)]:
                    s = LinearArg(a, b)
                    variant = h_sk_variant(builder, p, m, s)
                    plain = builder(p, m, s)
                    weight = faulhaber_poly(p) + (1 if p == 0 else 0)
                    for n in range(8):
                        h_s = harmonic_direct(0, s.at(n), m)
                        correction = h_s * weight.evaluate(n)
                        plain_value = evaluate_cf(plain, n)
                        assert evaluate_cf(variant, n) == plain_value - correction
                        if family == "F":
                            literal = sum(
                                int_pow(Fraction(k), p)
                                * harmonic_direct(s.at(n), k, m)
                                for k in range(n + 1)
                            )
                        else:
                            literal = sum(
                                int_pow(Fraction(k), p)
                                * harmonic_direct(s.at(n), n - k, m)
                                for k in range(n + 1)
                            )
                        assert evaluate_cf(variant, n) == literal

    @pytest.mark.parametrize("family,builder", [("F", offset_sum_f), ("G", offset_sum_g)])
    def test_offset_beyond_root_bound(self, family, builder):
        # an offset beyond ROOT_BOUND: the build lands on H_{2n+5001} and
        # H_{n+5000} directly, while the reference's shift_basis poles
        # (n = -5000 and n = -5001/2) are computed and never searched for
        s = LinearArg(1, 5000)
        assert s.b > ROOT_BOUND
        cf = builder(2, 2, s)
        rows = list(grid_rows(family, 2, 2, s, cf, 5))
        assert len(rows) == 6 and all(row.passed for row in rows)
        assert parse_closed_form(render(cf, "json")) == cf
        assert power_expansion(family, 2, 2, s) == cf

    @pytest.mark.parametrize("variant", [False, True])
    @pytest.mark.parametrize(
        "s",
        [S0, LinearArg(0, 3), LinearArg(1, 0), LinearArg(2, 0), LinearArg(2, 1),
         LinearArg(10, 9), LinearArg(10, 10)],
        ids=str,
    )  # fmt: skip
    @pytest.mark.parametrize("builder", [offset_sum_f, offset_sum_g], ids=["F", "G"])
    def test_built_on_presentation_basis(self, builder, s, variant):
        # summation by parts ends at H_{N+1} and H_s: no basis shift is left to do,
        # and the H_{s,k} variant's correction H_s^(m) is on the same basis
        basis = offset_basis(s)
        for p in range(6):
            for m in range(-2, 5):
                cf = h_sk_variant(builder, p, m, s) if variant else builder(p, m, s)
                assert shift_basis(cf, basis) == cf
                assert all(sym.arg in basis for sym in cf.symbols())
                assert cf.constant.is_polynomial
                assert all(c.is_polynomial for _, c in cf.terms)

    def test_build_dispatch(self):
        assert build_closed_form("f", 2, 1, S0) == sum_f(2, 1)
        assert build_closed_form("G", 2, 1, S0) == sum_g(2, 1)
        with pytest.raises(ValueError):
            build_closed_form("x", 0, 1, S0)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: sum_f(-1, 1), BAD_P),
            (lambda: sum_g(-1, 1), BAD_P),
            (lambda: offset_sum_f(-1, 1, S0), BAD_P),
            (lambda: offset_sum_f(1, 1, LinearArg(1, -1)), BAD_S),
            (lambda: offset_sum_g(-1, 1, S0), BAD_P),
            (lambda: offset_sum_g(1, 1, LinearArg(1, -1)), BAD_S),
            (lambda: build_closed_form("F", -1, 1, S0), BAD_P),
            (lambda: build_closed_form("F", 1, 1, LinearArg(1, -1)), BAD_S),
            (lambda: build_closed_form("G", -1, 1, S0), BAD_P),
            (lambda: build_closed_form("G", 1, 1, LinearArg(1, -1)), BAD_S),
        ],
        ids=[
            "sum_f-p", "sum_g-p", "offset_sum_f-p", "offset_sum_f-s", "offset_sum_g-p",
            "offset_sum_g-s", "build_F-p", "build_F-s", "build_G-p", "build_G-s",
        ],
    )
    def test_refusal_message(self, call, message):
        # every entry point refuses p < 0 and an offset negative at n = 0, word for word
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message

ARG_N = LinearArg(1, 0)


def plain_f(p: int, m: int) -> ClosedForm:
    """sum_{k=0}^n k**p H_k^(m) over the H_n basis, from the coefficients c_k of
    the power-sum polynomial fh_p: fh_p H_n^(m) + H_n^(m-p) - sum_{k>=1} c_k H_n^(m-k)."""
    total = harmonic_term(ARG_N, m).scale(faulhaber_poly(p))
    total = total + harmonic_term(ARG_N, m - p)
    for k, c in enumerate(faulhaber_poly(p).coeffs[1:], start=1):
        total = total - harmonic_term(ARG_N, m - k).scale(c)
    return total


def plain_g(p: int, m: int) -> ClosedForm:
    """sum_{k=0}^n k**p H_{n-k}^(m) over the H_n basis, by the Bernoulli brackets
    B+_{p-k+1} + (p-k+1) fh_{p-k} weighted by (-1)**k C(p+1, k) / (p+1)."""
    total = harmonic_term(ARG_N, m).scale(faulhaber_poly(p) + int_pow(0, p))
    for k in range(1, p + 2):
        bracket = bernoulli_plus(p - k + 1)
        if k <= p:  # the k = p+1 bracket term carries factor p-k+1 = 0
            bracket = bracket + (p - k + 1) * faulhaber_poly(p - k)
        c = Fraction((-1) ** k * binomial(p + 1, k), p + 1)
        total = total + harmonic_term(ARG_N, m - k).scale(bracket * c)
    return total


def power_expansion(family: str, p: int, m: int, s: LinearArg) -> ClosedForm:
    """The offset sums as explicit binomial expansions over the plain sums.

    An independent reference for the constructors: family F is
    sum_k (-1)**k C(p,k) s**k [F_{p-k}(s+n) - F_{p-k}(s-1)], family G is
    G_p(s+n) - sum_k C(p,k) (n+1)**(p-k) G_k(s-1), for a nonzero offset s.
    """
    upper, lower = LinearArg(s.a + 1, s.b), LinearArg(s.a, s.b - 1)
    if family == "F":
        total = ClosedForm.zero()
        for k in range(p + 1):
            plain = plain_f(p - k, m)
            piece = substitute_n(plain, upper) - substitute_n(plain, lower)
            total = total + piece.scale(s.as_poly() ** k * ((-1) ** k * binomial(p, k)))
    else:
        total = substitute_n(plain_g(p, m), upper)
        for k in range(p + 1):
            piece = substitute_n(plain_g(k, m), lower)
            total = total - piece.scale(Polynomial.linear(1, 1) ** (p - k) * binomial(p, k))
    return shift_basis(total, offset_basis(s))


class TestBinomialKernel:
    """The constructors against the binomial expansion over the plain sums,
    ``power_expansion`` (the class keeps its name so the test ids stay stable)."""

    @pytest.mark.parametrize("family,builder", [("F", offset_sum_f), ("G", offset_sum_g)])
    @pytest.mark.parametrize(
        "s", [LinearArg(0, 7), LinearArg(1, 0), LinearArg(10, 9), LinearArg(10, 10)], ids=str
    )
    @pytest.mark.parametrize("m", [-2, 1, 3])
    @pytest.mark.parametrize("p", [0, 1, 7, 20])
    def test_matches_power_expansion(self, p, m, s, family, builder):
        assert builder(p, m, s) == power_expansion(family, p, m, s)


def clear_term_caches():
    for cache in (faulhaber_poly, _q_coefficients, _power_sum_at):
        cache.cache_clear()


class TestMemoizedTermBuilders:
    """The constructors read memoized shared state, the caches of faulhaber_poly,
    of Q's coefficients and of the power-sum folds, the Bernoulli cache and
    harmonic_value's prefixes, and are safe under threads."""

    ROWS = [(p, m, s) for p in range(4) for m in (-1, 1, 2) for s in (S0, LinearArg(1, 2))]

    def build_all(self) -> list:
        return [
            (builder(p, m, s), h_sk_variant(builder, p, m, s))
            for p, m, s in self.ROWS
            for builder in (offset_sum_f, offset_sum_g)
        ]

    def test_threads_build_what_a_serial_run_builds(self):
        clear_term_caches()
        serial = self.build_all()
        clear_term_caches()
        start = threading.Barrier(4)
        results: dict[int, list] = {}

        def work(i: int) -> None:
            start.wait()
            results[i] = self.build_all()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for built in results.values():
            assert built == serial

    def test_warm_caches_build_what_cleared_caches_build(self):
        # Q is keyed by the whole row (P, sigma, c, lambda) and a fold by
        # (argument, order): a build after any other build, in any order,
        # equals the same build from empty caches
        keys = [
            (family, p, m, LinearArg(a, b))
            for family in "FG"
            for p in range(7)
            for m in range(-3, 6)
            for a in range(3)
            for b in range(3)
        ]
        random.Random(0).shuffle(keys)
        for key in keys:
            build_closed_form(*key)
        warm = [build_closed_form(*key) for key in keys]
        for key, form in zip(keys, warm):
            _q_coefficients.cache_clear()
            _power_sum_at.cache_clear()
            assert build_closed_form(*key) == form, key


class TestCanonicalEquality:
    """Structural equality of canonical forms tracks pointwise equality.

    Forward direction spot-checked on known equal pairs; the converse
    (agreement on a short window forces equality) is checked empirically
    across every pair of catalogue entries.
    """

    def _window(self, x, y) -> int:
        degree = max(
            [x.constant.num.degree, y.constant.num.degree]
            + [c.num.degree for _, c in x.terms]
            + [c.num.degree for _, c in y.terms]
        )
        symbols = len(set(x.symbols()) | set(y.symbols()))
        return 2 * (max(degree, 0) + symbols) + 4

    def test_equal_forms_agree_on_grid(self):
        pairs = [(sum_f(0, m), sum_g(0, m)) for m in range(1, 5)]
        s = LinearArg(1, 0)
        pairs.append((offset_sum_f(0, 1, s), offset_sum_g(0, 1, s)))
        for x, y in pairs:
            assert x == y
            for n in range(41):
                assert evaluate_cf(x, n) == evaluate_cf(y, n)

    def test_distinct_forms_differ_within_window(self):
        catalog = (
            [sum_f(p, m) for (p, m) in known.F_SUMS]
            + [sum_g(p, m) for (p, m) in known.G_SUMS]
            + [offset_sum_f(p, m, LinearArg(*s)) for (p, m, s) in known.OFFSET_F_SUMS]
            + [offset_sum_g(p, m, LinearArg(*s)) for (p, m, s) in known.OFFSET_G_SUMS]
        )
        for i, x in enumerate(catalog):
            for y in catalog[i + 1 :]:
                if x == y:
                    continue
                window = self._window(x, y)
                assert any(
                    evaluate_cf(x, n) != evaluate_cf(y, n) for n in range(window + 1)
                ), (x, y)


class TestNegativeOrders:
    def test_collapse_to_polynomial(self):
        for p in range(4):
            for q in range(4):
                cf = sum_f(p, -q)
                assert cf.is_polynomial
                for n in range(31):
                    assert evaluate_cf(cf, n) == lhs_direct("F", p, -q, S0, n)

    def test_reversed_collapse(self):
        for p in range(3):
            for q in range(3):
                cf = sum_g(p, -q)
                assert cf.is_polynomial
                for n in range(20):
                    assert evaluate_cf(cf, n) == lhs_direct("G", p, -q, S0, n)


def reference_harmonics(m, n_max):
    """H_0^(m), ..., H_{n_max}^(m) as a running Fraction sum."""
    values = [Fraction(0)]
    for k in range(1, n_max + 1):
        values.append(values[-1] + Fraction(k) ** -m)
    return values


def reference_sbp_rows(m, w, n_max):
    """The summation-by-parts sweep over reduced Fractions, one addition per row:
    (n, lhs, rhs) for n = 0..n_max."""
    h, h_mw = reference_harmonics(m, n_max), reference_harmonics(m - w, n_max)
    lhs = Fraction(0)
    for n in range(n_max + 1):
        if n:
            lhs += (Fraction(n + 1) ** w - Fraction(n) ** w) * h[n]
        yield n, lhs, Fraction(n + 1) ** w * h[n] - h_mw[n]


def reference_corollary_rows(which, n_max):
    """The corollary sweep over reduced Fractions: (n, lhs, rhs) from the first n."""
    start = {"inv_k": 1, "inv_k_plus_1": 0}[which]
    sign = 1 if start else -1
    h, h2 = reference_harmonics(1, n_max + 1), reference_harmonics(2, n_max + 1)
    lhs = Fraction(0)
    for n in range(start, n_max + 1):
        top = n + 1 - start
        lhs += h[n] / top
        yield n, lhs, (h[top] * h[top] + sign * h2[top]) / 2


class TestSummationByParts:
    @pytest.mark.parametrize("m,w,n", [(1, 2, 5), (2, -1, 0), (3, -2, 10), (0, 3, 7), (-2, -3, 12)])
    def test_samples(self, m, w, n):
        rows = list(sbp_rows(m, w, n))
        assert [row.n for row in rows] == list(range(n + 1))
        assert rows[-1].passed
        assert rows[-1].lhs == rows[-1].rhs

    def test_zero_weight_exponent_degenerates(self):
        # w = 0 makes every summand vanish and the right side cancel
        for row in sbp_rows(2, 0, 9):
            assert row.lhs == 0
            assert row.rhs == 0

    def test_full_sweep(self):
        for m in range(-2, 4):
            for w in range(-3, 4):
                for row in sbp_rows(m, w, 30):
                    assert row.passed, (m, w, row.n)

    def test_rows_equal_fraction_reference(self):
        # every row's exact sides, not only its verdict, over the default
        # m and w ranges of `harmsum check`
        for m in range(-2, 4):
            for w in range(-3, 4):
                rows = [(row.n, row.lhs, row.rhs) for row in sbp_rows(m, w, 60)]
                assert rows == list(reference_sbp_rows(m, w, 60)), (m, w)


class TestCorollaries:
    def test_first_values(self):
        row = next(corollary_rows("inv_k", 1))
        assert row.n == 1
        assert row.lhs == 1
        assert row.rhs == 1

    def test_spot_value(self):
        row = list(corollary_rows("inv_k", 3))[-1]
        assert row.n == 3
        assert row.lhs == Fraction(85, 36)
        assert row.passed

    def test_shifted_variant(self):
        rows = list(corollary_rows("inv_k_plus_1", 2))
        assert [row.n for row in rows] == [0, 1, 2]
        assert rows[-1].lhs == 1
        assert rows[-1].passed

    def test_ranges(self):
        inv_k = list(corollary_rows("inv_k", 100))
        inv_k_plus_1 = list(corollary_rows("inv_k_plus_1", 100))
        assert [row.n for row in inv_k] == list(range(1, 101))
        assert [row.n for row in inv_k_plus_1] == list(range(101))
        assert all(row.passed for row in inv_k + inv_k_plus_1)

    @pytest.mark.parametrize("which", ["inv_k", "inv_k_plus_1"])
    def test_rows_equal_fraction_reference(self, which):
        rows = [(row.n, row.lhs, row.rhs) for row in corollary_rows(which, 300)]
        assert rows == list(reference_corollary_rows(which, 300))

    def test_rows_share_one_running_denominator(self):
        # both sides of a row are integers over a power of L = lcm(1..n+1)
        for which in ("inv_k", "inv_k_plus_1"):
            for row in corollary_rows(which, 40):
                assert row.den == 2 * math.lcm(*range(1, row.n + 2)) ** 2
                assert row.lhs_num == row.rhs_num
        for m, w in ((3, -2), (-2, 3), (1, 1)):
            e = max(m, 0) + max(-w, 0)
            for row in sbp_rows(m, w, 40):
                assert row.den == math.lcm(*range(1, row.n + 2)) ** e
                assert row.lhs_num == row.rhs_num

    def test_validation(self):
        assert list(corollary_rows("inv_k", 0)) == []
        with pytest.raises(ValueError):
            list(corollary_rows("nonsense", 3))
