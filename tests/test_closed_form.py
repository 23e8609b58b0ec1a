"""Closed-form algebra: symbols, substitution, basis shifts, evaluation."""

from fractions import Fraction

import pytest

from harmonic_sums import (
    ClosedForm,
    HarmonicSymbol,
    LinearArg,
    PoleError,
    Polynomial,
    RationalFunction,
    evaluate_cf,
    harmonic_term,
    harmonic_value,
    shift_basis,
    substitute_n,
    sum_f,
)
from harmonic_sums.closed_form import _evaluate_pairs

N = Polynomial.variable()
ARG_N = LinearArg(1, 0)
ARG_N1 = LinearArg(1, 1)


class TestValidation:
    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            LinearArg(-1, 0)

    def test_negative_constant_argument_rejected(self):
        with pytest.raises(ValueError):
            LinearArg(0, -2)

    def test_symbol_order_must_be_positive(self):
        with pytest.raises(ValueError):
            HarmonicSymbol(ARG_N, 0)

    def test_symbol_argument_must_be_nonconstant(self):
        with pytest.raises(ValueError):
            HarmonicSymbol(LinearArg(0, 3), 1)


class TestHarmonicTerm:
    def test_nonpositive_order_expands_to_polynomial(self):
        cf = harmonic_term(ARG_N, -1)
        assert cf.is_polynomial
        assert cf.constant == RationalFunction(Fraction(1, 2) * N * (N + 1))

    def test_positive_order_stays_symbolic(self):
        cf = harmonic_term(ARG_N1, 2)
        assert cf.terms == ((HarmonicSymbol(ARG_N1, 2), RationalFunction(1)),)
        assert cf.constant.is_zero

    def test_constant_argument_folds(self):
        assert harmonic_term(LinearArg(0, 3), 1) == ClosedForm(Fraction(11, 6))

    def test_harmonic_value_examples(self):
        assert harmonic_value(4, 1) == Fraction(25, 12)
        assert harmonic_value(0, 5) == 0
        assert harmonic_value(3, -2) == 14  # 1 + 4 + 9
        with pytest.raises(ValueError):
            harmonic_value(-1, 1)


class TestArithmetic:
    def test_add_merges_terms(self):
        h = harmonic_term(ARG_N1, 1)
        assert (h + h).coefficient(HarmonicSymbol(ARG_N1, 1)) == RationalFunction(2)

    def test_scale_by_zero_is_zero(self):
        h = harmonic_term(ARG_N1, 1)
        assert h.scale(0).is_zero

    def test_subtraction_cancels(self):
        h = harmonic_term(ARG_N1, 2)
        assert (h - h).is_zero
        assert (h - h) == ClosedForm.zero()

    def test_canonicalization_drops_zero_coefficients(self):
        sym = HarmonicSymbol(ARG_N1, 1)
        cf = ClosedForm(0, {sym: RationalFunction(0)})
        assert cf.terms == ()

    def test_rebuild_is_identity(self):
        cf = sum_f(3, 2)
        assert ClosedForm(cf.constant, cf.terms) == cf

    def test_hash_follows_structural_equality(self):
        cf = sum_f(3, 2)
        rebuilt = ClosedForm(cf.constant, dict(cf.terms))
        assert hash(rebuilt) == hash(cf)
        assert len({cf, rebuilt, sum_f(3, 1)}) == 2

    def test_absent_symbol_has_zero_coefficient(self):
        h = harmonic_term(ARG_N1, 1)
        assert h.coefficient(HarmonicSymbol(ARG_N1, 1)) == 1
        absent = h.coefficient(HarmonicSymbol(ARG_N, 1))
        assert isinstance(absent, RationalFunction)
        assert absent == 0

    def test_foreign_operand_is_not_implemented(self):
        h = harmonic_term(ARG_N1, 1)
        assert h.__eq__(1) is NotImplemented
        assert h.__add__(1) is NotImplemented
        assert h.__sub__(1) is NotImplemented
        assert (h == 1) is False
        with pytest.raises(TypeError):
            h + 1
        with pytest.raises(TypeError):
            h - 1

    def test_str_is_the_text_render(self):
        assert str(HarmonicSymbol(LinearArg(2, 1), 3)) == "H_{2n+1}^(3)"
        assert str(sum_f(1, 1)) == "H_n^(-1) H_{n+1} - 1/4 n(n+1)"
        # a negative constant's sign becomes the separator: 3 - n is shown as - (n-3)
        assert str(ClosedForm(3 - N, {HarmonicSymbol(ARG_N1, 1): N})) == "n H_{n+1} - (n-3)"


class TestSubstitution:
    def test_symbol_argument_remapped(self):
        cf = harmonic_term(ARG_N1, 1)
        doubled = substitute_n(cf, LinearArg(2, 0))
        assert doubled.symbols() == (HarmonicSymbol(LinearArg(2, 1), 1),)

    def test_constant_target_folds_to_number(self):
        cf = sum_f(0, 1)  # (n+1) H_{n+1} - (n+1)
        assert substitute_n(cf, LinearArg(0, 0)) == ClosedForm.zero()
        assert substitute_n(cf, LinearArg(0, 2)) == ClosedForm(Fraction(5, 2))

    def test_coefficients_composed(self):
        sym = HarmonicSymbol(ARG_N, 1)
        cf = ClosedForm(0, {sym: RationalFunction(N)})
        shifted = substitute_n(cf, LinearArg(1, 3))
        assert shifted.coefficient(HarmonicSymbol(LinearArg(1, 3), 1)) == RationalFunction(N + 3)

    def test_commutes_with_evaluation(self):
        cf = sum_f(2, 3)
        for a, b in [(1, 1), (2, 0), (2, 3), (3, 1)]:
            sub = substitute_n(cf, LinearArg(a, b))
            for n in range(8):
                assert evaluate_cf(sub, n) == evaluate_cf(cf, a * n + b)


class TestShiftBasis:
    def test_defining_identity(self):
        cf = harmonic_term(ARG_N, 1)
        shifted = shift_basis(cf)
        assert shifted.symbols() == (HarmonicSymbol(ARG_N1, 1),)
        assert shifted.constant == Polynomial([-1]) / (N + 1)

    def test_polynomial_coefficient_absorbs_correction(self):
        cf = ClosedForm(0, {HarmonicSymbol(ARG_N, 1): Fraction(1, 2) * N * (N + 1)})
        shifted = shift_basis(cf)
        assert shifted.constant == RationalFunction(Fraction(-1, 2) * N)
        assert shifted.coefficient(HarmonicSymbol(ARG_N1, 1)) == RationalFunction(
            Fraction(1, 2) * N * (N + 1)
        )

    def test_idempotent_on_target_basis(self):
        cf = sum_f(2, 2)
        assert shift_basis(cf) == cf

    def test_preserves_evaluation(self):
        cf = ClosedForm(
            RationalFunction(N),
            {
                HarmonicSymbol(ARG_N, 1): N + 2,
                HarmonicSymbol(ARG_N, 3): Fraction(1, 3),
                HarmonicSymbol(LinearArg(2, 0), 2): N**2,
            },
        )
        targets = frozenset({ARG_N1, LinearArg(2, 1)})
        shifted = shift_basis(cf, targets)
        for n in range(12):
            assert evaluate_cf(shifted, n) == evaluate_cf(cf, n)


class TestEvaluation:
    def test_examples(self):
        cf = sum_f(0, 1)
        assert evaluate_cf(cf, 2) == Fraction(5, 2)  # H_0 + H_1 + H_2
        assert evaluate_cf(ClosedForm.zero(), 17) == 0
        assert evaluate_cf(harmonic_term(ARG_N, -2), 3) == 14

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            evaluate_cf(sum_f(0, 1), -1)

    def test_negative_symbol_argument_rejected(self):
        cf = ClosedForm(0, {HarmonicSymbol(LinearArg(1, -3), 1): 1})
        with pytest.raises(ValueError):
            evaluate_cf(cf, 1)
        assert evaluate_cf(cf, 3) == 0  # H_0

    def test_negative_symbol_argument_rejected_in_a_sweep(self):
        # a sweep from n = 0 must not read the prefix at index -3
        cf = ClosedForm(0, {HarmonicSymbol(LinearArg(1, -3), 1): 1})
        with pytest.raises(ValueError, match=r"^harmonic number at negative argument -3$"):
            list(_evaluate_pairs(cf, 0, 5))
        pairs = _evaluate_pairs(cf, 2, 5)
        with pytest.raises(ValueError, match=r"^harmonic number at negative argument -1$"):
            next(pairs)
        values = [Fraction(*pair) for pair in _evaluate_pairs(cf, 3, 5)]
        assert values == [evaluate_cf(cf, n) for n in range(3, 6)] == [0, 1, Fraction(3, 2)]
        # an empty sweep yields nothing and refuses nothing
        assert list(_evaluate_pairs(cf, 2, 1)) == list(_evaluate_pairs(cf, 5, 3)) == []
        # the argument is checked once, before the first pair, so a pole at
        # n_lo in the constant or in the coefficient itself does not come first
        pole = 1 / LinearArg(1, -2).as_poly()
        sym = HarmonicSymbol(LinearArg(1, -4), 1)
        with pytest.raises(PoleError, match=r"^pole at n = 2$"):
            next(_evaluate_pairs(ClosedForm(pole), 2, 6))
        for cf in (ClosedForm(pole, {sym: 1}), ClosedForm(0, {sym: pole})):
            with pytest.raises(ValueError, match=r"^harmonic number at negative argument -2$"):
                next(_evaluate_pairs(cf, 2, 6))
        pairs = _evaluate_pairs(ClosedForm(1 / LinearArg(1, -5).as_poly(), {sym: 1}), 4, 6)
        assert Fraction(*next(pairs)) == -1  # 1/(4-5) + H_0
        with pytest.raises(PoleError, match=r"^pole at n = 5$"):
            next(pairs)

    def test_equal_forms_agree_everywhere(self):
        lhs = sum_f(0, 2)
        rhs = ClosedForm(0, {HarmonicSymbol(ARG_N1, 2): N + 1, HarmonicSymbol(ARG_N1, 1): -1})
        assert lhs == rhs
        for n in range(41):
            assert evaluate_cf(lhs, n) == evaluate_cf(rhs, n)
