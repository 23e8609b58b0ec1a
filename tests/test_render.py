"""Rendering and the JSON serialization contract."""

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import jsonschema
import pytest

from harmonic_sums import (
    CLOSED_FORM_SCHEMA,
    ClosedForm,
    HarmonicSymbol,
    LinearArg,
    Polynomial,
    catalog_entries,
    closed_form_to_json,
    faulhaber_poly,
    harmonic_term,
    int_pow,
    offset_sum_f,
    offset_sum_g,
    parse_closed_form,
    render,
    shift_basis,
    substitute_n,
    sum_f,
    sum_g,
)
from harmonic_sums.render import factor_for_display, polynomial_text

N = Polynomial.variable()


class TestTextRendering:
    def test_weighted_sum_shape(self):
        assert render(sum_f(1, 1)) == "H_n^(-1) H_{n+1} - 1/4 n(n+1)"

    def test_zero(self):
        assert render(ClosedForm.zero()) == "0"

    def test_plain_sum(self):
        assert render(sum_f(0, 1)) == "(n+1) H_{n+1} - (n+1)"

    def test_term_order_is_deterministic(self):
        # descending order first, then descending argument slope
        cf = offset_sum_f(0, 2, LinearArg(1, 0))
        text = render(cf)
        assert text.index("H_{2n+1}^(2)") < text.index("H_n^(2)")
        assert text.index("H_n^(2)") < text.index("H_{2n+1} ")

    def test_integer_coefficient_display(self):
        assert render(sum_g(3, 2)) == (
            "H_n^(-3) H_{n+1}^(2) - 3 H_n^(-2) H_{n+1} + 13/24 n(n+1)(2n+1)"
        )

    def test_rational_function_constant(self):
        cf = ClosedForm(1 / (N + 1))
        assert render(cf) == "(1)/((n+1))"

    def test_fractional_root_and_repeated_pole(self):
        # the root -1/2 moves its 1/2 into the content; (n+2)^2 is a double pole
        cf = ClosedForm((3 * N - 1) / ((2 * N + 1) * (N + 2) ** 2))
        assert render(cf) == "(1/2 (3n-1))/(1/2 (n+2)^2(2n+1))"
        assert render(cf, "latex") == (
            "\\frac{\\frac{1}{2}(3n-1)}{\\frac{1}{2}(n+2)^{2}(2n+1)}"
        )

    def test_shifted_basis_with_pole(self):
        cf = shift_basis(sum_f(1, 2), frozenset({LinearArg(1, 2)}))
        assert render(cf) == (
            "H_n^(-1) H_{n+2}^(2) + 1/2 H_{n+2} - (1/2 (n^3+6n^2+10n+6))/((n+2)^2)"
        )

    def test_pole_past_root_bound_prints_from_the_poles(self):
        # the double pole at n = -5001 lies past ROOT_BOUND: the denominator
        # prints from the poles, not as the unsplit n^2+10002n+25010001
        cf = shift_basis(
            ClosedForm(0, {HarmonicSymbol(LinearArg(1, 5000), 2): 1}),
            frozenset({LinearArg(1, 5001)}),
        )
        assert render(cf) == "H_{n+5001}^(2) - (1)/((n+5001)^2)"
        assert render(cf, "latex") == "H_{n+5001}^{(2)} - \\frac{1}{(n+5001)^{2}}"


class TestPolynomialDisplay:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0, "n"),
            (1, "1/2 n(n+1)"),
            (2, "1/6 n(n+1)(2n+1)"),
            (3, "1/4 n^2(n+1)^2"),
            (4, "1/30 n(n+1)(2n+1)(3n^2+3n-1)"),
            (5, "1/12 n^2(n+1)^2(2n^2+2n-1)"),
        ],
    )
    def test_power_sum_factoring(self, p, expected):
        assert polynomial_text(faulhaber_poly(p)) == expected

    def test_irreducible_part_kept_whole(self):
        poly = N * (N + 1) * (72 * N**3 + 243 * N**2 + 167 * N - 32)
        assert polynomial_text(poly) == "n(n+1)(72n^3+243n^2+167n-32)"

    def test_constant_polynomial(self):
        assert polynomial_text(Polynomial.of([Fraction(-3, 4)])) == "-3/4"
        assert polynomial_text(Polynomial()) == "0"

    def test_negative_cofactor_sign_goes_to_the_content(self):
        # the irreducible cofactor is shown with a positive leading coefficient
        assert polynomial_text(-(N**2 + N + 1)) == "-(n^2+n+1)"
        assert polynomial_text(-(N**2 + N + 1), latex=True) == "-(n^{2}+n+1)"
        assert polynomial_text(-N * (N**2 + N + 1)) == "-n(n^2+n+1)"
        assert polynomial_text(3 - N) == "-(n-3)"


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # A fresh interpreter with a timeout, so a search that blows up fails
    # the test instead of hanging the suite.
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=20
    )


class TestRootSearchIsBounded:
    """Large coefficients: display factoring must finish however big they are."""

    @pytest.mark.parametrize(
        "argv,head",
        [
            (("faulhaber", "--p", "40"), "sum_(k=1..n) k^40 = 1/94710 n(n+1)(2n+1)(1155n^38+"),
            (("identity", "--family", "f", "--p", "10", "--m", "2",
              "--offset-a", "5", "--offset-b", "5"), "1/11 (n+1)(48828126n^10+"),
            (("identity", "--family", "g", "--p", "16", "--m", "-10",
              "--offset-a", "10", "--offset-b", "10"), "1/16062686640 n(n+1)(9143516150704256324n^26+"),
        ],
        ids=["faulhaber-p40", "f-p10-m2-s5n+5", "g-p16-m-10-s10n+10"],
    )  # fmt: skip
    def test_cli_text_render_finishes(self, argv, head):
        result = _run_python("-m", "harmonic_sums", *argv)
        assert result.returncode == 0
        assert result.stdout.startswith(head)

    def test_huge_primitive_polynomial(self):
        # L n^12 + n + L with L = lcm(1..40): no small rational root, and
        # L has 36,864 divisors, so trying every divisor pair never finishes
        result = _run_python(
            "-c",
            "from math import lcm; from harmonic_sums import Polynomial; "
            "from harmonic_sums.render import polynomial_text; "
            "L = lcm(*range(1, 41)); "
            "print(polynomial_text(Polynomial([L, 1] + [0] * 10 + [L])))",
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "(5342931457063200n^12+n+5342931457063200)"


class TestLatexRendering:
    def test_weighted_sum(self):
        assert render(sum_f(1, 1), "latex") == (
            "H_n^{(-1)} H_{n+1} - \\frac{1}{4}n(n+1)"
        )

    def test_order_superscript(self):
        text = render(sum_f(0, 2), "latex")
        assert "H_{n+1}^{(2)}" in text

    def test_offset_identity(self):
        text = render(offset_sum_f(2, 1, LinearArg(2, 0)), "latex")
        assert text == (
            "\\frac{1}{2}n(2n+1)(3n+1) H_{3n+1}"
            " - \\frac{1}{3}n(2n+1)(4n+1) H_{2n}"
            " - \\frac{1}{36}n(n+1)(40n+17)"
        )


def test_render_sweep_digest():
    # text, LaTeX and JSON of 864 offset forms, each render followed by a NUL
    digest = hashlib.sha256()
    for family in (offset_sum_f, offset_sum_g):
        for p in range(6):
            for m in range(-3, 5):
                for a in range(3):
                    for b in range(3):
                        cf = family(p, m, LinearArg(a, b))
                        for fmt in ("text", "latex", "json"):
                            digest.update(render(cf, fmt).encode() + b"\0")
    assert digest.hexdigest() == (
        "91038cd19a76de471fffae7b4fa59e72fe924ae05533cc8597fc3122f59c5d70"
    )


def test_offset_harmonic_sweep_digest():
    # text and JSON of 1,134 H_{s,k} variants, each the offset sum minus
    # P(n) H_s^(m), each render followed by a NUL: the H_s^(m) correction
    # meets G's boundary term at s
    digest = hashlib.sha256()
    for family in (offset_sum_f, offset_sum_g):
        for p in range(7):
            weight = faulhaber_poly(p) + int_pow(0, p)
            for m in range(-3, 6):
                for a in range(3):
                    for b in range(3):
                        s = LinearArg(a, b)
                        cf = family(p, m, s) - harmonic_term(s, m).scale(weight)
                        for fmt in ("text", "json"):
                            digest.update(render(cf, fmt).encode() + b"\0")
    assert digest.hexdigest() == (
        "df296ec4d60813cb68fc738420278eaea6a35589990d2c3b35519be8d2da2a51"
    )


def test_render_pole_and_label_digest():
    # text, LaTeX and JSON of 541 forms with negative offsets and poles: 270
    # builds at n-1, each also with every symbol shifted up one step, and
    # the double pole past ROOT_BOUND; then both labels of each table entry
    digest = hashlib.sha256()
    forms = [
        shift_basis(
            ClosedForm(0, {HarmonicSymbol(LinearArg(1, 5000), 2): 1}),
            frozenset({LinearArg(1, 5001)}),
        )
    ]
    for family in (offset_sum_f, offset_sum_g):
        for p in range(5):
            for m in range(1, 4):
                for a in range(3):
                    for b in range(3):
                        cf = substitute_n(family(p, m, LinearArg(a, b)), LinearArg(1, -1))
                        up = frozenset(sym.arg.shifted(1) for sym in cf.symbols())
                        forms += [cf, shift_basis(cf, up)]
    for cf in forms:
        for fmt in ("text", "latex", "json"):
            digest.update(render(cf, fmt).encode() + b"\0")
    for entry in catalog_entries():
        for fmt in ("text", "latex"):
            digest.update(entry.lhs_label(fmt).encode() + b"\0")
    assert digest.hexdigest() == (
        "bea6b5cd433ec184e0b2da85c744b9e5813c98be616e115c692b4a64179bb269"
    )


def _memo_forms():
    """The catalogue, a few offset builds and three forms with poles."""
    forms = [entry.closed_form for entry in catalog_entries()]
    forms += [offset_sum_f(3, 2, LinearArg(2, 1)), offset_sum_g(4, -2, LinearArg(1, 3))]
    forms += [offset_sum_g(2, 3, LinearArg(2, 2)), ClosedForm.zero()]
    forms += [
        shift_basis(sum_f(1, 2), frozenset({LinearArg(1, 2)})),
        ClosedForm((3 * N - 1) / ((2 * N + 1) * (N + 2) ** 2)),
        ClosedForm((N + 1) / (2 * N + 3), {HarmonicSymbol(LinearArg(3, -2), 4): 1 / (N + 5)}),
    ]
    return forms


def _factored_polynomials(cf):
    """What text and LaTeX factor for display, read off the form: each
    printed coefficient's numerator with its sign taken out. A symbol's bare
    +/-1 or power-sum multiple prints unfactored, a zero as 0, and a
    denominator from its poles."""
    printed = [(coeff, True) for _, coeff in cf.terms]
    if cf.constant or not cf.terms:
        printed.append((cf.constant, False))
    for rf, on_symbol in printed:
        if not rf:
            continue
        num = rf.num if rf.num.leading > 0 else -rf.num
        if on_symbol and rf.is_polynomial:
            if num.degree == 0 and num.leading == 1:
                continue
            if num.degree >= 2:
                power_sum = faulhaber_poly(num.degree - 1)
                if num == power_sum * (num.leading / power_sum.leading):
                    continue
        yield num


class TestDisplayMemo:
    def test_each_distinct_polynomial_is_factored_once(self):
        forms = _memo_forms()
        distinct = {poly for cf in forms for poly in _factored_polynomials(cf)}
        factor_for_display.cache_clear()
        for fmt in ("text", "latex"):
            for cf in forms:
                render(cf, fmt)
        assert factor_for_display.cache_info().misses == len(distinct)
        for poly in distinct:
            _, factors = factor_for_display(poly)
            assert isinstance(factors, tuple)
            assert all(isinstance(factor, tuple) and isinstance(factor[0], tuple) for factor in factors)

    def test_shared_memo_is_thread_safe(self):
        jobs = [(cf, fmt) for cf in _memo_forms() for fmt in ("text", "latex")]
        jobs += jobs[::-1]  # threads meet on the same polynomials, cold and warm
        serial = [render(cf, fmt) for cf, fmt in jobs]
        factor_for_display.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's calls
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: render(*job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestJsonContract:
    def _forms(self):
        yield ClosedForm.zero()
        yield sum_f(0, 1)
        yield sum_f(5, 4)
        yield sum_g(4, 3)
        yield offset_sum_f(3, 2, LinearArg(2, 1))
        yield ClosedForm(
            (N + 1) / (2 * N + 3),
            {HarmonicSymbol(LinearArg(3, -2), 4): 1 / (N + 5)},
        )

    def test_round_trip(self):
        for cf in self._forms():
            assert parse_closed_form(render(cf, "json")) == cf

    def test_validates_against_published_schema(self):
        for cf in self._forms():
            jsonschema.validate(closed_form_to_json(cf), CLOSED_FORM_SCHEMA)

    def test_integers_are_strings(self):
        data = closed_form_to_json(sum_f(1, 1))
        assert data["constant"]["num"] == ["0", "-1", "-1"]
        assert data["constant"]["den"] == ["4"]
        for term in data["terms"]:
            assert all(isinstance(c, str) for c in term["coeff"]["num"])

    def test_rendered_json_is_parseable_text(self):
        text = render(sum_f(2, 2), "json")
        data = json.loads(text)
        assert set(data) == {"constant", "terms"}

    @pytest.mark.parametrize("den", [["1", "0", "1"], ["1001", "1"]], ids=["n^2+1", "n+1001"])
    def test_denominator_that_does_not_split_is_refused(self, den):
        data = {"constant": {"num": ["1"], "den": den}, "terms": []}
        with pytest.raises(ValueError, match="does not split"):
            parse_closed_form(data)

    @staticmethod
    def _shifted_pole(b):
        # H_{n+b}^(2) moved onto n+b+1: the constant gets a double pole at n = -(b+1)
        cf = ClosedForm(0, {HarmonicSymbol(LinearArg(1, b), 2): 1})
        return shift_basis(cf, frozenset({LinearArg(1, b + 1)}))

    def test_round_trip_of_a_pole_at_root_bound(self):
        cf = self._shifted_pole(999)  # the pole -1000 is just within ROOT_BOUND
        assert parse_closed_form(closed_form_to_json(cf)) == cf

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="known defect: parsing splits the expanded denominator (n+5001)^2 "
        "with the root search bounded by ROOT_BOUND = 1000",
    )
    def test_round_trip_of_a_pole_past_root_bound(self):
        cf = self._shifted_pole(5000)
        assert parse_closed_form(closed_form_to_json(cf)) == cf

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(ClosedForm.zero(), "html")
