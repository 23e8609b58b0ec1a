"""Acceptance gate: every contract criterion at its stated tolerance.

All equality checks are exact (rational arithmetic; no epsilon anywhere).
Each criterion prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see them as they execute.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import known_identities as known
from harmonic_sums import (
    LinearArg,
    cli,
    corollary_rows,
    evaluate_cf,
    faulhaber_poly,
    lhs_direct,
    offset_sum_f,
    offset_sum_g,
    sbp_rows,
    sum_f,
    sum_g,
)
import test_properties as props

S0 = LinearArg(0, 0)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS  {description} [{elapsed:.3f}s]")


def test_01_power_sum_catalog():
    with criterion(1, "power-sum polynomials p=0..5, exact, < 1 ms"):
        start = time.perf_counter()
        results = [faulhaber_poly(p) for p in range(6)]
        elapsed = time.perf_counter() - start
        for p, poly in enumerate(results):
            assert poly == known.POWER_SUMS[p], p
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_02_forward_catalog():
    with criterion(2, "forward sums, 24 (p, m) pairs, exact, < 1 s"):
        start = time.perf_counter()
        forms = {key: sum_f(*key) for key in known.F_SUMS}
        elapsed = time.perf_counter() - start
        for key, cf in forms.items():
            assert cf == known.F_SUMS[key], key
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_03_reversed_catalog():
    with criterion(3, "reversed sums, 18 (p, m) pairs, exact"):
        for key, expected in known.G_SUMS.items():
            assert sum_g(*key) == expected, key


def test_04_offset_forward_catalog():
    with criterion(4, "offset forward sums, 18 entries (s=n, s=2n), exact"):
        for (p, m, s), expected in known.OFFSET_F_SUMS.items():
            assert offset_sum_f(p, m, LinearArg(*s)) == expected, (p, m, s)


def test_05_offset_reversed_catalog():
    with criterion(5, "offset reversed sums, 6 entries (s=n), exact"):
        for (p, m, s), expected in known.OFFSET_G_SUMS.items():
            assert offset_sum_g(p, m, LinearArg(*s)) == expected, (p, m, s)


def test_06_oracle_grid():
    with criterion(6, "brute-force grid, both families, ~25830 cells, < 60 s"):
        start = time.perf_counter()
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify", "--format", "json"])
        elapsed = time.perf_counter() - start
        report = json.loads(out.getvalue())
        assert code == 0
        assert report["all_passed"], [grid["failures"][:3] for grid in report["grids"]]
        assert [grid["family"] for grid in report["grids"]] == ["F", "G"]
        total = sum(grid["total"] for grid in report["grids"])
        assert total == sum(grid["passed"] for grid in report["grids"])
        assert total == 2 * 7 * 5 * 9 * 41 == 25830
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_07_negative_order_collapse():
    with criterion(7, "nonpositive orders collapse to polynomials, exact"):
        for p in range(4):
            for q in range(4):
                cf = sum_f(p, -q)
                assert cf.is_polynomial, (p, -q)
                for n in range(31):
                    assert evaluate_cf(cf, n) == lhs_direct("F", p, -q, S0, n), (p, q, n)


def test_08_summation_by_parts():
    with criterion(8, "summation by parts, m in -2..3, w in -3..3, n in 0..30"):
        for m in range(-2, 4):
            for w in range(-3, 4):
                for row in sbp_rows(m, w, 30):
                    assert row.passed, (m, w, row.n)


def test_09_corollary_identities():
    with criterion(9, "weighted corollary identities, inv_k n in 1..100, inv_k_plus_1 n in 0..100"):
        rows = {which: list(corollary_rows(which, 100)) for which in ("inv_k", "inv_k_plus_1")}
        spot = rows["inv_k"][2]
        assert spot.n == 3
        assert spot.lhs == Fraction(85, 36)
        assert spot.passed
        assert [row.n for row in rows["inv_k"]] == list(range(1, 101))
        assert [row.n for row in rows["inv_k_plus_1"]] == list(range(101))
        for which, sweep in rows.items():
            for row in sweep:
                assert row.passed, (which, row.n)


def test_10_zero_offset_degeneracy():
    with criterion(10, "zero offset degenerates to the plain sums, canonically"):
        for p in range(7):
            for m in range(1, 6):
                assert offset_sum_f(p, m, S0) == sum_f(p, m), (p, m)
                assert offset_sum_g(p, m, S0) == sum_g(p, m), (p, m)


def test_11_property_suites():
    with criterion(11, "four property suites, >= 200 random instances each"):
        props.test_shift_basis_preserves_evaluation()
        props.test_substitution_commutes_with_evaluation()
        props.test_canonicalization_is_idempotent()
        props.test_offset_harmonic_splits_into_difference()
