"""Scalar layer: binomials, powers, Bernoulli numbers."""

import sys
import threading
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod

import pytest

from harmonic_sums import BernoulliCache, bernoulli_plus, binomial, exact, int_pow


def akiyama_tanigawa(count: int) -> list[Fraction]:
    """Independent Bernoulli oracle (B_1 = +1/2 convention).

    Triangle algorithm, entirely unrelated to the recurrence used by the
    package.
    """
    row: list[Fraction] = []
    out = []
    for m in range(count + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def seidel_entringer_tangents(count: int) -> list[int]:
    """Independent tangent-number oracle: T_1..T_count from the
    Seidel-Entringer (boustrophedon) triangle, whose row r starts at 0 and
    runs the partial sums of row r - 1 reversed. The last entry of row r
    is the zigzag number E_r, and T_j = E_{2j-1}."""
    row, out = [1], []
    while len(out) < count:
        row = list(accumulate(reversed(row), initial=0))
        if len(row) % 2 == 0:  # row 2j - 1
            out.append(row[-1])
    return out


class TestBernoulli:
    def test_base_cases(self):
        assert bernoulli_plus(0) == 1
        assert bernoulli_plus(1) == Fraction(1, 2)

    def test_known_values(self):
        # frozen from the Akiyama-Tanigawa oracle below
        assert bernoulli_plus(2) == Fraction(1, 6)
        assert bernoulli_plus(4) == Fraction(-1, 30)
        assert bernoulli_plus(7) == 0
        assert bernoulli_plus(12) == Fraction(-691, 2730)

    def test_matches_independent_oracle(self):
        expected = akiyama_tanigawa(100)
        for k in range(101):
            assert bernoulli_plus(k) == expected[k], k

    def test_von_staudt_clausen_denominators(self):
        # the denominator of B_2k is the product of the primes p with (p - 1) | 2k
        primes = [p for p in range(2, 1002) if all(p % d for d in range(2, int(p**0.5) + 1))]
        for k in range(1, 501):
            expected = prod(p for p in primes if (2 * k) % (p - 1) == 0)
            assert bernoulli_plus(2 * k).denominator == expected, 2 * k

    def test_even_signs_alternate(self):
        for k in range(1, 501):
            assert (bernoulli_plus(2 * k) > 0) == (k % 2 == 1), 2 * k

    def test_odd_indices_vanish(self):
        for k in range(1, 15):
            assert bernoulli_plus(2 * k + 1) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_plus(-1)

    def test_cache_is_deterministic_and_monotone(self):
        cache = BernoulliCache()
        first = cache.get(20)
        size = len(cache)
        again = cache.get(20)
        assert first == again
        assert len(cache) == size  # no recomputation, no shrinking
        cache.get(5)
        assert len(cache) == size

    def test_results_are_reduced(self):
        for k in range(0, 25):
            value = bernoulli_plus(k)
            assert gcd(abs(value.numerator), value.denominator) == 1
            assert value.denominator > 0

    def test_failed_growth_leaves_a_consistent_cache(self, monkeypatch):
        fast = exact._next_column
        calls = 0

        def failing_next_column(column):
            nonlocal calls
            calls += 1
            if calls == 4:  # the column of T_5, which gives B_10
                raise RuntimeError("interrupted growth")
            return fast(column)

        cache = BernoulliCache()
        monkeypatch.setattr(exact, "_next_column", failing_next_column)
        with pytest.raises(RuntimeError):
            cache.get(20)
        monkeypatch.setattr(exact, "_next_column", fast)
        assert len(cache) == 10  # B_0..B_9, with the column for B_10 never published
        assert [cache.get(k) for k in range(41)] == akiyama_tanigawa(40)

    def test_tangent_numbers(self):
        column, tangents = [1], [1]
        for _ in range(9):
            column = exact._next_column(column)
            tangents.append(column[-1])
        expected = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976, 29088885112832]
        assert tangents == expected
        assert seidel_entringer_tangents(10) == expected

    def test_matches_the_seidel_entringer_triangle(self):
        # B_0..B_600, the benchmark's size, from a fresh cache
        cache = BernoulliCache()
        tangents = seidel_entringer_tangents(300)
        expected = [Fraction(1), Fraction(1, 2)]
        for m in range(2, 601):
            j = m // 2
            tangent = 0 if m % 2 else (-1) ** (j - 1) * tangents[j - 1]
            expected.append(Fraction(m * tangent, 4**j * (4**j - 1)))
        assert [cache.get(k) for k in range(601)] == expected


class TestBernoulliCacheUnderThreads:
    """Several threads growing one fresh cache must see the serial values and add each index once."""

    @pytest.mark.parametrize("walk", [True, False], ids=["walk", "jump"])
    def test_concurrent_growth(self, walk):
        k_max = 200
        serial = BernoulliCache()
        expected = [serial.get(k) for k in range(k_max + 1)]
        cache = BernoulliCache()
        start = threading.Barrier(4)
        results: dict[int, list[Fraction]] = {}

        def work(i: int) -> None:
            start.wait()
            if not walk:
                cache.get(k_max)
            results[i] = [cache.get(k) for k in range(k_max + 1)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, in mid-growth
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for values in results.values():
            assert values == expected
        assert len(cache) == k_max + 1


class TestBinomial:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(5, 2, 10), (6, 0, 1), (3, 5, 0), (3, -1, 0), (0, 0, 1), (10, 10, 1)],
    )
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestIntPow:
    def test_zero_to_the_zero_is_one(self):
        assert int_pow(0, 0) == 1
        assert int_pow(Fraction(0), 0) == 1

    @pytest.mark.parametrize(
        "base,exp,expected",
        [
            (Fraction(3, 2), 2, Fraction(9, 4)),
            (2, -3, Fraction(1, 8)),
            (Fraction(-2, 3), 3, Fraction(-8, 27)),
            (7, 0, 1),
        ],
    )
    def test_values(self, base, exp, expected):
        assert int_pow(base, exp) == expected

    @pytest.mark.parametrize(
        "base,exp,expected",
        [(3, 2, 9), (0, 0, 1), (2, -3, Fraction(1, 8)), (Fraction(3), 2, Fraction(9))],
    )
    def test_result_type(self, base, exp, expected):
        # an int base to a nonnegative power stays an int; a negative power is a Fraction
        value = int_pow(base, exp)
        assert value == expected and type(value) is type(expected)

    def test_zero_base_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            int_pow(0, -2)

    def test_results_are_reduced(self):
        for base in (Fraction(6, 4), Fraction(-10, 15), Fraction(9)):
            for exp in (-3, -1, 0, 2, 5):
                value = int_pow(base, exp)
                assert gcd(abs(value.numerator), value.denominator) == 1
