"""Brute-force evaluators and grid verification."""

import ast
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from harmonic_sums import closed_form, identities, oracle
from harmonic_sums import (
    ClosedForm,
    LinearArg,
    build_closed_form,
    evaluate_cf,
    grid_rows,
    harmonic_direct,
    int_pow,
    lhs_direct,
)
import test_properties as props

S0 = LinearArg(0, 0)


class TestHarmonicDirect:
    def test_plain_values(self):
        assert harmonic_direct(0, 4, 1) == Fraction(25, 12)
        assert harmonic_direct(0, 0, 7) == 0

    def test_offset_value(self):
        # 1/9 + 1/16 + 1/25
        assert harmonic_direct(2, 3, 2) == Fraction(769, 3600)

    def test_negative_order_is_power_sum(self):
        assert harmonic_direct(0, 4, -3) == 100

    def test_recurrence(self):
        for c in (0, 1, 5):
            for m in (-2, 1, 3):
                for n in range(20):
                    step = harmonic_direct(c, n, m) + int_pow(Fraction(c + n + 1), -m)
                    assert harmonic_direct(c, n + 1, m) == step

    def test_offset_splits_into_difference(self):
        for c in range(6):
            for m in (1, 2, 4):
                for n in range(15):
                    assert harmonic_direct(c, n, m) == harmonic_direct(
                        0, c + n, m
                    ) - harmonic_direct(0, c, m)

    def test_validation(self):
        with pytest.raises(ValueError):
            harmonic_direct(-1, 3, 1)
        with pytest.raises(ValueError):
            harmonic_direct(0, -3, 1)


class TestPrefixCachesUnderThreads:
    """Several threads growing one harmonic prefix list must not append an index twice."""

    @pytest.mark.parametrize(
        "module,cache,lookup",
        [
            (oracle, "_PREFIX", lambda n: oracle.harmonic_direct(0, n, 2)),
            (closed_form, "_VALUE_CACHE", lambda n: closed_form.harmonic_value(n, 2)),
        ],
        ids=["oracle", "closed_form"],
    )
    def test_concurrent_growth(self, monkeypatch, module, cache, lookup):
        fast = module.int_pow

        def slow_int_pow(base, exp):
            time.sleep(0.0005)  # yields the interpreter lock in mid-growth
            return fast(base, exp)

        monkeypatch.setattr(module, cache, {})
        monkeypatch.setattr(module, "int_pow", slow_int_pow)
        n_max = 40
        start = threading.Barrier(4)
        results: dict[int, list[Fraction]] = {}

        def work(i: int) -> None:
            start.wait()
            results[i] = [lookup(n) for n in range(n_max + 1)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        literal = [
            sum((Fraction(1, k * k) for k in range(1, n + 1)), Fraction(0))
            for n in range(n_max + 1)
        ]
        assert sorted(results) == [0, 1, 2, 3]
        for values in results.values():
            assert values == literal

    def test_concurrent_sweeps(self, monkeypatch):
        # four sweeps over different forms grow the same order-2 and order-1
        # prefixes at once, then read them outside the lock
        forms = [
            build_closed_form("F", 2, 2, LinearArg(1, 1)),
            build_closed_form("G", 1, 2, LinearArg(2, 0)),
            build_closed_form("F", 0, 2, LinearArg(2, 2)),
            build_closed_form("G", 3, 2, LinearArg(1, 0)),
        ]
        n_max = 30
        serial = [list(closed_form._evaluate_pairs(cf, 0, n_max)) for cf in forms]
        fast = closed_form.int_pow

        def slow_int_pow(base, exp):
            time.sleep(0.0005)  # yields the interpreter lock in mid-growth
            return fast(base, exp)

        monkeypatch.setattr(closed_form, "_VALUE_CACHE", {})
        monkeypatch.setattr(closed_form, "int_pow", slow_int_pow)
        start = threading.Barrier(4)
        results: dict[int, list[tuple[int, int]]] = {}

        def work(i: int) -> None:
            start.wait()
            results[i] = list(closed_form._evaluate_pairs(forms[i], 0, n_max))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert [results.get(i) for i in range(4)] == serial
        assert len(closed_form._VALUE_CACHE[2]) == 3 * n_max + 4  # once to H_{3n+3}, the largest

    @pytest.mark.parametrize(
        "module,cache,lock,lookup",
        [
            (oracle, "_PREFIX", "_PREFIX_LOCK", lambda n: oracle.harmonic_direct(0, n, 2)),
            (closed_form, "_VALUE_CACHE", "_VALUE_LOCK", lambda n: closed_form.harmonic_value(n, 2)),
        ],
        ids=["oracle", "closed_form"],
    )  # fmt: skip
    def test_slowed_power_runs_inside_locked_growth(self, monkeypatch, module, cache, lock, lookup):
        # the slowed int_pow of test_concurrent_growth sits inside the race
        # window: each growth step calls it with the lock held, and four
        # threads together call it once per index and once per lcm move,
        # as one thread would
        fast = module.int_pow
        calls: list[bool] = []

        def slow_int_pow(base, exp):
            calls.append(getattr(module, lock).locked())
            time.sleep(0.0005)
            return fast(base, exp)

        monkeypatch.setattr(module, cache, {})
        monkeypatch.setattr(module, "int_pow", slow_int_pow)
        n_max = 40
        start = threading.Barrier(4)

        def work() -> None:
            start.wait()
            for n in range(n_max + 1):
                lookup(n)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        lcm_moves = sum(lcm(*range(1, k + 1)) != lcm(*range(1, k)) for k in range(2, n_max + 1))
        assert len(calls) == n_max + lcm_moves
        assert all(calls)

    @pytest.mark.parametrize(
        "module,cache,lookup",
        [
            (oracle, "_PREFIX", lambda n: oracle.harmonic_direct(3, n, 2)),
            (closed_form, "_VALUE_CACHE", lambda n: closed_form.harmonic_value(n, 2)),
        ],
        ids=["oracle", "closed_form"],
    )
    def test_interrupted_growth_leaves_a_valid_prefix(self, monkeypatch, module, cache, lookup):
        fast = module.int_pow
        budget = [25]

        def failing_int_pow(base, exp):
            budget[0] -= 1
            if budget[0] < 0:
                raise KeyboardInterrupt
            return fast(base, exp)

        monkeypatch.setattr(module, cache, {})
        monkeypatch.setattr(module, "int_pow", failing_int_pow)
        with pytest.raises(KeyboardInterrupt):
            lookup(40)
        (prefix,) = getattr(module, cache).values()
        assert 1 < len(prefix) <= 40
        monkeypatch.setattr(module, "int_pow", fast)
        offset = 3 if module is oracle else 0
        reference = reference_prefix(offset, 2, 40)
        for n in range(41):  # below the interrupted growth, then past it
            assert lookup(n) == reference[n]


def reference_prefix(c, m, n_max):
    """H_{c,0}^(m), ..., H_{c,n_max}^(m) as a running Fraction sum."""
    values = [Fraction(0)]
    for k in range(1, n_max + 1):
        values.append(values[-1] + Fraction(c + k) ** -m)
    return values


@contextmanager
def empty_prefix_caches():
    """Both harmonic prefix caches empty for the block, restored after it."""
    saved = oracle._PREFIX, closed_form._VALUE_CACHE
    oracle._PREFIX, closed_form._VALUE_CACHE = {}, {}
    try:
        yield
    finally:
        oracle._PREFIX, closed_form._VALUE_CACHE = saved


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-3, max_value=6),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=6),
)
@example(2, 3, [60, 0, 17, 59])  # reads below the growth
@example(0, 1, [10, 11, 60])  # reads that extend it
@example(5, -3, [0, 60, 30])
@example(1, 0, [7, 7, 0])
def test_prefix_caches_match_fraction_reference(c, m, reads):
    """Each cache entry is the unreduced pair (num, l), l = lcm(c+1..c+k),
    whose value num / l**m is the running Fraction sum; for m <= 0 it is
    (sum, 1). closed_form keeps a table for m >= 1 only: below that,
    ``harmonic_value`` is the power-sum polynomial's value."""
    reference = reference_prefix(c, m, 60)
    plain = reference_prefix(0, m, c + 60)
    with empty_prefix_caches():
        for n in reads:
            assert harmonic_direct(c, n, m) == reference[n]
            assert closed_form.harmonic_value(c + n, m) == plain[c + n]
            entries = [(c, oracle._prefix(c, m, n)[n], reference[n])]
            if m > 0:
                entries.append((0, closed_form._prefix(m, c + n)[c + n], plain[c + n]))
            for base, entry, value in entries:
                l = lcm(*range(base + 1, c + n + 1)) if m > 0 else 1
                assert entry == (value * l ** max(m, 0), l)
        # one pair per index, up to the highest read
        assert len(oracle._PREFIX[c, m]) == max(reads) + 1
        if m > 0:
            assert len(closed_form._VALUE_CACHE[m]) == c + max(reads) + 1
        else:
            assert closed_form._VALUE_CACHE == {}


def literal_double_sum(family, p, m, s, n):
    """sum_k k**p H_j^(m), j = s+k (F) or s+n-k (G), each H_j summed afresh."""
    base = s.at(n)
    total = Fraction(0)
    for k in range(n + 1):
        j = base + k if family == "F" else base + n - k
        total += k**p * sum((Fraction(i) ** -m for i in range(1, j + 1)), Fraction(0))
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from("FG"),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-3, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=20),
)
@example("F", 2, 3, 3, 3, 20)
@example("G", 0, 1, 1, 1, 0)
def test_lhs_direct_equals_literal_double_sum_at_positive_offsets(family, p, m, a, b, n):
    s = LinearArg(a, b)
    assert lhs_direct(family, p, m, s, n) == literal_double_sum(family, p, m, s, n)


def first_grid_row(family, p, m, s, n_max):
    return next(grid_rows(family, p, m, s, ClosedForm.zero(), n_max))


# the direct sum and a grid sweep refuse the same arguments with the same text,
# the sweep before its first row
ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [lhs_direct, first_grid_row], ids=["lhs_direct", "grid_rows"]
)


class TestLhsDirect:
    def test_forward_examples(self):
        assert lhs_direct("F", 0, 1, S0, 2) == Fraction(5, 2)
        assert lhs_direct("F", 0, 1, S0, 0) == 0

    def test_reversed_example(self):
        assert lhs_direct("G", 1, 1, S0, 2) == 1

    @ENTRY_POINTS
    def test_unknown_family_rejected(self, entry):
        with pytest.raises(ValueError, match=r"^unknown family 'Q'; expected 'F' or 'G'$"):
            entry("Q", 0, 1, S0, 1)

    @ENTRY_POINTS
    def test_negative_offset_rejected(self, entry):
        for family in "FG":
            with pytest.raises(ValueError, match=r"^offset n-3 must be nonnegative at n = 0, got -3$"):
                entry(family, 1, 1, LinearArg(1, -3), 0)

    @ENTRY_POINTS
    def test_negative_power_rejected(self, entry):
        for family in "FG":
            with pytest.raises(ValueError, match=r"^p and n must be nonnegative$"):
                entry(family, -1, 1, S0, 2)

    # the verify-deep rows of the benchmark at its largest n, then one deep
    # row at m <= 0 and one at a constant offset
    @pytest.mark.parametrize(
        "family,p,m,a,b",
        [
            ("F", 2, 2, 2, 1), ("G", 3, 1, 1, 0), ("F", 4, 1, 2, 0), ("G", 1, 3, 2, 2),
            ("F", 3, -2, 2, 1), ("G", 2, 2, 0, 5),
        ],
    )  # fmt: skip
    def test_deep_rows_match_fraction_reference(self, family, p, m, a, b):
        s = LinearArg(a, b)
        assert lhs_direct(family, p, m, s, 399) == props.reference_lhs_direct(family, p, m, s, 399)


class TestVerifyGrid:
    def test_small_grid_passes(self):
        rows = [
            (p, m, s, row)
            for p in range(3)
            for m in (1, 2)
            for s in (S0, LinearArg(1, 0))
            for row in grid_rows("F", p, m, s, build_closed_form("F", p, m, s), 10)
        ]
        assert len(rows) == 3 * 2 * 2 * 11
        assert all(row.passed for *_, row in rows)
        assert [row.n for *_, row in rows] == list(range(11)) * 12
        for p, m, s, row in rows:
            assert row.lhs == lhs_direct("F", p, m, s, row.n)

    def test_corrupted_form_is_caught(self):
        cf = build_closed_form("G", 1, 1, S0)
        corrupt = ClosedForm(cf.constant + 1, cf.terms)
        rows = list(grid_rows("G", 1, 1, S0, corrupt, 5))
        assert [row.n for row in rows] == list(range(6))
        assert not any(row.passed for row in rows)
        assert all(row.rhs - row.lhs == 1 for row in rows)
        # each row cross-multiplies the two unreduced pairs; for m <= 0 the
        # direct sum's denominator is 1
        for family in "FG":
            for m in (-2, 0, 1, 3):
                for s in (S0, LinearArg(1, 0), LinearArg(2, 1)):
                    good = build_closed_form(family, 2, m, s)
                    for form in (good, ClosedForm(good.constant + 1, good.terms)):
                        for row in grid_rows(family, 2, m, s, form, 4):
                            lhs = lhs_direct(family, 2, m, s, row.n)
                            rhs = evaluate_cf(form, row.n)
                            assert row.passed == (lhs == rhs) == (form is good)
                            assert (row.lhs, row.rhs) == (lhs, rhs)


def literal_h(n, m):
    """H_n^(m) = sum_{k=1}^n k**-m, one Fraction term at a time."""
    return sum((Fraction(k) ** -m for k in range(1, n + 1)), Fraction(0))


class TestCheckRows:
    """The summation-by-parts and corollary rows at small n, against literal sums."""

    @pytest.mark.parametrize("m,w", [(1, 1), (2, 1), (1, 3), (0, 2), (2, -1), (-1, 2), (3, -2)])
    def test_sbp_rows_match_literal_sums(self, m, w):
        rows = list(oracle.sbp_rows(m, w, 8))
        assert [row.n for row in rows] == list(range(9))
        for row in rows:
            n = row.n
            # the k = 0 term is zero since H_0 = 0, also where 0**w is a pole
            terms = ((Fraction(k + 1) ** w - Fraction(k) ** w) * literal_h(k, m) for k in range(1, n + 1))
            lhs = sum(terms, Fraction(0))
            rhs = Fraction(n + 1) ** w * literal_h(n, m) - literal_h(n, m - w)
            assert row.den > 0 and (row.lhs, row.rhs) == (lhs, rhs), (m, w, n)
            assert row.passed

    def test_corollary_rows_match_literal_sums(self):
        inv_k = list(oracle.corollary_rows("inv_k", 6))
        assert [row.n for row in inv_k] == list(range(1, 7))
        for row in inv_k:
            n = row.n
            lhs = sum((literal_h(k, 1) / k for k in range(1, n + 1)), Fraction(0))
            assert (row.lhs, row.rhs) == (lhs, (literal_h(n, 1) ** 2 + literal_h(n, 2)) / 2), n
        inv_k_plus_1 = list(oracle.corollary_rows("inv_k_plus_1", 6))
        assert [row.n for row in inv_k_plus_1] == list(range(7))
        for row in inv_k_plus_1:
            n = row.n
            lhs = sum((literal_h(k, 1) / (k + 1) for k in range(n + 1)), Fraction(0))
            assert (row.lhs, row.rhs) == (lhs, (literal_h(n + 1, 1) ** 2 - literal_h(n + 1, 2)) / 2), n

    def test_corollary_signs_at_small_n(self):
        # H_2 = 3/2 and H_2^(2) = 5/4: (9/4 + 5/4)/2 = 7/4 at n = 2 for 1/k,
        # and (9/4 - 5/4)/2 = 1/2 at n = 1 for 1/(k+1)
        inv_k = list(oracle.corollary_rows("inv_k", 2))[-1]
        inv_k_plus_1 = list(oracle.corollary_rows("inv_k_plus_1", 1))[-1]
        assert (inv_k.n, inv_k.lhs, inv_k.rhs) == (2, Fraction(7, 4), Fraction(7, 4))
        assert (inv_k_plus_1.n, inv_k_plus_1.lhs, inv_k_plus_1.rhs) == (1, Fraction(1, 2), Fraction(1, 2))

    def test_unknown_corollary_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown corollary 'x'$"):
            next(oracle.corollary_rows("x", 1))


def package_imports(module) -> dict[str, set[str]]:
    """The names a module's source imports from harmonic_sums, by submodule
    ("*" for a whole module), read from its syntax tree, lazy imports included."""
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "harmonic_sums":
                    imported.setdefault(alias.name.partition(".")[2] or "*", set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            module_name = node.module or ""
            if node.level == 0 and module_name.split(".")[0] != "harmonic_sums":
                continue  # the standard library
            module_name = module_name.removeprefix("harmonic_sums").lstrip(".")
            for alias in node.names:
                if module_name:
                    imported.setdefault(module_name, set()).add(alias.name)
                else:  # from . import polynomial
                    imported.setdefault(alias.name, set()).add("*")
    return imported


def test_oracle_imports_no_summation_code():
    # the oracle must stay independent of the constructors it checks: nothing
    # from the algebra, the builders or the renderer, only the power choke
    # point and the closed-form type it evaluates
    allowed = {"exact": {"int_pow"}, "closed_form": {"ClosedForm", "LinearArg", "_evaluate_pairs"}}
    assert package_imports(oracle) == allowed


@pytest.mark.parametrize("module", [closed_form, identities], ids=lambda m: m.__name__)
def test_summation_code_imports_nothing_from_the_oracle(module):
    # the other direction: the constructors and the evaluation they are
    # checked with keep their own integer accumulation, not the oracle's
    assert "oracle" not in package_imports(module)
    assert package_imports(module)  # the walk does see the package's imports
