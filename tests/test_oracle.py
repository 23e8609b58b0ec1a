"""Brute-force evaluators and grid verification."""

import ast
import threading
import time
from fractions import Fraction

import pytest

from harmonic_sums import closed_form, identities, oracle
from harmonic_sums import (
    ClosedForm,
    LinearArg,
    build_closed_form,
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


class TestLhsDirect:
    def test_forward_examples(self):
        assert lhs_direct("F", 0, 1, S0, 2) == Fraction(5, 2)
        assert lhs_direct("F", 0, 1, S0, 0) == 0

    def test_reversed_example(self):
        assert lhs_direct("G", 1, 1, S0, 2) == 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            lhs_direct("Q", 0, 1, S0, 1)

    def test_negative_offset_rejected(self):
        for family in "FG":
            with pytest.raises(ValueError, match="got -3"):
                lhs_direct(family, 1, 1, LinearArg(1, -3), 0)

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
    allowed = {"exact": {"int_pow"}, "closed_form": {"ClosedForm", "LinearArg", "evaluate_cf"}}
    assert package_imports(oracle) == allowed


@pytest.mark.parametrize("module", [closed_form, identities], ids=lambda m: m.__name__)
def test_summation_code_imports_nothing_from_the_oracle(module):
    # the other direction: the constructors and the evaluation they are
    # checked with keep their own integer accumulation, not the oracle's
    assert "oracle" not in package_imports(module)
    assert package_imports(module)  # the walk does see the package's imports
