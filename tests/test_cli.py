"""Command-line interface: flags, formats, exit codes, output files."""

import contextlib
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from harmonic_sums import (
    CLOSED_FORM_SCHEMA,
    ClosedForm,
    Polynomial,
    RationalFunction,
    cli,
    parse_closed_form,
    sum_f,
)
from harmonic_sums.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestIdentity:
    def test_text(self, capsys):
        code, out = run(capsys, "identity", "--family", "f", "--p", "1", "--m", "1")
        assert code == 0
        assert out.strip() == "H_n^(-1) H_{n+1} - 1/4 n(n+1)"

    def test_latex_offset(self, capsys):
        code, out = run(
            capsys,
            "identity", "--family", "f", "--p", "2", "--m", "1",
            "--offset-a", "2", "--format", "latex",
        )
        assert code == 0
        assert "H_{3n+1}" in out and "H_{2n}" in out
        assert "\\frac{1}{36}n(n+1)(40n+17)" in out

    def test_pure_polynomial_output(self, capsys):
        code, out = run(capsys, "identity", "--family", "f", "--p", "0", "--m", "0")
        assert code == 0
        assert out.strip() == "1/2 n(n+1)"

    def test_json_payload(self, capsys):
        code, out = run(
            capsys,
            "identity", "--family", "g", "--p", "2", "--m", "2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "g"
        jsonschema.validate(data["closed_form"], CLOSED_FORM_SCHEMA)

    P_RANGE, M_RANGE = f"[0, {cli.MAX_P}]", f"[{cli.MAX_ORDER_BELOW}, {cli.MAX_M}]"
    CHECK_M_RANGE = f"[{cli.MAX_ORDER_BELOW}, {cli.MAX_SBP_EXPONENT}]"
    W_RANGE = f"[{-cli.MAX_SBP_EXPONENT}, {cli.MAX_SBP_EXPONENT}]"

    @pytest.mark.parametrize(
        "argv",
        [
            (("identity", "--family", "f", "--p", "-1", "--m", "1"),
             f"--p: must be in {P_RANGE}, got -1"),
            (("identity", "--family", "f", "--p", "1", "--m", "-11"),
             f"--m: must be in {M_RANGE}, got -11"),
            (("identity", "--family", "f", "--p", "1", "--m", "1", "--offset-a", "11"),
             "--offset-a: must be in [0, 10], got 11"),
            (("identity", "--family", "f", "--p", "1", "--m", "1", "--offset-b", "-1"),
             "--offset-b: must be in [0, 10], got -1"),
            (("identity", "--family", "g", "--p", str(cli.MAX_P + 1), "--m", "1"),
             f"--p: must be in {P_RANGE}, got {cli.MAX_P + 1}"),
            (("faulhaber", "--p", str(cli.MAX_FAULHABER_P + 1)),
             f"--p: must be in [0, {cli.MAX_FAULHABER_P}], got {cli.MAX_FAULHABER_P + 1}"),
            (("verify", "--p", str(cli.MAX_P + 1)),
             f"--p: must be in {P_RANGE}, got {cli.MAX_P + 1}"),
            (("identity", "--family", "f", "--p", "1", "--m", str(cli.MAX_M + 1)),
             f"--m: must be in {M_RANGE}, got {cli.MAX_M + 1}"),
            (("verify", "--m", str(cli.MAX_M + 1)),
             f"--m: must be in {M_RANGE}, got {cli.MAX_M + 1}"),
            (("bernoulli", "--n-max", str(cli.MAX_BERNOULLI_N + 1)),
             f"--n-max: must be in [0, {cli.MAX_BERNOULLI_N}], got {cli.MAX_BERNOULLI_N + 1}"),
            # `check --m` is a sweep order: MAX_SBP_EXPONENT bounds it above, not MAX_M
            (("check", "--m", "-11"), f"--m: must be in {CHECK_M_RANGE}, got -11"),
            (("verify", "--p", "x"), "--p: invalid int value: 'x'"),
            (("check", "--sbp", "--m", str(cli.MAX_SBP_EXPONENT + 1)),
             f"--m: must be in {CHECK_M_RANGE}, got {cli.MAX_SBP_EXPONENT + 1}"),
            (("check", "--w", str(cli.MAX_SBP_EXPONENT + 1)),
             f"--w: must be in {W_RANGE}, got {cli.MAX_SBP_EXPONENT + 1}"),
            (("check", "--sbp", "--w", str(-cli.MAX_SBP_EXPONENT - 1)),
             f"--w: must be in {W_RANGE}, got {-cli.MAX_SBP_EXPONENT - 1}"),
            # no --family runs both families, so `both` is not a family
            (("verify", "--family", "both"), "--family: invalid choice: 'both'"),
        ],
    )  # fmt: skip
    def test_invalid_parameters_exit_2(self, capsys, argv):
        # one parameter per case, (arguments, refusal), keeps the ids argv0, argv1, ...
        argv, refusal = argv
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: harmsum {argv[0]} ")
        assert f"argument {refusal}" in err

    @pytest.mark.parametrize(
        "argv,digest",
        [
            # the slowest accepted identity: family g, m = -10, s = 10n+10, p = MAX_P
            (["identity", "--family", "g", "--p", str(cli.MAX_P), "--m", "-10",
              "--offset-a", "10", "--offset-b", "10", "--format", "json"],
             "15099bc3859ec2c6383141bcb0e3f6ca6265c62bf5667c348f31257ebe0350c6"),
            (["faulhaber", "--p", str(cli.MAX_FAULHABER_P), "--format", "json"], None),
            # the largest accepted order at p = MAX_P, offset 10n+9 (b != a)
            (["identity", "--family", "g", "--p", str(cli.MAX_P), "--m", str(cli.MAX_M),
              "--offset-a", "10", "--offset-b", "9", "--format", "json"],
             "ed6d303713ac6b197dadcfebe3e0c48c077e9697598cc84805d715db7e23a0a9"),
        ],
        ids=["identity", "faulhaber", "identity-max-m"],
    )  # fmt: skip
    def test_largest_accepted_p_finishes(self, argv, digest):
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", *argv],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert result.returncode == 0
        assert json.loads(result.stdout)["p"] == int(argv[argv.index("--p") + 1])
        if digest is not None:
            # the exact bytes of the p = MAX_P identities, pinned across refactors
            assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("text", "cddb0f47d570d416ef80a1314e7853702cbb50ee684c3dfc14fde0628516199c"),
            ("latex", "692ffe47dcbdfdbed495f497924a9d552f4f698483b1054a6021eaaa9df89047"),
        ],
        ids=["text", "latex"],
    )
    def test_largest_accepted_p_renders(self, fmt, digest):
        # text and LaTeX factor every coefficient of the largest identity for display
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", "identity", "--family", "g",
             "--p", str(cli.MAX_P), "--m", str(cli.MAX_M), "--offset-a", "10",
             "--offset-b", "9", "--format", fmt],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    def test_largest_accepted_bernoulli_n_finishes(self):
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", "bernoulli",
             "--n-max", str(cli.MAX_BERNOULLI_N), "--format", "json"],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert result.returncode == 0
        assert json.loads(result.stdout)["values"][-1]["k"] == cli.MAX_BERNOULLI_N

    def test_largest_accepted_sbp_exponents_finish(self):
        # the slowest corner of the bounds: orders MAX_SBP_EXPONENT and twice it
        top = str(cli.MAX_SBP_EXPONENT)
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", "check", "--sbp",
             "--m", top, "--w", f"-{top}", "--format", "json"],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert result.returncode == 0
        (entry,) = json.loads(result.stdout)["checks"]
        assert (entry["m"], entry["w"], entry["passed"]) == (int(top), -int(top), True)

    def test_largest_accepted_corollary_sweeps_finish(self):
        # both corollaries to MAX_N: integer rows over one running denominator
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", "check", "--corollary", "both",
             "--n-max", str(cli.MAX_N), "--format", "json"],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
        assert result.returncode == 0
        checks = json.loads(result.stdout)["checks"]
        assert [(c["which"], c["n_max"], c["passed"]) for c in checks] == [
            ("inv_k", cli.MAX_N, True),
            ("inv_k_plus_1", cli.MAX_N, True),
        ]

    def test_check_order_is_not_bounded_by_max_m(self, capsys):
        # MAX_M sizes closed-form builds; `check --m` picks a sweep order
        m = str(cli.MAX_M + 1)
        code, out = run(capsys, "check", "--sbp", "--m", m, "--w", "1", "--n-max", "3")
        assert code == 0
        assert out.startswith(f"summation-by-parts m={m} w=1 n=0..3: PASS")


class TestFactoredDenominators:
    """Builds that took 20 s (g) and 49 s (f) on 2 cores while every
    intermediate denominator was reduced by Euclid over Fractions. Their
    poles are known as they are made, and the final forms have none."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity", "--family", "g", "--p", "6", "--m", "20",
             "--offset-a", "10", "--offset-b", "9", "--format", "json"],
            ["identity", "--family", "f", "--p", "20", "--m", "20",
             "--offset-a", "2", "--offset-b", "1", "--format", "json"],
        ],
        ids=["g-p6-m20-s10n+9", "f-p20-m20-s2n+1"],
    )  # fmt: skip
    def test_identity_finishes(self, argv):
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", *argv],
            capture_output=True, text=True, timeout=10,
        )  # fmt: skip
        assert result.returncode == 0
        cf = json.loads(result.stdout)["closed_form"]
        coefficients = [cf["constant"], *(term["coeff"] for term in cf["terms"])]
        assert all(len(rf["den"]) == 1 for rf in coefficients)


class TestTable:
    def test_row_count(self, capsys):
        code, out = run(capsys, "table")
        assert code == 0
        assert len(out.strip().splitlines()) == 72

    @pytest.mark.parametrize(
        "fmt,recorded", [("text", "table.txt"), ("latex", "table.tex"), ("json", "table.json")]
    )
    def test_matches_recorded_bytes(self, capsys, fmt, recorded):
        code, out = run(capsys, "table", "--format", fmt)
        assert code == 0
        assert out == (DATA / recorded).read_text(encoding="utf-8")

    def test_deterministic(self, capsys):
        _, first = run(capsys, "table", "--format", "latex")
        _, second = run(capsys, "table", "--format", "latex")
        assert first == second

    def test_known_rows_present(self, capsys):
        _, out = run(capsys, "table")
        lines = out.strip().splitlines()
        assert lines[0] == "H_n^(-0) = n"
        assert "sum_(k=0..n) H_k = (n+1) H_{n+1} - (n+1)" in lines
        assert any("H_{2n+k}" in line for line in lines)
        assert any("H_{2n-k}" in line for line in lines)

    def test_json_round_trips(self, capsys):
        code, out = run(capsys, "table", "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 72
        for entry in entries:
            jsonschema.validate(entry["closed_form"], CLOSED_FORM_SCHEMA)
            parse_closed_form(entry["closed_form"])
        f11 = next(e for e in entries if e["kind"] == "f" and e["p"] == 1 and e["m"] == 1)
        assert parse_closed_form(f11["closed_form"]) == sum_f(1, 1)


class TestVerify:
    def test_bare_verify_selects_the_full_default_grid(self, capsys, monkeypatch):
        # the full sweep itself runs in the acceptance suite; here we pin
        # the argument glue that a bare `verify` expands to it, and that
        # one filter narrows the offsets to s = 0
        monkeypatch.setattr(cli, "grid_rows", lambda *args: iter(()))
        code, out = run(capsys, "verify", "--format", "json")
        assert code == 0
        default_offsets = [{"a": s.a, "b": s.b} for s in cli.DEFAULT_GRID["offsets"]]
        assert [
            (grid["family"], grid["p_range"], grid["m_range"], grid["offsets"], grid["n_range"])
            for grid in json.loads(out)["grids"]
        ] == [
            (
                family,
                list(cli.DEFAULT_GRID["p"]),
                list(cli.DEFAULT_GRID["m"]),
                default_offsets,
                [0, cli.DEFAULT_GRID["n_max"]],
            )
            for family in ("F", "G")
        ]
        assert cli.DEFAULT_GRID["p"] == (0, 6) and cli.DEFAULT_GRID["m"] == (1, 5)
        assert len(cli.DEFAULT_GRID["offsets"]) == 9 and cli.DEFAULT_GRID["n_max"] == 40
        code, out = run(capsys, "verify", "--p", "1", "--format", "json")
        assert code == 0
        for grid in json.loads(out)["grids"]:
            assert grid["p_range"] == [1, 1] and grid["offsets"] == [{"a": 0, "b": 0}]
            assert grid["m_range"] == list(cli.DEFAULT_GRID["m"])

    def test_single_row(self, capsys):
        code, out = run(
            capsys, "verify", "--family", "g", "--p", "3", "--m", "2", "--n-max", "25"
        )
        assert code == 0
        assert "26 cells, 26 passed, 0 failed" in out

    def test_explicit_offset(self, capsys):
        code, out = run(
            capsys,
            "verify", "--family", "f", "--p", "2", "--m", "1",
            "--offset-a", "1", "--offset-b", "2", "--n-max", "12",
        )
        assert code == 0
        assert "s in {n+2}" in out

    def test_large_parameters_within_validated_ranges(self, capsys):
        code, out = run(
            capsys,
            "verify", "--family", "f", "--p", "4", "--m", "3",
            "--offset-a", "3", "--offset-b", "7", "--n-max", "15",
        )
        assert code == 0
        assert "0 failed" in out

    def test_negative_order_row(self, capsys):
        code, out = run(
            capsys, "verify", "--family", "g", "--p", "2", "--m", "-1", "--n-max", "10"
        )
        assert code == 0
        assert "11 cells, 11 passed" in out

    @pytest.fixture
    def corrupted(self, monkeypatch):
        """Negative control: every closed form the verifier builds is off by one."""
        build = cli.build_closed_form

        def corrupt(family, p, m, s):
            cf = build(family, p, m, s)
            return ClosedForm(cf.constant + 1, cf.terms)

        monkeypatch.setattr(cli, "build_closed_form", corrupt)

    def test_corrupted_build_fails(self, capsys, corrupted):
        code, out = run(
            capsys,
            "verify", "--family", "f", "--p", "1", "--m", "1", "--n-max", "5",
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out = run(
            capsys,
            "verify", "--family", "f", "--p", "1", "--m", "1", "--n-max", "8",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert data["grids"][0]["total"] == 9

    def test_corrupted_json_lists_failures(self, capsys, corrupted):
        code, out = run(
            capsys,
            "verify", "--family", "f", "--p", "0", "--m", "1", "--n-max", "3",
            "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        failure = data["grids"][0]["failures"][0]
        assert {"p", "m", "offset", "n", "lhs", "rhs"} <= set(failure)

    def test_partly_corrupted_grids_count_and_list_failures(self, capsys, monkeypatch):
        """Negative control over two grids: only family G is off, by (n-1)(n-3)."""
        build = cli.build_closed_form
        bump = RationalFunction(Polynomial((3, -4, 1)))

        def corrupt(family, p, m, s):
            cf = build(family, p, m, s)
            return ClosedForm(cf.constant + bump, cf.terms) if family == "G" else cf

        monkeypatch.setattr(cli, "build_closed_form", corrupt)
        argv = (
            "verify", "--p", "1", "--m", "1", "--offset-a", "1", "--n-max", "4",
        )  # fmt: skip
        code, out = run(capsys, *argv)
        assert code == 1
        assert out.splitlines() == [
            "family F: p in 1..1, m in 1..1, s in {n}, n in 0..4: 5 cells, 5 passed, 0 failed",
            "family G: p in 1..1, m in 1..1, s in {n}, n in 0..4: 5 cells, 2 passed, 3 failed",
            "  FAIL G(p=1, m=1, s=n) at n=0: direct sum 0 != closed form 3",
            "  FAIL G(p=1, m=1, s=n) at n=2: direct sum 29/6 != closed form 23/6",
            "  FAIL G(p=1, m=1, s=n) at n=4: direct sum 2381/105 != closed form 2696/105",
            "verification FAILED",
        ]

        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["all_passed"] is False
        f, g = data["grids"]
        assert (f["family"], f["total"], f["passed"], f["failed"], f["failures"]) == (
            "F", 5, 5, 0, []
        )
        assert (g["family"], g["total"], g["passed"], g["failed"]) == ("G", 5, 2, 3)
        cell = {"p": 1, "m": 1, "offset": {"a": 1, "b": 0}}
        assert g["failures"] == [
            {**cell, "n": 0, "lhs": {"num": "0", "den": "1"}, "rhs": {"num": "3", "den": "1"}},
            {**cell, "n": 2, "lhs": {"num": "29", "den": "6"}, "rhs": {"num": "23", "den": "6"}},
            {
                **cell,
                "n": 4,
                "lhs": {"num": "2381", "den": "105"},
                "rhs": {"num": "2696", "den": "105"},
            },
        ]


class TestCheck:
    def test_sbp_single_weight(self, capsys):
        code, out = run(capsys, "check", "--sbp", "--w", "0", "--n-max", "10")
        assert code == 0
        assert "PASS" in out

    def test_sbp_sweep(self, capsys):
        code, out = run(capsys, "check", "--sbp", "--n-max", "12")
        assert code == 0
        assert len([line for line in out.splitlines() if "summation-by-parts" in line]) == 6 * 7

    def test_corollary(self, capsys):
        code, out = run(capsys, "check", "--corollary", "inv_k", "--n-max", "40")
        assert code == 0
        assert "corollary inv_k" in out

    def test_everything_json(self, capsys):
        code, out = run(capsys, "check", "--n-max", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        kinds = {entry["check"] for entry in data["checks"]}
        assert kinds == {"sbp", "corollary"}
        assert all("failure" not in entry for entry in data["checks"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--corollary", "inv_k", "--n-max", "0"),
            ("check", "--corollary", "inv_k", "--n-max", "0", "--format", "json"),
            ("check", "--n-max", "0"),
        ],
        ids=["text", "json", "bare"],
    )
    def test_corollary_with_no_row_is_refused(self, capsys, monkeypatch, argv):
        # inv_k starts at n = 1: a PASS over zero rows would claim a check never run
        monkeypatch.setattr(cli, "sbp_rows", None)  # no sweep may start first
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: corollary inv_k starts at n=1: --n-max 0 leaves no row to check\n"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("check", "--corollary", "inv_k", "--m", "3"), "m"),
            (("check", "--corollary", "both", "--w", "1", "--format", "json"), "w"),
        ],
        ids=["text", "json"],
    )
    def test_sweep_flag_without_sbp_is_refused(self, capsys, monkeypatch, argv, flag):
        # --m and --w only restrict the sbp sweep: without it they would be ignored
        monkeypatch.setattr(cli, "sbp_rows", None)  # no sweep may start first
        monkeypatch.setattr(cli, "corollary_rows", None)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = f"--{flag} restricts the summation-by-parts sweep: add --sbp"
        assert captured.err == f"error: {message}\n"

    def test_sweep_flag_with_sbp_and_corollary(self, capsys):
        # with --sbp the sweep runs, so --m narrows it
        argv = ("check", "--sbp", "--corollary", "inv_k", "--m", "1", "--n-max", "3")
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "summation-by-parts m=1 w=-3 n=0..3: PASS"
        assert out.splitlines()[-2:] == ["corollary inv_k n=1..3: PASS", "all checks passed"]

    def test_corollary_with_one_row_at_n_max_0(self, capsys):
        code, out = run(capsys, "check", "--corollary", "inv_k_plus_1", "--n-max", "0")
        assert code == 0
        assert out.splitlines() == ["corollary inv_k_plus_1 n=0..0: PASS", "all checks passed"]

    def test_long_sweep_finishes(self):
        # a fresh interpreter with a timeout: the sweep must stay linear in n
        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums",
             "check", "--sbp", "--m", "1", "--w", "1", "--n-max", "2000"],
            capture_output=True, text=True, timeout=20,
        )  # fmt: skip
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "summation-by-parts m=1 w=1 n=0..2000: PASS",
            "all checks passed",
        ]

    @pytest.fixture
    def broken_row(self, monkeypatch):
        """Negative control: every sweep's row at n = 7 has its right side off by one."""

        def corrupt(rows):
            def corrupted(*args):
                for row in rows(*args):
                    yield replace(row, rhs_num=row.rhs_num + row.den) if row.n == 7 else row

            return corrupted

        monkeypatch.setattr(cli, "sbp_rows", corrupt(cli.sbp_rows))
        monkeypatch.setattr(cli, "corollary_rows", corrupt(cli.corollary_rows))

    def test_broken_row_is_named(self, capsys, broken_row):
        code, out = run(capsys, "check", "--m", "1", "--w", "2", "--n-max", "9")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "summation-by-parts m=1 w=2 n=0..9: FAIL"
        assert lines[1].startswith("  FAIL at n=7: direct sum ")
        assert " != closed form " in lines[1]
        assert lines[-1] == "checks FAILED"
        assert sum(line.startswith("  FAIL at n=7:") for line in lines) == 3

    def test_broken_row_json(self, capsys, broken_row):
        code, out = run(capsys, "check", "--corollary", "inv_k", "--n-max", "9", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["all_passed"] is False
        (entry,) = data["checks"]
        assert entry["passed"] is False
        failure = entry["failure"]
        assert failure["n"] == 7
        lhs = Fraction(int(failure["lhs"]["num"]), int(failure["lhs"]["den"]))
        rhs = Fraction(int(failure["rhs"]["num"]), int(failure["rhs"]["den"]))
        assert rhs == lhs + 1


class TestAuxiliaryCommands:
    def test_bernoulli(self, capsys):
        code, out = run(capsys, "bernoulli", "--n-max", "4")
        assert code == 0
        assert out.splitlines() == [
            "B+(0) = 1",
            "B+(1) = 1/2",
            "B+(2) = 1/6",
            "B+(3) = 0",
            "B+(4) = -1/30",
        ]

    @pytest.fixture
    def default_digit_limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield
        sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("text", "B+(0) = {num}/3"),
            ("latex", "B^+_{{0}} = \\frac{{{num}}}{{3}}"),
            ("json", '"num": "{num}"'),
        ],
        ids=["text", "latex", "json"],
    )
    def test_bernoulli_beyond_digit_limit(self, capsys, monkeypatch, default_digit_limit, fmt, expected):
        # 5,001 digits: more than the interpreter converts to str by default
        num = 10**5000 + 1
        monkeypatch.setattr(cli, "bernoulli_plus", lambda k: Fraction(num, 3))
        code, out = run(capsys, "bernoulli", "--n-max", "0", "--format", fmt)
        assert code == 0
        assert expected.format(num="1" + "0" * 4999 + "1") in out

    @pytest.mark.parametrize(
        "argv", [("bernoulli", "--n-max", "2"), ("verify", "--p", "x")], ids=["ran", "refused"]
    )
    def test_caller_digit_limit_is_restored(self, capsys, default_digit_limit, argv):
        # main lifts the limit for its own run only, also when argparse exits
        sys.set_int_max_str_digits(4321)
        with contextlib.suppress(SystemExit):
            main(list(argv))
        assert sys.get_int_max_str_digits() == 4321

    def test_caller_digit_limit_is_restored_after_two_threads(self, capsys, tmp_path, default_digit_limit):
        # one long render past 4,300 digits beside many short calls: the limit
        # stays lifted while any call runs, and the caller's comes back after
        long_code, short_codes = [], []
        long_run = threading.Thread(
            target=lambda: long_code.append(main(["faulhaber", "--p", "2200", "--output", str(tmp_path / "p")]))
        )
        long_run.start()
        deadline = time.monotonic() + 60
        while (long_run.is_alive() and time.monotonic() < deadline) or not short_codes:
            short_codes.append(main(["bernoulli", "--n-max", "1", "--output", str(tmp_path / "b")]))
        long_run.join(timeout=60)
        assert not long_run.is_alive()
        assert long_code == [0] and set(short_codes) == {0}
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        assert (tmp_path / "b").read_text() == "B+(0) = 1\nB+(1) = 1/2\n"
        assert max(map(len, (tmp_path / "p").read_text().split())) > 4300

    def test_faulhaber(self, capsys):
        code, out = run(capsys, "faulhaber", "--p", "3")
        assert code == 0
        assert out.strip() == "sum_(k=1..n) k^3 = 1/4 n^2(n+1)^2"

    @pytest.mark.parametrize(
        "p,fmt,expected",
        [
            (0, "text", "sum_(k=1..n) 1 = n"),
            (0, "latex", "\\sum_{k=1}^{n} 1 = n"),
            (1, "text", "sum_(k=1..n) k = 1/2 n(n+1)"),
            (1, "latex", "\\sum_{k=1}^{n} k = \\frac{1}{2}n(n+1)"),
            (2, "text", "sum_(k=1..n) k^2 = 1/6 n(n+1)(2n+1)"),
            (2, "latex", "\\sum_{k=1}^{n} k^{2} = \\frac{1}{6}n(n+1)(2n+1)"),
        ],
        ids=["p0-text", "p0-latex", "p1-text", "p1-latex", "p2-text", "p2-latex"],
    )
    def test_faulhaber_summand(self, capsys, p, fmt, expected):
        # the summand k^p prints by the exponent rule: k^0 is 1 and k^1 is k
        code, out = run(capsys, "faulhaber", "--p", str(p), "--format", fmt)
        assert code == 0
        assert out == expected + "\n"

    def test_faulhaber_json(self, capsys):
        code, out = run(capsys, "faulhaber", "--p", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data["closed_form"], CLOSED_FORM_SCHEMA)

    def test_faulhaber_accepts_p_above_identity_bound(self, capsys):
        code, out = run(capsys, "faulhaber", "--p", str(cli.MAX_P + 1), "--format", "json")
        assert code == 0
        assert json.loads(out)["p"] == cli.MAX_P + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("identity", "--family", "f", "--p", "1", "--m", "1"),
            ("table", "--format", "latex"),
            ("verify", "--p", "1", "--m", "1", "--n-max", "3", "--format", "json"),
            ("check", "--sbp", "--w", "0", "--n-max", "5"),
            ("bernoulli", "--n-max", "4"),
            ("faulhaber", "--p", "3", "--format", "json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_file(self, capsys, tmp_path, argv):
        # `main` is the one writer: a file gets exactly the bytes stdout would
        code, printed = run(capsys, *argv)
        assert code == 0
        target = tmp_path / "out"
        assert run(capsys, *argv, "--output", str(target)) == (0, "")
        assert target.read_bytes() == printed.encode("utf-8")

    def test_output_under_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x"
        code = main(["faulhaber", "--p", "2", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["verify", "check"])
    def test_output_under_missing_directory_is_refused_before_the_sweep(
        self, capsys, monkeypatch, tmp_path, command
    ):
        monkeypatch.setattr(cli, "grid_rows", None)  # no sweep may start first
        monkeypatch.setattr(cli, "sbp_rows", None)
        monkeypatch.setattr(cli, "corollary_rows", None)
        target = tmp_path / "no-such-dir" / "x"
        code = main([command, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["verify", "check"])
    @pytest.mark.parametrize("kind", ["file-as-parent", "directory-as-path"])
    def test_unopenable_output_is_refused_before_the_sweep(
        self, capsys, monkeypatch, tmp_path, command, kind
    ):
        monkeypatch.setattr(cli, "grid_rows", None)  # no sweep may start first
        monkeypatch.setattr(cli, "sbp_rows", None)
        monkeypatch.setattr(cli, "corollary_rows", None)
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        target = tmp_path / "file" / "x" if kind == "file-as-parent" else tmp_path
        with pytest.raises(OSError) as refused:  # what the late open would raise
            open(target, "w", encoding="utf-8")
        code = main([command, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {refused.value}\n"
        assert refused.value.errno == (errno.ENOTDIR if kind == "file-as-parent" else errno.EISDIR)
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    def test_refused_command_leaves_an_existing_output_untouched(self, capsys, tmp_path):
        # the output is opened for append before the handler runs, and
        # emptied only once it has returned
        target = tmp_path / "out"
        target.write_text("kept\n", encoding="utf-8")
        code = main(["check", "--corollary", "inv_k", "--m", "1", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --m restricts")
        assert target.read_text(encoding="utf-8") == "kept\n"

    def test_refused_command_leaves_no_new_output_behind(self, capsys, tmp_path):
        target = tmp_path / "out"
        code = main(["check", "--corollary", "inv_k", "--m", "1", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --m restricts")
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_path_is_refused(self, capsys):
        # an empty --output names no file; it does not mean stdout
        code = main(["faulhaber", "--p", "2", "--output", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize(
        "target",
        [
            "out\0x",
            pytest.param(
                "/proc/no-such-entry",
                marks=pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc"),
            ),
            pytest.param(
                "/proc/no-such-entry/x",
                marks=pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc"),
            ),
        ],
        ids=["nul-byte", "proc-entry", "under-proc-entry"],
    )
    def test_output_refused_by_open_before_the_sweep(self, capsys, monkeypatch, target):
        monkeypatch.setattr(cli, "grid_rows", None)  # no sweep may start first
        monkeypatch.setattr(cli, "sbp_rows", None)
        monkeypatch.setattr(cli, "corollary_rows", None)
        with pytest.raises((OSError, ValueError)) as refused:  # `open` is the only judge
            open(target, "w", encoding="utf-8")
        code = main(["verify", "--output", target])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {refused.value}\n"

    def test_output_is_open_while_the_command_runs(self, capsys, monkeypatch, tmp_path):
        # a new file exists, empty, during the work; an existing one keeps its bytes
        target = tmp_path / "out"
        seen = []

        def rows(*args):
            seen.append(target.read_bytes())
            return iter(())

        monkeypatch.setattr(cli, "grid_rows", rows)
        argv = ("verify", "--family", "f", "--p", "0", "--m", "1", "--output", str(target))
        assert run(capsys, *argv) == (0, "")
        written = target.read_bytes()
        target.write_bytes(b"kept\n")
        assert run(capsys, *argv) == (0, "")
        assert seen == [b"", b"kept\n"]
        assert target.read_bytes() == written

    @pytest.mark.parametrize("kind", ["dev-null", "regular-file", "fifo"])
    def test_output_gets_the_bytes_stdout_would(self, capsys, tmp_path, kind):
        argv = ("verify", "--p", "1", "--m", "1", "--n-max", "3", "--format", "json")
        code, printed = run(capsys, *argv)
        assert code == 0
        if kind == "dev-null":
            assert run(capsys, *argv, "--output", os.devnull) == (0, "")
            assert Path(os.devnull).exists()
            return
        target = tmp_path / "out"
        if kind == "regular-file":  # longer than the output: emptied before the write
            target.write_text("x" * 10 * len(printed), encoding="utf-8")
            assert run(capsys, *argv, "--output", str(target)) == (0, "")
            assert target.read_bytes() == printed.encode("utf-8")
            return
        if not hasattr(os, "mkfifo"):
            pytest.skip("named pipes are POSIX")
        os.mkfifo(target)
        received = []

        def read_all():
            with open(target, "rb") as pipe:  # blocks until `main` opens the writer
                received.append(pipe.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        assert run(capsys, *argv, "--output", str(target)) == (0, "")
        reader.join(timeout=30)
        assert received == [printed.encode("utf-8")]

    def test_broken_output_pipe_is_an_error(self, capsys, monkeypatch, tmp_path):
        # a reader of --output that stops early loses the report: exit 2, as
        # for any OSError, and stdout, here fd 1 itself, is left alone
        if not hasattr(os, "mkfifo"):
            pytest.skip("named pipes are POSIX")
        target = tmp_path / "out"
        os.mkfifo(target)

        def read_one_byte():
            with open(target, "rb", buffering=0) as pipe:  # blocks until `main` opens the writer
                pipe.read(1)

        reader = threading.Thread(target=read_one_byte, daemon=True)
        reader.start()
        monkeypatch.setattr(sys, "stdout", open(1, "w", encoding="utf-8", closefd=False))
        before = os.fstat(1)
        # 71,880 bytes: more than a pipe's 64 KiB buffer holds
        code = main(["table", "--format", "json", "--output", str(target)])
        after = os.fstat(1)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)

    @pytest.mark.parametrize(
        "script,argv,code",
        [
            ("from harmonic_sums import cli", ["table"], 0),
            # a wrong constructor: every verify cell fails
            ("from harmonic_sums import ClosedForm, cli; "
             "cli.build_closed_form = lambda *args: ClosedForm(7)",
             ["verify", "--p", "0", "--m", "1", "--n-max", "3"], 1),
        ],
        ids=["table", "failing-verify"],
    )  # fmt: skip
    def test_reader_gone_before_output(self, script, argv, code):
        # `harmsum table | head -1`: a closed pipe is no usage error, and the
        # exit code stays the handler's own
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            result = subprocess.run(
                [sys.executable, "-c", f"{script}; raise SystemExit(cli.main({argv!r}))"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
            )  # fmt: skip
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (code, "")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_reader_gone_leaves_no_descriptor_open(self):
        # an in-process caller whose stdout reader is gone: pointing fd 1 at
        # the null device must not keep the descriptor that opened it
        script = (
            "import json, os, sys; from harmonic_sums import cli\n"
            "fds, codes = [len(os.listdir('/proc/self/fd'))], []\n"
            "for _ in range(3):\n"
            "    codes.append(cli.main(['table', '--format', 'json']))\n"
            "    fds.append(len(os.listdir('/proc/self/fd')))\n"
            "print(json.dumps([codes, fds]), file=sys.stderr)\n"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-c", script],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
            )  # fmt: skip
        finally:
            os.close(write_end)
        assert result.returncode == 0, result.stderr
        codes, fds = json.loads(result.stderr)
        assert codes == [0, 0, 0]
        assert fds == [fds[0]] * 4

    def test_module_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "harmonic_sums", "faulhaber", "--p", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "sum_(k=1..n) k^2 = 1/6 n(n+1)(2n+1)"


class TestRepeatedCalls:
    """`main` builds its parser once per process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_default_returns_after_an_explicit_value(self, capsys):
        code, out = run(capsys, "bernoulli", "--n-max", "3")
        assert code == 0 and out.splitlines()[-1] == "B+(3) = 0"
        code, out = run(capsys, "bernoulli")
        assert code == 0 and out.splitlines()[-1] == "B+(12) = -691/2730"

    def test_verify_filters_reset_between_calls(self, capsys):
        code, out = run(capsys, "verify", "--p", "1", "--n-max", "2")
        assert code == 0
        assert out.startswith("family F: p in 1..1, m in 1..5, s in {0}, n in 0..2: 15 cells")
        code, out = run(capsys, "verify", "--family", "g", "--n-max", "1")
        assert code == 0
        assert out.splitlines() == [
            "family G: p in 0..6, m in 1..5, s in {0}, n in 0..1: "
            "70 cells, 70 passed, 0 failed",
            "all identities verified",
        ]

    @pytest.mark.parametrize(
        "refused",
        [("verify", "--p", str(cli.MAX_P + 1)), ("verify", "--p", "x"), ("nonesuch",)],
        ids=["bound", "type", "command"],
    )
    def test_refused_call_leaves_the_parser_usable(self, capsys, refused):
        with pytest.raises(SystemExit) as exc:
            main(list(refused))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: harmsum")
        code, out = run(capsys, "verify", "--p", "0", "--m", "1", "--n-max", "1", "--format", "json")
        assert code == 0
        grids = json.loads(out)["grids"]
        assert [(g["family"], g["p_range"], g["total"]) for g in grids] == [
            ("F", [0, 0], 2),
            ("G", [0, 0], 2),
        ]
