"""What each workload asks of the program, and how its answers are checked.

This module runs inside the workload process, after ``harmonic_sums`` is
importable. Requests call the package through its attributes at call
time (``hs.lhs_direct``, ``cli.main``), so the spans that tracing
installs see every call. Checks run after the timed batch and compare
with the benchmark's own arithmetic in ``independent``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from fractions import Fraction
from typing import Any, Callable

import harmonic_sums as hs
from harmonic_sums import cli

from independent import HarmonicTable, evaluate_json, literal_sum, power_sum

# n at which emitted closed forms are evaluated against the literal sums
EMIT_CHECK_N = (1, 3, 8)

Request = Callable[[], Any]
Problem = str


def _cli(argv: list[str]) -> tuple[int, str]:
    """`harmsum <argv>` in this process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return code, out.getvalue()


def _builder(family: str) -> Callable:
    return hs.offset_sum_f if family == "F" else hs.offset_sum_g


class VerifyGrid:
    """Rows of the default grid, each one `harmsum verify ... --format json`."""

    reference = "small-fractions"

    def __init__(self, inputs: dict) -> None:
        self.rows = inputs["rows"]
        self.n_max = inputs["n_max"]
        self.sample = inputs["sample"]

    def requests(self) -> list[Request]:
        return [functools.partial(_cli, self._argv(row)) for row in self.rows]

    @staticmethod
    def _argv(row: list) -> list[str]:
        family, p, m, a, b = row
        return [
            "verify", "--family", family.lower(), "--p", str(p), "--m", str(m),
            "--offset-a", str(a), "--offset-b", str(b), "--format", "json",
        ]  # fmt: skip

    def check(self, outputs: list) -> list[Problem]:
        problems = []
        cells = answered = 0
        for row, out in zip(self.rows, outputs):
            if out is None:
                continue
            answered += 1
            code, text = out
            report = json.loads(text)
            (grid,) = report["grids"]
            family, p, m, a, b = row
            shape = (grid["family"], grid["p_range"], grid["m_range"], grid["offsets"], grid["n_range"])
            expected = (family, [p, p], [m, m], [{"a": a, "b": b}], [0, self.n_max])
            if code != 0 or not report["all_passed"] or grid["failed"] or grid["passed"] != grid["total"]:
                problems.append(f"row {row}: exit {code}, {grid['failed']} failed cells")
            if shape != expected:
                problems.append(f"row {row}: report covers {shape}")
            cells += grid["total"]
        if cells != answered * (self.n_max + 1):
            problems.append(f"{cells} cells verified, the rows hold {answered * (self.n_max + 1)}")
        table = HarmonicTable()
        for i, n in self.sample:
            family, p, m, a, b = self.rows[i]
            cf = hs.build_closed_form(family, p, m, hs.LinearArg(a, b))
            if hs.evaluate_cf(cf, n) != literal_sum(table, family, p, m, a, b, n):
                problems.append(f"row {self.rows[i]} at n={n}: closed form != literal double sum")
        return problems


class VerifyDeep:
    """Fixed rows checked cell by cell at large n; one build, then one request per cell."""

    reference = "big-fractions"

    def __init__(self, inputs: dict) -> None:
        self.rows = inputs["rows"]
        self.sample = {(i, n) for i, n in inputs["sample"]}
        self.closed_forms: dict[int, Any] = {}
        self.kinds: list[str] = []

    def requests(self) -> list[Request]:
        requests: list[Request] = []
        for i, entry in enumerate(self.rows):
            requests.append(functools.partial(self._build, i))
            self.kinds.append("build")
            for n in entry["n"]:
                requests.append(functools.partial(self._cell, i, n))
                self.kinds.append("cell")
        return requests

    def _build(self, i: int) -> None:
        family, p, m, a, b = self.rows[i]["row"]
        self.closed_forms[i] = hs.build_closed_form(family, p, m, hs.LinearArg(a, b))

    def _cell(self, i: int, n: int) -> tuple[bool, Fraction | None]:
        family, p, m, a, b = self.rows[i]["row"]
        lhs = hs.lhs_direct(family, p, m, hs.LinearArg(a, b), n)
        rhs = hs.evaluate_cf(self.closed_forms[i], n)
        return lhs == rhs, rhs if (i, n) in self.sample else None

    def check(self, outputs: list) -> list[Problem]:
        problems = []
        cells = [out for kind, out in zip(self.kinds, outputs) if kind == "cell" and out is not None]
        wrong = sum(1 for passed, _ in cells if not passed)
        if wrong:
            problems.append(f"{wrong} deep cells: direct sum != closed form")
        if len(cells) != sum(len(entry["n"]) for entry in self.rows):
            problems.append(f"{len(cells)} deep cells answered of {sum(len(e['n']) for e in self.rows)}")
        table = HarmonicTable()
        index = 0
        for i, entry in enumerate(self.rows):
            index += 1  # the build request
            for n in entry["n"]:
                out = outputs[index]
                index += 1
                if (i, n) not in self.sample or out is None:
                    continue
                family, p, m, a, b = entry["row"]
                if out[1] != literal_sum(table, family, p, m, a, b, n):
                    problems.append(f"row {entry['row']} at n={n}: closed form != literal double sum")
        return problems


class Emit:
    """The catalogue in three formats, then identities rendered three ways and parsed back."""

    reference = "small-fractions"

    def __init__(self, inputs: dict) -> None:
        self.formats = inputs["formats"]
        self.identities = inputs["identities"]

    def requests(self) -> list[Request]:
        tables = [functools.partial(_cli, ["table", "--format", fmt]) for fmt in self.formats]
        return tables + [functools.partial(self._identity, *row) for row in self.identities]

    @staticmethod
    def _identity(family: str, p: int, m: int, a: int, b: int) -> tuple:
        cf = _builder(family)(p, m, hs.LinearArg(a, b))
        text = hs.render(cf, "text")
        latex = hs.render(cf, "latex")
        js = hs.render(cf, "json")
        return cf, text, latex, js, hs.parse_closed_form(js)

    def check(self, outputs: list) -> list[Problem]:
        problems: list[Problem] = []
        table = HarmonicTable()
        tables = dict(zip(self.formats, outputs))
        problems += self._check_tables(tables, table)
        for row, out in zip(self.identities, outputs[len(self.formats):]):
            if out is None:
                continue
            cf, text, latex, js, back = out
            if back != cf or hs.render(back, "json") != js:
                problems.append(f"identity {row}: JSON does not round-trip")
            if not text or not latex:
                problems.append(f"identity {row}: empty text or LaTeX")
            family, p, m, a, b = row
            data = json.loads(js)
            for n in EMIT_CHECK_N:
                if evaluate_json(data, table, n) != literal_sum(table, family, p, m, a, b, n):
                    problems.append(f"identity {row} at n={n}: JSON value != literal sum")
        return problems

    @staticmethod
    def _check_tables(tables: dict, table: HarmonicTable) -> list[Problem]:
        if any(out is None for out in tables.values()):
            return []
        problems = [f"table --format {fmt}: exit {out[0]}" for fmt, out in tables.items() if out[0]]
        entries = json.loads(tables["json"][1])["entries"]
        for fmt in ("text", "latex"):
            lines = tables[fmt][1].splitlines()
            if len(lines) != len(entries) or not all(" = " in line for line in lines):
                problems.append(f"table --format {fmt}: {len(lines)} lines for {len(entries)} entries")
        for entry in entries:
            data = entry["closed_form"]
            if hs.closed_form_to_json(hs.parse_closed_form(data)) != data:
                problems.append(f"table entry {entry['kind']} p={entry['p']}: JSON does not round-trip")
            a, b = entry["offset"]["a"], entry["offset"]["b"]
            for n in EMIT_CHECK_N:
                if entry["kind"] == "power_sum":
                    want = power_sum(table, entry["p"], n)
                else:
                    want = literal_sum(table, entry["kind"].upper(), entry["p"], entry["m"], a, b, n)
                if evaluate_json(data, table, n) != want:
                    problems.append(f"table entry {entry['kind']} p={entry['p']} m={entry['m']} at n={n}")
        return problems


class Bernoulli:
    """B_0..B_N one index per request, then `harmsum bernoulli --n-max N --format json`."""

    reference = "small-fractions"

    def __init__(self, inputs: dict) -> None:
        self.n_max = inputs["n_max"]

    def requests(self) -> list[Request]:
        values = [functools.partial(hs.bernoulli_plus, k) for k in range(self.n_max + 1)]
        argv = ["bernoulli", "--n-max", str(self.n_max), "--format", "json"]
        return values + [functools.partial(_cli, argv)]

    def check(self, outputs: list) -> list[Problem]:
        """Agreement of the requests with the JSON; the run compares the JSON with sympy."""
        if outputs[-1] is None:
            return []
        code, text = outputs[-1]
        values = json.loads(text)["values"]
        problems = [f"bernoulli exit {code}"] if code else []
        if [v["k"] for v in values] != list(range(self.n_max + 1)):
            problems.append("bernoulli JSON does not list indices 0..N in order")
        for v, out in zip(values, outputs):
            if out is not None and Fraction(int(v["num"]), int(v["den"])) != out:
                problems.append(f"B_{v['k']}: JSON value != returned value")
        return problems

    def for_parent(self, outputs: list) -> dict:
        return {"bernoulli_json": outputs[-1][1] if outputs[-1] is not None else None}


WORKLOADS = {
    "verify-grid": VerifyGrid,
    "verify-deep": VerifyDeep,
    "emit": Emit,
    "bernoulli": Bernoulli,
}
