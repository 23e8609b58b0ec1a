"""Command-line interface: emit identities and run exact verification sweeps.

Commands:

    identity    closed form for one weighted harmonic sum
    table       the full identity catalogue
    verify      brute-force grid verification of the closed forms
    check       summation-by-parts and corollary identity checks
    bernoulli   Bernoulli numbers (B_1 = +1/2 convention)
    faulhaber   power-sum polynomials

Every command takes ``--format {text,latex,json}`` and ``--output PATH``.
Each handler returns its exit code and payload; ``main`` alone writes it.
Exit codes: 0 on success (for verify/check: all identities hold), 1 when
any verification cell fails, 2 on invalid usage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from typing import Callable, Iterator, Sequence

from .catalog import catalog_entries
from .closed_form import ClosedForm, LinearArg, _power
from .exact import bernoulli_plus
from .identities import build_closed_form
from .oracle import COROLLARY_START, CheckRow, corollary_rows, grid_rows, sbp_rows
from .polynomial import faulhaber_poly
from .render import (
    FORMATS,
    _fraction_text,
    closed_form_to_json,
    fraction_to_json,
    polynomial_text,
    render,
)

# Hard bounds on user-supplied parameters, each checked as its argument is parsed.
# MAX_P and MAX_M bound --p and --m of `identity` and `verify`, which build
# closed forms: at p = MAX_P the slowest accepted identities (m = -10 or
# MAX_M, s = 2n+1, 10n+9 or 10n+10) take at most about 0.6 s on a 2-core
# machine, and the slowest `verify` calls (both families, n 0..40, at
# s = 10n+10, or at MAX_M and 10n+9 or 10n+10) about 0.4-0.6 s and 0.4-0.7 s
# as whole processes, within a 10 s budget.
# `faulhaber` builds one power-sum polynomial only; at MAX_FAULHABER_P it
# takes about 2 s as a whole process, and `bernoulli` up to MAX_BERNOULLI_N
# about 2.3-3.1 s. Both are dominated by the Bernoulli numbers, whose
# tangent recurrence costs about n**3 digit operations.
# MAX_SBP_EXPONENT bounds `check --m` above and
# `check --w` on both sides, so the sweep orders m and m - w are at most
# 2 * MAX_SBP_EXPONENT: at the default n_max of 30 the slowest corner,
# `check --sbp --m 1000 --w -1000`, takes about 0.2 s, and about 0.9 s at
# n_max 100. A larger n_max is bounded by MAX_N alone, with no work budget
# yet; `check --corollary both --n-max 10000` takes about 3 s.
MAX_ORDER_BELOW = -10
MAX_M = 40
MAX_OFFSET = 10
MAX_P = 80
MAX_FAULHABER_P = 2200
MAX_BERNOULLI_N = 2800
MAX_N = 10_000
MAX_SBP_EXPONENT = 1000

DEFAULT_GRID = {
    "p": (0, 6),
    "m": (1, 5),
    "offsets": tuple(
        LinearArg(a, b) for a in range(3) for b in range(3)
    ),
    "n_max": 40,
}

SBP_M_RANGE = (-2, 3)
SBP_W_RANGE = (-3, 3)

# A handler's exit code, and its JSON payload (--format json) or lines of text
Result = tuple[int, dict | list[str]]


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    created = False
    try:
        # `open` alone judges --output, once and before the work
        sink = contextlib.nullcontext(sys.stdout)
        if args.output is not None:
            try:
                sink, created = open(args.output, "x", encoding="utf-8"), True
            except FileExistsError:  # its bytes stay as they are until the work is done
                sink = open(args.output, "a", encoding="utf-8")
        with sink as handle:
            code, out = args.handler(args)
            text = json.dumps(out, indent=2) if args.format == "json" else "\n".join(out)
            if args.output is not None and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate(0)  # as O_TRUNC would have: a regular file only
            print(text, file=handle)
            handle.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, ZeroDivisionError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # stdout's reader stopped early (`| head`): not a usage error
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())  # no flush error at exit
            finally:
                os.close(devnull)
            return code
        print(f"error: {exc}", file=sys.stderr)
        if created:  # a refused command leaves no file behind
            os.remove(args.output)
        return 2


def _in(low: int, high: float = math.inf) -> Callable[[str], int]:
    """An argparse type: an int in [low, high], else a usage error (exit 2)."""

    def bounded(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {value}")
        return value

    bounded.__name__ = "int"  # argparse names the type when it refuses a non-integer
    return bounded


# Built once per process: in-process callers run `main` many times, and
# `parse_args` writes into a fresh Namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmsum",
        description="Exact closed forms for finite sums of generalized harmonic numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[..., Result], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--format", choices=FORMATS, default="text", help="output format (default: text)"
        )
        p.add_argument("--output", metavar="PATH", help="write to file instead of stdout")
        p.set_defaults(handler=handler)
        return p

    # `identity` and `verify` build closed forms, under the same bounds
    p_type, m_type, offset_type = _in(0, MAX_P), _in(MAX_ORDER_BELOW, MAX_M), _in(0, MAX_OFFSET)

    p_id = command("identity", _cmd_identity, "closed form for one weighted harmonic sum")
    p_id.add_argument("--family", choices=("f", "g"), required=True)
    p_id.add_argument("--p", type=p_type, required=True, help="power exponent (>= 0)")
    p_id.add_argument("--m", type=m_type, required=True, help="harmonic order")
    p_id.add_argument("--offset-a", type=offset_type, default=0, help="offset slope a in s = a*n+b")
    p_id.add_argument("--offset-b", type=offset_type, default=0, help="offset shift b in s = a*n+b")

    command("table", _cmd_table, "emit the full identity catalogue")

    p_verify = command("verify", _cmd_verify, "verify closed forms against brute force")
    p_verify.add_argument("--family", choices=("f", "g"), default=None)
    p_verify.add_argument("--p", type=p_type, default=None)
    p_verify.add_argument("--m", type=m_type, default=None)
    p_verify.add_argument("--offset-a", type=offset_type, default=None)
    p_verify.add_argument("--offset-b", type=offset_type, default=None)
    p_verify.add_argument("--n-max", type=_in(0, MAX_N), default=None)

    p_check = command("check", _cmd_check, "summation-by-parts and corollary checks")
    p_check.add_argument("--sbp", action="store_true", help="run the summation-by-parts sweep")
    p_check.add_argument(
        "--corollary",
        choices=(*COROLLARY_START, "both"),
        default=None,
        help="run the weighted-sum corollary checks",
    )
    p_check.add_argument(  # a sweep order, not a closed-form build: not bounded by MAX_M
        "--m",
        type=_in(MAX_ORDER_BELOW, MAX_SBP_EXPONENT),
        default=None,
        help="restrict sbp to one order",
    )
    p_check.add_argument(
        "--w",
        type=_in(-MAX_SBP_EXPONENT, MAX_SBP_EXPONENT),
        default=None,
        help="restrict sbp to one weight exponent",
    )
    p_check.add_argument("--n-max", type=_in(0, MAX_N), default=None)

    p_bern = command("bernoulli", _cmd_bernoulli, "Bernoulli numbers, B_1 = +1/2 convention")
    p_bern.add_argument(
        "--n-max", type=_in(0, MAX_BERNOULLI_N), default=12, help="highest index to print"
    )

    p_fh = command("faulhaber", _cmd_faulhaber, "power-sum polynomial for one exponent")
    p_fh.add_argument(
        "--p", type=_in(0, MAX_FAULHABER_P), required=True, help="power exponent (>= 0)"
    )

    return parser


def _offset_json(s: LinearArg) -> dict:
    return {"a": s.a, "b": s.b}


def _failure_json(row: CheckRow) -> dict:
    return {"n": row.n, "lhs": fraction_to_json(row.lhs), "rhs": fraction_to_json(row.rhs)}


def _failure_text(row: CheckRow) -> str:
    lhs, rhs = _fraction_text(row.lhs, latex=False), _fraction_text(row.rhs, latex=False)
    return f"at n={row.n}: direct sum {lhs} != closed form {rhs}"


def _cmd_identity(args: argparse.Namespace) -> Result:
    s = LinearArg(args.offset_a, args.offset_b)
    cf = build_closed_form(args.family, args.p, args.m, s)
    if args.format == "json":
        return 0, {
            "family": args.family,
            "p": args.p,
            "m": args.m,
            "offset": _offset_json(s),
            "closed_form": closed_form_to_json(cf),
        }
    return 0, [render(cf, args.format)]


def _cmd_table(args: argparse.Namespace) -> Result:
    entries = catalog_entries()
    if args.format == "json":
        return 0, {
            "entries": [
                {
                    "kind": entry.kind,
                    "p": entry.p,
                    "m": entry.m,
                    "offset": _offset_json(entry.offset),
                    "closed_form": closed_form_to_json(entry.closed_form),
                }
                for entry in entries
            ]
        }
    return 0, [
        f"{entry.lhs_label(args.format)} = {render(entry.closed_form, args.format)}"
        for entry in entries
    ]


def _cmd_verify(args: argparse.Namespace) -> Result:
    """Stream every row of each family's grid, counting cells and keeping only the failures."""
    p_lo, p_hi = (args.p, args.p) if args.p is not None else DEFAULT_GRID["p"]
    m_lo, m_hi = (args.m, args.m) if args.m is not None else DEFAULT_GRID["m"]
    n_max = args.n_max if args.n_max is not None else DEFAULT_GRID["n_max"]
    if args.offset_a is not None or args.offset_b is not None:
        offsets: tuple[LinearArg, ...] = (LinearArg(args.offset_a or 0, args.offset_b or 0),)
    elif any(getattr(args, name) is not None for name in ("family", "p", "m", "n_max")):
        offsets = (LinearArg(0, 0),)  # any filter narrows the offsets to s = 0
    else:
        offsets = DEFAULT_GRID["offsets"]
    lines: list[str] = []
    reports: list[dict] = []
    for family in ("F", "G") if args.family is None else (args.family.upper(),):
        total = 0
        failures: list[tuple[int, int, LinearArg, CheckRow]] = []
        for p in range(p_lo, p_hi + 1):
            for m in range(m_lo, m_hi + 1):
                for s in offsets:
                    cf = build_closed_form(family, p, m, s)
                    for row in grid_rows(family, p, m, s, cf, n_max):
                        total += 1
                        if not row.passed:
                            failures.append((p, m, s, row))
        lines.append(
            f"family {family}: p in {p_lo}..{p_hi}, m in {m_lo}..{m_hi}, "
            f"s in {{{', '.join(str(s) for s in offsets)}}}, n in 0..{n_max}: "
            f"{total} cells, {total - len(failures)} passed, {len(failures)} failed"
        )
        lines.extend(
            f"  FAIL {family}(p={p}, m={m}, s={s}) {_failure_text(row)}"
            for p, m, s, row in failures
        )
        reports.append(
            {
                "family": family,
                "p_range": [p_lo, p_hi],
                "m_range": [m_lo, m_hi],
                "offsets": [_offset_json(s) for s in offsets],
                "n_range": [0, n_max],
                "total": total,
                "passed": total - len(failures),
                "failed": len(failures),
                "failures": [
                    {"p": p, "m": m, "offset": _offset_json(s), **_failure_json(row)}
                    for p, m, s, row in failures
                ],
            }
        )
    all_ok = not any(report["failed"] for report in reports)
    closing = ("all identities verified", "verification FAILED")
    return _verdict(args, all_ok, "grids", reports, lines, closing)


def _cmd_check(args: argparse.Namespace) -> Result:
    run_sbp = args.sbp or args.corollary is None
    if args.corollary is None:  # bare `check` runs everything
        run_corollary: tuple[str, ...] = () if args.sbp else tuple(COROLLARY_START)
    elif args.corollary == "both":
        run_corollary = tuple(COROLLARY_START)
    else:
        run_corollary = (args.corollary,)
    for flag in ("m", "w"):  # refuse what would be ignored before any sweep runs
        if getattr(args, flag) is not None and not run_sbp:
            raise ValueError(f"--{flag} restricts the summation-by-parts sweep: add --sbp")
    corollary_n_max = args.n_max if args.n_max is not None else 100
    for which in run_corollary:  # refuse an empty check before any sweep runs
        if corollary_n_max < COROLLARY_START[which]:
            raise ValueError(
                f"corollary {which} starts at n={COROLLARY_START[which]}: "
                f"--n-max {corollary_n_max} leaves no row to check"
            )
    lines: list[str] = []
    results: list[dict] = []

    def record(label: str, entry: dict, rows: Iterator[CheckRow]) -> None:
        bad = next((row for row in rows if not row.passed), None)
        lines.append(f"{label}: {'PASS' if bad is None else 'FAIL'}")
        results.append({**entry, "passed": bad is None})
        if bad is not None:
            lines.append(f"  FAIL {_failure_text(bad)}")
            results[-1]["failure"] = _failure_json(bad)

    if run_sbp:
        n_max = args.n_max if args.n_max is not None else 30
        m_values = (args.m,) if args.m is not None else range(SBP_M_RANGE[0], SBP_M_RANGE[1] + 1)
        w_values = (args.w,) if args.w is not None else range(SBP_W_RANGE[0], SBP_W_RANGE[1] + 1)
        for m in m_values:
            for w in w_values:
                entry = {"check": "sbp", "m": m, "w": w, "n_max": n_max}
                label = f"summation-by-parts m={m} w={w} n=0..{n_max}"
                record(label, entry, sbp_rows(m, w, n_max))
    for which in run_corollary:
        entry = {"check": "corollary", "which": which, "n_max": corollary_n_max}
        label = f"corollary {which} n={COROLLARY_START[which]}..{corollary_n_max}"
        record(label, entry, corollary_rows(which, corollary_n_max))

    all_ok = all(entry["passed"] for entry in results)
    return _verdict(args, all_ok, "checks", results, lines, ("all checks passed", "checks FAILED"))


def _verdict(
    args: argparse.Namespace, all_ok: bool, key: str, reports: list[dict], lines: list[str],
    closing: tuple[str, str],
) -> Result:
    """How `verify` and `check` end: exit 0 or 1, and the reports under `key`
    (JSON) or the lines and `closing`'s line for that exit code (text)."""
    code = 0 if all_ok else 1
    if args.format == "json":
        return code, {"all_passed": all_ok, key: reports}
    return code, [*lines, closing[code]]


def _cmd_bernoulli(args: argparse.Namespace) -> Result:
    values = [(k, bernoulli_plus(k)) for k in range(args.n_max + 1)]
    if args.format == "json":
        return 0, {"values": [{"k": k, **fraction_to_json(v)} for k, v in values]}
    if args.format == "latex":
        return 0, [f"B^+_{{{k}}} = {_fraction_text(v, latex=True)}" for k, v in values]
    return 0, [f"B+({k}) = {_fraction_text(v, latex=False)}" for k, v in values]


def _cmd_faulhaber(args: argparse.Namespace) -> Result:
    poly = faulhaber_poly(args.p)
    if args.format == "json":
        return 0, {"p": args.p, "closed_form": closed_form_to_json(ClosedForm(poly))}
    latex = args.format == "latex"
    lhs = "\\sum_{k=1}^{n}" if latex else "sum_(k=1..n)"
    return 0, [f"{lhs} {_power('k', args.p, latex) or '1'} = {polynomial_text(poly, latex)}"]
