"""Command-line interface: emit identities and run exact verification sweeps.

Commands:

    identity    closed form for one weighted harmonic sum
    table       the full identity catalogue
    verify      brute-force grid verification of the closed forms
    check       summation-by-parts and corollary identity checks
    bernoulli   Bernoulli numbers (B_1 = +1/2 convention)
    faulhaber   power-sum polynomials

Every command takes ``--format {text,latex,json}`` and ``--output PATH``.
Exit codes: 0 on success (for verify/check: all identities hold), 1 when
any verification cell fails, 2 on invalid usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterator, Sequence

from .catalog import catalog_entries
from .closed_form import ClosedForm, LinearArg
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

# Hard bounds on user-supplied parameters, enforced before dispatch.
# MAX_P and MAX_M bound --p and --m of `identity` and `verify`, which build
# closed forms: at p = MAX_P the slowest accepted identities (family g, at
# m = -10 or MAX_M, s = 2n+1, 10n+9 or 10n+10) take at most about 2.1 s on a
# 2-core machine, and the slowest `verify` calls (both families, n 0..40, at
# s = 10n+10 or at MAX_M and 10n+9) 4.5-6 s, within a 10 s budget.
# `faulhaber` builds one power-sum polynomial only; at MAX_FAULHABER_P it
# takes about 3 s. `bernoulli` up to MAX_BERNOULLI_N takes about 5 s; both
# are dominated by the Bernoulli triangle, whose cost grows like n**3
# (B_0..B_3000 takes 5-6 s).
MAX_ORDER_BELOW = -10
MAX_M = 40
MAX_OFFSET = 10
MAX_P = 80
MAX_FAULHABER_P = 2200
MAX_BERNOULLI_N = 2800
MAX_N = 10_000

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


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Pythons before the limit lack it
        sys.set_int_max_str_digits(0)  # exact values may have any number of digits
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(parser, args)
        return args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# Built once per process: in-process callers run `main` many times, and
# `parse_args` writes into a fresh Namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmsum",
        description="Exact closed forms for finite sums of generalized harmonic numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=FORMATS,
            default="text",
            help="output format (default: text)",
        )
        p.add_argument("--output", metavar="PATH", help="write to file instead of stdout")

    p_id = sub.add_parser("identity", help="closed form for one weighted harmonic sum")
    p_id.add_argument("--family", choices=("f", "g"), required=True)
    p_id.add_argument("--p", type=int, required=True, help="power exponent (>= 0)")
    p_id.add_argument("--m", type=int, required=True, help="harmonic order")
    p_id.add_argument("--offset-a", type=int, default=0, help="offset slope a in s = a*n+b")
    p_id.add_argument("--offset-b", type=int, default=0, help="offset shift b in s = a*n+b")
    add_common(p_id)
    p_id.set_defaults(handler=_cmd_identity)

    p_table = sub.add_parser("table", help="emit the full identity catalogue")
    add_common(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="verify closed forms against brute force")
    p_verify.add_argument("--family", choices=("f", "g", "both"), default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--offset-a", type=int, default=None)
    p_verify.add_argument("--offset-b", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_check = sub.add_parser("check", help="summation-by-parts and corollary checks")
    p_check.add_argument("--sbp", action="store_true", help="run the summation-by-parts sweep")
    p_check.add_argument(
        "--corollary",
        choices=(*COROLLARY_START, "both"),
        default=None,
        help="run the weighted-sum corollary checks",
    )
    p_check.add_argument("--m", type=int, default=None, help="restrict sbp to one order")
    p_check.add_argument("--w", type=int, default=None, help="restrict sbp to one weight exponent")
    p_check.add_argument("--n-max", type=int, default=None)
    add_common(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_bern = sub.add_parser("bernoulli", help="Bernoulli numbers, B_1 = +1/2 convention")
    p_bern.add_argument("--n-max", type=int, default=12, help="highest index to print")
    add_common(p_bern)
    p_bern.set_defaults(handler=_cmd_bernoulli)

    p_fh = sub.add_parser("faulhaber", help="power-sum polynomial for one exponent")
    p_fh.add_argument("--p", type=int, required=True, help="power exponent (>= 0)")
    add_common(p_fh)
    p_fh.set_defaults(handler=_cmd_faulhaber)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit 2 on a parameter out of bounds; `check --m`, a sweep order, has no upper one."""
    bounds = {
        "p": (0, MAX_FAULHABER_P if args.command == "faulhaber" else MAX_P),
        "m": (MAX_ORDER_BELOW, float("inf") if args.command == "check" else MAX_M),
        "offset_a": (0, MAX_OFFSET),
        "offset_b": (0, MAX_OFFSET),
        "n_max": (0, MAX_BERNOULLI_N if args.command == "bernoulli" else MAX_N),
    }
    for name, (low, high) in bounds.items():
        value = getattr(args, name, None)
        if value is not None and not (low <= value <= high):
            parser.error(f"--{name.replace('_', '-')} must be in [{low}, {high}], got {value}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _identity_payload(family: str, p: int, m: int, s: LinearArg, cf: ClosedForm) -> dict:
    return {
        "family": family,
        "p": p,
        "m": m,
        "offset": {"a": s.a, "b": s.b},
        "closed_form": closed_form_to_json(cf),
    }


def _cmd_identity(args: argparse.Namespace) -> int:
    s = LinearArg(args.offset_a, args.offset_b)
    cf = build_closed_form(args.family, args.p, args.m, s)
    if args.format == "json":
        text = json.dumps(_identity_payload(args.family, args.p, args.m, s, cf), indent=2)
    else:
        text = render(cf, args.format)
    _emit(text, args.output)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    entries = catalog_entries()
    if args.format == "json":
        payload = {
            "entries": [
                {
                    "kind": entry.kind,
                    "p": entry.p,
                    "m": entry.m,
                    "offset": {"a": entry.offset.a, "b": entry.offset.b},
                    "closed_form": closed_form_to_json(entry.closed_form),
                }
                for entry in entries
            ]
        }
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [
        f"{entry.lhs_label(args.format)} = {render(entry.closed_form, args.format)}"
        for entry in entries
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _verify_grids(args: argparse.Namespace) -> list[dict]:
    """The grids a `verify` run sweeps, one per family, keyed as its JSON report."""
    filtered = any(
        getattr(args, name) is not None
        for name in ("family", "p", "m", "offset_a", "offset_b", "n_max")
    )
    p_range = (args.p, args.p) if args.p is not None else DEFAULT_GRID["p"]
    m_range = (args.m, args.m) if args.m is not None else DEFAULT_GRID["m"]
    n_max = args.n_max if args.n_max is not None else DEFAULT_GRID["n_max"]
    if args.offset_a is not None or args.offset_b is not None:
        offsets: tuple[LinearArg, ...] = (
            LinearArg(args.offset_a or 0, args.offset_b or 0),
        )
    elif filtered:
        offsets = (LinearArg(0, 0),)
    else:
        offsets = DEFAULT_GRID["offsets"]
    families = ("F", "G") if args.family in (None, "both") else (args.family.upper(),)
    return [
        {
            "family": family,
            "p_range": p_range,
            "m_range": m_range,
            "offsets": offsets,
            "n_range": (0, n_max),
        }
        for family in families
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    """Stream every row of every grid, counting cells and keeping only the failures."""
    lines: list[str] = []
    reports: list[dict] = []
    for grid in _verify_grids(args):
        family, offsets, n_max = grid["family"], grid["offsets"], grid["n_range"][1]
        (p_lo, p_hi), (m_lo, m_hi) = grid["p_range"], grid["m_range"]
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
            f"  FAIL {family}(p={p}, m={m}, s={s}) at n={row.n}: "
            f"direct sum {row.lhs} != closed form {row.rhs}"
            for p, m, s, row in failures
        )
        reports.append(
            {
                **grid,
                "offsets": [{"a": s.a, "b": s.b} for s in offsets],
                "total": total,
                "passed": total - len(failures),
                "failed": len(failures),
                "failures": [
                    {"p": p, "m": m, "offset": {"a": s.a, "b": s.b}, **_failure_json(row)}
                    for p, m, s, row in failures
                ],
            }
        )
    all_ok = not any(report["failed"] for report in reports)
    if args.format == "json":
        _emit(json.dumps({"all_passed": all_ok, "grids": reports}, indent=2), args.output)
    else:
        lines.append("all identities verified" if all_ok else "verification FAILED")
        _emit("\n".join(lines), args.output)
    return 0 if all_ok else 1


def _failure_json(row: CheckRow) -> dict:
    return {"n": row.n, "lhs": fraction_to_json(row.lhs), "rhs": fraction_to_json(row.rhs)}


def _cmd_check(args: argparse.Namespace) -> int:
    run_sbp = args.sbp or args.corollary is None
    if args.corollary is None:  # bare `check` runs everything
        run_corollary: tuple[str, ...] = () if args.sbp else tuple(COROLLARY_START)
    elif args.corollary == "both":
        run_corollary = tuple(COROLLARY_START)
    else:
        run_corollary = (args.corollary,)
    lines: list[str] = []
    results: list[dict] = []

    def record(label: str, entry: dict, rows: Iterator[CheckRow]) -> None:
        bad = next((row for row in rows if not row.passed), None)
        lines.append(f"{label}: {'PASS' if bad is None else 'FAIL'}")
        results.append({**entry, "passed": bad is None})
        if bad is not None:
            lines.append(f"  FAIL at n={bad.n}: direct sum {bad.lhs} != closed form {bad.rhs}")
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
        n_max = args.n_max if args.n_max is not None else 100
        entry = {"check": "corollary", "which": which, "n_max": n_max}
        label = f"corollary {which} n={COROLLARY_START[which]}..{n_max}"
        record(label, entry, corollary_rows(which, n_max))

    all_ok = all(entry["passed"] for entry in results)
    if args.format == "json":
        _emit(json.dumps({"all_passed": all_ok, "checks": results}, indent=2), args.output)
    else:
        lines.append("all checks passed" if all_ok else "checks FAILED")
        _emit("\n".join(lines), args.output)
    return 0 if all_ok else 1


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    values = [(k, bernoulli_plus(k)) for k in range(args.n_max + 1)]
    if args.format == "json":
        payload = {"values": [{"k": k, **fraction_to_json(v)} for k, v in values]}
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "latex":
        lines = (f"B^+_{{{k}}} = {_fraction_text(v, latex=True)}" for k, v in values)
        _emit("\n".join(lines), args.output)
    else:
        _emit("\n".join(f"B+({k}) = {v}" for k, v in values), args.output)
    return 0


def _cmd_faulhaber(args: argparse.Namespace) -> int:
    poly = faulhaber_poly(args.p)
    if args.format == "json":
        payload = {
            "p": args.p,
            "closed_form": closed_form_to_json(ClosedForm(poly)),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "latex":
        _emit(f"\\sum_{{k=1}}^{{n}} k^{{{args.p}}} = {polynomial_text(poly, latex=True)}", args.output)
    else:
        _emit(f"sum_(k=1..n) k^{args.p} = {polynomial_text(poly)}", args.output)
    return 0
