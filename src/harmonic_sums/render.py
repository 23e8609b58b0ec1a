"""Rendering of closed forms as text, LaTeX, or JSON, plus JSON parsing.

Text and LaTeX follow the usual presentation for these identities:
harmonic symbols carry the argument as a subscript and the order as a
parenthesized superscript, coefficients that equal (a multiple of) a
power-sum polynomial are displayed as H_n^(-p), powers of n and linear
factors with small rational roots are split off for readability, and a
denominator prints one linear factor per pole. All of that is cosmetic;
the JSON form is the contractual serialization and round-trips
bit-exactly.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .closed_form import ClosedForm, HarmonicSymbol, LinearArg, _harmonic_label, _plain_poly, _power
from .polynomial import Pole, Polynomial, RationalFunction, faulhaber_poly, linear_factors

__all__ = [
    "CLOSED_FORM_SCHEMA",
    "closed_form_to_json",
    "fraction_to_json",
    "parse_closed_form",
    "polynomial_text",
    "rational_function_text",
    "render",
]

FORMATS = ("text", "latex", "json")

# ---------------------------------------------------------------------------
# display factoring

# One factor: its integer coefficient tuple, constant term first, and its
# multiplicity. A factoring is the content and a sorted tuple of factors.
Factors = tuple[tuple[tuple[int, ...], int], ...]

# An emit round of the benchmark factors 451 distinct polynomials (1,802
# calls, since text and LaTeX print the same coefficients), and text plus
# LaTeX of 936 offset and catalogue forms factor 865; every entry is
# immutable, so the callers share it.
_DISPLAY_CACHE_SIZE = 1024


def _factor_key(factor: tuple[tuple[int, ...], int]) -> tuple:
    """Display order: degree, then leading coefficient, then coefficients."""
    nums = factor[0]
    return len(nums), nums[-1], nums


@functools.lru_cache(maxsize=_DISPLAY_CACHE_SIZE)
def factor_for_display(poly: Polynomial) -> tuple[Fraction, Factors]:
    """Split a polynomial into content * product of integer-primitive factors.

    Each factor is its integer coefficient tuple, constant term first, with
    a positive leading coefficient; n is (0, 1). Pulls out every linear
    factor q*n - p, powers of n included, with |p|, q <=
    polynomial.ROOT_BOUND; the rest stays one factor. The product of the
    returned parts is exactly the input. Memoized per distinct polynomial,
    so the result is immutable throughout.
    """
    if poly.is_zero:
        return Fraction(0), ()
    roots, rest = linear_factors(poly)
    g = gcd(*rest.nums) if rest.nums[-1] > 0 else -gcd(*rest.nums)
    content, factors = _pole_factors(roots)  # content is 1 / prod q**e
    if rest.degree >= 1:
        primitive = (tuple([c // g for c in rest.nums]), 1)
        factors = tuple(sorted((*factors, primitive), key=_factor_key))
    return Fraction(g, rest.den * content.denominator), factors


def _pole_factors(poles: Sequence[Pole]) -> tuple[Fraction, Factors]:
    """The display factoring of prod (n - r)**e, read off its roots: a root
    p/q gives the factor q*n - p, so the content is 1 / prod q**e. No root
    search, so a pole past ROOT_BOUND prints as its own linear factor."""
    den = 1
    for r, e in poles:
        den *= r.denominator**e
    factors = [((-r.numerator, r.denominator), e) for r, e in poles]
    return Fraction(1, den), tuple(sorted(factors, key=_factor_key))


# ---------------------------------------------------------------------------
# text / latex


def _fraction_text(q: Fraction, latex: bool) -> str:
    if latex and q.denominator != 1:
        sign = "-" if q < 0 else ""
        return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
    return str(q)


def _scaled(c: Fraction, body: str, latex: bool) -> str:
    """c times body, '1/4 n(n+1)' or '\\frac{1}{4}n(n+1)' in LaTeX; a
    coefficient +/-1 prints as its sign alone."""
    if c in (1, -1):
        return body if c == 1 else f"-{body}"
    return f"{_fraction_text(c, latex)}{'' if latex else ' '}{body}"


def polynomial_text(poly: Polynomial, latex: bool = False) -> str:
    """Factored display: content first, then factors, e.g. '1/4 n(n+1)'."""
    return _factored_text(*factor_for_display(poly), latex)


def _factored_text(content: Fraction, factors: Factors, latex: bool) -> str:
    if not factors:
        return _fraction_text(content, latex)
    body = ""
    for nums, mult in factors:
        body += _power("n" if nums == (0, 1) else f"({_plain_poly(nums, latex)})", mult, latex)
    return _scaled(content, body, latex)


def rational_function_text(rf: RationalFunction, latex: bool = False) -> str:
    num = polynomial_text(rf.num, latex)
    if rf.is_polynomial:
        return num
    den = _factored_text(*_pole_factors(rf.poles), latex)
    return f"\\frac{{{num}}}{{{den}}}" if latex else f"({num})/({den})"


def _power_sum_label(p: int, latex: bool) -> str:
    return _harmonic_label("n", f"-{p}", latex)


def _match_power_sum(poly: Polynomial) -> tuple[Fraction, int] | None:
    """Detect poly == scalar * faulhaber_poly(q); returns (scalar, q).

    Degree-1 polynomials are excluded: a bare multiple of n reads better
    as n than as H_n^(-0).
    """
    q = poly.degree - 1
    if q < 1 or poly.nums[0]:  # a power sum vanishes at n = 0
        return None
    reference = faulhaber_poly(q)
    scalar = poly.leading / reference.leading
    if poly == reference * scalar:
        return scalar, q
    return None


def _coefficient_piece(coeff: RationalFunction, latex: bool) -> tuple[int, str]:
    """(sign, body) for a symbol coefficient; body '' means bare +/-1."""
    if coeff.is_polynomial:
        poly = coeff.num
        match = _match_power_sum(poly)
        if match is not None:
            scalar, q = match
            label = _power_sum_label(q, latex)
            return (-1 if scalar < 0 else 1), _scaled(abs(scalar), label, latex)
        if poly.degree == 0 and abs(poly.leading) == 1:
            return (-1 if poly.leading < 0 else 1), ""
    sign, body = _signed_piece(coeff, latex)
    # text groups a general rational function; LaTeX's \frac already does
    if coeff.is_polynomial or latex:
        return sign, body
    return sign, f"({body})"


def _signed_piece(rf: RationalFunction, latex: bool) -> tuple[int, str]:
    """(sign, body) of a rational function; its denominator is monic, so the
    numerator's leading coefficient carries the sign."""
    if rf.is_zero:
        return 1, "0"
    if rf.num.nums[-1] < 0:
        return -1, rational_function_text(-rf, latex)
    return 1, rational_function_text(rf, latex)


def render(cf: ClosedForm, fmt: str = "text") -> str:
    """Deterministic rendering of a closed form in the given format."""
    if fmt == "json":
        return json.dumps(closed_form_to_json(cf), indent=2)
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    latex = fmt == "latex"
    pieces: list[tuple[int, str]] = []
    for sym, coeff in cf.terms:
        sign, body = _coefficient_piece(coeff, latex)
        sym_text = _harmonic_label(str(sym.arg), str(sym.order), latex)
        pieces.append((sign, f"{body} {sym_text}" if body else sym_text))
    if not cf.constant.is_zero or not pieces:
        pieces.append(_signed_piece(cf.constant, latex))
    (sign, head), *rest = pieces
    tail = "".join(f" - {body}" if s < 0 else f" + {body}" for s, body in rest)
    return f"-{head}{tail}" if sign < 0 else f"{head}{tail}"


# ---------------------------------------------------------------------------
# JSON (the contractual serialization)

_POLY_SCHEMA = {
    "type": "array",
    "items": {"type": "string", "pattern": "^-?[0-9]+$"},
}

_RATFUNC_SCHEMA = {
    "type": "object",
    "required": ["num", "den"],
    "additionalProperties": False,
    "properties": {"num": _POLY_SCHEMA, "den": _POLY_SCHEMA},
}

CLOSED_FORM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["constant", "terms"],
    "additionalProperties": False,
    "properties": {
        "constant": _RATFUNC_SCHEMA,
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["order", "arg", "coeff"],
                "additionalProperties": False,
                "properties": {
                    "order": {"type": "integer", "minimum": 1},
                    "arg": {
                        "type": "object",
                        "required": ["a", "b"],
                        "additionalProperties": False,
                        "properties": {
                            "a": {"type": "integer", "minimum": 1},
                            "b": {"type": "integer"},
                        },
                    },
                    "coeff": _RATFUNC_SCHEMA,
                },
            },
        },
    },
}


def fraction_to_json(q: Fraction) -> dict[str, str]:
    """A bare rational as integer strings (consumers must not lose digits)."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _rf_to_json(rf: RationalFunction) -> dict[str, list[str]]:
    """num and den cross-multiplied by each other's denominator, then made primitive."""
    num, den = rf.num, rf.den
    nums = [c * den.den for c in num.nums]
    dens = [c * num.den for c in den.nums]
    divisor = gcd(*nums, *dens)  # den is nonzero
    return {
        "num": [str(c // divisor) for c in nums],
        "den": [str(c // divisor) for c in dens],
    }


def _rf_from_json(data: dict) -> RationalFunction:
    num = Polynomial([int(c) for c in data["num"]])
    den = Polynomial([int(c) for c in data["den"]])
    return num / den


def closed_form_to_json(cf: ClosedForm) -> dict:
    return {
        "constant": _rf_to_json(cf.constant),
        "terms": [
            {
                "order": sym.order,
                "arg": {"a": sym.arg.a, "b": sym.arg.b},
                "coeff": _rf_to_json(coeff),
            }
            for sym, coeff in cf.terms
        ],
    }


def parse_closed_form(data: dict | str) -> ClosedForm:
    """Inverse of the JSON rendering: parse(render(cf)) == cf."""
    if isinstance(data, str):
        data = json.loads(data)
    terms = [
        (
            HarmonicSymbol(
                LinearArg(term["arg"]["a"], term["arg"]["b"]), term["order"]
            ),
            _rf_from_json(term["coeff"]),
        )
        for term in data["terms"]
    ]
    return ClosedForm(_rf_from_json(data["constant"]), terms)
