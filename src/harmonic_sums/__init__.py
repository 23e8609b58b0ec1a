"""Exact closed forms for finite sums of generalized harmonic numbers.

The package builds, renders, and brute-force-verifies identities for
power sums and for sums of the shapes sum k**p H_{s+k}^(m) and
sum k**p H_{s+n-k}^(m) with linear offsets s = a*n + b, entirely in
arbitrary-precision rational arithmetic.
"""

from .closed_form import (
    ClosedForm,
    DEFAULT_BASIS,
    HarmonicSymbol,
    LinearArg,
    evaluate_cf,
    harmonic_term,
    harmonic_value,
    shift_basis,
    substitute_n,
)
from .exact import BernoulliCache, bernoulli_plus, binomial, int_pow
from .identities import (
    build_closed_form,
    offset_basis,
    offset_sum_f,
    offset_sum_g,
    sum_f,
    sum_g,
)
from .catalog import CatalogEntry, catalog_entries
from .oracle import (
    COROLLARY_START,
    CheckRow,
    corollary_rows,
    grid_rows,
    harmonic_direct,
    lhs_direct,
    sbp_rows,
)
from .polynomial import PoleError, Polynomial, RationalFunction, faulhaber_poly
from .render import (
    CLOSED_FORM_SCHEMA,
    closed_form_to_json,
    parse_closed_form,
    render,
)

__all__ = [
    "BernoulliCache",
    "CLOSED_FORM_SCHEMA",
    "COROLLARY_START",
    "CatalogEntry",
    "CheckRow",
    "ClosedForm",
    "DEFAULT_BASIS",
    "HarmonicSymbol",
    "LinearArg",
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "bernoulli_plus",
    "binomial",
    "build_closed_form",
    "catalog_entries",
    "closed_form_to_json",
    "corollary_rows",
    "evaluate_cf",
    "faulhaber_poly",
    "grid_rows",
    "harmonic_direct",
    "harmonic_term",
    "harmonic_value",
    "int_pow",
    "lhs_direct",
    "offset_basis",
    "offset_sum_f",
    "offset_sum_g",
    "parse_closed_form",
    "render",
    "sbp_rows",
    "shift_basis",
    "substitute_n",
    "sum_f",
    "sum_g",
]

__version__ = "0.1.0"
