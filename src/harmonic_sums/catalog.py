"""The standard catalogue of identities emitted by the `table` command.

Covers the power-sum polynomials up to p = 5, the plain weighted sums up
to (p, m) = (5, 4) for the forward family and (5, 3) for the reversed
family, and the offset families for s = n (orders 1 and 2 forward, order
1 reversed) and s = 2n (order 1 forward). Everything is computed by
``faulhaber_poly`` and ``build_closed_form``; nothing here is hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed_form import ClosedForm, LinearArg, _harmonic_label, _power
from .identities import build_closed_form
from .polynomial import faulhaber_poly
from .render import _power_sum_label

__all__ = ["CatalogEntry", "catalog_entries"]

_ZERO_OFFSET = LinearArg(0, 0)

# (kind, offset, highest order) in catalogue order: m = 1..top, then p = 0..5
_ROWS = (
    ("power_sum", _ZERO_OFFSET, 0),
    ("f", _ZERO_OFFSET, 4),
    ("g", _ZERO_OFFSET, 3),
    ("f", LinearArg(1, 0), 2),
    ("f", LinearArg(2, 0), 1),
    ("g", LinearArg(1, 0), 1),
)


@dataclass(frozen=True)
class CatalogEntry:
    kind: str  # 'power_sum', 'f' or 'g'
    p: int
    m: int | None
    offset: LinearArg
    closed_form: ClosedForm

    def lhs_label(self, fmt: str) -> str:
        latex = fmt == "latex"
        if self.kind == "power_sum":
            return _power_sum_label(self.p, latex)
        arg = _summand_arg(self.kind, self.offset)
        if latex:  # the table's LaTeX braces every subscript, H_{k} too
            sup = "" if self.m == 1 else f"^{{({self.m})}}"
            head, label = "\\sum_{k=0}^{n}", f"H_{{{arg}}}{sup}"
        else:
            head, label = "sum_(k=0..n)", _harmonic_label(arg, str(self.m), latex)
        return " ".join(filter(None, (head, _power("k", self.p, latex), label)))


def _summand_arg(kind: str, offset: LinearArg) -> str:
    body = str(LinearArg(offset.a + (kind == "g"), offset.b))
    if body == "0":
        return "k"  # plain k, only for family f at the zero offset
    return body + ("-k" if kind == "g" else "+k")


def catalog_entries() -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    for kind, offset, top in _ROWS:
        for m in range(1, top + 1) or (None,):
            for p in range(6):
                cf = build_closed_form(kind, p, m, offset) if m else ClosedForm(faulhaber_poly(p))
                entries.append(CatalogEntry(kind, p, m, offset, cf))
    return entries
