"""Verification machinery: grids, summation by parts, serialization.

Everything the constructors produce can be checked against independent
brute force, cell by cell, with exact comparison. Every check is a sweep
of exact rows (n, lhs, rhs). This script runs a medium grid, the
summation-by-parts sweep, the two classical weighted corollaries, and a
JSON round trip.
"""

import time

from harmonic_sums import (
    COROLLARY_START,
    LinearArg,
    build_closed_form,
    corollary_rows,
    grid_rows,
    parse_closed_form,
    render,
    sbp_rows,
    sum_f,
)

print("Grid verification (closed forms vs. literal double sums):")
offsets = tuple(LinearArg(a, b) for a in range(2) for b in range(2))
start = time.perf_counter()
for family in ("F", "G"):
    rows = [
        row
        for p in range(5)
        for m in range(1, 4)
        for s in offsets
        for row in grid_rows(family, p, m, s, build_closed_form(family, p, m, s), 20)
    ]
    passed = sum(row.passed for row in rows)
    print(f"  family {family}: {len(rows)} cells, {passed} passed, {len(rows) - passed} failed")
    assert passed == len(rows)
print(f"  elapsed: {time.perf_counter() - start:.2f}s, all comparisons exact")
print()

print("Summation by parts: sum [(k+1)^w - k^w] H_k^(m) telescopes against")
print("(n+1)^w H_n^(m) - H_n^(m-w), for positive and negative w alike:")
for m in range(-2, 4):
    marks = []
    for w in range(-3, 4):
        ok = all(row.passed for row in sbp_rows(m, w, 30))
        marks.append("ok" if ok else "FAIL")
        assert ok
    print(f"  m = {m:+d}: w = -3..3 -> {' '.join(marks)}")
print()

print("Classical weighted corollaries:")
for which, start_n in COROLLARY_START.items():
    ok = all(row.passed for row in corollary_rows(which, 100))
    print(f"  {which}: n = {start_n}..100: {'all pass' if ok else 'FAIL'}")
    assert ok
print()

print("JSON serialization round-trips bit-exactly:")
cf = sum_f(4, 3)
text = render(cf, "json")
assert parse_closed_form(text) == cf
print(f"  sum k^4 H_k^(3) -> {len(text)} bytes of JSON -> identical closed form")
