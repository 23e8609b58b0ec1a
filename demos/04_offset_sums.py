"""Offset sums: the harmonic index starts at s = a*n + b instead of 0.

Sums like sum_{k=0}^n k**p H_{n+k} or sum k**p H_{2n+k} reduce to the
plain families evaluated at shifted arguments. The closed forms live on
the symbol pair H_{(a+1)n+b+1} and H_{an+b}; the plain sums are the
offset sums at s = 0 by construction (sum_f(p, m) is
offset_sum_f(p, m, LinearArg(0, 0))), where H_{n+1} alone is the basis.
"""

from fractions import Fraction

from harmonic_sums import (
    LinearArg,
    evaluate_cf,
    faulhaber_poly,
    harmonic_direct,
    harmonic_term,
    int_pow,
    lhs_direct,
    offset_sum_f,
    offset_sum_g,
    render,
    sum_f,
)

print("Offsets growing with n:")
for p, m, s, label in [
    (0, 1, LinearArg(1, 0), "sum H_(n+k)"),
    (2, 1, LinearArg(1, 0), "sum k^2 H_(n+k)"),
    (1, 1, LinearArg(2, 0), "sum k H_(2n+k)"),
    (1, 1, LinearArg(1, 2), "sum k H_(n+2+k)"),
]:
    print(f"  {label} = {render(offset_sum_f(p, m, s))}")
print()

print("The reversed offset family:")
for p in (0, 1, 2):
    cf = offset_sum_g(p, 1, LinearArg(1, 0))
    weight = "" if p == 0 else ("k " if p == 1 else f"k^{p} ")
    print(f"  sum {weight}H_(2n-k) = {render(cf)}")
print()

print("Zero offset is the plain family, by construction:")
assert offset_sum_f(3, 2, LinearArg(0, 0)) == sum_f(3, 2)
print("  offset_sum_f(3, 2, s=0) == sum_f(3, 2)")
print()

print("Constant offsets fold the shifted harmonic numbers to rationals:")
cf = offset_sum_f(1, 1, LinearArg(0, 3))
print(f"  sum k H_(3+k) = {render(cf)}")
value = evaluate_cf(cf, 2)
print(f"  at n = 2: {value}  (= 1*H_4 + 2*H_5 = 25/12 + 137/30)")
assert value == Fraction(133, 20)
print()

print("The H_{s,k} variant (terms counted from position s) differs by an")
print("explicit H_s^(m)-weighted correction:")
s = LinearArg(1, 0)
variant = offset_sum_f(2, 2, s) - harmonic_term(s, 2).scale(faulhaber_poly(2) + int_pow(0, 2))
print(f"  sum k^2 H_(n,k)^(2) = {render(variant)}")
for n in range(10):
    literal = sum(
        int_pow(Fraction(k), 2) * harmonic_direct(s.at(n), k, 2) for k in range(n + 1)
    )
    assert evaluate_cf(variant, n) == literal
print("  matches the literal offset-harmonic double sum for n = 0..9")
print()

print("Exact verification on a mixed offset:")
s = LinearArg(2, 1)
ok = all(
    evaluate_cf(offset_sum_f(3, 2, s), n) == lhs_direct("F", 3, 2, s, n)
    for n in range(25)
)
print(f"  sum k^3 H_(2n+1+k)^(2): closed form == brute force for n = 0..24: {ok}")
assert ok
