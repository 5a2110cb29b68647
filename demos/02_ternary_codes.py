"""Ternary cyclic and negacyclic codes from polynomial divisors.

A cyclic (negacyclic) code of length n over GF(3) is an ideal of
Z3[x]/(x^n - 1) (x^n + 1), generated by a monic divisor g of the
modulus.  Dimension is n - deg g, the dual is generated by the monic
reciprocal of (modulus / g), and dual-containment reduces to a single
divisibility test.
"""

from ternring import (
    ModulusSign, TernaryPolyCode, divisors_of_modulus, factor, gf3linalg, modulus,
    parse_poly,
)

PLUS, MINUS = ModulusSign.PLUS, ModulusSign.MINUS

print("== factoring the moduli ==")
for n, sign in ((8, PLUS), (10, MINUS), (6, PLUS)):
    m = modulus(n, sign)
    print(f"  {m} = {factor(m)}")

print("\n== a length-10 negacyclic code ==")
g = parse_poly("x^4+x^3+2x+1")
code = TernaryPolyCode(10, MINUS, g)
print(f"generator g = {code.g}, dimension k = {code.k}")
print(f"minimum distance = {code.min_distance()}")
dual = code.dual()
print(f"dual generator = {dual.g}, dual dimension = {dual.k}")
print(f"contains its dual? {code.contains_dual()}")

print("\n== the divisibility criterion matches the explicit check ==")
for gdiv in divisors_of_modulus(10, MINUS):
    c = TernaryPolyCode(10, MINUS, gdiv)
    assert c.contains_dual() == c.contains_dual_by_subset()
print("verified on all", len(divisors_of_modulus(10, MINUS)), "divisors of x^10+1")

print("\n== weight distribution from the smaller side ==")
c = TernaryPolyCode(8, PLUS, parse_poly("x^2+1"))
print(f"[8, {c.k}] code: the 3^{c.dual().k} dual words are enumerated and "
      f"MacWilliams gives A = {list(c.weight_distribution())}")
print(f"distance: information-set search -> {c.min_distance()}; "
      f"oracle: enumerate -> {gf3linalg.min_weight(c.generator_matrix())}")

print("\n== why x^8-1 admits no dual-containing proper quadratic ==")
c8 = TernaryPolyCode(8, PLUS, parse_poly("x^2+1"))
prod = c8.g * c8.g.reciprocal()
print(f"g * g~ = {prod}; divides x^8-1? {prod.divides(modulus(8, PLUS))}")
print("x^8-1 is squarefree, so no repeated factor can absorb g * g~")
