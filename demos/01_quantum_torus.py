"""
Exact arithmetic in quantum tori
================================

Everything in this library lives over the ring Z[q^(1/8), q^(-1/8)].
Scalars store integer coefficients against integer exponents counted in
eighths of q, so no floating point or rational arithmetic ever enters a
product.
"""

from qskein import Laurent, TorusElement, TorusSpec


def weyl_normalize(spec, factors):
    """Normalized monomial of a list of exponent vectors.

    Equal to the ordinary product x^(k_1) ... x^(k_m) with the Weyl
    q-power prefactor stripped; independent of the order of the factors.
    """
    total = spec.zero_vec()
    for k in factors:
        total = tuple(a + b for a, b in zip(total, k))
    return TorusElement.monomial(spec, total)


# q itself is exponent 8; q^(1/2) is exponent 4
s = Laurent.q_power(4) + Laurent.q_power(-4)
print("q^(1/2) + q^(-1/2) =", s)
print("(q + q^-1)(q - q^-1) =", Laurent({8: 1, -8: 1}) * Laurent({8: 1, -8: -1}))

# the reflection q^(1/8) -> q^(-1/8) fixes palindromic scalars
print("reflect:", s.reflect() == s)

# a rank-2 quantum torus with x_a x_b = q x_b x_a
spec = TorusSpec(("a", "b"), [[0, 1], [-1, 0]], 8)
xa = TorusElement.generator(spec, "a")
xb = TorusElement.generator(spec, "b")

print("\nx_a x_b      =", xa * xb)
print("x_b x_a      =", xb * xa)
print("normalized   =", weyl_normalize(spec, [spec.unit_vec("a"), spec.unit_vec("b")]))

# normalized monomials do not depend on the factor order, and every
# normalized monomial is fixed by the reflection
m = weyl_normalize(spec, [spec.unit_vec("a"), spec.unit_vec("b"), spec.unit_vec("a")])
print("[x_a x_b x_a] =", m, " reflection invariant:", m.reflect() == m)

# the commutation x^k x^n = u^<k,n> x^n x^k holds exactly
k, n = (2, -1), (1, 3)
xk, xn = TorusElement.monomial(spec, k), TorusElement.monomial(spec, n)
phase = Laurent.q_power(spec.u_eighth * spec.pairing(k, n))
print("\ncommutation check:", xk * xn == (xn * xk) * phase)
