"""
The quantum trace as a state sum
================================

A simple closed curve on a triangulated marked surface determines a
state sum: every admissible +-1 state s on its crossings colors the
edge crossed there, since a simple curve crosses each edge at most once,
and contributes one normalized monomial x^(sH) on the skein side and
y^s on the shear side.  All coefficients are exactly 1, the skein exponents are
even, and the shear-to-skein map psi carries one side to the other.

An independent oracle recomputes the skein side by resolving the curve
against the union of crossed edges, one arc per triangle, and dividing
by the edge monomial; it must agree term for term.
"""

from qskein import ShearSkein, enumerate_states, oracle_resolution, trace_simple
from qskein.library import annulus_core

A, core = annulus_core()
bundle = ShearSkein.of(A)

print("curve:", core)
print("colorings:")
for s in enumerate_states(core):
    print("   ", dict(zip(core.crossing_edges(), s)))

res = trace_simple(core, A)
print("\nskein side:", res.skein_side)
print("shear side:", res.shear_side)
print("unit coefficients:", res.skein_side.has_unit_coefficients())
print("psi(shear) == skein:", bundle.psi(res.shear_side) == res.skein_side)

orc = oracle_resolution(core, A)
print("resolution oracle agrees:", orc == res.skein_side)

# at q = 1 the skein side becomes the classical trace of the annulus
# core in Penner-type coordinates: (d1^2 + d2^2 + b1 b2) / (d1 d2)
print("\nterm exponents (halved):")
for k in sorted(res.skein_side.terms):
    print("   ", {lab: v // 2 for lab, v in zip(bundle.x.labels, k) if v})
