"""
Naturality of the quantum trace under flips
===========================================

The trace of a curve can be computed in any triangulation.  The flip
coordinate change on the shear side must carry one answer to the other.
Every term of a trace is a balanced monomial y^k, and the change maps it
by one rule: of y^k and y^(-k), the one whose skein image has no
negative power of the new diagonal is pushed through the skein-side
change and pulled back to a polynomial, and the other maps to its
inverse.  Summed over the terms, this reproduces the trace computed
before the flip.  When the curve crosses the new diagonal twice, the
once-crossing formula picks up genuine powers of q, and the same
comparison run on the skein side validates those phases.
"""

from qskein import (
    Expr,
    ShearSkein,
    knot_monomial_transfer,
    theta_element,
    trace_simple,
    transport_curve,
    verify_identity,
)
from qskein.library import annulus_core

A, core = annulus_core()
b1 = ShearSkein(A)
before = trace_simple(core, A, b1)
print("trace in the original triangulation:")
print("   ", before.shear_side)

T2, fd = A.flip("d1")
b2 = ShearSkein(T2)
core2 = transport_curve(core, A, fd, T2)
after = trace_simple(core2, T2, b2)
print("\nafter flipping %s to %s the same curve gives:" % (fd.a, fd.a_star))
print("   ", after.shear_side)

rec = knot_monomial_transfer(core2, A, "d1", T2=T2, fd=fd)
print("\nthe curve crosses %s in the %s pattern;" % (fd.a_star, rec.case))
print("exact transfer of the curve monomial:", rec.exact_ok)

lhs = theta_element(A, T2, fd, after.shear_side, bundles=(b1, b2))
verdict = verify_identity(lhs, [Expr.from_element(before.shear_side)],
                          b1.y, trials=10)
print("coordinate change carries one trace to the other:", verdict)

# the almost-simple situation, with honest q-phases, is exercised by the
# 'phased' verification suite: python -m qskein.cli or qskein verify phased
from qskein.suites import suite_phased_naturality

print()
for name, status, detail in suite_phased_naturality(trials=6):
    print("%-58s %s  %s" % (name, status, detail))
