"""
Flip coordinate changes and the pentagon relation
=================================================

Flipping an inner edge changes both coordinate systems.  On the skein
side the new diagonal maps to a two-term sum; on the shear side the
squared generators transform by Laurent polynomials and inverses of
Laurent polynomials.  Composites of these maps along flip sequences are
kept as formal words.  A generator whose image has no inverse, or one
nonzero denominator D shared by every word on one side, is decided
exactly: D^-1 A = C holds iff A = D C (A D^-1 = C iff A = C D).  The
others are certified by representation: the torus acts by clock-shift
matrices at a primitive L-th root of unity in a prime field F_p,
formal inverses act by exact solves mod p, and an identity is accepted
only if it holds exactly on random vectors at several coprime orders.  The flip-back below is decided
exactly, and its row with the most words is certified by both methods;
the pentagon's generators take the representations.
"""

from qskein import compose_flips, theta_flip, verify_generator_map_identity
from qskein.surface import polygon

P = polygon(5)

# one flip: the images of the squared shear generators
T2, fd, theta = theta_flip(P, "e0_2")
print("flip %s -> %s" % (fd.a, fd.a_star))
for v in sorted(theta.source.labels):
    pos = theta.image_of_generator(v, 1)
    if pos.is_polynomial():
        print("  Y[%s]    -> %s" % (v, pos.as_element()))
    else:
        print("  Y[%s]^-1 -> %s" % (v, theta.image_of_generator(v, -1).as_element()))

# flip there and back: the composite must be the identity
final, comp, _ = compose_flips(P, ["e0_2", "tmp"], new_labels=["tmp", "e0_2"])
print("\nflip-back closes:", final.same_as(P))
for lab, verdict in verify_generator_map_identity(comp, trials=10).items():
    print("  identity on Y[%s]: %s" % (lab, verdict))

# the pentagon relation: five flips return the triangulation, and the
# composed coordinate change is the identity map
seq = ["e0_2", "e0_3", "e1_3", "e1_4", "e2_4"]
final, comp, datas = compose_flips(P, seq)
print("\npentagon sequence:", " -> ".join(d.a for d in datas))
print("closes:", final.same_as(P))
for lab, verdict in verify_generator_map_identity(comp, trials=10).items():
    print("  identity on Y[%s]: %s" % (lab, verdict))
