"""Chekhov-Fock tori Y(Delta) and the shear-to-skein map.

Y(Delta) is the quantum torus on the inner-inner block of the face
matrix with parameter q^(-1); its generators are written y_e for inner
edges e, with Y_e = y_e^2 generating the squared subalgebra.  The skein
side is the square-root Muller torus T(P, q^(1/4), x) with X_e = x_e^2.
The shear-to-skein map is the multiplicatively linear homomorphism
y^k -> x^(kH), legitimate because H P H^T = -4 Qring.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .qtorus import TorusSpec, TorusElement, mlh_apply
from .surface import SurfaceError


def shear_spec(T):
    """Y(Delta) = T(Qring, q^(-1), y) over the inner edges."""
    _, Qring, _ = T.face_submatrices()
    return TorusSpec(T.inner_edges, Qring, -8, letter="y")


class ShearSkein:
    """Bundle of the two tori and the checked map psi for one surface.  It
    holds no reference to the surface, so ShearSkein.of makes no cycle."""

    def __init__(self, T):
        T.validate(require_marked=True)
        rep = T.duality_check()
        if not rep["ok"]:
            raise SurfaceError("duality check failed: %s" % rep)
        self.H = T.face_submatrices()[2]
        self.y = shear_spec(T)
        # the square-root Muller torus T(P, q^(1/4), x) over all edges
        self.x = TorusSpec(T.edges, T.vertex_matrix(), 2)

    @staticmethod
    def of(T):
        """T's bundle, built on the first call and kept on T like its face
        and vertex matrices, so every later call returns the same object.
        A flipped triangulation is a new object and gets its own bundle."""
        if T._bundle is None:
            T._bundle = ShearSkein(T)
        return T._bundle

    def psi(self, elem):
        """The shear-to-skein map on an element of Y(Delta)."""
        return mlh_apply(self.H, self.y, self.x, elem)

    def psi_vec(self, k):
        return self.psi(TorusElement.monomial(self.y, tuple(k)))

    def psi_preimage(self, elem):
        """Preimage under psi on the monomial basis, exact over Python ints:
        the duality P H^T = -4 id makes (kH P) on the inner-edge columns 4k,
        and one product back through H checks that each term is an image."""
        inner = [self.x.index[e] for e in self.y.labels]
        cols, terms = self.H.T.tolist(), {}
        for key, c in elem.terms.items():
            row = self.x.pairing_row(key)
            pre = [row[i] // 4 for i in inner]
            if [sum(map(mul, pre, col)) for col in cols] != list(key):
                raise ValueError("monomial x^%s is not in the image of psi" % (key,))
            terms[tuple(pre)] = c
        return TorusElement(self.y, terms)


def odd_rows(K, T):
    """For each row k of the integer matrix K, over T's inner edges, whether
    k sums to an odd number over some triangle's inner edges: one parity
    product against T.inner_incidence()."""
    return ((np.asarray(K, dtype=np.int64) & 1) @ T.inner_incidence().T & 1).any(axis=1)


def is_balanced(k, T):
    """True iff the sum of k over each triangle's inner edges is even."""
    return not odd_rows([[v & 1 for v in k]], T)[0]


def even_image_check(k, T):
    """Report on the biconditional: kH has even entries <=> k balanced."""
    img = np.asarray(k, dtype=object) @ ShearSkein.of(T).H.astype(object)
    even = not np.any(img % 2)
    bal = is_balanced(k, T)
    return {"kH_even": even, "balanced": bal, "agree": even == bal}
