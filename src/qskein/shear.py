"""Chekhov-Fock tori Y(Delta) and the shear-to-skein map.

Y(Delta) is the quantum torus on the inner-inner block of the face
matrix with parameter q^(-1); its generators are written y_e for inner
edges e, with Y_e = y_e^2 generating the squared subalgebra.  The skein
side is the square-root Muller torus T(P, q^(1/4), x) with X_e = x_e^2.
The shear-to-skein map is the multiplicatively linear homomorphism
y^k -> x^(kH), legitimate because H P H^T = -4 Qring.
"""

from __future__ import annotations

import numpy as np

from .qtorus import TorusSpec, TorusElement, mlh_apply
from .surface import SurfaceError


def shear_spec(T):
    """Y(Delta) = T(Qring, q^(-1), y) over the inner edges."""
    _, Qring, _ = T.face_submatrices()
    return TorusSpec(T.inner_edges, Qring, -8, letter="y")


class ShearSkein:
    """Bundle of the two tori and the checked map psi for one surface."""

    def __init__(self, T):
        T.validate(require_marked=True)
        self.T = T
        # each matrix is derived once and serves both tori and the check
        self.Q, self.Qring, self.H = T.face_submatrices()
        P = T.vertex_matrix()
        # Y(Delta) = T(Qring, q^(-1), y) over the inner edges and the
        # square-root Muller torus T(P, q^(1/4), x) over all edges
        self.y = TorusSpec(T.inner_edges, self.Qring, -8, letter="y")
        self.x = TorusSpec(T.edges, P, 2)
        rep = T._duality_check(self.Qring, self.H, P)
        if not rep["ok"]:
            raise SurfaceError("duality check failed: %s" % rep)

    def psi(self, elem):
        """The shear-to-skein map on an element of Y(Delta)."""
        return mlh_apply(self.H, self.y, self.x, elem)

    def psi_vec(self, k):
        return self.psi(TorusElement.monomial(self.y, tuple(k)))

    def psi_preimage(self, elem):
        """Preimage under psi on the monomial basis, exact: the duality
        P H^T = -4 id makes (kH P) on the inner-edge columns equal 4k."""
        inner = self.x.A[:, [self.x.index[e] for e in self.T.inner_edges]]
        out = {}
        for k, c in elem.terms.items():
            four_k = np.asarray(k, dtype=np.int64) @ inner
            pre = tuple(int(v) // 4 for v in four_k)
            if np.any(four_k % 4) or set(self.psi_vec(pre).terms) != {k}:
                raise ValueError("monomial x^%s is not in the image of psi" % (k,))
            out[pre] = c
        return TorusElement(self.y, out)


def is_balanced(k, T):
    """True iff the sum of k over each triangle's inner edges is even."""
    kmap = dict(zip(T.inner_edges, k))
    for t in range(len(T.triangles)):
        s = sum(kmap.get(e, 0) for e in T.triangle_edges(t))
        if s % 2:
            return False
    return True


def balanced_decompose(k, T=None):
    """Split a balanced vector as k = u + m with u in {0,1} and m even."""
    u = tuple(e % 2 for e in k)
    m = tuple(e - e % 2 for e in k)
    if T is not None and not is_balanced(k, T):
        raise ValueError("vector is not balanced")
    return u, m


def is_in_Ybl(elem, T):
    """Termwise balancedness of an element of Y(Delta)."""
    return all(is_balanced(k, T) for k in elem.terms)


def even_image_check(k, T, bundle=None):
    """Report on the biconditional: kH has even entries <=> k balanced."""
    bundle = bundle or ShearSkein(T)
    kk = np.asarray(k, dtype=np.int64)
    img = kk @ bundle.H
    even = bool(np.all(img % 2 == 0))
    bal = is_balanced(k, T)
    return {"kH_even": even, "balanced": bal, "agree": even == bal}
