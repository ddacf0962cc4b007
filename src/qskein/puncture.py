"""Generalized marked surfaces: lifts, bar matrices, punctured traces.

An interior marked point p of a triangulated surface is opened into a
boundary circle by removing a small disk touching p: the loop c_p
becomes a boundary edge and the affected triangle is re-triangulated
with one extra diagonal, creating a fake triangle with counterclockwise
edge cycle (c_p, e'', e') whose two non-loop edges are parallel copies
of one original edge.  Repeating over all interior points turns the
generalized surface Lambda into its associated marked surface Delta,
together with the contraction omega collapsing each diagonal back to the
edge it doubles.

The 0/1 matrix Omega of omega transports the duality of Delta down to
Lambda: with Hbar = Omega H one has Qbar = Omega Qring Omega^T,
Hbar P Hbar^T = -4 Qbar and rk Hbar = #inner edges of Lambda, so the
punctured shear-to-skein map y^k -> x^(k Hbar) is again an algebra map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qtorus import TorusElement, canonical_projection, mlh_apply
from .curves import NormalCurve, _entry, state_sum
from .shear import ShearSkein, shear_spec
from .surface import SurfaceError, Triangulation
from .trace import trace_once_edge


@dataclass
class LiftData:
    lam: Triangulation
    delta: Triangulation
    points: tuple            # interior point ids in processing order
    cp_edge: dict            # point -> boundary loop edge label
    fake_tris: dict          # point -> triangle index in delta
    omega: dict              # delta edge -> lambda edge (c_p's excluded)
    tri_map: dict            # non-fake delta triangle -> (lambda tri, rot)

    def omega_matrix(self):
        lam_inner = self.lam.inner_edges
        del_inner = self.delta.inner_edges
        Om = np.zeros((len(lam_inner), len(del_inner)), dtype=np.int64)
        li = {e: i for i, e in enumerate(lam_inner)}
        for j, b in enumerate(del_inner):
            a = self.omega.get(b)
            if a is not None and a in li:
                Om[li[a], j] = 1
        return Om

    def cp_labels(self):
        return set(self.cp_edge.values())


def lift(lam, variant="after"):
    """Open every interior marked point of lam; deterministic diagonals.

    variant chooses, at each surgery corner, whether the fake triangle
    doubles the side entering the corner ('after', the default fan rule)
    or the side leaving it ('before').
    """
    if variant not in ("after", "before"):
        raise ValueError("variant must be 'after' or 'before', not %r" % (variant,))
    lam.validate()
    cur = lam
    omega = {}
    tri_map = {t: (t, 0) for t in range(len(lam.triangles))}
    fake_tris = {}
    cp_edge = {}
    points = []

    while True:
        interior = sorted(
            cur.interior_vertices,
            key=lambda vi: min(cur.vertices[vi]),
        )
        if not interior:
            break
        vi = interior[0]
        pname = "p%d" % len(points)
        corner = min(
            c for c in cur.vertices[vi] if c[0] not in fake_tris.values()
        )
        t, ci = corner
        tri = cur.triangles[t]
        sA, sB, sC = tri[ci], tri[(ci + 1) % 3], tri[(ci + 2) % 3]
        cp = "cp%d" % len(points)
        g_lab = "g%d" % len(points)
        s_cp = "S.%s" % cp
        s_g1 = "S.%s#1" % g_lab
        s_g2 = "S.%s#2" % g_lab

        triangles = [list(x) for x in cur.triangles]
        side_edge = dict(cur.side_edge)
        glu = [(x, y) for x, y in cur.glue.items() if x < y]
        if variant == "after":
            # non-fake (sA, sB, g_back), fake (g_fwd, sC, c_p)
            triangles[t] = [sA, sB, s_g2]
            fake = [s_g1, sC, s_cp]
            doubled = cur.side_edge[sC]
            rot_add = ci
        else:
            # non-fake (sB, sC, g_back), fake (sA, g_fwd, c_p)
            triangles[t] = [sB, sC, s_g2]
            fake = [sA, s_g1, s_cp]
            doubled = cur.side_edge[sA]
            rot_add = (ci + 1) % 3
        triangles.append(fake)
        glu.append((s_g1, s_g2))
        side_edge[s_g1] = g_lab
        side_edge[s_g2] = g_lab
        side_edge[s_cp] = cp

        hints = cur._collect_vertex_hints()
        new_tri = Triangulation(triangles, glu, side_edge, hints)

        omega[g_lab] = omega.get(doubled, doubled)
        fake_tris[pname] = len(triangles) - 1
        cp_edge[pname] = cp
        points.append(pname)
        if t in tri_map:
            lt, rot = tri_map[t]
            tri_map[t] = (lt, (rot + rot_add) % 3)
        cur = new_tri
        if len(points) > 64:
            raise SurfaceError("runaway lift; malformed input?")

    for e in lam.edges:
        omega.setdefault(e, e)
    for cpl in cp_edge.values():
        omega.pop(cpl, None)
    cur.validate(require_marked=True)
    return LiftData(lam=lam, delta=cur, points=tuple(points), cp_edge=cp_edge,
                    fake_tris=fake_tris, omega=omega, tri_map=tri_map)


# ---------------------------------------------------------------------------
# bar matrices and the punctured shear-to-skein map


class BarBundle:
    """Matrices and tori of a lifted surface, with the duality checks."""

    def __init__(self, ld):
        self.ld = ld
        self.delta_bundle = ShearSkein.of(ld.delta)
        self.ylam = shear_spec(ld.lam)
        self.Qbar = self.ylam.A
        self.Omega = ld.omega_matrix()
        self.Hbar = self.Omega @ self.delta_bundle.H
        self.x = self.delta_bundle.x
        self.checks = self._run_checks()
        if not all(self.checks.values()):
            raise SurfaceError("bar matrix checks failed: %s" % self.checks)

    def _run_checks(self):
        Qring = self.delta_bundle.y.A
        P = self.x.A
        ok_q = np.array_equal(self.Qbar, self.Omega @ Qring @ self.Omega.T)
        ok_dual = np.array_equal(self.Hbar @ P @ self.Hbar.T, -4 * self.Qbar)
        rank = (
            int(np.linalg.matrix_rank(self.Hbar.astype(np.float64)))
            if self.Hbar.size
            else 0
        )
        ok_rank = rank == len(self.ld.lam.inner_edges)
        return {"Qbar": bool(ok_q), "duality": bool(ok_dual), "rank": bool(ok_rank)}

    def bar_psi(self, elem):
        return mlh_apply(self.Hbar, self.ylam, self.x, elem)

    def bar_projection(self, elem):
        """Quotient by the central boundary loops on the positive part."""
        cps = [self.x.index[c] for c in sorted(self.ld.cp_labels())]
        for k in elem.terms:
            if any(k[i] < 0 for i in cps):
                raise ValueError(
                    "element has a negative boundary-loop exponent; "
                    "outside the positive part"
                )
        return canonical_projection(elem, lambda k: all(k[i] == 0 for i in cps))


# ---------------------------------------------------------------------------
# curves through the lift


def curve_lift(ld, lam_curve):
    """The Delta-normal curve over a normal curve of Lambda: weight
    w(omega(e)) on each edge e of Delta and 0 on each loop c_p, started at
    the image of lam_curve's first step and run in its direction."""
    w = lam_curve.multiplicities()
    weights = {e: w.get(lam_e, 0) for e, lam_e in ld.omega.items()}
    lt, i, _ = lam_curve.steps[0]
    dt, rot = next((dt, rot) for dt, (t, rot) in ld.tri_map.items() if t == lt)
    start = (ld.delta.triangles[dt][(i - rot) % 3], _entry(lam_curve, 0)[1])
    return NormalCurve.from_weights(ld.delta, weights, start)


# ---------------------------------------------------------------------------
# the punctured quantum trace


@dataclass
class BarTraceResult:
    shear_side: TorusElement       # over Y(Lambda)
    skein_side: TorusElement       # over the Delta torus, loops projected out
    state_count: int
    cross_checked: bool


def bar_trace(ld, lam_curve):
    """Punctured trace via Lambda-states, cross-checked against the
    projected Delta pipeline."""
    bundle = BarBundle(ld)
    shear, count = state_sum(lam_curve, ld.lam, bundle.ylam)
    skein = bundle.bar_psi(shear)

    alpha_d = curve_lift(ld, lam_curve)
    _, skein_d, _ = trace_once_edge(alpha_d, ld.delta)
    projected = bundle.bar_projection(skein_d)
    return BarTraceResult(shear, skein, count, projected == skein)
