"""Triangulated marked and generalized marked surfaces.

A surface is stored as a rotation system: a list of triangles, each with
three sides in counterclockwise order, plus an orientation-reversing
involution pairing the glued (inner) sides.  Side i of a triangle runs
from corner i to corner i+1 (mod 3), so gluing side (t,i) to (t',j)
identifies corner (t,i) with (t',j+1) and corner (t,i+1) with (t',j).
Vertices (marked points), boundary structure, the face matrix Q, the
vertex matrix P and the duality submatrices Q-ring and H are all derived
from this data.

Edge = equivalence class of sides under the gluing; an edge is inner when
its class has two sides, boundary when it has one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SurfaceError(ValueError):
    pass


class Triangulation:
    def __init__(self, triangles, gluing, side_edge=None, vertex_hints=None):
        """triangles: list of 3-tuples of side ids (strings, globally unique).

        gluing: iterable of side-id pairs to identify (orientation
        reversing by convention).  side_edge: optional map side -> edge
        label; unglued sides default to their own id as edge label, glued
        pairs to the lexicographically smaller side id.  vertex_hints:
        optional {side_id: (start_name, end_name)} used to propagate
        human-readable marked point names through flips.
        """
        self.triangles = tuple(tuple(map(str, tri)) for tri in triangles)
        for tri in self.triangles:
            if len(tri) != 3:
                raise SurfaceError("each triangle needs exactly 3 sides")
        all_sides = [s for tri in self.triangles for s in tri]
        if len(set(all_sides)) != len(all_sides):
            raise SurfaceError("side ids must be globally unique")
        self.sides = tuple(all_sides)
        self._side_pos = {}
        for t, tri in enumerate(self.triangles):
            for i, s in enumerate(tri):
                self._side_pos[s] = (t, i)

        glue = {}
        for pair in gluing:
            a, b = str(pair[0]), str(pair[1])
            if a == b:
                raise SurfaceError("side %s glued to itself" % a)
            for s in (a, b):
                if s not in self._side_pos:
                    raise SurfaceError("unknown side %s in gluing" % s)
                if s in glue:
                    raise SurfaceError("side %s glued twice" % s)
            glue[a] = b
            glue[b] = a
        self.glue = glue

        side_edge = side_edge or {}
        vertex_hints = vertex_hints or {}
        for what, keys in (("edge_labels", side_edge), ("vertex_hints", vertex_hints)):
            unknown = sorted(set(map(str, keys)) - set(self._side_pos))
            if unknown:
                raise SurfaceError("%s name unknown sides %s" % (what, ", ".join(unknown)))
        self.side_edge = {}
        for s in self.sides:
            if s in side_edge:
                self.side_edge[s] = str(side_edge[s])
            elif s in glue:
                self.side_edge[s] = str(side_edge.get(glue[s], min(s, glue[s])))
            else:
                self.side_edge[s] = s
        for a, b in glue.items():
            if self.side_edge[a] != self.side_edge[b]:
                raise SurfaceError(
                    "glued sides %s,%s carry different edge labels" % (a, b)
                )

        self._vertex_hints = dict(vertex_hints)
        self._face = self._incidence = self._P = self._duality = self._bundle = None
        self._derive()

    # -- derived structure ---------------------------------------------

    def _derive(self):
        # edges and their side classes
        classes = {}
        for s in self.sides:
            classes.setdefault(self.side_edge[s], []).append(s)
        for lab, ss in classes.items():
            if len(ss) > 2:
                raise SurfaceError("edge label %s used by %d sides" % (lab, len(ss)))
            if len(ss) == 2 and self.glue.get(ss[0]) != ss[1]:
                raise SurfaceError("edge label %s shared by unglued sides" % lab)
        self.edge_sides = {lab: tuple(sorted(ss)) for lab, ss in classes.items()}
        self.edges = tuple(sorted(self.edge_sides))
        self.inner_edges = tuple(
            e for e in self.edges if len(self.edge_sides[e]) == 2
        )
        self.boundary_edges = tuple(
            e for e in self.edges if len(self.edge_sides[e]) == 1
        )

        # vertices: orbits of the corner step (t, i) -> the corner across
        # side i - 1.  Orbits started from corners whose own side i is
        # unglued are the boundary chains; the corners left over form
        # cycles, the interior vertices.
        corners = [(t, i) for t in range(len(self.triangles)) for i in range(3)]
        starts = [(t, i) for t, i in corners if self.triangles[t][i] not in self.glue]
        seen, orbits = set(), []
        for c in starts + corners:
            orbit = []
            while c is not None and c not in seen:
                seen.add(c)
                orbit.append(c)
                mate = self.glue.get(self.triangles[c[0]][c[1] - 1])
                c = None if mate is None else self._side_pos[mate]
            if orbit:
                orbits.append(tuple(orbit))
        self.vertices = tuple(orbits)
        self.vertex_of = {c: vi for vi, orbit in enumerate(orbits) for c in orbit}
        self.interior_vertices = frozenset(range(len(starts), len(orbits)))

        # self-folded: a triangle glued to itself along two sides
        self.self_folded = tuple(
            any(self.glue.get(tri[i]) in tri for i in range(3))
            for tri in self.triangles
        )

        # connectivity over triangles
        if self.triangles:
            seen = {0}
            stack = [0]
            while stack:
                t = stack.pop()
                for s in self.triangles[t]:
                    s2 = self.glue.get(s)
                    if s2 is not None:
                        t2 = self._side_pos[s2][0]
                        if t2 not in seen:
                            seen.add(t2)
                            stack.append(t2)
            self.connected = len(seen) == len(self.triangles)
        else:
            self.connected = False

        # a triangle folded onto itself glues the corner between its glued
        # sides to itself, an interior vertex, so it is never "marked"
        self.surface_class = "generalized" if self.interior_vertices else "marked"

        # vertex names from hints, propagated through side classes
        names = {}
        for s, (n0, n1) in self._vertex_hints.items():
            t, i = self._side_pos[str(s)]
            for corner, name in (((t, i), n0), ((t, (i + 1) % 3), n1)):
                if name is None:
                    continue
                vi = self.vertex_of[corner]
                if names.setdefault(vi, str(name)) != str(name):
                    raise SurfaceError(
                        "vertex hints name one vertex both %s and %s (side %s)"
                        % (names[vi], name, s)
                    )
        self.vertex_names = names

    # -- basic queries ---------------------------------------------------

    def side_pos(self, s):
        return self._side_pos[s]

    def triangle_edges(self, t):
        return tuple(self.side_edge[s] for s in self.triangles[t])

    # -- validation --------------------------------------------------------

    def validate(self, require_marked=False):
        """Check the triangulability constraints; raise SurfaceError if bad."""
        if not self.triangles:
            raise SurfaceError("empty triangulation")
        if not self.connected:
            raise SurfaceError("surface is not connected")
        if require_marked and self.surface_class != "marked":
            raise SurfaceError("interior marked points: not a marked surface")
        return True

    # -- face matrix -------------------------------------------------------

    def edge_index(self):
        return {e: i for i, e in enumerate(self.edges)}

    def face_matrix(self):
        return self.face_submatrices()[0]

    def face_submatrices(self):
        """(Q, Qring, H): full face matrix, inner-inner block and inner rows,
        derived on the first call and read-only."""
        if self._face is None:
            n = len(self.edges)
            idx = self.edge_index()
            Q = np.zeros((n, n), dtype=np.int64)
            for t in range(len(self.triangles)):
                if self.self_folded[t]:
                    continue
                labs = self.triangle_edges(t)
                for i in range(3):
                    a, b = idx[labs[i]], idx[labs[(i + 1) % 3]]
                    Q[a, b] += 1
                    Q[b, a] -= 1
            rows = [idx[e] for e in self.inner_edges]
            self._face = tuple(
                _read_only(m) for m in (Q, Q[np.ix_(rows, rows)], Q[rows, :])
            )
        return self._face

    def inner_incidence(self):
        """Triangles by inner edges: the parity of the number of sides of
        each triangle on each inner edge, derived on the first call and
        read-only.  k over the inner edges is balanced iff every entry of
        this matrix times k is even."""
        if self._incidence is None:
            col = {e: j for j, e in enumerate(self.inner_edges)}
            M = np.zeros((len(self.triangles), len(col)), dtype=np.int64)
            for t in range(len(self.triangles)):
                for e in self.triangle_edges(t):
                    if e in col:
                        M[t, col[e]] ^= 1
            self._incidence = _read_only(M)
        return self._incidence

    # -- vertex fans and the vertex matrix ----------------------------------

    def vertex_fan(self, vi):
        """Half-edges at a boundary vertex in angular order.

        Returns a list of side ids: the first and last are boundary sides,
        and each inner edge incident to the vertex appears once per
        half-edge (a glued side pair is collapsed to its first member).
        These are the own side of the chain's first corner and side i - 1
        of each corner (t, i) in turn.  The order sweeps the interior
        counterclockwise; the duality test PH^T = -4 id pins this convention.
        """
        if vi in self.interior_vertices:
            raise SurfaceError("vertex %d is interior; no boundary fan" % vi)
        orbit = self.vertices[vi]
        t, i = orbit[0]
        return [self.triangles[t][i]] + [self.triangles[t][i - 1] for t, i in orbit]

    def vertex_matrix(self):
        """Muller's orientation matrix P over all edges, derived on the first
        call and read-only; marked surfaces only."""
        if self.surface_class != "marked":
            raise SurfaceError("vertex matrix needs a marked surface")
        if self._P is None:
            n = len(self.edges)
            idx = self.edge_index()
            P = np.zeros((n, n), dtype=np.int64)
            for vi in range(len(self.vertices)):
                fan = self.vertex_fan(vi)
                labs = [idx[self.side_edge[s]] for s in fan]
                for i, a in enumerate(labs):
                    for b in labs[i + 1:]:
                        P[a, b] += 1
                        P[b, a] -= 1
            self._P = _read_only(P)
        return self._P

    def duality_check(self):
        """Verify PH^T = -4 id, HPH^T = -4 Qring and rank H = #inner edges:
        a copy of the report (offending entries as tuples), derived on the
        first call and kept."""
        if self._duality is None:
            _, Qring, H = self.face_submatrices()
            P = self.vertex_matrix()
            idx = self.edge_index()
            rows = [idx[e] for e in self.inner_edges]
            want = -4 * np.eye(len(self.edges), dtype=np.int64)[:, rows]
            PHt = P @ H.T
            ok1 = np.array_equal(PHt, want)
            HPHt = H @ P @ H.T
            ok2 = np.array_equal(HPHt, -4 * Qring)
            # P H^T = -4 id on the inner columns has full rank, so then H has
            # full row rank; an SVD ranks H only when that check fails
            if ok1:
                rank = len(self.inner_edges)
            else:
                rank = np.linalg.matrix_rank(H.astype(np.float64)) if H.size else 0
            ok3 = int(rank) == len(self.inner_edges)
            report = {
                "PHt_ok": bool(ok1),
                "HPHt_ok": bool(ok2),
                "rank_ok": bool(ok3),
                "rank": int(rank),
                "inner": len(self.inner_edges),
            }
            if not ok1:
                bad = np.argwhere(PHt != want)
                report["PHt_offending"] = tuple(
                    (self.edges[i], self.inner_edges[j], int(PHt[i, j]))
                    for i, j in bad[:5])
            if not ok2:
                bad = np.argwhere(HPHt != -4 * Qring)
                report["HPHt_offending"] = tuple(
                    (self.inner_edges[i], self.inner_edges[j], int(HPHt[i, j]))
                    for i, j in bad[:5])
            report["ok"] = bool(ok1 and ok2 and ok3)
            self._duality = report
        return dict(self._duality)

    # -- flips ---------------------------------------------------------------

    def flip(self, a, new_label=None):
        """Flip the inner edge a; returns (new Triangulation, FlipData)."""
        if a not in self.edges:
            raise SurfaceError("unknown edge %s" % a)
        if a not in self.inner_edges:
            raise SurfaceError("cannot flip boundary edge %s" % a)
        s1, s2 = self.edge_sides[a]
        t1 = self._side_pos[s1][0]
        t2 = self._side_pos[s2][0]
        if t1 == t2:
            raise SurfaceError("edge %s bounds a single triangle; not flippable" % a)

        def rotated(t, s):
            tri = self.triangles[t]
            i = tri.index(s)
            return tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]

        sa, sb, sc = rotated(t1, s1)
        sa2, sd, se = rotated(t2, s2)
        b, c = self.side_edge[sb], self.side_edge[sc]
        d, e = self.side_edge[sd], self.side_edge[se]
        if b == d and c == e:
            raise SurfaceError("degenerate flip square at %s" % a)
        coincidence = "b=d" if b == d else ("c=e" if c == e else "distinct")

        if new_label and new_label in self.edges and new_label != a:
            raise SurfaceError("new label %s names an existing edge" % new_label)
        hints = self._collect_vertex_hints()
        pb, pe = hints.get(sb), hints.get(se)
        a_star = new_label or _flip_label(pb, pe, a)
        if a_star in self.edges and a_star != a:
            a_star = a + "*"
            while a_star in self.edges:
                a_star += "*"
        n1, n2 = a_star + "#1", a_star + "#2"
        while n1 in self._side_pos or n2 in self._side_pos:
            n1 += "'"
            n2 += "'"

        triangles = list(self.triangles)
        triangles[t1] = (sb, n1, se)
        triangles[t2] = (sc, sd, n2)
        gluing = [
            (x, y)
            for x, y in self.glue.items()
            if x < y and {x, y} != {s1, s2}
        ]
        gluing.append((n1, n2))
        side_edge = {
            s: lab for s, lab in self.side_edge.items() if s not in (s1, s2)
        }
        side_edge[n1] = a_star
        side_edge[n2] = a_star

        # a's sides are gone; the kept sides b, c, d, e name both ends of a*
        hints.pop(s1, None)
        hints.pop(s2, None)
        new_tri = Triangulation(triangles, gluing, side_edge, hints)
        return new_tri, FlipData(a=a, a_star=a_star, b=b, c=c, d=d, e=e,
                                 coincidence=coincidence)

    def _collect_vertex_hints(self):
        """{side: (start_name, end_name)} from the derived vertex names, for
        every side with a named end, in side order."""
        hints = {}
        for s, (t, i) in self._side_pos.items():
            ends = (self.vertex_names.get(self.vertex_of[(t, i)]),
                    self.vertex_names.get(self.vertex_of[(t, (i + 1) % 3)]))
            if ends != (None, None):
                hints[s] = ends
        return hints

    # -- structural equality ---------------------------------------------

    def canonical_form(self):
        tris = []
        for t, tri in enumerate(self.triangles):
            labs = self.triangle_edges(t)
            rots = [tuple(labs[(i + j) % 3] for j in range(3)) for i in range(3)]
            tris.append(min(rots))
        Q = self.face_matrix()
        return (
            tuple(sorted(tris)),
            tuple(self.boundary_edges),
            Q.tobytes(),
            len(self.vertices),
        )

    def same_as(self, other):
        return self.canonical_form() == other.canonical_form()

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "triangles": [{"sides": list(tri)} for tri in self.triangles],
            "gluing": sorted([x, y] for x, y in self.glue.items() if x < y),
            "edge_labels": dict(sorted(self.side_edge.items())),
            "vertex_hints": {s: list(v) for s, v in self._collect_vertex_hints().items()},
        }

    @staticmethod
    def from_json(data):
        tris = [tuple(t["sides"]) for t in data["triangles"]]
        hints = {
            s: tuple(v) for s, v in (data.get("vertex_hints") or {}).items()
        }
        return Triangulation(
            tris, data.get("gluing", []), data.get("edge_labels"), hints
        )

    def __repr__(self):
        return "Triangulation(%d triangles, %d edges (%d inner), class=%s)" % (
            len(self.triangles),
            len(self.edges),
            len(self.inner_edges),
            self.surface_class,
        )


def _read_only(m):
    m.flags.writeable = False
    return m


def _flip_label(pb, pe, a):
    """The new diagonal's label, from the vertex hints of sides b and e."""
    if pb and pb[1] is not None and pe and pe[0] is not None:
        u, v = pb[1], pe[0]
        try:
            lo, hi = sorted([u, v], key=int)
        except ValueError:
            lo, hi = sorted([u, v])
        return "e%s_%s" % (lo, hi)
    return a + "*"


@dataclass(frozen=True)
class FlipData:
    a: str
    a_star: str
    b: str
    c: str
    d: str
    e: str
    coincidence: str


# ---------------------------------------------------------------------------
# builders


def polygon(n):
    """Fan triangulation of the marked n-gon (disk, n boundary points)."""
    if n < 3:
        raise SurfaceError("polygon needs at least 3 vertices")

    def lab(i, j):
        lo, hi = sorted((i, j))
        return "e%d_%d" % (lo, hi)

    triangles = []
    side_edge = {}
    hints = {}
    gluing = []
    diag_sides = {}
    for t, i in enumerate(range(1, n - 1)):
        # triangle (0, i, i+1) counterclockwise
        s_left = "T%d.a" % t    # 0 -> i
        s_bot = "T%d.b" % t     # i -> i+1
        s_right = "T%d.c" % t   # i+1 -> 0
        triangles.append((s_left, s_bot, s_right))
        side_edge[s_left] = lab(0, i)
        side_edge[s_bot] = lab(i, i + 1)
        side_edge[s_right] = lab(i + 1, 0)
        hints[s_left] = (str(0), str(i))
        hints[s_bot] = (str(i), str(i + 1))
        hints[s_right] = (str(i + 1), str(0))
        if 1 < i:
            gluing.append((diag_sides[lab(0, i)], s_left))
        if i + 1 < n - 1:
            diag_sides[lab(0, i + 1)] = s_right
    return Triangulation(triangles, gluing, side_edge, hints)


def annulus():
    """The annulus with one marked point on each boundary circle.

    Two triangles, two inner edges d1, d2 joining the marked points u, v,
    and a boundary loop at each marked point.
    """
    # square u,u,v,v with the two vertical sides glued
    t0 = ("T0.b1", "T0.d1", "T0.d2")   # b1: u->u, d1: u->v, d2: v->u
    t1 = ("T1.d2", "T1.b2", "T1.d1")   # d2: u->v, b2: v->v, d1: v->u
    side_edge = {
        "T0.b1": "b1", "T0.d1": "d1", "T0.d2": "d2",
        "T1.d2": "d2", "T1.b2": "b2", "T1.d1": "d1",
    }
    gluing = [("T0.d1", "T1.d1"), ("T0.d2", "T1.d2")]
    hints = {
        "T0.b1": ("u", "u"), "T0.d1": ("u", "v"), "T0.d2": ("v", "u"),
        "T1.d2": ("u", "v"), "T1.b2": ("v", "v"), "T1.d1": ("v", "u"),
    }
    return Triangulation([t0, t1], gluing, side_edge, hints)


def _two_triangles(upper):
    """Triangles T0 = (a, b, c) and T1 with its edges in the order upper,
    each side of T0 glued to the side of T1 on the same edge."""
    tris = [tuple("T%d.%s" % (t, e) for e in order)
            for t, order in enumerate(("abc", upper))]
    side_edge = {s: s[-1] for tri in tris for s in tri}
    return Triangulation(tris, [("T0." + e, "T1." + e) for e in "abc"], side_edge)


def torus_one_marked():
    """The closed torus with one (interior) marked point: 2 triangles,
    3 edges a, b, c.  A generalized marked surface.  T0 is the lower
    triangle (a bottom, b right, c anti-diagonal), T1 the upper."""
    return _two_triangles("cab")


def sphere_three_marked():
    """The sphere with three marked points: double of a triangle."""
    return _two_triangles("acb")
