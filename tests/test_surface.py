from collections import Counter

import numpy as np
import pytest

from qskein import surface
from qskein.library import MARKED_LIBRARY, surface_by_name
from qskein.puncture import lift
from qskein.shear import ShearSkein
from qskein.surface import (
    SurfaceError,
    Triangulation,
    annulus,
    polygon,
    sphere_three_marked,
    torus_one_marked,
)


def test_polygon_counts():
    T3 = polygon(3)
    assert len(T3.triangles) == 1 and len(T3.inner_edges) == 0
    T5 = polygon(5)
    assert len(T5.triangles) == 3 and len(T5.inner_edges) == 2
    for n in range(3, 9):
        T = polygon(n)
        T.validate(require_marked=True)
        assert len(T.edges) == 2 * n - 3
        assert len(T.vertices) == n
    with pytest.raises(SurfaceError):
        polygon(2)


def test_annulus_counts():
    A = annulus()
    A.validate(require_marked=True)
    assert len(A.triangles) == 2
    assert sorted(A.inner_edges) == ["d1", "d2"]
    assert sorted(A.boundary_edges) == ["b1", "b2"]
    assert len(A.vertices) == 2


def test_face_matrix_single_triangle():
    T = polygon(3)
    Q = T.face_matrix()
    idx = T.edge_index()
    a, b, c = (idx[e] for e in ("e0_1", "e1_2", "e0_2"))
    # counterclockwise cycle 0 -> 1 -> 2 -> 0
    assert Q[a, b] == 1 and Q[b, c] == 1 and Q[c, a] == 1
    assert np.array_equal(Q, -Q.T)


def triangle_face_matrix(T, t):
    """The contribution Q_t of triangle t, over all edges of T."""
    Q = np.zeros((len(T.edges),) * 2, dtype=np.int64)
    labs = [T.edge_index()[e] for e in T.triangle_edges(t)]
    for a, b in zip(labs, labs[1:] + labs[:1]):
        Q[a, b] += 1
        Q[b, a] -= 1
    return Q


def test_face_matrix_is_sum_of_triangles():
    T = polygon(4)
    total = sum(triangle_face_matrix(T, t) for t in range(len(T.triangles)))
    assert np.array_equal(T.face_matrix(), total)


def test_row_action_lemma():
    T = polygon(4)
    idx = T.edge_index()
    for t in range(2):
        ea, eb, ec = T.triangle_edges(t)
        # (k Q_t)(c) = k(b) - k(a) for the counterclockwise cycle (a, b, c)
        k = np.zeros(len(T.edges), dtype=int)
        k[idx[eb]] = 1
        assert (k @ triangle_face_matrix(T, t))[idx[ec]] == 1
        k[idx[ea]] = 1
        assert (k @ triangle_face_matrix(T, t))[idx[ec]] == 0


def test_matrices_are_derived_once_and_read_only():
    T = polygon(5)
    for get in (T.face_matrix, T.face_submatrices, T.vertex_matrix):
        assert get() is get()
    for m in T.face_submatrices() + (T.vertex_matrix(),):
        with pytest.raises(ValueError):
            m[0, 0] = 1


def test_duality_report_is_derived_once(monkeypatch):
    T = polygon(5)
    report = T.duality_check()
    ShearSkein(T)
    # with numpy gone from surface, no matrix work can happen there
    monkeypatch.setattr(surface, "np", None)
    again = T.duality_check()
    assert again == report and again["ok"]
    ShearSkein(T)
    again["ok"] = False
    assert T.duality_check() == report


def test_duality_takes_no_svd_when_PHt_holds(monkeypatch):
    # P H^T = -4 id on the inner columns already gives H full row rank, so a
    # report on any library surface or one-flip neighbour ranks H without SVD
    def refuse(*args, **kw):
        raise AssertionError("matrix_rank called")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    checked = 0
    for name in MARKED_LIBRARY:
        T = surface_by_name(name)
        for S in [T] + [T.flip(e)[0] for e in T.inner_edges]:
            rep = S.duality_check()
            assert rep["ok"] and rep["rank"] == rep["inner"] == len(S.inner_edges), (name, rep)
            checked += 1
    assert checked > len(MARKED_LIBRARY)


def test_duality_ranks_H_by_svd_when_PHt_fails(monkeypatch):
    # a wrong P fails the first check, and the report then carries the rank
    # that the SVD finds
    T = polygon(6)
    _, _, H = T.face_submatrices()
    P = T.vertex_matrix()
    monkeypatch.setattr(Triangulation, "vertex_matrix", lambda self: 2 * P)
    ranks = []
    matrix_rank = np.linalg.matrix_rank

    def counted(m, *args, **kw):
        ranks.append(matrix_rank(m, *args, **kw))
        return ranks[-1]

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    rep = T.duality_check()
    assert not rep["PHt_ok"] and "PHt_offending" in rep and not rep["ok"]
    assert ranks == [matrix_rank(H.astype(np.float64))] == [rep["rank"]] == [len(T.inner_edges)]


def test_vertex_matrix_basics():
    T = polygon(5)
    P = T.vertex_matrix()
    idx = T.edge_index()
    assert np.array_equal(P, -P.T)
    assert all(P[i, i] == 0 for i in range(len(T.edges)))
    # edges with no common endpoint commute
    assert P[idx["e1_2"], idx["e3_4"]] == 0


def test_duality_library():
    for T in (polygon(4), polygon(5), polygon(6), annulus()):
        rep = T.duality_check()
        assert rep["ok"], rep


def test_generalized_surfaces():
    T = torus_one_marked()
    T.validate()
    assert T.surface_class == "generalized"
    assert len(T.vertices) == 1 and not T.boundary_edges
    Q = T.face_matrix()
    idx = T.edge_index()
    assert Q[idx["a"], idx["b"]] == 2
    with pytest.raises(SurfaceError):
        T.vertex_matrix()

    S = sphere_three_marked()
    S.validate()
    assert len(S.vertices) == 3
    assert not S.face_matrix().any()


def test_self_folded_triangle():
    # once-punctured monogon: one triangle with two sides glued together
    T = Triangulation(
        [("s0", "s1", "s2")], [("s1", "s2")], {"s0": "a", "s1": "b", "s2": "b"}
    )
    assert T.self_folded[0]
    assert T.surface_class == "generalized"
    assert not T.face_matrix().any()


def _pairings(sides):
    """Every set of disjoint pairs of sides, each pair a gluing."""
    if not sides:
        yield []
        return
    first, rest = sides[0], sides[1:]
    yield from _pairings(rest)
    for i, other in enumerate(rest):
        for more in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + more


def test_validate_refuses_only_disconnected_and_interior_points():
    # every side pairing of one to three triangles: validate refuses only a
    # disconnected surface, require_marked adds only interior marked
    # points, and a self-folded triangle always has one (the corner between
    # its two glued sides is glued to itself)
    outcomes, pairings = Counter(), 0
    for n in (1, 2, 3):
        triangles = [tuple("t%ds%d" % (t, i) for i in range(3)) for t in range(n)]
        for gluing in _pairings([s for tri in triangles for s in tri]):
            T = Triangulation(triangles, gluing)
            pairings += 1
            assert T.interior_vertices or not any(T.self_folded)
            assert (T.surface_class == "marked") == (not T.interior_vertices)
            for marked in (False, True):
                try:
                    outcomes[T.validate(require_marked=marked)] += 1
                except SurfaceError as exc:
                    outcomes[str(exc)] += 1
    assert pairings == 2700
    assert outcomes == {True: 2567,
                        "interior marked points: not a marked surface": 1233,
                        "surface is not connected": 1600}


def test_validation_errors():
    with pytest.raises(SurfaceError):
        Triangulation([("s0", "s1")], [])
    with pytest.raises(SurfaceError):
        Triangulation([("s0", "s1", "s2")], [("s0", "s0")])
    with pytest.raises(SurfaceError):
        Triangulation([("s0", "s1", "s2"), ("s0", "t1", "t2")], [])
    with pytest.raises(SurfaceError):
        # disconnected: two triangles, no gluing, but labels force edges apart
        Triangulation(
            [("s0", "s1", "s2"), ("t0", "t1", "t2")], []
        ).validate()


def test_raises_no_surface_file_reaches():
    # a surface file has at least one triangle, and flipseq refuses both
    # surfaces below before it flips
    with pytest.raises(SurfaceError, match="^empty triangulation$"):
        Triangulation([], []).validate()
    with pytest.raises(SurfaceError, match="^edge a bounds a single triangle; not flippable$"):
        Triangulation([("a", "b", "c")], [("a", "b")]).flip("a")
    with pytest.raises(SurfaceError, match="^degenerate flip square at a$"):
        torus_one_marked().flip("a")


def test_flip_square_involution():
    T = polygon(4)
    T1, fd = T.flip("e0_2")
    assert fd.a_star == "e1_3"
    assert (fd.b, fd.c, fd.d, fd.e) == ("e0_1", "e1_2", "e2_3", "e0_3")
    assert fd.coincidence == "distinct"
    T1.validate(require_marked=True)
    assert T1.duality_check()["ok"]
    T2, _ = T1.flip("e1_3", new_label="e0_2")
    assert T2.same_as(T)


def test_flip_boundary_rejected():
    with pytest.raises(SurfaceError):
        polygon(4).flip("e0_1")
    with pytest.raises(SurfaceError):
        polygon(4).flip("nope")


def test_pentagon_cycle():
    P = polygon(5)
    cur = P
    edge = "e0_2"
    for _ in range(5):
        cur, fd = cur.flip(edge)
        assert cur.duality_check()["ok"]
        edge = [e for e in cur.inner_edges if e != fd.a_star][0]
    assert cur.same_as(P)


def test_annulus_flip_coincidences():
    A = annulus()
    _, f1 = A.flip("d1")
    _, f2 = A.flip("d2")
    assert {f1.coincidence, f2.coincidence} == {"b=d", "c=e"}


def test_flip_changes_are_local():
    T = polygon(6)
    Q0 = T.face_matrix()
    T1, fd = T.flip("e0_2")
    idx0, idx1 = T.edge_index(), T1.edge_index()
    touched = {fd.a, fd.a_star, fd.b, fd.c, fd.d, fd.e}
    Q1 = T1.face_matrix()
    for e1 in T.edges:
        for e2 in T.edges:
            if e1 in touched or e2 in touched:
                continue
            assert Q0[idx0[e1], idx0[e2]] == Q1[idx1[e1], idx1[e2]]


def test_flip_rejects_a_label_in_use():
    T = polygon(5)
    with pytest.raises(SurfaceError, match="e0_3"):
        T.flip("e0_2", new_label="e0_3")
    T1, fd = T.flip("e0_2", new_label="e0_2")
    assert fd.a_star == "e0_2" and "e0_2" in T1.inner_edges
    T1, _ = T.flip("e0_2", new_label="n")
    with pytest.raises(SurfaceError, match="label n "):
        T1.flip("e0_3", new_label="n")


def test_flip_passes_over_taken_names():
    # polygon(4) with its boundary edges e0_1 and e1_2 named e1_3 and
    # e0_2*, and its side T1.c named e0_2**#1: the hint-derived diagonal
    # e1_3 and the fallback e0_2* are taken edge names, so the flip takes
    # e0_2**, and the first names of its new sides take a prime
    hints = {"T0.a": ("0", "1"), "T0.b": ("1", "2"), "T0.c": ("2", "0"),
             "T1.a": ("0", "2"), "T1.b": ("2", "3"), "e0_2**#1": ("3", "0")}
    edges = {"T0.a": "e1_3", "T0.b": "e0_2*", "T0.c": "e0_2",
             "T1.a": "e0_2", "T1.b": "e2_3", "e0_2**#1": "e0_3"}
    T = Triangulation([("T0.a", "T0.b", "T0.c"), ("T1.a", "T1.b", "e0_2**#1")],
                      [("T0.c", "T1.a")], edges, hints)
    T1, fd = T.flip("e0_2")
    assert fd.a_star == "e0_2**" and T1.inner_edges == ("e0_2**",)
    assert {"e0_2**#1'", "e0_2**#2'"} < set(T1.sides)
    assert T1.flip("e0_2**", new_label="e0_2")[0].same_as(T)


def test_vertex_hint_may_name_one_end():
    # a hint whose end is None names the vertex at its start alone; the
    # side that ends at that vertex carries the name on
    T = Triangulation([("s0", "s1", "s2")], [], None, {"s0": ("u", None)})
    assert T.vertex_names == {T.vertex_of[(0, 0)]: "u"}
    assert T._collect_vertex_hints() == {"s0": ("u", None), "s2": (None, "u")}


def test_side_keyed_data_must_name_sides():
    tri, glue = [("s0", "s1", "s2")], []
    with pytest.raises(SurfaceError, match="edge_labels"):
        Triangulation(tri, glue, {"Q": "zz"})
    with pytest.raises(SurfaceError, match="vertex_hints"):
        Triangulation(tri, glue, None, {"Q": ("a", "b")})
    with pytest.raises(SurfaceError, match="both"):
        # s0 ends where s1 starts
        Triangulation(tri, glue, None, {"s0": ("u", "v"), "s1": ("w", "u")})


def library_surfaces():
    """torus1, sphere3, both lifts of each, and every MARKED_LIBRARY
    surface with each of its single flips."""
    surfaces = []
    for base in (torus_one_marked(), sphere_three_marked()):
        surfaces.append(base)
        surfaces.extend(lift(base, variant=v).delta for v in ("after", "before"))
    for name in MARKED_LIBRARY:
        T = surface_by_name(name)
        surfaces.append(T)
        surfaces.extend(T.flip(e)[0] for e in T.inner_edges)
    return surfaces


def union_find_vertices(T):
    """(vertices, interior vertices) as sets of corner classes, by
    union-find over the corners (t, i) that each gluing identifies."""
    parent = {(t, i): (t, i) for t in range(len(T.triangles)) for i in range(3)}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for s, s2 in T.glue.items():
        (t, i), (t2, j) = T.side_pos(s), T.side_pos(s2)
        parent[find((t, i))] = find((t2, (j + 1) % 3))
        parent[find((t, (i + 1) % 3))] = find((t2, j))
    classes = {}
    for c in parent:
        classes.setdefault(find(c), set()).add(c)
    on_boundary = set()
    for s in T.sides:
        if s not in T.glue:
            t, i = T.side_pos(s)
            on_boundary |= {find((t, i)), find((t, (i + 1) % 3))}
    return ({frozenset(g) for g in classes.values()},
            {frozenset(g) for r, g in classes.items() if r not in on_boundary})


def test_corner_walk_matches_union_find():
    for T in library_surfaces():
        vertices, interior = union_find_vertices(T)
        assert {frozenset(v) for v in T.vertices} == vertices
        assert {frozenset(T.vertices[vi]) for vi in T.interior_vertices} == interior
        for vi, corners in enumerate(T.vertices):
            if vi in T.interior_vertices:
                with pytest.raises(SurfaceError, match="interior"):
                    T.vertex_fan(vi)
                continue
            fan = T.vertex_fan(vi)
            assert len(fan) == len(corners) + 1
            assert fan[0] not in T.glue and fan[-1] not in T.glue
            assert all(s in T.glue for s in fan[1:-1])


def test_json_roundtrip():
    for T in library_surfaces():
        data = T.to_json()
        T2 = Triangulation.from_json(data)
        assert T2.same_as(T)
        assert T2.vertex_names == T.vertex_names
        assert T2.to_json() == data
