import functools
from fractions import Fraction

import pytest

from qskein.curves import (
    CurveError,
    NormalCurve,
    _flip_weights,
    classify,
    crossing_pattern,
    enumerate_states,
    epsilon_vector,
    state_exponents,
    transport_curve,
    u_of_state,
)
from qskein.library import annulus_core, sphere_curve, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.shear import shear_spec
from qskein.surface import annulus, sphere_three_marked, torus_one_marked
from qskein.trace import oracle_resolution, trace_simple
from test_cli import curve_json
from test_state_oracle import u_split_parts


def test_step_validation():
    A = annulus()
    with pytest.raises(CurveError):
        NormalCurve(A, [(0, 1, 1)])          # bounce
    with pytest.raises(CurveError):
        NormalCurve(A, [(0, 1, 2)])          # does not close
    with pytest.raises(CurveError, match="^bad triangle index 2$"):
        NormalCurve(A, [(2, 0, 1)])          # a curve file names sides, not triangles
    with pytest.raises(CurveError):
        NormalCurve(A, [])
    with pytest.raises(CurveError):
        # crosses the boundary loop b1
        NormalCurve.from_sides(A, [("T0.d1", "T0.b1"), ("T0.d1", "T0.b1")])


def test_classify():
    A, core = annulus_core()
    assert repr(core) == "NormalCurve(2 steps over ('d1', 'd2'))"
    assert classify(core) == "simple"
    lam, c = torus_curve("1,-1")
    assert classify(c) == "almost-simple"
    ld = lift(lam, variant="after")
    cd = curve_lift(ld, c)
    assert classify(cd) == "general"  # g0 doubles c, both crossed twice
    ld2 = lift(lam, variant="before")
    assert classify(curve_lift(ld2, c)) == "almost-simple"


def test_colorings_core():
    # on a simple curve a state is a coloring of the crossed edges
    A, core = annulus_core()
    edges = core.crossing_edges()
    assert sorted(edges) == ["d1", "d2"]
    states = enumerate_states(core)
    assert len(states) == 3
    cols = [dict(zip(edges, s)) for s in states]
    assert len({tuple(sorted(C.items())) for C in cols}) == 3
    assert all(v in (1, -1) for C in cols for v in C.values())


def test_colorings_need_simple():
    # the state sum over colorings is defined for simple curves only
    lam, c = torus_curve("1,-1")
    with pytest.raises(CurveError):
        trace_simple(c, lam)
    with pytest.raises(CurveError):
        oracle_resolution(c, lam)


def test_state_exponents():
    A, core = annulus_core()
    labels = shear_spec(A).labels
    edges = core.crossing_edges()
    plus = (1,) * 2
    k = dict(zip(labels, state_exponents(core, plus, labels)))
    assert k == {"d1": 1, "d2": 1}
    minus = (-1, -1)
    assert state_exponents(core, minus, labels) == tuple(
        -v for v in state_exponents(core, plus, labels)
    )
    mixed = tuple(1 if e == "d1" else -1 for e in edges)
    k = dict(zip(labels, state_exponents(core, mixed, labels)))
    assert k == {"d1": 1, "d2": -1}


def test_crossing_patterns_core():
    A, core = annulus_core()
    assert crossing_pattern(core, "d1") == "left-right"
    assert crossing_pattern(core, "d2") == "right-left"
    eps = dict(zip(shear_spec(A).labels, epsilon_vector(core, shear_spec(A).labels)))
    assert eps == {"d1": -1, "d2": 1}
    lam, c = torus_curve("1,-1")
    assert crossing_pattern(c, "c") == "multi"
    with pytest.raises(CurveError):
        crossing_pattern(core, "b1")


def test_u_simple_curves_vanish():
    # a simple curve never revisits a triangle, so u(s) = 0 identically
    for surface_curve in (annulus_core(), torus_curve("1,0"), sphere_curve("12")):
        _, alpha = surface_curve
        for s in enumerate_states(alpha):
            assert u_of_state(alpha, s) == 0


def test_u_half_integer_and_split():
    lam, c = torus_curve("1,-1")
    for s in enumerate_states(c):
        u = u_of_state(c, s)
        assert (2 * u).denominator == 1
        u1, u2 = u_split_parts(c, s)
        assert u1 + u2 == u
    # at least one state carries a nontrivial phase here
    assert any(u_of_state(c, s) != 0 for s in enumerate_states(c))


def test_u_needs_single_crossing():
    lam, c = torus_curve("1,-1")
    with pytest.raises(CurveError):
        u_of_state(c, (1,) * 4, base_edge="c")


def test_u_corner_contribution():
    # the annulus core visits each triangle once: both parts vanish
    A, core = annulus_core()
    for s in enumerate_states(core):
        assert u_split_parts(core, s) == (0, 0)
    # the torus (1,-1) curve revisits both triangles; the reordering part
    # carries the whole phase, pinned state by state
    lam, c = torus_curve("1,-1")
    expected = {
        (1, 1, 1, 1): (0, 0),
        (1, -1, 1, 1): (0, 0),
        (1, -1, -1, 1): (0, -2),
        (-1, -1, 1, 1): (0, 2),
        (-1, -1, -1, 1): (0, 0),
        (-1, -1, -1, -1): (0, 0),
    }
    assert enumerate_states(c) == list(expected)
    for s, parts in expected.items():
        assert u_split_parts(c, s) == tuple(Fraction(v) for v in parts)


def test_transport_through_flip():
    A, core = annulus_core()
    for edge in ("d1", "d2"):
        T2, fd = A.flip(edge)
        moved = transport_curve(core, A, fd, T2)
        assert classify(moved) == "simple"
        assert fd.a_star in moved.multiplicities()
        # transport back restores the crossing data
        T3, fd_back = T2.flip(fd.a_star, new_label=edge)
        assert T3.same_as(A)
        back = transport_curve(moved, T2, fd_back, T3)
        assert back.multiplicities() == core.multiplicities()


def test_transport_preserves_surviving_crossings():
    # the curve misses the flipped edge a but runs through its square, so
    # the rerouted curve may cross the new diagonal; all other crossing
    # counts survive unchanged
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)   # crosses b and c only
    T2, fd = ld.delta.flip("a")
    moved = transport_curve(cd, ld.delta, fd, T2)
    old = cd.multiplicities()
    new = moved.multiplicities()
    assert {e: m for e, m in new.items() if e != fd.a_star} == old


def test_json_roundtrip():
    A, core = annulus_core()
    again = NormalCurve.from_json(A, curve_json(core))
    assert again.steps == core.steps


# ---------------------------------------------------------------------------
# weights: from_weights, the tropical rule, and the step-based references
# that transport_curve and curve_lift replaced


def step_transport(alpha, T, fd, T_new):
    """Transport by steps: cut alpha at every crossing of an edge other than
    the flipped one, copy each run outside the flip square and re-route each
    run inside it through the two new triangles."""
    n1, n2 = T_new.edge_sides[fd.a_star]
    square = {T_new.side_pos(s)[0] for s in (n1, n2)}
    pos = {s: T_new.side_pos(s) for t in square for s in T_new.triangles[t]}

    def emit(side_in, side_out):
        (ti, ii), (to, oo) = pos[side_in], pos[side_out]
        if ti == to:
            return [(ti, ii, oo)]
        mid_out, mid_in = (pos[n1], pos[n2]) if pos[n1][0] == ti else (pos[n2], pos[n1])
        return [(ti, ii, mid_out[1]), (to, mid_in[1], oo)]

    n, crossed = len(alpha.steps), alpha.crossing_edges()
    cuts = [j for j in range(n) if crossed[j] != fd.a]
    steps = []
    for cut, nxt in zip(cuts, cuts[1:] + cuts[:1]):
        run = [alpha.steps[(cut + 1 + m) % n] for m in range((nxt - cut - 1) % n + 1)]
        if run[0][0] not in square:
            assert len(run) == 1
            steps.append(run[0])
        else:
            (t0, i0, _), (t1, _, o1) = run[0], run[-1]
            steps += emit(T.triangles[t0][i0], T.triangles[t1][o1])
    return NormalCurve(T_new, steps)


def strip_lift(ld, lam_curve):
    """Lift by steps: map each step of the Lambda curve to its Delta
    triangle, then walk the strip of fake triangles after it."""
    delta, fake = ld.delta, set(ld.fake_tris.values())
    inv = {lt: (dt, rot) for dt, (lt, rot) in ld.tri_map.items()}
    steps = []
    for lt, i, o in lam_curve.steps:
        dt, rot = inv[lt]
        steps.append((dt, (i - rot) % 3, (o - rot) % 3))
        side = delta.glue[delta.triangles[dt][(o - rot) % 3]]
        while delta.side_pos(side)[0] in fake:
            ft, entry = delta.side_pos(side)
            out = next(x for x in range(3) if x != entry
                       and delta.side_edge[delta.triangles[ft][x]] not in ld.cp_labels())
            steps.append((ft, entry, out))
            side = delta.glue[delta.triangles[ft][out]]
    return NormalCurve(delta, steps)


def as_cycle(alpha, reverse=False):
    """The least rotation of alpha's steps, read backwards with reverse."""
    steps = list(alpha.steps)
    if reverse:
        steps = [(t, o, i) for t, i, o in reversed(steps)]
    return min(tuple(steps[m:] + steps[:m]) for m in range(len(steps)))


def same_unoriented(a, b):
    return as_cycle(a) in (as_cycle(b), as_cycle(b, reverse=True))


@functools.lru_cache(maxsize=None)
def greedy_curves(top=14):
    """(T, curve) along every greedy flip walk on the lifted torus from the
    (1,0), (0,1) and (1,1) curves: each flip maximizes the crossing count
    while some edge stays crossed once, ties branching, up to top
    crossings.  Walks that share a start share its curves."""
    ld = lift(torus_one_marked())
    todo = [(ld.delta, curve_lift(ld, torus_curve(s)[1])) for s in ("1,0", "0,1", "1,1")]
    out = []
    while todo:
        T, alpha = todo.pop()
        out.append((T, alpha))
        best, size = [], len(alpha.steps)
        for edge in T.inner_edges if size < top else ():
            T2, fd = T.flip(edge)
            moved = transport_curve(alpha, T, fd, T2)
            if 1 in moved.multiplicities().values() and len(moved.steps) >= size:
                if len(moved.steps) > size:
                    best, size = [], len(moved.steps)
                best.append((T2, moved))
        todo += best
    return tuple(out)


def test_from_weights_rebuilds_library_curves():
    curves = [annulus_core()]
    curves += [torus_curve(s) for s in ("1,0", "0,1", "1,1", "1,-1")]
    curves += [sphere_curve(p) for p in ("12", "23", "13")]
    for T, alpha in curves:
        again = NormalCurve.from_weights(T, alpha.multiplicities())
        assert same_unoriented(again, alpha), alpha


def test_from_weights_round_trips_greedy_walk_curves():
    for T, alpha in greedy_curves():
        again = NormalCurve.from_weights(T, alpha.multiplicities())
        assert again.multiplicities() == alpha.multiplicities()
        assert same_unoriented(again, alpha)


def test_from_weights_rejects_weights_of_no_connected_curve():
    A, core = annulus_core()
    T, c11 = torus_curve("1,1")
    bad = [
        (A, {"d1": -1, "d2": 1}, "weight -1"),
        (A, {"d1": 1, "d2": 1, "b1": 2}, "edge b1"),          # a boundary edge
        (A, {"d1": 1, "d2": 1, "x": 1}, "edge x"),            # no such edge
        (A, {"d1": 1, "d2": 3}, "triangle inequality"),
        (T, {"a": 1, "b": 1, "c": 1}, "parity"),
        (A, {"d1": 0, "d2": 0}, "all weights are zero"),
        (A, {"d1": 2, "d2": 2}, "multicurve"),                # two parallel cores
        (T, {e: 2 * m for e, m in c11.multiplicities().items()}, "multicurve"),
    ]
    for surface, weights, match in bad:
        with pytest.raises(CurveError, match=match):
            NormalCurve.from_weights(surface, weights)
    # a zero weight on a boundary edge is no crossing
    assert NormalCurve.from_weights(A, {"d1": 1, "d2": 1, "b1": 0}).multiplicities() == \
        core.multiplicities()


def test_tropical_rule_forward_then_back():
    for T, alpha in greedy_curves():
        weights = alpha.multiplicities()
        for edge in T.inner_edges:
            _, fd = T.flip(edge)
            there = _flip_weights(weights, fd)
            assert min(there.values()) >= 0
            back = _flip_weights(there, fd, back=True)
            assert {e: m for e, m in back.items() if m} == weights


def test_transport_is_the_step_transport():
    pairs = 0
    for T, alpha in greedy_curves():
        for edge in T.inner_edges:
            T2, fd = T.flip(edge)
            moved = transport_curve(alpha, T, fd, T2)
            assert as_cycle(moved) == as_cycle(step_transport(alpha, T, fd, T2))
            pairs += 1
    A, core = annulus_core()
    for edge in ("d1", "d2"):
        T2, fd = A.flip(edge)
        assert as_cycle(transport_curve(core, A, fd, T2)) == \
            as_cycle(step_transport(core, A, fd, T2))
    assert pairs == 164


def test_lift_is_the_strip_lift():
    for variant in ("after", "before"):
        for lam, curve, names in ((torus_one_marked(), torus_curve, ("1,0", "0,1", "1,1", "1,-1")),
                                  (sphere_three_marked(), sphere_curve, ("12", "23", "13"))):
            ld = lift(lam, variant=variant)
            for name in names:
                c = curve(name)[1]
                assert curve_lift(ld, c).steps == strip_lift(ld, c).steps, (variant, name)
