from fractions import Fraction

import pytest

from qskein.curves import (
    CurveError,
    NormalCurve,
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
from qskein.surface import annulus, torus_one_marked
from qskein.trace import oracle_resolution, trace_simple
from test_state_oracle import u_split_parts


def test_step_validation():
    A = annulus()
    with pytest.raises(CurveError):
        NormalCurve(A, [(0, 1, 1)])          # bounce
    with pytest.raises(CurveError):
        NormalCurve(A, [(0, 1, 2)])          # does not close
    with pytest.raises(CurveError):
        NormalCurve(A, [])
    with pytest.raises(CurveError):
        # crosses the boundary loop b1
        NormalCurve.from_sides(A, [("T0.d1", "T0.b1"), ("T0.d1", "T0.b1")])


def test_classify():
    A, core = annulus_core()
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
    again = NormalCurve.from_json(A, core.to_json())
    assert again.steps == core.steps
