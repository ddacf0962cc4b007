import pytest

from qskein.curves import CurveError, NormalCurve, enumerate_states
from qskein.coordinate_change import Expr
from qskein.library import annulus_core, sphere_curve, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qtorus import TorusElement
from qskein.repcheck import verify_identity
from qskein.shear import ShearSkein, is_balanced
from qskein.surface import sphere_three_marked, torus_one_marked
from qskein.trace import (
    oracle_resolution,
    psi_image_of_knot_monomial,
    trace_once_edge,
    trace_simple,
)


def lifted_library():
    out = [annulus_core()]
    ld = lift(torus_one_marked())
    for slope in ("1,0", "0,1", "1,1"):
        _, c = torus_curve(slope)
        out.append((ld.delta, curve_lift(ld, c)))
    ld2 = lift(sphere_three_marked())
    for pair in ("12", "23", "13"):
        _, c = sphere_curve(pair)
        out.append((ld2.delta, curve_lift(ld2, c)))
    return out


def test_annulus_core_trace_frozen():
    A, core = annulus_core()
    bundle = ShearSkein(A)
    res = trace_simple(core, A, bundle)
    assert res.state_count == 3
    x = bundle.x
    expected = (
        TorusElement.monomial(x, x.vec({"d1": -2, "d2": 2}))
        + TorusElement.monomial(x, x.vec({"d1": 2, "d2": -2}))
        + TorusElement.monomial(x, x.vec({"b1": 2, "b2": 2, "d1": -2, "d2": -2}))
    )
    assert res.skein_side == expected
    y = bundle.y
    exp_shear = (
        TorusElement.monomial(y, (1, 1))
        + TorusElement.monomial(y, (-1, 1))
        + TorusElement.monomial(y, (-1, -1))
    )
    assert res.shear_side == exp_shear


def test_trace_invariants_library():
    for T, alpha in lifted_library():
        bundle = ShearSkein(T)
        res = trace_simple(alpha, T, bundle)
        assert res.state_count == len(res.skein_side.terms)
        assert res.skein_side.has_unit_coefficients()
        assert all(all(v % 2 == 0 for v in k) for k in res.skein_side.terms)
        assert res.skein_side.is_reflection_invariant()
        assert bundle.psi(res.shear_side) == res.skein_side
        assert all(is_balanced(k, T) for k in res.shear_side.terms)


def test_oracle_matches_trace():
    for T, alpha in lifted_library():
        bundle = ShearSkein(T)
        assert oracle_resolution(alpha, T, bundle) == trace_simple(
            alpha, T, bundle
        ).skein_side


def test_once_edge_matches_simple():
    for T, alpha in lifted_library():
        bundle = ShearSkein(T)
        res = trace_simple(alpha, T, bundle)
        sh, sk, n = trace_once_edge(alpha, T, bundle=bundle)
        assert sh == res.shear_side and sk == res.skein_side
        assert n == res.state_count


def reversed_curve(alpha):
    """alpha run backwards: its steps in reverse order, in and out swapped."""
    return NormalCurve(alpha.T, [(t, o, i) for t, i, o in reversed(alpha.steps)])


def test_once_edge_base_and_orientation_invariance():
    lam, c = torus_curve("1,-1")
    ld = lift(lam, variant="before")
    cd = curve_lift(ld, c)
    bundle = ShearSkein(ld.delta)
    base_edges = [e for e, m in cd.multiplicities().items() if m == 1]
    results = []
    for base in base_edges:
        sh, sk, _ = trace_once_edge(cd, ld.delta, base_edge=base, bundle=bundle)
        results.append(sh)
        assert sk.is_reflection_invariant()
    sh_rev, _, _ = trace_once_edge(reversed_curve(cd), ld.delta, bundle=bundle)
    results.append(sh_rev)
    assert all(sh == results[0] for sh in results), \
        "assembled trace depends on base or orientation"


def test_trace_rejects_bad_input():
    A, core = annulus_core()
    lam, c = torus_curve("1,-1")
    with pytest.raises(CurveError):
        trace_simple(c, lam)
    with pytest.raises(CurveError):
        # a bouncing step sequence is not a normal curve at all
        NormalCurve(A, [(0, 2, 2)])


def test_psi_image_knot_monomial():
    for T, alpha in lifted_library():
        img, eps = psi_image_of_knot_monomial(alpha, T)
        assert img.has_unit_coefficients()
    # almost-simple: the doubly crossed edge drops out
    lam, c = torus_curve("1,-1")
    ld = lift(lam, variant="before")
    cd = curve_lift(ld, c)
    bundle = ShearSkein(ld.delta)
    img, eps = psi_image_of_knot_monomial(cd, ld.delta)
    [k] = list(img.terms)
    assert k[bundle.x.index["c"]] == 0
    assert eps[bundle.x.index["c"]] == 0


def test_unchanged_pattern_gives_trivial_monomial():
    # epsilon = 0 on every edge forces psi(y^(k_alpha)) = 1; the sphere
    # loops cross with mixed patterns so just check the formula's other
    # direction on a curve with some zero entries
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    bundle = ShearSkein(ld.delta)
    img, eps = psi_image_of_knot_monomial(cd, ld.delta)
    nz = [e for e, v in zip(bundle.x.labels, eps) if v]
    assert set(nz) <= set(cd.crossed_edges())


def test_commutes_with_disjoint_edges():
    # the skein image of a curve commutes with the edge element X_e for
    # every edge e the curve does not meet; the commutation pairing
    # <CH, 2 delta_e> = 8 C(e) vanishes there, so equality is exact, and
    # the root-of-unity evaluator confirms it mod p as a sanity check
    ld = lift(sphere_three_marked())
    T = ld.delta
    bundle = ShearSkein(T)
    _, c = sphere_curve("12")
    alpha = curve_lift(ld, c)
    res = trace_simple(alpha, T, bundle)
    disjoint = [e for e in T.edges if e not in alpha.crossed_edges()]
    assert disjoint
    for e in disjoint[:3]:
        xe = TorusElement.generator(bundle.x, e, 2)
        assert res.skein_side * xe == xe * res.skein_side
        v = verify_identity(
            Expr.from_element(res.skein_side * xe),
            Expr.from_element(xe * res.skein_side),
            bundle.x, trials=4,
        )
        assert v.passed and v.orders == (5, 7, 11)
    # a crossed edge does not commute
    e = alpha.crossed_edges()[0]
    xe = TorusElement.generator(bundle.x, e, 2)
    assert res.skein_side * xe != xe * res.skein_side


def test_state_count_brute_force():
    # admissible state count of the lifted (1,0) curve by exhaustion
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    n = len(cd.steps)
    assert len(enumerate_states(cd)) == 4
    assert 2 ** n == 8
