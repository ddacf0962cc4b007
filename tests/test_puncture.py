import numpy as np
import pytest

from qskein.curves import NormalCurve, enumerate_states, state_exponents, u_of_state
from qskein.library import sphere_curve, torus_curve
from qskein.puncture import BarBundle, bar_trace, curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.shear import ShearSkein
from qskein.surface import polygon, sphere_three_marked, torus_one_marked


def is_equivariant(ld, alpha_d, values):
    """A lifted state agrees across every fake triangle, one not in tri_map."""
    return all(values[j - 1] == values[j]
               for j, (t, _, _) in enumerate(alpha_d.steps) if t not in ld.tri_map)


def project_state(ld, alpha_d, values):
    """Restrict an equivariant Delta-state to the Lambda-crossings."""
    return tuple(v for (t, _, _), v in zip(alpha_d.steps, values) if t in ld.tri_map)


def project_curve(ld, alpha_d):
    """Collapse the fake steps of a lifted curve back to Lambda."""
    real = [(ld.tri_map[t], i, o) for t, i, o in alpha_d.steps if t in ld.tri_map]
    return NormalCurve(ld.lam, [(lt, (i + r) % 3, (o + r) % 3) for (lt, r), i, o in real])


def equivariant_states(ld, alpha_d):
    """(equivariant admissible Delta-states, their Lambda restrictions)."""
    eq = [s for s in enumerate_states(alpha_d) if is_equivariant(ld, alpha_d, s)]
    return eq, [project_state(ld, alpha_d, s) for s in eq]


def test_lift_torus():
    for variant in ("after", "before"):
        ld = lift(torus_one_marked(), variant=variant)
        D = ld.delta
        D.validate(require_marked=True)
        assert len(D.triangles) == 3
        assert set(ld.cp_edge.values()) == {"cp0"}
        assert "cp0" in D.boundary_edges
        assert sorted(ld.omega.values()) == ["a", "a", "b", "c"] or \
            sorted(ld.omega.values()) == ["a", "b", "c", "c"]
        # exactly one fake triangle, one diagonal
        assert len(ld.fake_tris) == 1
        # Euler count of the torus minus an open disk
        chi = len(D.vertices) - len(D.edges) + len(D.triangles)
        assert chi == -1


def test_lift_sphere():
    ld = lift(sphere_three_marked())
    D = ld.delta
    D.validate(require_marked=True)
    assert len(D.triangles) == 5            # 2 + 3 fake
    assert len(ld.fake_tris) == 3
    assert len(D.boundary_edges) == 3
    chi = len(D.vertices) - len(D.edges) + len(D.triangles)
    assert chi == -1                        # sphere minus three open disks


def test_lift_rejects_unknown_variant():
    # a marked surface has nothing to lift, so the variant must be checked
    # before the surgery loop, not only at its first corner
    for lam in (polygon(5), torus_one_marked()):
        with pytest.raises(ValueError, match="variant"):
            lift(lam, variant="bogus")


def test_lift_identity_on_marked():
    ld = lift(polygon(5))
    assert ld.delta.same_as(polygon(5))
    assert not ld.points
    bb = BarBundle(ld)
    assert np.array_equal(bb.Omega, np.eye(2, dtype=np.int64))
    assert np.array_equal(bb.Hbar, bb.delta_bundle.H)


def test_bar_matrix_checks():
    for lam in (torus_one_marked(), sphere_three_marked()):
        for variant in ("after", "before"):
            bb = BarBundle(lift(lam, variant=variant))
            assert all(bb.checks.values()), bb.checks


def test_fake_triangle_row():
    # k H (c_p) = k(e') - k(e'') for the fake triangle edge pair
    ld = lift(torus_one_marked())
    bb = BarBundle(ld)
    D = ld.delta
    ft = list(ld.fake_tris.values())[0]
    labs = D.triangle_edges(ft)
    cp = ld.cp_edge["p0"]
    i = labs.index(cp)
    e_dprime = labs[(i + 1) % 3]   # follows c_p counterclockwise
    e_prime = labs[(i + 2) % 3]
    assert ld.omega[e_prime] == ld.omega[e_dprime]
    H = bb.delta_bundle.H
    cp_col = bb.x.index[cp]
    rng = np.random.default_rng(31)
    inner = D.inner_edges
    for _ in range(20):
        k = rng.integers(-3, 4, len(inner))
        img = k @ H
        kmap = dict(zip(inner, k))
        assert img[cp_col] == kmap.get(e_prime, 0) - kmap.get(e_dprime, 0)


def test_cp_is_central():
    ld = lift(torus_one_marked())
    bb = BarBundle(ld)
    P = bb.x.A
    cp = bb.x.index["cp0"]
    assert not P[cp].any() and not P[:, cp].any()


def test_equivariant_state_bijection():
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    eq, bars = equivariant_states(ld, cd)
    lam_states = enumerate_states(c10)
    assert len(eq) == len(lam_states)
    assert sorted(bars) == sorted(lam_states)
    # k_s = k_sbar Omega
    Om = ld.omega_matrix()
    bb = BarBundle(ld)
    proj = project_curve(ld, cd)
    for s, sb in zip(eq, bars):
        ks = np.array(state_exponents(cd, s, bb.delta_bundle.y.labels))
        ksb = np.array(state_exponents(proj, sb, bb.ylam.labels))
        assert np.array_equal(ks, ksb @ Om)


def test_projection_rule_m9():
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    bb = BarBundle(ld)
    H = bb.delta_bundle.H
    cps = [bb.x.index[c] for c in sorted(ld.cp_labels())]
    states = enumerate_states(cd)
    noneq = [s for s in states if not is_equivariant(ld, cd, s)]
    assert noneq, "need a non-equivariant admissible state for this test"
    for s in states:
        ks = np.array(state_exponents(cd, s, bb.delta_bundle.y.labels))
        img = ks @ H
        if is_equivariant(ld, cd, s):
            assert all(img[i] == 0 for i in cps)
            sb = project_state(ld, cd, s)
            ksb = np.array(state_exponents(project_curve(ld, cd), sb,
                                           bb.ylam.labels))
            assert np.array_equal(img, ksb @ bb.Hbar)
        else:
            assert any(img[i] > 0 for i in cps)


def test_u_matches_on_equivariant_states():
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    proj = project_curve(ld, cd)
    base = sorted(e for e, m in proj.multiplicities().items() if m == 1)[0]
    eq, bars = equivariant_states(ld, cd)
    for s, sb in zip(eq, bars):
        assert u_of_state(cd, s, base_edge=base) == u_of_state(
            proj, sb, base_edge=base
        )


def test_bar_projection():
    ld = lift(torus_one_marked())
    bb = BarBundle(ld)
    x = bb.x
    keep = TorusElement.monomial(x, x.vec({"a": 2}))
    drop = TorusElement.monomial(x, x.vec({"cp0": 2}))
    assert bb.bar_projection(keep + drop) == keep
    with pytest.raises(ValueError):
        bb.bar_projection(TorusElement.monomial(x, x.vec({"cp0": -2})))


def test_bar_projection_multiplicative_on_positive_part():
    ld = lift(torus_one_marked())
    bb = BarBundle(ld)
    x = bb.x
    rng = np.random.default_rng(33)
    cp = x.index["cp0"]
    for _ in range(20):
        def rand_el():
            terms = {}
            for _ in range(2):
                k = [int(v) for v in rng.integers(-2, 3, len(x.labels))]
                k[cp] = int(rng.integers(0, 3))
                terms[tuple(k)] = Laurent.one()
            return TorusElement(x, terms)
        a, b = rand_el(), rand_el()
        assert bb.bar_projection(a * b) == \
            bb.bar_projection(a) * bb.bar_projection(b)


def test_projection_multiplicative_on_library_traces():
    # skein images of curves lie in the positive part, so the projection
    # respects their products
    from qskein.trace import trace_simple
    lam, c10 = torus_curve("1,0")
    _, c01 = torus_curve("0,1")
    ld = lift(lam)
    bb = BarBundle(ld)
    bundle = bb.delta_bundle
    t1 = trace_simple(curve_lift(ld, c10), ld.delta, bundle).skein_side
    t2 = trace_simple(curve_lift(ld, c01), ld.delta, bundle).skein_side
    assert bb.bar_projection(t1 * t2) == \
        bb.bar_projection(t1) * bb.bar_projection(t2)
    # and on edge monomials
    xa = TorusElement.generator(bb.x, "a", 2)
    assert bb.bar_projection(t1 * xa) == bb.bar_projection(t1) * \
        bb.bar_projection(xa)


def test_bar_psi_lands_in_xbar():
    ld = lift(torus_one_marked())
    bb = BarBundle(ld)
    cp = bb.x.index["cp0"]
    rng = np.random.default_rng(34)
    assert bb.bar_psi(TorusElement.one(bb.ylam)) == TorusElement.one(bb.x)
    for _ in range(20):
        k = tuple(int(2 * v) for v in rng.integers(-2, 3, 3))
        img = bb.bar_psi(TorusElement.monomial(bb.ylam, k))
        assert all(kk[cp] == 0 for kk in img.terms)
    # k_alpha of a simple curve also lands in Xbar
    _, c10 = torus_curve("1,0")
    kalpha = bb.ylam.vec(c10.multiplicities())
    img = bb.bar_psi(TorusElement.monomial(bb.ylam, kalpha))
    assert all(kk[cp] == 0 for kk in img.terms)


def test_bar_trace_pipelines_and_lift_independence():
    lam, c10 = torus_curve("1,0")
    results = []
    for variant in ("after", "before"):
        ld = lift(lam, variant=variant)
        res = bar_trace(ld, c10)
        assert res.cross_checked
        assert res.shear_side.has_unit_coefficients()
        results.append(res.shear_side)
    assert results[0] == results[1]


def test_bar_trace_sphere():
    lam = sphere_three_marked()
    ld = lift(lam)
    for pair in ("12", "23"):
        _, c = sphere_curve(pair)
        res = bar_trace(ld, c)
        assert res.cross_checked
