import pytest
from hypothesis import given, settings, strategies as st

from qskein import repcheck
from qskein.coordinate_change import (
    Expr,
    compose_flips,
    knot_monomial_transfer,
    phi_flip,
    phi_flip_from_data,
    theta_flip,
    theta_on_balanced,
)
from qskein.curves import transport_curve
from qskein.library import annulus_core, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.repcheck import verify_generator_map_identity, verify_identity
from qskein.shear import ShearSkein
from qskein.suites import PENTAGON_SEQUENCE
from qskein.surface import annulus, polygon, torus_one_marked
from qskein.trace import trace_simple


def test_phi_images_square():
    T = polygon(4)
    T2, fd, phi = phi_flip(T, "e0_2")
    x = phi.target
    two_term = phi.images[fd.a_star][0].as_element()
    expected = TorusElement.monomial(
        x, x.vec({fd.c: 2, fd.e: 2, fd.a: -2})
    ) + TorusElement.monomial(x, x.vec({fd.b: 2, fd.d: 2, fd.a: -2}))
    assert two_term == expected
    # untouched generators map to themselves
    img = phi.apply_element(TorusElement.generator(phi.source, "e0_1", 2))
    assert img.as_element() == TorusElement.generator(x, "e0_1", 2)


def test_empty_sequence_is_identity():
    T = polygon(5)
    final, comp, datas = compose_flips(T, [])
    assert final is T and datas == []
    g = comp.apply_element(TorusElement.generator(comp.source, "e0_2", 2))
    assert g.as_element() == TorusElement.generator(comp.source, "e0_2", 2)


def test_theta_square_table():
    T = polygon(4)
    T2, fd, theta = theta_flip(T, "e0_2")
    y = theta.target
    pos, neg = theta.images[fd.a_star]
    assert pos.as_element() == TorusElement.monomial(y, y.vec({fd.a: -2}))
    assert neg.as_element() == TorusElement.monomial(y, y.vec({fd.a: 2}))


def test_theta_pentagon_case_A():
    # flip at e0_2; the inner quad edge e0_3 sits in the inverse-side pair:
    # Theta(Y_e^(-1)) = Y_e^(-1) + [Y_e^(-1) Y_a^(-1)]
    T = polygon(5)
    T2, fd, theta = theta_flip(T, "e0_2")
    assert fd.e == "e0_3" and fd.coincidence == "distinct"
    y = theta.target
    pos, neg = theta.images["e0_3"]
    expected = TorusElement.monomial(y, y.vec({"e0_3": -2})) + \
        TorusElement.monomial(y, y.vec({"e0_3": -2, "e0_2": -2}))
    assert neg.as_element() == expected
    assert not pos.is_polynomial()


def test_theta_annulus_coincidence_coefficients():
    # on the self-glued square the three-term image carries the
    # commutation of the surrounding boundary loops: the middle
    # coefficient comes out q^2 + q^(-2) here, not the generic
    # q^(1/2) + q^(-1/2) of a square with honest loop neighbours
    A = annulus()
    T2, fd, theta = theta_flip(A, "d1")
    assert fd.coincidence == "b=d" and fd.b == "d2"
    y = theta.target
    qq = Laurent.q_power(16) + Laurent.q_power(-16)
    expected = (
        TorusElement.monomial(y, y.vec({"d2": 2}))
        + TorusElement.monomial(y, y.vec({"d1": 2, "d2": 2})) * qq
        + TorusElement.monomial(y, y.vec({"d1": 4, "d2": 2}))
    )
    assert theta.images["d2"][0].as_element() == expected

    T2b, fdb, thetab = theta_flip(A, "d2")
    assert fdb.coincidence == "c=e" and fdb.c == "d1"
    expected_neg = (
        TorusElement.monomial(y, y.vec({"d1": -2}))
        + TorusElement.monomial(y, y.vec({"d1": -2, "d2": -2})) * qq
        + TorusElement.monomial(y, y.vec({"d1": -2, "d2": -4}))
    )
    assert thetab.images["d1"][1].as_element() == expected_neg


def test_flipback_identity_both_sides():
    for T, edge in ((polygon(4), "e0_2"), (annulus(), "d1")):
        for side in ("shear", "skein"):
            final, comp, _ = compose_flips(
                T, [edge, "tmp"], side=side, new_labels=["tmp", edge]
            )
            assert final.same_as(T)
            for lab, v in verify_generator_map_identity(comp, trials=3).items():
                assert v.passed, (side, edge, lab, v)


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that calls are counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls[0] += 1
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_pentagon_composite_identity(monkeypatch):
    # the pentagon repeated 1, 2 and 3 times: both generators share one
    # representation per order, so each distinct inverse node is factorized
    # once per order (4, 9 and 14 nodes x 3 orders) and every 5 flips add
    # 15 dense factorizations, linear in the number of flips
    factorizations = _counting(monkeypatch, repcheck, "lu_factor")
    P = polygon(5)
    for reps, want in ((1, 12), (2, 27), (3, 42)):
        factorizations[0] = 0
        final, comp, _ = compose_flips(P, list(PENTAGON_SEQUENCE) * reps, side="shear")
        assert final.same_as(P)
        for lab, v in verify_generator_map_identity(comp, trials=4).items():
            assert v.passed and v.orders == (5, 7, 11), (reps, lab, v)
        assert factorizations[0] == want, reps


def test_support_labels_walks_shared_nodes_once(monkeypatch):
    # the doubled pentagon's images unfold to ~36k factors; walking the
    # DAG touches each distinct torus element once
    _, comp, _ = compose_flips(
        polygon(5), list(PENTAGON_SEQUENCE) * 2, side="shear"
    )
    calls = _counting(monkeypatch, TorusElement, "support_labels")
    verdicts = verify_generator_map_identity(comp, trials=2)
    assert all(v.passed for v in verdicts.values())
    assert calls[0] <= 100, calls[0]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_random_closed_walks_verify(data):
    # a walk of up to 3 flips followed by its reverse composes to the
    # identity on every generator
    T = polygon(data.draw(st.integers(5, 7), label="n"))
    edges, labels, cur = [], [], T
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        edge = data.draw(st.sampled_from(cur.inner_edges))
        cur, fd = cur.flip(edge)
        edges.append(edge)
        labels.append(fd.a_star)
    final, comp, _ = compose_flips(
        T, edges + labels[::-1], side="shear", new_labels=labels + edges[::-1]
    )
    assert final.same_as(T)
    for lab, v in verify_generator_map_identity(comp, trials=2).items():
        assert v.passed, (edges, lab, v)


def test_dia9_commutative_square():
    for T, edge in ((polygon(4), "e0_2"), (annulus(), "d1")):
        b1 = ShearSkein(T)
        T2, fd, theta = theta_flip(T, edge)
        b2 = ShearSkein(T2)
        _, _, phi = phi_flip_from_data(T, T2, fd, bundles=(b1, b2))
        for v in theta.source.labels:
            pos, neg = theta.images[v]
            sign = 1 if pos.is_polynomial() else -1
            th = pos if sign == 1 else neg
            lhs = th.map_elements(lambda el: Expr.from_element(b1.psi(el)))
            rhs = phi.apply_element(
                b2.psi(TorusElement.generator(b2.y, v, 2 * sign))
            )
            res = verify_identity(lhs, rhs, b1.x, trials=3)
            assert res.passed, (edge, v, res)


def test_transfer_identities_exact():
    A, core = annulus_core()
    seen = set()
    for edge in ("d1", "d2"):
        T2, fd = A.flip(edge)
        moved = transport_curve(core, A, fd, T2)
        rec = knot_monomial_transfer(moved, A, edge, T2=T2, fd=fd)
        assert rec.exact_ok
        seen.add(rec.case)
    assert seen == {"right-left", "left-right"}
    # an unchanged case
    lam, c10 = torus_curve("1,0")
    ld = lift(lam)
    cd = curve_lift(ld, c10)
    T2, fd = ld.delta.flip("g0")
    moved = transport_curve(cd, ld.delta, fd, T2)
    rec = knot_monomial_transfer(moved, ld.delta, "g0", T2=T2, fd=fd)
    assert rec.case == "unchanged" and rec.exact_ok


def test_trace_naturality_small():
    A, core = annulus_core()
    b1 = ShearSkein(A)
    tr1 = trace_simple(core, A, b1)
    for edge in ("d1", "d2"):
        T2, fd, theta = theta_flip(A, edge)
        b2 = ShearSkein(T2)
        moved = transport_curve(core, A, fd, T2)
        tr2 = trace_simple(moved, T2, b2)
        rec = knot_monomial_transfer(moved, A, edge, T2=T2, fd=fd)
        lhs = theta_on_balanced(theta, rec, tr2.shear_side)
        v = verify_identity(
            lhs, [Expr.from_element(tr1.shear_side)], b1.y, trials=4
        )
        assert v.passed, (edge, v)


def test_expr_algebra():
    T = polygon(4)
    b = ShearSkein(T)
    el = TorusElement.generator(b.y, "e0_2", 2)
    e = Expr.from_element(el)
    two = e + e
    assert len(two.words) == 2
    prod = e * e
    assert prod.as_element() == el * el
    assert e.inv().words[0][1][0][0] == "inv"
    with pytest.raises(ValueError):
        e.inv().as_element()
    assert (e * Laurent.q_power(8)).as_element() == el * Laurent.q_power(8)
    assert e.power(-2).words[0][1][0][0] == "inv"
    assert e.support_labels() == {"e0_2"}
