import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskein import repcheck
from qskein.coordinate_change import (
    Expr,
    compose_flips,
    knot_monomial_transfer,
    phi_flip,
    phi_flip_from_data,
    theta_element,
    theta_flip,
    theta_flip_from_data,
)
from qskein.curves import transport_curve
from qskein.library import annulus_core, surface_by_name, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.repcheck import verify_generator_map_identity, verify_identity
from qskein.shear import ShearSkein
from qskein.suites import FLIP_LIBRARY, PENTAGON_SEQUENCE, _phased_cases
from qskein.surface import annulus, polygon, torus_one_marked
from qskein.trace import trace_once_edge, trace_simple


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
            pos = theta.image_of_generator(v, 1)
            sign = 1 if pos.is_polynomial() else -1
            th = pos if sign == 1 else theta.image_of_generator(v, -1)
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
        T2, fd = A.flip(edge)
        b2 = ShearSkein(T2)
        moved = transport_curve(core, A, fd, T2)
        tr2 = trace_simple(moved, T2, b2)
        lhs = theta_element(A, T2, fd, tr2.shear_side, bundles=(b1, b2))
        v = verify_identity(
            lhs, [Expr.from_element(tr1.shear_side)], b1.y, trials=4
        )
        assert v.passed, (edge, v)


def test_theta_element_agrees_with_generator_images():
    # on even exponents Theta is also the generator map: decompose y^k over
    # the Y_v and multiply their images; the near-side rule, applied to each
    # whole monomial, must give the same element of the skew field
    ld = lift(torus_one_marked())
    flips = [(surface_by_name(name), edge) for name, edge in FLIP_LIBRARY]
    flips += [(ld.delta, edge) for edge in ld.delta.inner_edges]
    rng = np.random.default_rng(21)
    for T, edge in flips:
        T2, fd = T.flip(edge)
        bundles = (ShearSkein(T), ShearSkein(T2))
        _, _, theta = theta_flip_from_data(T, T2, fd, bundles=bundles)
        y2 = theta.source
        terms = {tuple(2 * int(v) for v in rng.integers(-1, 2, len(y2.labels))):
                 Laurent.q_power(int(rng.integers(-8, 9))) for _ in range(2)}
        el = TorusElement(y2, terms)
        lhs = theta_element(T, T2, fd, el, bundles=bundles)
        assert len(lhs) == len(el.terms)
        v = verify_identity(lhs, theta.apply_element(el), theta.target, trials=3)
        assert v.status == "PASS" and v.orders == (5, 7, 11), (edge, terms, v)


def test_theta_element_maps_phased_traces():
    # the curve is almost-simple after the flip, so its trace there carries
    # q-phases; Theta still carries it to the simple-side trace
    for name, T, edge, alpha in _phased_cases():
        T2, fd = T.flip(edge)
        b1, b2 = ShearSkein(T), ShearSkein(T2)
        alpha2 = transport_curve(alpha, T, fd, T2)
        shear2, _, _ = trace_once_edge(alpha2, T2, bundle=b2)
        lhs = theta_element(T, T2, fd, shear2, bundles=(b1, b2))
        rhs = [Expr.from_element(trace_simple(alpha, T, b1).shear_side)]
        v = verify_identity(lhs, rhs, b1.y, trials=6)
        assert v.status == "PASS" and v.orders == (5, 7, 11), (name, v)
        bad = [lhs[0] * Laurent.q_power(1)] + lhs[1:]
        assert verify_identity(bad, rhs, b1.y, trials=6).status == "FAIL", name


def test_theta_element_rejects_unbalanced_or_foreign():
    T = polygon(4)
    T2, fd = T.flip("e0_2")
    y2 = ShearSkein(T2).y
    with pytest.raises(ValueError):
        theta_element(T, T2, fd, TorusElement.generator(y2, fd.a_star, 1))
    # an element of Y(Delta), before the flip, has as many labels
    with pytest.raises(ValueError):
        theta_element(T, T2, fd, TorusElement.generator(ShearSkein(T).y, "e0_2", 2))
    # its square Y_(a*) is balanced
    assert len(theta_element(T, T2, fd, TorusElement.generator(y2, fd.a_star, 2))) == 1


def test_expr_spec_mismatch_raises_under_optimize():
    # the spec check is a raise, not an assert, so python -O keeps it
    code = (
        "from qskein.coordinate_change import Expr\n"
        "from qskein.qtorus import TorusElement\n"
        "from qskein.shear import ShearSkein\n"
        "from qskein.surface import polygon\n"
        "a, b = (Expr.from_element(TorusElement.one(ShearSkein(polygon(n)).y)) for n in (4, 5))\n"
        "for op in (a.__add__, a.__mul__):\n"
        "    try:\n"
        "        op(b)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["torus spec mismatch"] * 2


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


def walk_flips():
    """(T, edge, new label) of every FLIP_LIBRARY flip and of every flip
    along the flipwalk benchmark's closed walks: the pentagon sequence,
    every flip-back on polygon5-7 and every two-flip walk on polygon5
    followed by its reverse."""
    flips = [(surface_by_name(name), edge, None) for name, edge in FLIP_LIBRARY]
    walks = [(polygon(5), list(PENTAGON_SEQUENCE), [None] * 5)]
    for n in (5, 6, 7):
        T = polygon(n)
        walks += [(T, [e, "tmp"], ["tmp", e]) for e in T.inner_edges]
    P5 = polygon(5)
    for e in P5.inner_edges:
        T2, fd = P5.flip(e)
        for f in T2.inner_edges:
            if f != fd.a_star:
                _, fd2 = T2.flip(f)
                walks.append((P5, [e, f, fd2.a_star, fd.a_star],
                              [fd.a_star, fd2.a_star, f, e]))
    for T, edges, labels in walks:
        for edge, label in zip(edges, labels):
            flips.append((T, edge, label))
            T, _ = T.flip(edge, new_label=label)
    return flips


def test_theta_leaves_out_only_fixed_generators():
    # theta_flip keeps no entry for a label whose row of H' has 0 in the
    # column of the new diagonal; the image it would have built is Y_v
    skipped = 0
    for T, edge, label in walk_flips():
        T2, fd = T.flip(edge, new_label=label)
        b1, b2 = ShearSkein(T), ShearSkein(T2)
        _, _, phi = phi_flip_from_data(T, T2, fd, bundles=(b1, b2))
        _, _, theta = theta_flip_from_data(T, T2, fd, bundles=(b1, b2))
        assert fd.a_star in theta.images
        for v in set(b2.y.labels) - set(theta.images):
            skipped += 1
            el = phi.apply_element(b2.psi_vec(b2.y.unit_vec(v, 2))).as_element()
            assert b1.psi_preimage(el) == TorusElement.generator(b1.y, v, 2), (edge, v)
            assert theta.image_of_generator(v, 1).as_element() == \
                TorusElement.generator(b1.y, v, 2)
    assert skipped > 0
