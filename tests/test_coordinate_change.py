import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskein import coordinate_change as cc
from qskein import repcheck
from qskein.coordinate_change import (
    Expr,
    compose_flips,
    knot_monomial_transfer,
    phi_flip,
    phi_flip_from_data,
    phi_monomial,
    theta_element,
    theta_flip,
    theta_flip_from_data,
)
from qskein.curves import CurveError, transport_curve
from qskein.library import annulus_core, surface_by_name, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent, ONE
from qskein.qtorus import TorusElement
from qskein.repcheck import verify_generator_map_identity, verify_identity
from qskein import suites
from qskein.shear import ShearSkein
from qskein.suites import FLIP_LIBRARY, PENTAGON_SEQUENCE, _phased_cases
from qskein.surface import SurfaceError, annulus, polygon, torus_one_marked
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
    # representation per order, so each distinct inverse node is inverted
    # once per order (4, 9 and 14 nodes x 3 orders), along its cycles or by
    # lu_factor, and every 5 flips add 15 inversions, linear in the flips
    factorizations = _counting(monkeypatch, repcheck, "lu_factor")
    cycles = _counting(monkeypatch, repcheck, "cycle_inverse")
    P = polygon(5)
    for reps, want in ((1, 12), (2, 27), (3, 42)):
        factorizations[0] = cycles[0] = 0
        final, comp, _ = compose_flips(P, list(PENTAGON_SEQUENCE) * reps, side="shear")
        assert final.same_as(P)
        for lab, v in verify_generator_map_identity(comp, trials=4).items():
            assert v.passed and v.orders == (5, 7, 11), (reps, lab, v)
        assert factorizations[0] + cycles[0] == want and cycles[0], reps


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
        lhs = theta_element(A, T2, fd, tr2.shear_side)
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
        _, _, theta = theta_flip_from_data(T, T2, fd)
        y2 = theta.source
        terms = {tuple(2 * int(v) for v in rng.integers(-1, 2, len(y2.labels))):
                 Laurent.q_power(int(rng.integers(-8, 9))) for _ in range(2)}
        el = TorusElement(y2, terms)
        lhs = theta_element(T, T2, fd, el)
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
        lhs = theta_element(T, T2, fd, shear2)
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


def test_expr_edge_cases_in_process():
    # spec mismatches, the zeroth power and words with no factors, in process
    y4, y5 = (ShearSkein(polygon(n)).y for n in (4, 5))
    a, b = (Expr.from_element(TorusElement.one(y)) for y in (y4, y5))
    for op in (a.__add__, a.__mul__):
        with pytest.raises(ValueError, match="torus spec mismatch"):
            op(b)
    x = Expr.from_element(TorusElement.generator(y4, "e0_2", 2))
    assert x.power(0).words == Expr.one(y4).words == ((ONE, ()),)
    # a sum with a bare scalar word maps it to that scalar over the target
    _, fd, theta = theta_flip(polygon(4), "e0_2")
    el = TorusElement.generator(theta.source, fd.a_star, 2)
    three = Expr.one(theta.source) * Laurent.integer(3)
    mapped = (Expr.from_element(el) + three).map_elements(theta.apply_element)
    assert mapped.spec == theta.target
    assert mapped.words[-1] == (Laurent.integer(3), ())
    assert mapped.words[:-1] == theta.apply_element(el).words
    # with no element at all there is no target torus to infer
    with pytest.raises(ValueError, match="cannot infer target torus"):
        Expr.one(theta.source).map_elements(theta.apply_element)


def test_operands_of_another_kind_raise_type_error():
    # an Expr and a TorusElement do not mix, and neither takes a float
    el = TorusElement.generator(ShearSkein(polygon(4)).y, "e0_2", 2)
    x = Expr.from_element(el)
    for a, b in ((x, el), (el, x), (x, 1.5), (1.5, x), (el, 1.5)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a * b


def test_apply_element_rejects_foreign_or_odd_exponents():
    _, fd, theta = theta_flip(polygon(4), "e0_2")
    with pytest.raises(ValueError, match="not over the source torus"):
        theta.apply_element(TorusElement.one(theta.target))
    with pytest.raises(ValueError, match="not a multiple of 2"):
        theta.apply_element(TorusElement.generator(theta.source, fd.a_star, 1))


def test_transfer_needs_a_curve_simple_after_the_flip():
    for _, T, edge, alpha in _phased_cases():
        T2, fd = T.flip(edge)
        alpha2 = transport_curve(alpha, T, fd, T2)
        with pytest.raises(CurveError, match="simple after the flip"):
            knot_monomial_transfer(alpha2, T, edge, T2, fd)


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
        _, _, theta = theta_flip_from_data(T, T2, fd)
        assert fd.a_star in theta.images
        for v in set(b2.y.labels) - set(theta.images):
            skipped += 1
            el = phi.apply_element(b2.psi_vec(b2.y.unit_vec(v, 2))).as_element()
            assert b1.psi_preimage(el) == TorusElement.generator(b1.y, v, 2), (edge, v)
            assert theta.image_of_generator(v, 1).as_element() == \
                TorusElement.generator(b1.y, v, 2)
    assert skipped > 0


def test_compose_flips_rejects_unknown_side():
    for T in (polygon(5), lift(torus_one_marked()).delta):
        for side in ("Shear", "bogus", None):
            with pytest.raises(ValueError, match="side"):
                compose_flips(T, [T.inner_edges[0]], side=side)


def test_each_triangulation_builds_its_bundle_once(monkeypatch):
    T = polygon(5)
    bundle = ShearSkein.of(T)
    assert ShearSkein.of(T) is bundle
    T2, _ = T.flip("e0_2")
    assert ShearSkein.of(T2) is not bundle
    assert ShearSkein.of(T2).y.labels == T2.inner_edges
    # the bundle does not refer back to its triangulation, so dropping the
    # last reference frees both without the cycle collector
    ref, collecting = weakref.ref(T2), gc.isenabled()
    gc.disable()
    try:
        del T2
        assert ref() is None
    finally:
        if collecting:
            gc.enable()
    built = []
    init = ShearSkein.__init__

    def counted(self, T):
        built.append(T)
        init(self, T)

    monkeypatch.setattr(ShearSkein, "__init__", counted)
    for side in ("shear", "skein"):
        for k in range(len(PENTAGON_SEQUENCE) + 1):
            built.clear()
            compose_flips(polygon(5), list(PENTAGON_SEQUENCE[:k]), side=side)
            assert len(built) == len({id(T) for T in built}) <= k + 1, (side, k)


def _theta_cases():
    """(T, T2, fd, exponents k over Y(Delta')): Y_v and Y_v^(-1) for every
    v at every flippable inner edge of polygon4-7, the annulus and the
    torus-lift Delta, then each term k, and 2k, of the traces in the
    trace-naturality cases, phased ones included."""
    surfaces = [polygon(n) for n in (4, 5, 6, 7)] + [annulus(), lift(torus_one_marked()).delta]
    for T in surfaces:
        for edge in T.inner_edges:
            try:
                T2, fd = T.flip(edge)
            except SurfaceError:
                continue
            y2 = ShearSkein.of(T2).y
            yield T, T2, fd, [y2.unit_vec(v, sign) for v in y2.labels for sign in (2, -2)]
    for name, T, edge, alpha in suites._naturality_cases() + _phased_cases():
        T2, fd = T.flip(edge)
        alpha2 = transport_curve(alpha, T, fd, T2)
        shear2 = trace_once_edge(alpha2, T2)[0]
        yield T, T2, fd, [tuple(f * v for v in k) for k in shear2.terms for f in (1, 2)]


def _reference_theta_pair(T, T2, fd, k):
    """The near-side rule through the generator map: Phi applied to
    psi'(y^(sk)) as Expr words, multiplied out, then pulled back by psi."""
    b1, b2 = ShearSkein.of(T), ShearSkein.of(T2)
    phi = phi_flip_from_data(T, T2, fd)[2]
    sign = 1 if b2.H[:, b2.x.index[fd.a_star]].dot(k) >= 0 else -1
    el = phi.apply_element(b2.psi_vec([sign * v for v in k])).as_element()
    near = b1.psi_preimage(el)
    far = ("inv", near) if len(el.terms) > 1 else ("el", near.inverse_monomial())
    return (("el", near), far) if sign > 0 else (far, ("el", near))


def _shape(expr):
    """('el', element) for an inverse-free Expr, ('inv', payload element)
    for the formal inverse of one."""
    if expr.is_polynomial():
        return "el", expr.as_element()
    (_, ((_, payload),)), = expr.words
    return "inv", payload.as_element()


def test_phi_monomial_matches_the_expr_route():
    seen = set()
    for T, T2, fd, ks in _theta_cases():
        b1, b2 = ShearSkein.of(T), ShearSkein.of(T2)
        phi = phi_flip_from_data(T, T2, fd)[2]
        for k in ks:
            (m, _), = b2.psi_vec(k).terms.items()
            pair = tuple(map(_shape, cc._theta_pair(b1, b2, fd, k)))
            assert pair == _reference_theta_pair(T, T2, fd, k), (fd, k)
            s = m[b2.x.index[fd.a_star]] // 2
            if s < 0:
                # a negative power of X_(a*) has no polynomial image; the
                # near side is y^(-k)
                with pytest.raises(ValueError):
                    phi_monomial(b1.x, b2.x, fd, m)
                with pytest.raises(ValueError):
                    phi.apply_element(TorusElement.monomial(b2.x, m)).as_element()
                s, m = -s, tuple(-v for v in m)
            seen.add(s)
            el = phi_monomial(b1.x, b2.x, fd, m)
            reference = phi.apply_element(TorusElement.monomial(b2.x, m)).as_element()
            assert el == reference, (fd, k)
            # one coefficient times q^(1/8) no longer matches
            (k0, c0), *rest = el.terms.items()
            bad = TorusElement(el.spec, {k0: c0 * Laurent.q_power(1), **dict(rest)})
            assert bad != reference, (fd, k)
    assert {0, 1, 2, 4} <= seen          # s >= 2 from the traces and their doubles
    # an odd exponent is not a polynomial in the X_v
    T2, fd = polygon(4).flip("e0_2")
    x2 = ShearSkein.of(T2).x
    with pytest.raises(ValueError):
        phi_monomial(ShearSkein.of(polygon(4)).x, x2, fd, x2.unit_vec("e0_1", 1))
