"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite returns a list of result rows (name, status, detail) where
status is one of PASS / FAIL / INCONCLUSIVE, plus exact checks reported
as PASS/FAIL.  The flip library covers the three quadrilateral cases:
square and pentagon flips (four distinct boundary edges) and the two
annulus flips (the b=d and c=e self-glued squares).  The naturality and
phased cases are one rule over (inner edge, curve) on the annulus core and
the lifted torus slopes: a pair whose transport through that flip is simple
is a naturality case, an almost-simple one a phased case.
"""

from __future__ import annotations

import numpy as np

from .coordinate_change import (
    Expr,
    compose_flips,
    knot_monomial_transfer,
    phi_flip,
    phi_flip_from_data,
    theta_element,
    theta_flip,
)
from .curves import classify, transport_curve
from .library import MARKED_LIBRARY, annulus_core, surface_by_name, torus_curve, sphere_curve
from .puncture import bar_trace, curve_lift, lift
from .qscalar import Laurent
from .qtorus import TorusElement
from .repcheck import DEFAULT_TRIALS, verify_generator_map_identity, verify_identity
from .shear import ShearSkein, even_image_check
from .surface import annulus, polygon, sphere_three_marked, torus_one_marked
from .trace import (
    oracle_resolution,
    psi_image_of_knot_monomial,
    trace_once_edge,
    trace_simple,
)


FLIP_LIBRARY = (
    ("polygon4", "e0_2"),
    ("polygon5", "e0_2"),
    ("polygon5", "e0_3"),
    ("polygon6", "e0_3"),
    ("annulus", "d1"),
    ("annulus", "d2"),
)


def _row(name, ok_or_verdict, detail=""):
    if hasattr(ok_or_verdict, "status"):
        v = ok_or_verdict
        return (name, v.status,
                detail or ("exact" if v.method == "exact" else
                           "mod p at orders %s" % list(v.orders)))
    return (name, "PASS" if ok_or_verdict else "FAIL", detail)


def suite_duality():
    rows = []
    for name in MARKED_LIBRARY:
        T = surface_by_name(name)
        rep = T.duality_check()
        rows.append(_row("duality %s" % name, rep["ok"],
                         "rank %d/%d" % (rep["rank"], rep["inner"])))
    return rows


def _flip_curves():
    """(surface, [(name, curve)]): the annulus core, the torus-lift slopes."""
    A, core = annulus_core()
    ld = lift(torus_one_marked())
    return [(A, [("annulus core", core)]),
            (ld.delta, [("torus-lift (%s)" % slope, curve_lift(ld, torus_curve(slope)[1]))
                        for slope in ("1,0", "0,1", "1,1")])]


def library_simple_curves():
    """(name, surface, curve) for every simple library curve on a marked
    surface."""
    out = [(name, T, c) for T, curves in _flip_curves() for name, c in curves]
    ld2 = lift(sphere_three_marked())
    for pair in ("12", "23", "13"):
        _, c = sphere_curve(pair)
        out.append(("sphere-lift loop %s" % pair, ld2.delta, curve_lift(ld2, c)))
    return out


def suite_trace():
    rows = []
    for name, T, alpha in library_simple_curves():
        # trace_simple raises unless the coefficients are units, the
        # exponents even and every state a distinct term; the resolution
        # oracle is the route independent of the state sum
        res = trace_simple(alpha, T)
        ok = oracle_resolution(alpha, T) == res.skein_side
        rows.append(_row("trace %s" % name, ok, "%d states" % res.state_count))
    return rows


def suite_balanced(samples=1000, seed=0):
    rows = []
    rng = np.random.default_rng(seed)
    for name in MARKED_LIBRARY:
        T = surface_by_name(name)
        bad = 0
        for _ in range(samples):
            k = tuple(int(v) for v in rng.integers(-4, 5, len(T.inner_edges)))
            if not even_image_check(k, T)["agree"]:
                bad += 1
        rows.append(_row("balanced %s" % name, bad == 0,
                         "%d samples, %d exceptions" % (samples, bad)))
    return rows


# the row of several verdicts reports the worst status among them
_SEVERITY = {"PASS": 0, "INCONCLUSIVE": 1, "FAIL": 2}


def _generators_detail(verdicts):
    """How a row of generator verdicts was decided: 'exact' when every
    generator was, else the orders of those certified by representation
    mod p, naming the exact ones' share if there are any."""
    by_rep = [v for v in verdicts if v.method != "exact"]
    if not by_rep:
        return "exact"
    detail = "mod p at orders %s" % sorted({L for v in by_rep for L in v.orders})
    if len(by_rep) == len(verdicts):
        return detail
    return "exact on %d of %d generators, %s on the others" % (
        len(verdicts) - len(by_rep), len(verdicts), detail)


def suite_flipback(trials=DEFAULT_TRIALS, seed=0):
    rows = []
    for name, edge in FLIP_LIBRARY:
        T = surface_by_name(name)
        for side in ("shear", "skein"):
            final, comp, datas = compose_flips(
                T, [edge, "tmpflip"], side=side, new_labels=["tmpflip", edge]
            )
            verdicts = list(verify_generator_map_identity(
                comp, trials=trials, seed=seed).values())
            status = max((v.status for v in verdicts), key=_SEVERITY.get)
            rows.append(
                (
                    "flip-back %s %s at %s (%s)" % (side, name, edge,
                                                    datas[0].coincidence),
                    status if final.same_as(T) else "FAIL",
                    _generators_detail(verdicts),
                )
            )
    return rows


PENTAGON_SEQUENCE = ("e0_2", "e0_3", "e1_3", "e1_4", "e2_4")


def suite_pentagon(trials=DEFAULT_TRIALS, seed=0):
    P = polygon(5)
    final, comp, _ = compose_flips(P, list(PENTAGON_SEQUENCE), side="shear")
    rows = [_row("pentagon sequence closes", final.same_as(P))]
    for lab, v in verify_generator_map_identity(comp, trials=trials, seed=seed).items():
        rows.append(_row("pentagon identity on Y[%s]" % lab, v))
    return rows


def _flip_cases(kind, form):
    """((form % (curve name, edge), T, edge, curve), (T2, fd, curve2)) for
    each inner edge of each _flip_curves surface, in T.inner_edges order,
    flipped once to T2 with flip data fd, and each of its curves whose
    transport curve2 through that flip is of class kind."""
    for T, curves in _flip_curves():
        for edge in T.inner_edges:
            T2, fd = T.flip(edge)
            for name, alpha in curves:
                alpha2 = transport_curve(alpha, T, fd, T2)
                if classify(alpha2) == kind:
                    yield (form % (name, edge), T, edge, alpha), (T2, fd, alpha2)


def _naturality_cases():
    """((name, T, flip edge, curve), (T2, fd, curve2)) as _flip_cases gives
    them, with the curve simple before and after the flip."""
    return list(_flip_cases("simple", "%s / flip %s"))


def _naturality_walk():
    """(name, T, T2, fd, alpha, alpha2, transfer record) of each naturality
    case, with alpha2 the curve transported through the flip."""
    for (name, T, edge, alpha), (T2, fd, alpha2) in _naturality_cases():
        yield name, T, T2, fd, alpha, alpha2, knot_monomial_transfer(alpha2, T, edge, T2, fd)


def suite_naturality(trials=DEFAULT_TRIALS, seed=0):
    rows = []
    for name, T, T2, fd, alpha, alpha2, rec in _naturality_walk():
        tr1 = trace_simple(alpha, T)
        tr2 = trace_simple(alpha2, T2)
        lhs = theta_element(T, T2, fd, tr2.shear_side)
        v = verify_identity(
            lhs, [Expr.from_element(tr1.shear_side)], tr1.shear_side.spec,
            trials=trials, seed=seed,
        )
        rows.append(_row("naturality %s [%s]" % (name, rec.case), v))
        rows.append(_row("transfer exact %s" % name, rec.exact_ok))
    return rows


def _phased_cases():
    """((name, surface, flip edge, simple curve whose transport is
    almost-simple), (T2, fd, curve2)) as _flip_cases gives them,
    exercising the phase exponents u(s)."""
    cases = list(_flip_cases("almost-simple", "%s across flip %s"))
    # the (1,-1) curve is almost-simple on the before-variant lift and
    # becomes simple after flipping the doubly crossed edge; running the
    # flip in reverse exercises a doubly phased state sum
    ldb = lift(torus_one_marked(), variant="before")
    _, c = torus_curve("1,-1")
    cd = curve_lift(ldb, c)
    T2, fd = ldb.delta.flip("c")
    moved = transport_curve(cd, ldb.delta, fd, T2)
    T3, fd2 = T2.flip(fd.a_star)
    cases.append((("torus-lift (1,-1) across flip %s" % fd.a_star, T2, fd.a_star, moved),
                  (T3, fd2, transport_curve(moved, T2, fd2, T3))))
    return cases


def suite_phased_naturality(trials=DEFAULT_TRIALS, seed=0):
    """Skein-side naturality for curves that are almost-simple after the
    flip: the once-crossing trace, q-phases included, must equal the
    image of the simple-side state sum under the skein coordinate change.
    """
    rows = []
    for (name, T, edge, alpha), (T2, fd, alpha2) in _phased_cases():
        _, lhs_skein, _ = trace_once_edge(alpha2, T2)
        T3, fd2, phi2 = phi_flip(T2, fd.a_star, new_label=edge)
        if not T3.same_as(T):
            rows.append((name, "FAIL", "flip-back does not close"))
            continue
        alpha3 = transport_curve(alpha2, T2, fd2, T3)
        tr3 = trace_simple(alpha3, T3)
        rhs = phi2.apply_element(tr3.skein_side)
        v = verify_identity(
            Expr.from_element(lhs_skein), rhs, lhs_skein.spec, trials=trials, seed=seed
        )
        rows.append(_row("phased naturality %s" % name, v))
    return rows


def _dia9_rows(T, edge):
    """(flip data, label v, sign, Theta(Y_v^sign), psi o Theta(Y_v^sign),
    Phi o psi(Y_v^sign)) for each label v of the flip at edge, sorted, with
    sign the side on which the Theta image is polynomial."""
    T2, fd, theta = theta_flip(T, edge)
    b1, b2 = ShearSkein.of(T), ShearSkein.of(T2)
    _, _, phi = phi_flip_from_data(T, T2, fd)
    for v in sorted(theta.source.labels):
        pos = theta.image_of_generator(v, 1)
        sign = 1 if pos.is_polynomial() else -1
        th = pos if sign == 1 else theta.image_of_generator(v, -1)
        lhs = th.map_elements(lambda el: Expr.from_element(b1.psi(el)))
        rhs = phi.apply_element(b2.psi(TorusElement.generator(b2.y, v, 2 * sign)))
        yield fd, v, sign, th, lhs, rhs


def suite_dia9(trials=DEFAULT_TRIALS, seed=0):
    """psi o Theta = Phi o psi on the squared shear generators.

    Verified on the side where the Theta image is polynomial, so the
    check uses only forward actions."""
    return [_row("dia9 %s at %s on Y[%s]^%+d" % (name, edge, v, sign),
                 verify_identity(lhs, rhs, lhs.spec, trials=trials, seed=seed))
            for name, edge in FLIP_LIBRARY
            for _, v, sign, _, lhs, rhs in _dia9_rows(surface_by_name(name), edge)]


def suite_transfer():
    """The knot-monomial identities, exact where polynomial."""
    rows = []
    cases = library_simple_curves()
    # an almost-simple instance on the torus lift
    lam, c = torus_curve("1,-1")
    ld = lift(lam, variant="before")
    cases.append(("torus-lift (1,-1) almost-simple", ld.delta, curve_lift(ld, c)))
    for name, T, alpha in cases:
        try:
            psi_image_of_knot_monomial(alpha, T)
            rows.append(_row("psi(y^k)=X^eps %s" % name, True))
        except AssertionError as exc:
            rows.append(_row("psi(y^k)=X^eps %s" % name, False, str(exc)))
    for name, *_, rec in _naturality_walk():
        rows.append(_row("transfer %s [%s]" % (name, rec.case), rec.exact_ok))
    return rows


def suite_punctured():
    rows = []
    lam, c10 = torus_curve("1,0")
    shears = []
    for variant in ("after", "before"):
        ld = lift(lam, variant=variant)
        res = bar_trace(ld, c10)
        rows.append(_row("punctured trace cross-check (%s lift)" % variant,
                         res.cross_checked,
                         "%d states" % res.state_count))
        rows.append(_row("punctured trace unit coefficients (%s)" % variant,
                         res.shear_side.has_unit_coefficients()))
        shears.append(res.shear_side)
    rows.append(_row("torus lift independence", shears[0] == shears[1]))
    sph = sphere_three_marked()
    for pair in ("12", "23", "13"):
        _, c = sphere_curve(pair)
        sides = []
        for variant in ("after", "before"):
            res = bar_trace(lift(sph, variant=variant), c)
            sides.append(res.shear_side)
            if variant == "after":
                rows.append(_row("punctured sphere loop %s cross-check" % pair,
                                 res.cross_checked,
                                 "%d states" % res.state_count))
        rows.append(_row("sphere loop %s lift independence" % pair,
                         sides[0] == sides[1]))
    return rows


def suite_negative(trials=DEFAULT_TRIALS, seed=0):
    """A corrupted coordinate change must FAIL at some root order."""
    A = annulus()
    b1 = ShearSkein.of(A)
    # the row of the doubled inner edge fd.b, whose sign is +1
    _, _, _, th, _, rhs = next(row for row in _dia9_rows(A, "d1") if row[1] == row[0].b)
    el = th.as_element()
    # multiply one coefficient by q^(1/8)
    (k0, c0) = sorted(el.terms.items())[0]
    bad = TorusElement(b1.y, {**el.terms, k0: c0 * Laurent.q_power(1)})
    lhs = Expr.from_element(b1.psi(bad))
    verdict = verify_identity(lhs, rhs, b1.x, trials=trials, seed=seed)
    return [_row("negative control (corrupted Theta image)", verdict.status == "FAIL",
                 "verdict on corrupted identity: %s" % verdict.status)]


SUITES = {
    "duality": suite_duality,
    "trace": suite_trace,
    "balanced": suite_balanced,
    "flipback": suite_flipback,
    "pentagon": suite_pentagon,
    "naturality": suite_naturality,
    "phased": suite_phased_naturality,
    "dia9": suite_dia9,
    "transfer": suite_transfer,
    "punctured": suite_punctured,
    "negative": suite_negative,
}
