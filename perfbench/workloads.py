"""Seeded inputs and jobs of the three workloads.

Building a workload is its set-up: every surface, curve, identity and
flip sequence is made here from the seed.  A job is one call chain into
qskein's public entry points; it returns an exact output that the job's
own check then inspects.  Jobs reach the library through module
attributes (``repcheck.verify_identity``), so the tracer's wrappers see
them.  ``tiny=True`` gives the reduced job lists the benchmark's tests use.

Wherever the seed picks an input, it picks from a finite list, and
``every=True`` takes the whole list instead: that is how golden.json covers
every input that any seed can draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from qskein import coordinate_change as cc
from qskein import curves as qcurves
from qskein import repcheck
from qskein import trace as qtrace
from qskein.coordinate_change import Expr
from qskein.curves import CurveError, classify
from qskein.library import annulus_core, surface_by_name, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.shear import ShearSkein
from qskein.surface import SurfaceError, torus_one_marked

import checks

TRIALS = 20                    # the CLI default number of random vectors

# single flips whose shear/skein squares are the dia9 identities
FLIP_LIBRARY = (
    ("polygon4", "e0_2"), ("polygon5", "e0_2"), ("polygon5", "e0_3"),
    ("polygon6", "e0_3"), ("annulus", "d1"), ("annulus", "d2"),
)
PENTAGON = ("e0_2", "e0_3", "e1_3", "e1_4", "e2_4")
# flip edge -> slopes of torus curves simple before and after that flip
NATURALITY_SLOPES = {
    "a": ("0,1", "1,1"), "b": ("1,0", "1,1"),
    "c": ("1,0", "0,1", "1,1"), "g0": ("1,0", "0,1", "1,1"),
}
TORUS_SLOPES = ("1,0", "0,1", "1,1")


@dataclass
class Job:
    key: str                            # input identity; golden digests use it
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object]
    top: bool = False                   # the top rung of the workload's ladder


def build(name, seed, tiny=False, every=False):
    rng = random.Random(seed)
    pick = list if every else (lambda options: [rng.choice(options)])
    return BUILDERS[name](seed, pick, tiny)


# ---------------------------------------------------------------------------
# certify: one job certifies one identity


def _verify(lhs, rhs, spec, seed):
    return repcheck.verify_identity(lhs, rhs, spec, trials=TRIALS, seed=seed)


def _status_job(key, lhs, rhs, spec, seed, expected, top=False):
    return Job(key, partial(_verify, lhs, rhs, spec, seed),
               partial(checks.check_status, expected=expected),
               lambda verdict: verdict.status, top)


def _dia9_identities():
    """(key, lhs, rhs, torus, label count) of every dia9 row, built the way
    the dia9 suite builds them: psi o Theta against Phi o psi."""
    rows = []
    for name, edge in FLIP_LIBRARY:
        T = surface_by_name(name)
        b1 = ShearSkein(T)
        T2, fd, theta = cc.theta_flip(T, edge)
        b2 = ShearSkein(T2)
        _, _, phi = cc.phi_flip_from_data(T, T2, fd, bundles=(b1, b2))
        for v in sorted(theta.source.labels):
            if v in theta.images:
                pos, neg = theta.images[v]
                sign = 1 if pos.is_polynomial() else -1
                th = pos if sign == 1 else neg
            else:
                sign, th = 1, theta.image_of_generator(v, 1)
            lhs = th.map_elements(lambda el, b=b1: Expr.from_element(b.psi(el)))
            rhs = phi.apply_element(b2.psi(TorusElement.generator(b2.y, v, 2 * sign)))
            width = len(lhs.support_labels() | rhs.support_labels())
            rows.append(("dia9 %s at %s on Y[%s]^%+d" % (name, edge, v, sign),
                         lhs, rhs, b1.x, width))
    return rows


def _naturality_identities():
    """(key, lhs, rhs, torus) of the twelve trace naturality identities."""
    A, core = annulus_core()
    cases = [("annulus core / flip %s" % e, A, e, core) for e in ("d1", "d2")]
    ld = lift(torus_one_marked())
    for edge, slopes in NATURALITY_SLOPES.items():
        for slope in slopes:
            cases.append(("torus-lift (%s) / flip %s" % (slope, edge), ld.delta, edge,
                          curve_lift(ld, torus_curve(slope)[1])))
    out = []
    for key, T, edge, alpha in cases:
        b1 = ShearSkein(T)
        T2, fd, theta = cc.theta_flip(T, edge)
        b2 = ShearSkein(T2)
        alpha2 = qcurves.transport_curve(alpha, T, fd, T2)
        tr1 = qtrace.trace_simple(alpha, T, b1)
        tr2 = qtrace.trace_simple(alpha2, T2, b2)
        rec = cc.knot_monomial_transfer(alpha2, T, edge, T2=T2, fd=fd)
        lhs = cc.theta_on_balanced(theta, rec, tr2.shear_side)
        out.append(("naturality " + key, lhs, [Expr.from_element(tr1.shear_side)], b1.y))
    return out


def _corrupted_theta():
    """The annulus dia9 identity with one Theta coefficient times q^(1/8)."""
    A = surface_by_name("annulus")
    b1 = ShearSkein(A)
    T2, fd, theta = cc.theta_flip(A, "d1")
    b2 = ShearSkein(T2)
    _, _, phi = cc.phi_flip_from_data(A, T2, fd, bundles=(b1, b2))
    el = theta.images[fd.b][0].as_element()
    k0, c0 = sorted(el.terms.items())[0]
    bad = TorusElement(b1.y, {**el.terms, k0: c0 * Laurent.q_power(1)})
    lhs = Expr.from_element(b1.psi(bad))
    rhs = phi.apply_element(b2.psi(TorusElement.generator(b2.y, fd.b, 2)))
    return lhs, rhs, b1.x


def build_certify(seed, pick, tiny=False):
    dia9 = _dia9_identities()
    narrow = [row for row in dia9 if row[4] < 7]
    # rows on the 7-label skein torus of polygon5/6 are alike; one per run
    wide = pick([row for row in dia9 if row[4] >= 7])
    naturality = _naturality_identities()
    if tiny:
        narrow, naturality, wide = narrow[:3], naturality[:2], []
    jobs = [_status_job(key, lhs, rhs, spec, seed, "PASS")
            for key, lhs, rhs, spec, _ in narrow]
    jobs += [_status_job(key, lhs, rhs, spec, seed, "PASS", top=True)
             for key, lhs, rhs, spec, _ in wide]
    jobs += [_status_job(key, lhs, rhs, spec, seed, "PASS")
             for key, lhs, rhs, spec in naturality]
    jobs.append(_status_job("negative control: corrupted Theta image",
                            *_corrupted_theta(), seed, "FAIL"))
    return jobs


# ---------------------------------------------------------------------------
# flipwalk: one job composes one closed flip sequence and verifies it


def _closed_walk(T, edges, labels, side, seed):
    final, comp, _ = cc.compose_flips(T, list(edges), side=side, new_labels=labels)
    verdicts = repcheck.verify_generator_map_identity(comp, trials=TRIALS, seed=seed)
    return final.same_as(T), verdicts


def _walk_job(key, T, edges, labels, side, seed, top=False):
    return Job(key, partial(_closed_walk, T, edges, labels, side, seed),
               checks.check_composite, checks.composite_digest, top)


def closed_walks(T, k, last=None):
    """(edges, labels) of every walk of k flips that never flips the
    diagonal just created, followed by their reverse, which restores every
    label.  With k = 1 these are the flip-backs: flip an edge, then flip the
    new diagonal back under the old label."""
    if k == 0:
        return [([], [])]
    walks = []
    for edge in T.inner_edges:
        if edge == last:
            continue
        T2, fd = T.flip(edge)
        for edges, labels in closed_walks(T2, k - 1, fd.a_star):
            walks.append(([edge, *edges, fd.a_star], [fd.a_star, *labels, edge]))
    return walks


def _corrupted_composite(T, edges, labels, seed):
    """A closed walk's composite with one coefficient times q^(1/8)."""
    _, comp, _ = cc.compose_flips(T, list(edges), side="shear", new_labels=labels)
    lab = sorted(comp.source.labels)[0]
    img = comp.image_of_generator(lab, 1)
    (c0, factors), rest = img.words[0], img.words[1:]
    bad = Expr(img.spec, ((c0 * Laurent.q_power(1), factors),) + rest)
    want = Expr.from_element(TorusElement.generator(comp.target, lab, comp.gen_exponent))
    return repcheck.verify_identity(bad, want, comp.target, trials=TRIALS, seed=seed)


SKEIN_FLIPBACKS = tuple(row for row in FLIP_LIBRARY if row[0].startswith("polygon"))


def build_flipwalk(seed, pick, tiny=False):
    P5 = surface_by_name("polygon5")
    jobs = []
    if not tiny:
        jobs.append(_walk_job("pentagon " + " ".join(PENTAGON), P5, PENTAGON, None,
                              "shear", seed, top=True))
    # every one-flip walk and every two-flip walk on polygon5, so that the
    # seed does not change their cost (up to 3 times apart); two-flip walks
    # only on polygon5, because some on polygon6 and polygon7 take minutes
    for n in (5,) if tiny else (5, 6, 7):
        T = surface_by_name("polygon%d" % n)
        for edges, labels in closed_walks(T, 1):
            jobs.append(_walk_job("walk polygon%d %s" % (n, " ".join(edges)), T,
                                  edges, labels, "shear", seed))
    if not tiny:
        for edges, labels in closed_walks(P5, 2):
            jobs.append(_walk_job("walk polygon5 " + " ".join(edges), P5, edges, labels,
                                  "shear", seed))
    # one skein-side flip-back, the same for every seed: the four on
    # polygon4-6 differ by up to 25 % in cost
    for name, edge in [("annulus", "d1")] if tiny else SKEIN_FLIPBACKS[:1]:
        jobs.append(_walk_job("skein flip-back %s at %s" % (name, edge),
                              surface_by_name(name), (edge, "tmpflip"), ["tmpflip", edge],
                              "skein", seed))
    for edges, labels in closed_walks(P5, 1):
        jobs.append(Job("negative control: corrupted composite " + " ".join(edges),
                        partial(_corrupted_composite, P5, edges, labels, seed),
                        partial(checks.check_status, expected="FAIL"),
                        lambda verdict: verdict.status))
    return jobs


# ---------------------------------------------------------------------------
# traces: one job is one rung of a greedy flip walk of a torus curve


# crossing counts of the rungs that become jobs; every greedy walk from the
# three start curves passes through each of them
RUNG_CROSSINGS = (3, 5, 7, 9, 12, 14)


def greedy_walks(top):
    """Every greedy flip walk on the lifted one-marked torus, each a list of
    curves (key, surface, curve).  A walk starts from the lift of a (1,0),
    (0,1) or (1,1) curve; each flip maximizes the crossing count while
    keeping some edge crossed once, until the curve has top crossings.  A
    tie between flips branches the walk."""
    ld = lift(torus_one_marked())
    walks = []

    def extend(walk, flipped, T, alpha):
        best, size = [], len(alpha.steps)
        for edge in T.inner_edges if size < top else ():
            try:
                T2, fd = T.flip(edge)
                moved = qcurves.transport_curve(alpha, T, fd, T2)
            except (SurfaceError, CurveError):
                continue
            if 1 not in moved.multiplicities().values():
                continue
            if len(moved.steps) > size:
                best, size = [], len(moved.steps)
            if len(moved.steps) == size:
                best.append((edge, T2, moved))
        if not best:
            walks.append(walk)
        for edge, T2, moved in best:
            key = " ".join([walk[0][0], *flipped, edge])
            extend(walk + [(key, T2, moved)], flipped + [edge], T2, moved)

    for slope in TORUS_SLOPES:
        T, alpha = ld.delta, curve_lift(ld, torus_curve(slope)[1])
        extend([("rung (%s)" % slope, T, alpha)], [], T, alpha)
    return walks


def ladder(walk, crossings):
    """The first curve of the walk at or above each of the crossing counts,
    without repeats."""
    rungs = []
    for target in crossings:
        rung = next(r for r in walk if len(r[2].steps) >= target)
        if rung not in rungs:
            rungs.append(rung)
    return rungs


def _psi(bundle, el):
    # looked up at call time: a check made after a traced pass must not run
    # through the tracer's wrapper, which counts the check as program work
    return ShearSkein.psi(bundle, el)


def _trace_rung(alpha, T, bundle, simple):
    shear, skein, states = qtrace.trace_once_edge(alpha, T, bundle=bundle)
    out = {"shear": shear, "skein": skein, "states": states,
           "shear_sq": shear * shear, "skein_sq": skein * skein, "simple": None}
    if simple:
        out["simple"] = (qtrace.trace_simple(alpha, T, bundle).skein_side,
                         qtrace.oracle_resolution(alpha, T, bundle))
    return out


def build_traces(seed, pick, tiny=False):
    """Every walk's rungs up to 14 crossings (9 when tiny), and the first
    walk's 18-crossing rung (12 when tiny) as the top rung.  The seed picks
    nothing: the eight walks differ by up to 1.9 times in cost at the top
    rung, so a seed-picked walk would change the work of a run."""
    top = 12 if tiny else 18
    below = RUNG_CROSSINGS[:4] if tiny else RUNG_CROSSINGS
    jobs = {}
    for index, walk in enumerate(greedy_walks(top)):
        rungs = ladder(walk, below + (top,) if index == 0 else below)
        for key, T, alpha in rungs:
            if key in jobs:
                continue
            bundle = ShearSkein(T)
            jobs[key] = Job(
                key,
                partial(_trace_rung, alpha, T, bundle, classify(alpha) == "simple"),
                partial(checks.check_trace_rung, alpha, psi=partial(_psi, bundle)),
                checks.trace_digest,
                top=index == 0 and key == rungs[-1][0],
            )
    return list(jobs.values())


BUILDERS = {"certify": build_certify, "flipwalk": build_flipwalk, "traces": build_traces}
