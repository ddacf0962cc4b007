"""The admissible-state walk and the u(s) form against brute force.

The references here do not reuse the code under test: admissibility is
restated as a filter over all 2^n value tuples, the state count as the
trace of a product of 2x2 0/1 transfer matrices, and u(s) is summed state
by state through u_split_parts, which lives here as the tests' own
oracle.  state_sum, a frontier walk that never lists a state, is pinned
to the per-state helpers summed one state at a time on every base edge,
and past brute force to the transfer-matrix count, balancedness and
psi(t t) = psi(t) psi(t).
"""

from fractions import Fraction
from itertools import product

import pytest

from qskein import curves
from qskein.curves import (
    CurveError,
    NormalCurve,
    _base_crossing,
    enumerate_states,
    state_exponents,
    state_sum,
    transport_curve,
    u_of_state,
)
from qskein.library import annulus_core, sphere_curve, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement, TorusSpec
from qskein.shear import ShearSkein, is_balanced, shear_spec
from qskein.surface import SurfaceError, sphere_three_marked, torus_one_marked
from test_bench_jobs import bench  # noqa: F401  (the perfbench modules, as a fixture)


def _local_face(slot1, slot2):
    """The local face pairing of two slots of one triangle."""
    return {(slot1 + 1) % 3: 1, (slot1 + 2) % 3: -1}.get(slot2, 0)


def rotated(alpha, r):
    """alpha with its steps read from step r on."""
    n = len(alpha.steps)
    return NormalCurve(alpha.T, [alpha.steps[(i + r) % n] for i in range(n)])


def u_split_parts(alpha, values, base_edge=None):
    """(u1, u2) with u = u1 + u2: the normalized-pair part over the curve
    intervals and the reordering part over all lifted pairs.

    Evaluated state by state on the curve rotated to its base crossing,
    independently of the form behind u_of_state, which it checks.
    """
    r = _base_crossing(alpha, base_edge) + 1
    rot = rotated(alpha, r)
    n = len(alpha.steps)
    vals = tuple(values[(r + i) % n] for i in range(n))
    pts = []
    for idx, (t, i, o) in enumerate(rot.steps):
        pts.append((t, i, vals[(idx - 1) % n], idx))
        pts.append((t, o, vals[idx], idx))
    u1_2 = 0
    for idx, (t, i, o) in enumerate(rot.steps):
        u1_2 += _local_face(i, o) * vals[(idx - 1) % n] * vals[idx]
    u2_2 = 0
    for x in range(len(pts)):
        for y in range(x + 1, len(pts)):
            t1, s1, v1, _ = pts[x]
            t2, s2, v2, _ = pts[y]
            if t1 != t2:
                continue
            u2_2 -= _local_face(s1, s2) * v1 * v2
    return Fraction(u1_2, 2), Fraction(u2_2, 2)


# forbidden (value at the ccw-first edge, value at the ccw-second edge)
FORBIDDEN = (1, -1)
MAX_CROSSINGS = 14


def _corner_pair(step, vin, vout):
    _, i, o = step
    return (vin, vout) if o == (i + 1) % 3 else (vout, vin)


def brute_states(alpha):
    n = len(alpha.steps)
    return [
        values for values in product((1, -1), repeat=n)
        if all(_corner_pair(step, values[j - 1], values[j]) != FORBIDDEN
               for j, step in enumerate(alpha.steps))
    ]


def transfer_count(alpha):
    prod = [[1, 0], [0, 1]]
    for step in alpha.steps:
        M = [[int(_corner_pair(step, a, b) != FORBIDDEN) for b in (1, -1)]
             for a in (1, -1)]
        prod = [[sum(prod[r][k] * M[k][c] for k in range(2)) for c in range(2)]
                for r in range(2)]
    return prod[0][0] + prod[1][1]


def greedy_walk(T, alpha, top=MAX_CROSSINGS, once=False):
    """Curves met by flipping, at each stage, the first edge that most
    increases the crossing count, up to top crossings; with once, only
    flips that leave some edge crossed once count."""
    out = [alpha]
    while True:
        best = None
        for edge in T.inner_edges:
            try:
                T2, fd = T.flip(edge)
                moved = transport_curve(alpha, T, fd, T2)
            except (SurfaceError, CurveError):
                continue
            if once and 1 not in moved.multiplicities().values():
                continue
            size = len(moved.steps)
            if len(alpha.steps) < size <= top and (
                    best is None or size > len(best[1].steps)):
                best = (T2, moved)
        if best is None:
            return out
        T, alpha = best
        out.append(alpha)


TORUS_SLOPES = ("1,0", "0,1", "1,1", "1,-1")
SPHERE_PAIRS = ("12", "23", "13")


def oracle_curves():
    curves = [annulus_core()[1]]
    curves += [torus_curve(s)[1] for s in TORUS_SLOPES]
    curves += [sphere_curve(p)[1] for p in SPHERE_PAIRS]
    starts = [(torus_one_marked, torus_curve, TORUS_SLOPES),
              (sphere_three_marked, sphere_curve, SPHERE_PAIRS)]
    for surface, curve, names in starts:
        for variant in ("after", "before"):
            ld = lift(surface(), variant=variant)
            for name in names:
                lifted = curve_lift(ld, curve(name)[1])
                curves += greedy_walk(ld.delta, lifted)
    return curves


CURVES = oracle_curves()


def test_walk_equals_brute_force_filter_in_order():
    assert max(len(alpha.steps) for alpha in CURVES) == MAX_CROSSINGS
    for alpha in CURVES:
        states = enumerate_states(alpha)
        assert isinstance(states, list)
        assert states == brute_states(alpha)
        assert len(states) == transfer_count(alpha)


def test_u_form_equals_split_parts_on_every_state():
    checked = 0
    for alpha in CURVES:
        once = sorted(e for e, m in alpha.multiplicities().items() if m == 1)
        if not once:
            continue                    # u(s) needs an edge crossed once
        for base in [None] + once:
            for s in enumerate_states(alpha):
                assert u_of_state(alpha, s, base) == sum(u_split_parts(alpha, s, base))
                checked += 1
    assert checked > 1000


def per_state_sum(alpha, spec, base=None):
    """sum_s q^(u(s)) y^(k_s), one admissible state at a time."""
    out = TorusElement.zero(spec)
    for s in enumerate_states(alpha):
        n8 = 8 * u_of_state(alpha, s, base)
        assert n8.denominator == 1
        k = state_exponents(alpha, s, spec.labels)
        out = out + TorusElement.monomial(spec, k, Laurent.q_power(int(n8)))
    return out


def test_state_sum_equals_per_state_sum():
    checked = 0
    for alpha in CURVES:
        spec = shear_spec(alpha.T)
        once = sorted(e for e, m in alpha.multiplicities().items() if m == 1)
        if not once:
            # u(s) needs an edge crossed once
            with pytest.raises(CurveError, match="crossed exactly once"):
                state_sum(alpha, alpha.T, spec)
            continue
        count = len(enumerate_states(alpha))
        for base in [None] + once:
            assert state_sum(alpha, alpha.T, spec, base) == (
                per_state_sum(alpha, spec, base), count)
            checked += 1
    assert checked == 274


def test_state_sum_past_brute_force():
    # a greedy-walk curve of 24 crossings has 34,723 states
    ld = lift(torus_one_marked())
    alpha = greedy_walk(ld.delta, curve_lift(ld, torus_curve("1,0")[1]),
                        top=24, once=True)[-1]
    assert len(alpha.steps) == 24
    bundle = ShearSkein(alpha.T)
    element, count = state_sum(alpha, alpha.T, bundle.y)
    assert count == transfer_count(alpha) == 34723
    assert all(is_balanced(k, alpha.T) for k in element.terms)
    image = bundle.psi(element)
    assert bundle.psi(element * element) == image * image


def test_state_sum_rejects_an_edge_outside_the_labels():
    alpha = next(a for a in CURVES if 1 in a.multiplicities().values())
    spec = shear_spec(alpha.T)
    crossed = alpha.crossing_edges()[0]
    keep = [i for i, lab in enumerate(spec.labels) if lab != crossed]
    narrow = TorusSpec([spec.labels[i] for i in keep], spec.A[keep][:, keep],
                       spec.u_eighth)
    with pytest.raises(CurveError, match="outside the label set"):
        state_sum(alpha, alpha.T, narrow)
    with pytest.raises(CurveError, match="outside the label set"):
        state_exponents(alpha, enumerate_states(alpha)[0], narrow.labels)


def test_state_sum_raises_on_an_unbalanced_exponent(monkeypatch):
    # both crossings of the annulus core read into one slot leave each k_s a
    # single +-1, and each triangle holds both inner edges, so none is
    # balanced; one parity product over all of them must find it
    T, core = annulus_core()
    spec = shear_spec(T)
    element, _ = state_sum(core, T, spec)
    assert all(is_balanced(k, T) for k in element.terms)
    slots = curves._crossing_slots
    monkeypatch.setattr(curves, "_crossing_slots",
                        lambda alpha, index: slots(alpha, index)[-1:] * len(alpha.steps))
    with pytest.raises(AssertionError, match="not balanced"):
        state_sum(core, T, spec)


def state_layout(element, count):
    """Keys in order, each coefficient's terms in order, and the count."""
    return [(k, list(c.terms.items())) for k, c in element.terms.items()], count


def test_state_sums_leave_each_other_unchanged(bench):
    # a frontier entry's children share its count map and only a merge
    # builds a new one; on the tiny rung 'rung (1,0) a b' (7 crossings,
    # either base edge) a map that a merge built is shared by the next
    # step's children and merged into again, which must copy it, since a
    # write would change every entry that shares it
    _, _, workloads = bench
    # each traces job runs _trace_rung(alpha, T, ...)
    rungs = {job.key: job.run.args[0] for job in workloads.build("traces", 0, tiny=True)}
    assert len(rungs["rung (1,0) a b"].steps) == 7
    checked = 0
    for alpha in [*rungs.values(), *(torus_curve(s)[1] for s in TORUS_SLOPES)]:
        spec = shear_spec(alpha.T)
        once = sorted(e for e, m in alpha.multiplicities().items() if m == 1)
        a, b = once[0], once[-1]
        first = state_sum(alpha, alpha.T, spec, a)
        seen = state_layout(*first)
        state_sum(alpha, alpha.T, spec, b)
        again = state_sum(alpha, alpha.T, spec, a)
        assert again == first
        assert state_layout(*again) == state_layout(*first) == seen
        checked += a != b
    assert checked == len(rungs) + len(TORUS_SLOPES) - 5
