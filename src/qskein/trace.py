"""Quantum traces of normal curves.

Three routes into the quantum torus are implemented.  The trace suite
checks trace_simple against oracle_resolution, the one route independent
of the state sum; trace_once_edge makes the same state_sum call and maps
it through the same psi, so it cannot disagree with trace_simple:

* trace_simple: curves.state_sum on a simple curve, where every phase
  u(s) vanishes, plus the simple-curve checks: the shear image sum_s y^s
  and the skein image sum_s x^(sH) have unit coefficients, no two states
  collide in the skein image, and its exponents are even.

* oracle_resolution: an independent computation following the crossing
  resolution of the curve against the union of crossed edges.  Every
  coloring picks a smoothing; its resolved link is a product of one arc
  per crossed triangle, read off a fixed 4-row table, multiplied by the
  inverse of the edge monomial.  Each term is pinned to a bare normalized
  monomial by reflection invariance.

* trace_once_edge: the once-crossing formula sum_s q^(u(s)) y^(k_s) for
  curves with an edge of multiplicity one, with the phase u(s) computed
  on the split surface.

curves.state_sum is behind every trace, the punctured trace too.  It is
a frontier walk over the curve's steps with per-side partial sums, so it
never lists a state; curves.enumerate_states serves only the CLI's state
listing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qscalar import Laurent
from .qtorus import TorusElement
from .curves import CurveError, FORBIDDEN, classify, epsilon_vector, state_sum
from .shear import ShearSkein


@dataclass
class TraceResult:
    skein_side: TorusElement
    shear_side: TorusElement
    state_count: int


def _require_normal(alpha, T):
    for e in alpha.crossed_edges():
        if e not in T.inner_edges:
            raise CurveError("curve crosses non-inner edge %s" % e)


def trace_simple(alpha, T, bundle=None):
    """State-sum trace of a simple normal curve on a marked surface."""
    if classify(alpha) != "simple":
        raise CurveError("trace_simple needs a simple curve")
    _require_normal(alpha, T)
    bundle = bundle or ShearSkein.of(T)
    shear, count = state_sum(alpha, T, bundle.y)
    skein = bundle.psi(shear)
    if not (shear.has_unit_coefficients() and skein.has_unit_coefficients()):
        raise AssertionError("a simple-curve trace has a non-unit coefficient")
    if len(skein.terms) != count:
        raise AssertionError("distinct states collide in the skein image")
    if any(v % 2 for k in skein.terms for v in k):
        raise AssertionError("sH has an odd entry")
    if not skein.is_reflection_invariant():
        raise AssertionError("the skein image is not reflection invariant")
    return TraceResult(skein, shear, count)


# the resolution table: value pair at the corner (ccw-first, ccw-second)
# -> the arc left in the triangle, as one of its three edges.  The pair
# FORBIDDEN resolves to the trivial arc, killing the term.


def _resolved_arc(T, step, vfirst, vsecond):
    t, i, o = step
    first, second = (i, o) if o == (i + 1) % 3 else (o, i)
    third = 3 - first - second
    if (vfirst, vsecond) == FORBIDDEN:
        return None
    if (vfirst, vsecond) == (-FORBIDDEN[0], -FORBIDDEN[1]):
        return T.side_edge[T.triangles[t][third]]
    plus_slot, minus_slot = (
        (first, second) if FORBIDDEN[0] == 1 else (second, first)
    )
    if vfirst == vsecond == 1:
        return T.side_edge[T.triangles[t][minus_slot]]
    return T.side_edge[T.triangles[t][plus_slot]]


def oracle_resolution(alpha, T, bundle=None):
    """Resolve the curve against the union E of crossed edges.

    Independent of trace_simple: admissibility arises from the table row
    that kills a term, and the exponent of each surviving term comes from
    per-triangle arcs and the monomial E^(-1), not from the matrix H.
    """
    if classify(alpha) != "simple":
        raise CurveError("the resolution oracle needs a simple curve")
    _require_normal(alpha, T)
    bundle = bundle or ShearSkein.of(T)
    spec = bundle.x
    n = len(alpha.steps)
    edges = alpha.crossing_edges()
    kE = spec.vec({e: 1 for e in edges})

    total = TorusElement.zero(spec)
    for bits in range(1 << n):
        values = tuple(1 if (bits >> j) & 1 else -1 for j in range(n))
        arcs = []
        dead = False
        for j, step in enumerate(alpha.steps):
            vin = values[(j - 1) % n]
            vout = values[j]
            t, i, o = step
            if o == (i + 1) % 3:
                vfirst, vsecond = vin, vout
            else:
                vfirst, vsecond = vout, vin
            arc = _resolved_arc(T, step, vfirst, vsecond)
            if arc is None:
                dead = True
                break
            arcs.append(arc)
        if dead:
            continue
        kL = [0] * len(spec.labels)
        for arc in arcs:
            kL[spec.index[arc]] += 1
        # q^(|C|) L_C E^(-1), then the reflection argument pins the term
        # to the bare normalized monomial of its exponent vector
        norm = Laurent.q_power(8 * sum(values))
        term = TorusElement.monomial(spec, tuple(2 * a for a in kL), norm)
        term = term * TorusElement.monomial(spec, tuple(-2 * a for a in kE))
        term = _strip_phase(term)
        total = total + term
    return total


def _strip_phase(mono):
    """Replace the q-power coefficient of a one-term element by 1."""
    (k, c), = mono.terms.items()
    if c.as_monomial() is None or abs(c.as_monomial()[0]) != 1:
        raise AssertionError("resolution term is not a q-power multiple")
    return TorusElement.monomial(mono.spec, k)


def trace_once_edge(alpha, T, base_edge=None, bundle=None):
    """The trace sum_s q^(u(s)) y^(k_s) for a curve crossing some edge once.

    Returns (shear element of Y(Delta), its skein image, state count).
    """
    _require_normal(alpha, T)
    bundle = bundle or ShearSkein.of(T)
    shear, count = state_sum(alpha, T, bundle.y, base_edge)
    return shear, bundle.psi(shear), count


def psi_image_of_knot_monomial(alpha, T):
    """psi(y^(k_alpha)) for a simple or almost-simple curve, checked
    against the crossing-pattern monomial X^(eps_alpha)."""
    kind = classify(alpha)
    if kind not in ("simple", "almost-simple"):
        raise CurveError("needs a simple or almost-simple curve")
    _require_normal(alpha, T)
    bundle = ShearSkein.of(T)
    mult = alpha.multiplicities()
    k = bundle.y.vec(mult)
    img = bundle.psi_vec(k)
    eps = epsilon_vector(alpha, bundle.x.labels)
    expected = TorusElement.monomial(bundle.x, tuple(2 * e for e in eps))
    if img != expected:
        raise AssertionError(
            "psi(y^k_alpha) = %s differs from X^eps = %s" % (img, expected)
        )
    if kind == "almost-simple":
        double = [e for e, m in mult.items() if m == 2][0]
        [kk] = list(img.terms)
        if kk[bundle.x.index[double]] != 0:
            raise AssertionError("doubly crossed edge appears in the image")
    return img, eps
