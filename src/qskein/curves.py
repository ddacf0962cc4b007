"""Normal closed curves on a triangulated surface.

A curve is a cyclic sequence of steps (triangle, in-side, out-side); each
consecutive pair of steps crosses the edge glueing them.  A connected
normal curve is fixed by its edge weights (NormalCurve.from_weights),
and transport_curve carries them through a flip by the tropical Ptolemy
rule.  The module also provides the admissible states of the state sum,
crossing patterns, and the phase exponent u(s) of the once-crossing trace.

Corner convention.  Inside a triangle with counterclockwise side cycle
(..., x, y, ...) a curve segment cutting the corner between x and y sees
the ordered pair (x, y) where y follows x.  The forbidden value pair on
(value at x, value at y) is FORBIDDEN below; the choice is pinned by the
requirement that u(s) vanishes on admissible states of simple curves
(equivalently, that the assembled trace is natural under flips).  The
opposite choice amounts to reversing the orientation of every surface.

State sum.  Crossing j sits between step j and step j+1, so admissibility
is a cyclic chain: step j forbids one value pair on crossings (j-1, j).
u(s) is an integer quadratic form in the state, 2 u(s) = -s^T W s, and W
is a sum of triangle-local face pairings, so the state sum needs no whole
state: state_sum takes the rows of one step table (_step_table) once from
the base crossing, keeping a frontier of (per-side partial sums, first
value, current value) with a count per value of 2 u so far, held as an
offset on a count map that children share until two paths merge.  Its
work grows with the frontier, not with the number of states.  u_of_state
runs the same rows on one state, for the tests and the benchmark tracer's
hook.
state_sum is behind every trace; enumerate_states lists the states one at
a time for the CLI's state listing only.
"""

from __future__ import annotations

from fractions import Fraction

from .qscalar import Laurent
from .qtorus import _element
from .shear import odd_rows

# forbidden (value at ccw-first edge, value at ccw-second edge)
FORBIDDEN = (1, -1)


class CurveError(ValueError):
    pass


class NormalCurve:
    """Cyclic list of steps (triangle index, in slot, out slot)."""

    def __init__(self, T, steps):
        self.T = T
        norm = []
        for tri, i, o in steps:
            tri, i, o = int(tri), int(i), int(o)
            if not (0 <= tri < len(T.triangles)):
                raise CurveError("bad triangle index %d" % tri)
            if i == o or not (0 <= i < 3 and 0 <= o < 3):
                raise CurveError("step must enter and exit distinct sides")
            norm.append((tri, i, o))
        if not norm:
            raise CurveError("empty curve")
        self.steps = tuple(norm)
        self._validate()

    @staticmethod
    def from_sides(T, side_steps):
        """Steps given as (in_side_id, out_side_id) pairs."""
        steps = []
        for sin, sout in side_steps:
            try:
                (t1, i), (t2, o) = T.side_pos(sin), T.side_pos(sout)
            except KeyError as exc:
                raise CurveError("unknown side %s" % exc) from None
            if t1 != t2:
                raise CurveError("in and out sides of a step must share a triangle")
            steps.append((t1, i, o))
        return NormalCurve(T, steps)

    @staticmethod
    def from_weights(T, weights, start=None):
        """The connected normal curve crossing each edge e weights[e] times.

        A triangle holds (w_(j-1) + w_j - w_(j+1))/2 arcs around corner j,
        w_i the weight of its side i.  Points on side i count from corner
        i: point p turns to side i-1, at point w_(i-1)-1-p, while p is below
        corner i's count, else to side i+1, at point w_i-1-p; a gluing sends
        point p to point w-1-p.  The walk enters the triangle of start =
        (side, point), by default point 0 of the least crossed side.
        CurveError for weights of no connected normal curve.
        """
        for e, m in weights.items():
            if e not in T.edges or m < 0 or (m and e in T.boundary_edges):
                raise CurveError("no normal curve has weight %s on edge %s" % (m, e))
        if not any(weights.values()):
            raise CurveError("all weights are zero")
        w = {s: weights.get(e, 0) for s, e in T.side_edge.items()}
        twice = {(t, j): w[tri[j - 1]] + w[tri[j]] - w[tri[(j + 1) % 3]]
                 for t, tri in enumerate(T.triangles) for j in range(3)}
        if any(c < 0 or c % 2 for c in twice.values()):
            raise CurveError("the weights break a triangle inequality or parity")
        start = start or (min(s for s in T.sides if w[s]), 0)
        steps, (s, p) = [], start
        for _ in range(sum(weights.values())):
            t, i = T.side_pos(s)
            tri = T.triangles[t]
            o, q = ((i - 1) % 3, w[tri[i - 1]] - 1 - p) if 2 * p < twice[t, i] else \
                ((i + 1) % 3, w[s] - 1 - p)
            steps.append((t, i, o))
            s = T.glue.get(tri[o])
            p = w[s] - 1 - q
            if (s, p) == start:
                break
        if (s, p) != start or len(steps) != sum(weights.values()):
            raise CurveError("the weights are those of a multicurve")
        return NormalCurve(T, steps)

    def _validate(self):
        T = self.T
        n = len(self.steps)
        for idx in range(n):
            t, i, o = self.steps[idx]
            out_side = T.triangles[t][o]
            mate = T.glue.get(out_side)
            if mate is None:
                raise CurveError("curve crosses boundary edge %s"
                                 % T.side_edge[out_side])
            t2, i2, _ = self.steps[(idx + 1) % n]
            in_side = T.triangles[t2][i2]
            if mate != in_side:
                raise CurveError(
                    "steps %d -> %d do not glue (%s vs %s)"
                    % (idx, (idx + 1) % n, mate, in_side)
                )
        # Bounces (enter and exit the same side) are rejected above via
        # in != out.  A would-be bigon between the curve and an edge inside
        # the quadrilateral of two consecutive steps always traps a marked
        # point once bounces are excluded (the cut-open quadrilateral is an
        # embedded square whose corners are all marked), so no further
        # local check can fire.

    # -- crossings -------------------------------------------------------

    def crossing_edges(self):
        """Edge label crossed between step i and step i+1, for each i."""
        T = self.T
        return tuple(
            T.side_edge[T.triangles[t][o]] for t, i, o in self.steps
        )

    def multiplicities(self):
        mult = {}
        for e in self.crossing_edges():
            mult[e] = mult.get(e, 0) + 1
        return mult

    def crossed_edges(self):
        return tuple(sorted(self.multiplicities()))

    @staticmethod
    def from_json(T, data):
        return NormalCurve.from_sides(
            T, [(st["in"], st["out"]) for st in data["steps"]]
        )

    def __repr__(self):
        return "NormalCurve(%d steps over %s)" % (len(self.steps), self.crossed_edges())


def _entry(alpha, j):
    """The start (step j's in-side, its point nearest the corner the step
    cuts) from which from_weights walks step j of alpha first.  It runs in
    alpha's direction when alpha crosses that edge one way only, as torus curves do."""
    T, (t, i, o) = alpha.T, alpha.steps[j]
    side = T.triangles[t][i]
    return side, 0 if o == (i - 1) % 3 else alpha.multiplicities()[T.side_edge[side]] - 1


def _turn(i, o):
    """+1 when the out side follows the in side counterclockwise."""
    return 1 if o == (i + 1) % 3 else -1


def classify(alpha):
    """'simple', 'almost-simple', or 'general' by edge multiplicities."""
    mult = alpha.multiplicities()
    over = [e for e, m in mult.items() if m > 1]
    if not over:
        return "simple"
    if len(over) == 1 and mult[over[0]] == 2:
        return "almost-simple"
    return "general"


# ---------------------------------------------------------------------------
# states


def _forbidden_pair(step):
    """The forbidden (value at in-crossing, value at out-crossing) of a step."""
    t, i, o = step
    return FORBIDDEN if _turn(i, o) == 1 else FORBIDDEN[::-1]


def enumerate_states(alpha):
    """All admissible +-1 assignments on the crossing points of alpha.

    Assigns v_0, v_1, ... depth first, +1 before -1, checking step j as
    soon as v_j is set and step 0 when the last value closes the cycle.
    Each step forbids one pair only, so every prefix extends; the states
    come out in lexicographic order with +1 first.
    """
    bad = [_forbidden_pair(step) for step in alpha.steps]
    n = len(bad)
    values = [0] * n
    out = []
    stack = [(0, -1), (0, 1)]
    while stack:
        j, v = stack.pop()
        values[j] = v
        if j == n - 1:
            if (v, values[0]) != bad[0]:
                out.append(tuple(values))
        else:
            stack.extend((j + 1, w) for w in (-1, 1) if (v, w) != bad[j + 1])
    return out


def _crossing_slots(alpha, index):
    """The slot index[e] of the edge e at each crossing of alpha."""
    slots = []
    for e in alpha.crossing_edges():
        if e not in index:
            raise CurveError("curve crosses %s outside the label set" % e)
        slots.append(index[e])
    return slots


def state_exponents(alpha, values, labels):
    """k_s over the given inner-edge label order: per-edge sum of values."""
    index = {lab: i for i, lab in enumerate(labels)}
    k = [0] * len(labels)
    for j, v in zip(_crossing_slots(alpha, index), values):
        k[j] += v
    return tuple(k)


# ---------------------------------------------------------------------------
# crossing patterns


def crossing_pattern(alpha, edge):
    """'unchanged' | 'left-right' | 'right-left' | 'multi' at the edge."""
    mult = alpha.multiplicities().get(edge, 0)
    if mult == 0:
        raise CurveError("curve does not cross %s" % edge)
    if mult > 1:
        return "multi"
    eps = _epsilon_at(alpha, edge)
    return {1: "right-left", -1: "left-right", 0: "unchanged"}[eps]


def _epsilon_at(alpha, edge):
    n = len(alpha.steps)
    ce = alpha.crossing_edges()
    j = ce.index(edge)
    t, i, o = alpha.steps[j]                 # step before the crossing
    t2, i2, o2 = alpha.steps[(j + 1) % n]    # step after the crossing
    return (_turn(i, o) - _turn(i2, o2)) // 2


def epsilon_vector(alpha, labels):
    """The pattern exponents: +1 right-left, -1 left-right, 0 otherwise."""
    mult = alpha.multiplicities()
    eps = {lab: 0 for lab in labels}
    for e, m in mult.items():
        if m == 1:
            eps[e] = _epsilon_at(alpha, e)
    return tuple(eps[lab] for lab in labels)


# ---------------------------------------------------------------------------
# the phase exponent u(s)


def _base_crossing(alpha, base_edge=None):
    """Index of the crossing on the base edge, an edge crossed exactly
    once; by default the least such edge."""
    mult = alpha.multiplicities()
    if base_edge is None:
        once = [e for e, m in mult.items() if m == 1]
        if not once:
            raise CurveError("no edge crossed exactly once; u(s) needs one")
        base_edge = min(once)
    elif mult.get(base_edge, 0) != 1:
        raise CurveError("base edge must be crossed exactly once")
    return alpha.crossing_edges().index(base_edge)


def _step_table(alpha, base_edge=None):
    """(base crossing, side, rows): the walk behind u(s) and the state sum.

    side numbers the (triangle, slot) pairs the curve visits.  rows holds
    one row per step, from the base crossing on: step m enters through
    crossing m-1 on slot i and leaves through crossing m on slot o, and
    its row is (forbidden corner pair, side[t, i], side[t, o],
    side[t, i - 1], side[t, i + 1], side[t, o - 1], side[t, o + 1]).
    """
    n = len(alpha.steps)
    base = _base_crossing(alpha, base_edge)
    side = {}
    for t, _, _ in alpha.steps:
        for x in range(3):
            side.setdefault((t, x), len(side))
    rows = []
    for m in range(base + 1, base + 1 + n):
        t, i, o = step = alpha.steps[m % n]
        # sum_x Q(x, i) P[t, x] = P[t, i - 1] - P[t, i + 1]
        rows.append((_forbidden_pair(step), side[t, i], side[t, o],
                     side[t, (i + 2) % 3], side[t, (i + 1) % 3],
                     side[t, (o + 2) % 3], side[t, (o + 1) % 3]))
    return base, side, rows


def u_of_state(alpha, values, base_edge=None):
    """The half-integer exponent of q attached to an admissible state.

    Runs the rows of _step_table on this one state, the increments that
    state_sum adds along one path of its frontier: 2 u(s) = -W s s.
    """
    base, side, rows = _step_table(alpha, base_edge)
    n = len(rows)
    P = [0] * len(side)
    x = 0
    for m, (_, at_i, at_o, i_prev, i_next, o_prev, o_next) in enumerate(rows, base):
        v, w = values[m % n], values[(m + 1) % n]
        x += v * (P[i_prev] - P[i_next]) + w * (P[o_prev] - P[o_next])
        P[at_i] += v
        P[at_o] += w
    return Fraction(-x, 2)


def state_sum(alpha, T, spec, base_edge=None):
    """(sum_s q^(u(s)) y^(k_s) in the torus spec, number of states) over
    the admissible states of a curve crossing some edge of T once.

    A frontier walk, not a loop over states.  The rows of _step_table are
    taken once, from the base crossing on.  A frontier key is one flat
    tuple: P, where P[t, x] sums the values lifted so far to side x of
    triangle t, then the first value and the current value.  Its value is
    (offset, counts): each value of W s s over the prefix so far is offset
    plus a key of counts, which maps it to its number of admissible
    prefixes.  A child shares its parent's counts and adds its phase
    increment to the offset; only a merge of two paths into one key builds
    a new map, a copy of the first path's with the second's added, in the
    key order separate copies would have.  A key has at most two parents,
    one per value of the crossing before its current one, so it is merged
    at most once per step, and no map is changed once it is shared.
    Step m, entering on slot i with v_(m-1) and leaving on slot o with
    v_m, forbids its corner pair and adds
    v_(m-1) sum_x Q(x, i) P[t, x] + v_m sum_x Q(x, o) P[t, x] to W s s,
    Q the local face pairing, with P read before it takes the step's two
    points, so the two ends of one curve interval are never paired.  The
    last step closes on the first value.  Every crossing of an edge lifts
    once to each side of it, so k_s is P at one side per crossed edge
    (summing both would double it); one parity product against T's
    triangle-inner-edge incidence checks every distinct k_s to be balanced
    (shear.odd_rows), once per call.  The state count is the sum of the
    counts.
    """
    n = len(alpha.steps)
    _, side, walk = _step_table(alpha, base_edge)
    slots = _crossing_slots(alpha, spec.index)
    zero = [0] * len(side)
    frontier = {(*zero, v, v): (0, {0: 1}) for v in (1, -1)}
    for m, (bad, at_i, at_o, i_prev, i_next, o_prev, o_next) in enumerate(walk):
        nxt = {}
        for key, (offset, counts) in frontier.items():
            first, v = key[-2:]
            pair_in, pair_out = v * (key[i_prev] - key[i_next]), key[o_prev] - key[o_next]
            for w in (first,) if m == n - 1 else (1, -1):
                if (v, w) == bad:
                    continue
                sums = list(key)
                sums[at_i] += v
                sums[at_o] += w
                sums[-1] = w
                child = tuple(sums)
                d = offset + pair_in + w * pair_out
                acc = nxt.get(child)
                if acc is None:
                    nxt[child] = (d, counts)
                    continue
                base, shared = acc
                into = dict(shared)
                d -= base
                for x, c in counts.items():
                    into[x + d] = into.get(x + d, 0) + c
                nxt[child] = (base, into)
        frontier = nxt
    width = len(spec.labels)
    read = {j: side[t, o] for j, (t, _, o) in zip(slots, alpha.steps)}
    terms, states = {}, 0
    for P, (offset, counts) in frontier.items():
        k = [0] * width
        for j, at in read.items():
            k[j] = P[at]
        coeffs = terms.setdefault(tuple(k), {})
        for x, c in counts.items():
            n8 = -4 * (x + offset)               # 8 u(s), in eighths of q
            coeffs[n8] = coeffs.get(n8, 0) + c
            states += c
    if odd_rows(list(terms), T).any():
        raise AssertionError("state exponent vector is not balanced")
    # counts are positive, so every coefficient is canonical as it stands
    return _element(spec, {k: Laurent._canonical(c) for k, c in terms.items()}), states


# ---------------------------------------------------------------------------
# transport of a curve through a flip


def _flip_weights(weights, fd, back=False):
    """Edge weights across the flip recorded in fd by the tropical Ptolemy
    rule w(a) + w(a*) = max(w(b) + w(d), w(c) + w(e)); back runs a* -> a."""
    old, new = (fd.a_star, fd.a) if back else (fd.a, fd.a_star)
    w = {e: m for e, m in weights.items() if e != old}
    get = weights.get
    w[new] = max(get(fd.b, 0) + get(fd.d, 0), get(fd.c, 0) + get(fd.e, 0)) - get(old, 0)
    return w


def transport_curve(alpha, T, flip_data, T_new):
    """alpha carried through the flip recorded in flip_data: its weights by
    _flip_weights, the curve by NormalCurve.from_weights, started (_entry)
    at alpha's first crossing of another edge, whose sides the flip keeps;
    one exists, as the flipped edge has one side in each triangle."""
    j = next(j for j, e in enumerate(alpha.crossing_edges(), 1) if e != flip_data.a)
    weights = _flip_weights(alpha.multiplicities(), flip_data)
    return NormalCurve.from_weights(T_new, weights, _entry(alpha, j % len(alpha.steps)))
