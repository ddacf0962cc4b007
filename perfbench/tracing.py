"""Spans and counters recorded around calls into qskein's public functions.

The library itself carries no instrumentation.  `Tracer.installed()`
replaces each traced function, for the duration of a ``with`` block, by a
wrapper that records one span per call: name, start, end, parent span and
job id.  Modules import these functions by name, so every qskein module
namespace that holds the original object gets the wrapper, and methods are
replaced on their class.  Spans stay in memory; `Tracer.dump` writes them
out when the run ends.  Per-scalar calls (`Laurent.evaluate`) are counted
without a span, because a span per scalar would distort the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _expr_sizes(exprs):
    """(unfolded factor count, distinct Expr nodes) of formal expressions.

    The unfolded count expands every formal inverse in place, which is the
    tree that a root-of-unity action walks; the node count is the size of
    the shared DAG that composition actually builds.
    """
    memo = {}

    def unfolded(expr):
        key = id(expr)
        if key not in memo:
            memo[key] = sum(
                1 if kind == "el" else unfolded(payload)
                for _, factors in expr.words
                for kind, payload in factors
            )
        return memo[key]

    return sum(unfolded(e) for e in exprs), len(memo)


class _CountingLU:
    """A sparse LU factor whose solves are counted."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args, **kw):
        self._counts["repcheck.factor_solves"] += 1
        return self._lu.solve(rhs, *args, **kw)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.counts = Counter()
        self.maxima = Counter()
        self.job = None
        self._stack = []
        self._verify_depth = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        scoped = name == "repcheck.verify_identity"

        def traced(*args, **kw):
            if scoped:
                self._verify_depth += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
                if scoped:
                    self._verify_depth -= 1
            return after(args, out, rec)

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        """(owner, attribute, span name, hook) for every traced call.  The
        hook sees the call's arguments, its result and its span record, and
        returns the result."""
        from qskein import coordinate_change, curves, repcheck, shear, surface, trace
        from qskein.qtorus import TorusElement

        c, m = self.counts, self.maxima

        def count(key, n=1):
            c[key] += n

        def psi(args, out, rec):
            count("shear.psi_terms", len(args[1].terms))
            return out

        def states(args, out, rec):
            count("curves.state_candidates", 2 ** len(args[0].steps))
            count("curves.states_admissible", len(out))
            return out

        def traced_curve(args, out, rec):
            count("trace.traces")
            m["trace.crossings_max"] = max(m["trace.crossings_max"], len(args[0].steps))
            if isinstance(out, tuple):          # trace_once_edge
                count("trace.once_states", out[2])
                count("trace.once_terms", len(out[0].terms))
            return out

        def plain(args, out, rec):
            return out

        def calls(key):
            def hook(args, out, rec):
                c[key] += 1
                return out
            return hook

        def mul(args, out, rec):
            if not isinstance(args[1], TorusElement):
                rec[0] = "qtorus.scale"         # a scalar multiple, not a product
                return out
            count("qtorus.muls")
            count("qtorus.term_pairs", len(args[0].terms) * len(args[1].terms))
            count("qtorus.product_terms", len(out.terms))
            return out

        def compose(args, out, rec):
            comp = out[1]
            exprs = [comp.image_of_generator(lab, 1) for lab in comp.source.labels]
            unfolded, nodes = _expr_sizes(exprs)
            count("coordinate_change.unfolded_factors", unfolded)
            count("coordinate_change.dag_nodes", nodes)
            return out

        def verify(args, out, rec):
            count("repcheck.identities")
            if out.status == "PASS" and min(out.orders) < 5:
                count("repcheck.fallback_identities")
            count("repcheck.inconclusive_retries",
                  sum("skipped" not in note for note in out.notes))
            return out

        def rep(args, out, rec):
            rep_obj = args[0]
            count("repcheck.reps")
            count("repcheck.rep_dim_sum", rep_obj.dim)
            m["repcheck.rep_dim_max"] = max(m["repcheck.rep_dim_max"], rep_obj.dim)
            return out

        def act_element(args, out, rec):
            n_terms = len(args[1].terms)
            count("repcheck.act_element_calls")
            count("repcheck.term_actions", n_terms)
            count("repcheck.bytes_computed", n_terms * args[0].dim * 16)
            return out

        def lu_sparse(args, out, rec):
            count("repcheck.factorizations_sparse")
            return _CountingLU(out, c)

        R, cc = repcheck.RootRep, coordinate_change
        flip_maps = calls("coordinate_change.flip_maps")
        return [
            (surface.Triangulation, "flip", "surface.flip", calls("surface.flips")),
            (shear.ShearSkein, "__init__", "shear.bundle", calls("shear.bundles")),
            (shear.ShearSkein, "psi", "shear.psi", psi),
            (curves, "transport_curve", "curves.transport_curve",
             calls("curves.transports")),
            (curves, "enumerate_states", "curves.enumerate_states", states),
            (curves, "u_of_state", "curves.u_of_state", calls("curves.u_evals")),
            (trace, "trace_simple", "trace.trace_simple", traced_curve),
            (trace, "trace_once_edge", "trace.trace_once_edge", traced_curve),
            (trace, "oracle_resolution", "trace.oracle_resolution", plain),
            (TorusElement, "__mul__", "qtorus.mul", mul),
            (cc, "theta_flip", "coordinate_change.theta_flip", flip_maps),
            (cc, "phi_flip", "coordinate_change.phi_flip", flip_maps),
            (cc, "phi_flip_from_data", "coordinate_change.phi_flip_from_data", flip_maps),
            (cc, "compose_flips", "coordinate_change.compose_flips", compose),
            (repcheck, "verify_identity", "repcheck.verify_identity", verify),
            (R, "__init__", "repcheck.rep_init", rep),
            (R, "act_expr", "repcheck.act_expr", calls("repcheck.act_expr_calls")),
            (R, "act_element", "repcheck.act_element", act_element),
            (R, "_solve", "repcheck.solve", calls("repcheck.solves")),
            (repcheck, "lu_factor", "repcheck.lu_factor",
             calls("repcheck.factorizations_dense")),
            (repcheck, "splu", "repcheck.splu", lu_sparse),
            (repcheck, "lgmres", "repcheck.lgmres", calls("repcheck.lgmres_calls")),
        ]

    # -- installing and removing the wrappers -----------------------------------

    def installed(self):
        return _Installed(self)

    def _install(self):
        from qskein import qscalar, repcheck

        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "qskein" or name.startswith("qskein."))]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for owner, attr, name, hook in self._hooks():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                replace(owner, attr, wrapper)
                continue
            # a module-level function: patch every namespace that imported it
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        replace(mod, key, wrapper)

        counts = self.counts
        evaluate = qscalar.Laurent.__dict__["evaluate"]

        def counted_evaluate(scalar, root):
            if self._verify_depth:
                counts["repcheck.scalar_evals"] += 1
            return evaluate(scalar, root)

        replace(qscalar.Laurent, "evaluate", counted_evaluate)
        lu_solve = repcheck.lu_solve

        def counted_lu_solve(*args, **kw):
            counts["repcheck.factor_solves"] += 1
            return lu_solve(*args, **kw)

        replace(repcheck, "lu_solve", counted_lu_solve)
        return undo

    # -- output -------------------------------------------------------------------

    def dump(self, path, env):
        with open(path, "w") as fh:
            json.dump({"env": env,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


class _Installed:
    def __init__(self, tracer):
        self._tracer = tracer
        self._undo = None

    def __enter__(self):
        self._undo = self._tracer._install()
        return self._tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counts


def _durations(spans, names):
    """Total time in spans of the given names, not counting a span whose
    ancestor is itself one of them (so nested calls are not double counted)."""
    total = 0.0
    for rec in spans:
        if rec[0] not in names:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return total


def _self_time(spans, names):
    """Duration of the named spans minus the time their direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return sum(rec[2] - rec[1] - child[i]
               for i, rec in enumerate(spans) if rec[0] in names)


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("surface.flips", "count", "lower"),
    ("surface.flip_s", "s", "lower"),
    ("shear.bundles", "count", "lower"),
    ("shear.bundle_s", "s", "lower"),
    ("shear.psi_terms", "count", "lower"),
    ("shear.psi_s", "s", "lower"),
    ("curves.transports", "count", "lower"),
    ("curves.transport_s", "s", "lower"),
    ("curves.state_candidates", "count", "lower"),
    ("curves.states_admissible", "count", "lower"),
    ("curves.state_yield", "1", "higher"),
    ("curves.enumerate_s", "s", "lower"),
    ("curves.u_evals", "count", "lower"),
    ("curves.u_s", "s", "lower"),
    ("trace.traces", "count", "lower"),
    ("trace.trace_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.oracle_s", "s", "lower"),
    ("trace.terms_per_state", "1", "higher"),
    ("trace.crossings_max", "count", "higher"),
    ("qtorus.muls", "count", "lower"),
    ("qtorus.term_pairs", "count", "lower"),
    ("qtorus.mul_s", "s", "lower"),
    ("qtorus.us_per_term_pair", "us", "lower"),
    ("qtorus.coalesce_ratio", "1", "lower"),
    ("coordinate_change.flip_maps", "count", "lower"),
    ("coordinate_change.flip_map_s", "s", "lower"),
    ("coordinate_change.compose_s", "s", "lower"),
    ("coordinate_change.unfolded_factors", "count", "lower"),
    ("coordinate_change.dag_nodes", "count", "lower"),
    ("repcheck.identities", "count", "lower"),
    ("repcheck.verify_s", "s", "lower"),
    ("repcheck.fallback_identities", "count", "lower"),
    ("repcheck.inconclusive_retries", "count", "lower"),
    ("repcheck.reps", "count", "lower"),
    ("repcheck.rep_dim_max", "count", "lower"),
    ("repcheck.rep_dim_sum", "count", "lower"),
    ("repcheck.rep_build_s", "s", "lower"),
    ("repcheck.act_element_calls", "count", "lower"),
    ("repcheck.act_element_s", "s", "lower"),
    ("repcheck.term_actions", "count", "lower"),
    ("repcheck.bytes_computed", "B", "lower"),
    ("repcheck.act_expr_calls", "count", "lower"),
    ("repcheck.act_expr_s", "s", "lower"),
    ("repcheck.solves", "count", "lower"),
    ("repcheck.solve_s", "s", "lower"),
    ("repcheck.factorizations_dense", "count", "lower"),
    ("repcheck.factorizations_sparse", "count", "lower"),
    ("repcheck.factorize_s", "s", "lower"),
    ("repcheck.solve_reuse", "1", "higher"),
    ("repcheck.lgmres_calls", "count", "lower"),
    ("repcheck.scalar_evals", "count", "lower"),
    ("tracing.overhead", "1", "lower"),
]


def layer_metrics(tracer, overhead):
    """Every per-layer metric as {name: value}, from one traced pass."""
    s, c, m = tracer.spans, tracer.counts, tracer.maxima
    trace_names = {"trace.trace_simple", "trace.trace_once_edge", "trace.oracle_resolution"}
    mul_s = _durations(s, {"qtorus.mul"})
    factorizations = c["repcheck.factorizations_dense"] + c["repcheck.factorizations_sparse"]
    out = {
        "surface.flips": c["surface.flips"],
        "surface.flip_s": _durations(s, {"surface.flip"}),
        "shear.bundles": c["shear.bundles"],
        "shear.bundle_s": _durations(s, {"shear.bundle"}),
        "shear.psi_terms": c["shear.psi_terms"],
        "shear.psi_s": _durations(s, {"shear.psi"}),
        "curves.transports": c["curves.transports"],
        "curves.transport_s": _durations(s, {"curves.transport_curve"}),
        "curves.state_candidates": c["curves.state_candidates"],
        "curves.states_admissible": c["curves.states_admissible"],
        "curves.state_yield": _ratio(c["curves.states_admissible"],
                                     c["curves.state_candidates"]),
        "curves.enumerate_s": _durations(s, {"curves.enumerate_states"}),
        "curves.u_evals": c["curves.u_evals"],
        "curves.u_s": _durations(s, {"curves.u_of_state"}),
        "trace.traces": c["trace.traces"],
        "trace.trace_s": _durations(s, trace_names - {"trace.oracle_resolution"}),
        "trace.self_s": _self_time(s, trace_names - {"trace.oracle_resolution"}),
        "trace.oracle_s": _durations(s, {"trace.oracle_resolution"}),
        "trace.terms_per_state": _ratio(c["trace.once_states"], c["trace.once_terms"]),
        "trace.crossings_max": m["trace.crossings_max"],
        "qtorus.muls": c["qtorus.muls"],
        "qtorus.term_pairs": c["qtorus.term_pairs"],
        "qtorus.mul_s": mul_s,
        "qtorus.us_per_term_pair": _ratio(1e6 * mul_s, c["qtorus.term_pairs"]),
        "qtorus.coalesce_ratio": _ratio(c["qtorus.product_terms"], c["qtorus.term_pairs"]),
        "coordinate_change.flip_maps": c["coordinate_change.flip_maps"],
        "coordinate_change.flip_map_s": _durations(
            s, {"coordinate_change.theta_flip", "coordinate_change.phi_flip",
                "coordinate_change.phi_flip_from_data"}),
        "coordinate_change.compose_s": _durations(s, {"coordinate_change.compose_flips"}),
        "coordinate_change.unfolded_factors": c["coordinate_change.unfolded_factors"],
        "coordinate_change.dag_nodes": c["coordinate_change.dag_nodes"],
        "repcheck.identities": c["repcheck.identities"],
        "repcheck.verify_s": _durations(s, {"repcheck.verify_identity"}),
        "repcheck.fallback_identities": c["repcheck.fallback_identities"],
        "repcheck.inconclusive_retries": c["repcheck.inconclusive_retries"],
        "repcheck.reps": c["repcheck.reps"],
        "repcheck.rep_dim_max": m["repcheck.rep_dim_max"],
        "repcheck.rep_dim_sum": c["repcheck.rep_dim_sum"],
        "repcheck.rep_build_s": _durations(s, {"repcheck.rep_init"}),
        "repcheck.act_element_calls": c["repcheck.act_element_calls"],
        "repcheck.act_element_s": _durations(s, {"repcheck.act_element"}),
        "repcheck.term_actions": c["repcheck.term_actions"],
        "repcheck.bytes_computed": c["repcheck.bytes_computed"],
        "repcheck.act_expr_calls": c["repcheck.act_expr_calls"],
        "repcheck.act_expr_s": _durations(s, {"repcheck.act_expr"}),
        "repcheck.solves": c["repcheck.solves"],
        "repcheck.solve_s": _durations(s, {"repcheck.solve"}),
        "repcheck.factorizations_dense": c["repcheck.factorizations_dense"],
        "repcheck.factorizations_sparse": c["repcheck.factorizations_sparse"],
        "repcheck.factorize_s": _durations(s, {"repcheck.lu_factor", "repcheck.splu"}),
        "repcheck.solve_reuse": _ratio(c["repcheck.factor_solves"], factorizations),
        "repcheck.lgmres_calls": c["repcheck.lgmres_calls"],
        "repcheck.scalar_evals": c["repcheck.scalar_evals"],
        "tracing.overhead": overhead,
    }
    return out


def counts_only(tracer):
    """The exact counters of a traced pass, for repeatability checks."""
    return dict(sorted({**tracer.counts, **tracer.maxima}.items()))
