"""Result checks that do not reuse the code paths they check.

Every function here returns a list of problems; an empty list means the
output passed.  Exact outputs are reduced to canonical JSON so that golden
digests survive any change of internal representation.
"""

from __future__ import annotations

import hashlib
import json

# The forbidden corner pair (value at the counterclockwise-first edge,
# value at the second edge), restated from the corner convention of the
# state sum rather than imported from the code under test.
_FORBIDDEN = (1, -1)
_VALUES = (1, -1)


def transfer_matrix_count(alpha):
    """Admissible states of a normal curve as the trace of a product of 2x2
    0/1 matrices, one per step: entry (a, b) is 1 unless the values a at the
    step's in-crossing and b at its out-crossing put the forbidden pair on
    the corner the step cuts."""
    prod = [[1, 0], [0, 1]]
    for _, i, o in alpha.steps:
        ccw = o == (i + 1) % 3      # the out side follows the in side
        step = [[0 if ((a, b) if ccw else (b, a)) == _FORBIDDEN else 1
                 for b in _VALUES] for a in _VALUES]
        prod = [[sum(prod[r][k] * step[k][col] for k in range(2)) for col in range(2)]
                for r in range(2)]
    return prod[0][0] + prod[1][1]


def element_json(el):
    """Canonical JSON-ready form of a torus element."""
    return {
        "labels": list(el.spec.labels),
        "terms": sorted(
            [list(k), sorted([n, c] for n, c in co.terms.items())]
            for k, co in el.terms.items()
        ),
    }


def digest(obj):
    """Short SHA-256 of the canonical JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coefficient_sum(el):
    """The element's coefficients summed at q = 1."""
    return sum(c for co in el.terms.values() for c in co.terms.values())


def _reflection_invariant(el):
    return all({-n: c for n, c in co.terms.items()} == co.terms
               for co in el.terms.values())


def _even_exponents(el):
    return all(v % 2 == 0 for k in el.terms for v in k)


def check_trace_rung(alpha, out, psi):
    """Checks of one traces job: counts, symmetry, multiplicativity of psi
    and, on simple rungs, agreement of the three routes."""
    problems = []
    count = transfer_matrix_count(alpha)
    if count != out["states"]:
        problems.append("state count %d != transfer-matrix count %d"
                        % (out["states"], count))
    if _coefficient_sum(out["shear"]) != count:
        problems.append("shear trace coefficient sum at q=1 != %d" % count)
    for key in ("shear", "skein", "shear_sq", "skein_sq"):
        if not _reflection_invariant(out[key]):
            problems.append("%s is not reflection invariant" % key)
    for key in ("skein", "skein_sq"):
        if not _even_exponents(out[key]):
            problems.append("%s has an odd exponent" % key)
    if psi(out["shear_sq"]) != out["skein_sq"]:
        problems.append("psi(t*t) != psi(t)*psi(t)")
    if out.get("simple") is not None:
        state_sum, oracle = out["simple"]
        if not (state_sum == oracle == out["skein"]):
            problems.append("trace_simple, oracle and once-edge skein side disagree")
    return problems


def trace_digest(out):
    exact = {key: element_json(out[key]) for key in ("shear", "skein", "shear_sq", "skein_sq")}
    exact["states"] = out["states"]
    return exact


def check_status(verdict, expected):
    if verdict.status != expected:
        return ["verdict %s, expected %s" % (verdict.status, expected)]
    return []


def check_composite(out):
    """A closed flip walk: it restores the triangulation and every
    generator verdict is PASS."""
    closes, verdicts = out
    problems = [] if closes else ["the walk does not close"]
    problems += ["Y[%s]: %s" % (lab, v.status) for lab, v in sorted(verdicts.items())
                 if v.status != "PASS"]
    return problems


def composite_digest(out):
    closes, verdicts = out
    return {"closes": closes,
            "status": {lab: v.status for lab, v in sorted(verdicts.items())}}
