"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
line per criterion.  Tolerances and runtime budgets are pinned here:
exact integer/polynomial equality wherever possible, relative residual
1e-8 for the root-of-unity certifications at orders {5, 7, 11} with at
least 20 random vectors.
"""

import time

import numpy as np
import pytest

from qskein import suites
from qskein.library import annulus_core
from qskein.repcheck import DEFAULT_ORDERS
from qskein.shear import ShearSkein
from qskein.trace import oracle_resolution, trace_simple

RESIDUAL_TOL = 1e-8


def _report(num, title, rows, elapsed=None, budget=None):
    bad = [r for r in rows if r[1] != "PASS"]
    ok = not bad and (budget is None or elapsed < budget)
    tag = "PASS" if ok else "FAIL"
    extra = ""
    if elapsed is not None:
        extra = " (%.2f s%s)" % (elapsed, "" if budget is None else
                                 " < %gs budget" % budget)
    print("ACCEPTANCE %d %s: %s%s" % (num, title, tag, extra))
    for r in bad:
        print("    offending: %s %s %s" % r)
    assert ok, "criterion %d failed: %s" % (num, bad or "over budget")


def test_criterion_1_duality():
    t0 = time.perf_counter()
    rows = suites.suite_duality()
    _report(1, "duality PH^T=-4id, HPH^T=-4Q, rank H", rows,
            time.perf_counter() - t0, 1.0)


def test_criterion_2_state_sum_trace():
    t0 = time.perf_counter()
    A, core = annulus_core()
    bundle = ShearSkein(A)
    res = trace_simple(core, A, bundle)
    assert res.state_count == 3 and len(res.skein_side.terms) == 3
    assert res.skein_side.has_unit_coefficients()
    assert all(all(v % 2 == 0 for v in k) for k in res.skein_side.terms)
    assert oracle_resolution(core, A, bundle) == res.skein_side
    rows = suites.suite_trace()
    assert len(rows) >= 6  # annulus core plus at least five more curves
    _report(2, "state-sum trace = resolution oracle", rows,
            time.perf_counter() - t0, 1.0)


def test_criterion_3_balancedness():
    t0 = time.perf_counter()
    rows = suites.suite_balanced(samples=1000)
    _report(3, "kH even iff k balanced, 1000 samples/surface", rows,
            time.perf_counter() - t0, 1.0)


def test_criterion_4_flipback_and_pentagon():
    assert DEFAULT_ORDERS == (5, 7, 11)
    t0 = time.perf_counter()
    rows = suites.suite_flipback(trials=20)
    rows += suites.suite_pentagon(trials=20)
    _report(4, "flip-back and pentagon composites are the identity", rows,
            time.perf_counter() - t0, 60.0)


def test_criterion_5_trace_naturality():
    t0 = time.perf_counter()
    rows = suites.suite_naturality(trials=20)
    rows += suites.suite_phased_naturality(trials=10)
    _report(5, "Theta intertwines traces across flips", rows,
            time.perf_counter() - t0)


def test_criterion_6_commutative_square():
    t0 = time.perf_counter()
    rows = suites.suite_dia9(trials=20)
    _report(6, "psi o Theta = Phi o psi on squared generators", rows,
            time.perf_counter() - t0)


def test_criterion_7_knot_monomials():
    t0 = time.perf_counter()
    rows = suites.suite_transfer()
    cases = {r[0].split("[")[-1].rstrip("]") for r in rows if "transfer" in r[0]}
    assert {"right-left", "left-right", "unchanged"} <= cases
    _report(7, "psi(y^k_alpha)=X^eps and flip transfer identities", rows,
            time.perf_counter() - t0)


def test_criterion_8_punctured_trace():
    t0 = time.perf_counter()
    rows = suites.suite_punctured()
    _report(8, "punctured trace: dual pipelines and lift independence", rows,
            time.perf_counter() - t0, 5.0)


def test_criterion_9_negative_control():
    t0 = time.perf_counter()
    rows = suites.suite_negative()
    _report(9, "corrupted coordinate change is detected", rows,
            time.perf_counter() - t0)
