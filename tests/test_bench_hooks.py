"""The benchmark tracer patches qskein functions by name; entering and
leaving it here makes a renamed or deleted name fail the test suite, not
only a traced benchmark run."""

import importlib.util
from pathlib import Path

from qskein import repcheck
from qskein.coordinate_change import Expr
from qskein.qtorus import TorusElement, TorusSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("qskein_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
    el = TorusElement.one(s) + TorusElement.monomial(s, (1, 0))
    e = Expr.from_element(el)
    before = (repcheck.RootRep.act_expr, repcheck.verify_identity, repcheck.lu_solve)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert repcheck.RootRep.act_expr is not before[0]
        verdict = repcheck.verify_identity(e.inv() * e, Expr.one(s), s, trials=2)
    assert verdict.passed
    assert (repcheck.RootRep.act_expr, repcheck.verify_identity, repcheck.lu_solve) == before
    assert tracer.counts["repcheck.identities"] == 1
    assert tracer.counts["repcheck.factorizations_dense"] == 3
    assert tracer.counts["repcheck.solves"] > 0
