"""The benchmark tracer patches qskein functions by name; entering and
leaving it here makes a renamed or deleted name fail the test suite, not
only a traced benchmark run."""

import importlib.util
from pathlib import Path

from qskein import repcheck
from qskein.coordinate_change import Expr, compose_flips
from qskein.library import surface_by_name
from qskein.qscalar import Laurent
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


def test_tracer_counts_one_factorization_per_shared_inverse():
    # one inverse payload shared by six words is factorized once per order
    tracing = load_tracing()
    s = TorusSpec(("c", "a", "b"), [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], 2)
    inv = Expr.from_element(TorusElement.one(s) + TorusElement.monomial(s, (0, 1, 0))).inv()
    x = Expr.from_element(TorusElement.monomial(s, (0, 0, 1)))
    tracer = tracing.Tracer()
    with tracer.installed():
        verdict = repcheck.verify_identity(inv * x + x * inv + inv, inv + x * inv + inv * x,
                                           s, trials=2)
    assert verdict.passed and len(verdict.orders) == 3
    assert tracer.counts["repcheck.factorizations_dense"] == 3
    assert tracer.counts["repcheck.solves"] == 3 * 6


def test_tracer_sees_one_product_per_mul():
    # the product kernel runs inside TorusElement.__mul__, the method the
    # tracer wraps for qtorus.muls and qtorus.term_pairs
    tracing = load_tracing()
    s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
    a = TorusElement(s, {(i, 0): Laurent({i: 1, -i: 2}) for i in range(1, 4)})
    b = TorusElement(s, {(0, j): Laurent({j: -1}) for j in range(1, 5)})
    tracer = tracing.Tracer()
    with tracer.installed():
        prod = a * b
        scaled = a * Laurent.q_power(4)
    assert prod == TorusElement(s, {(i, j): Laurent({i + j + 3 * i * j: -1, j - i + 3 * i * j: -2})
                                    for i in range(1, 4) for j in range(1, 5)})
    assert scaled == TorusElement(s, {k: c * Laurent.q_power(4) for k, c in a.terms.items()})
    assert tracer.counts["qtorus.muls"] == 1
    assert tracer.counts["qtorus.term_pairs"] == 3 * 4
    assert [rec[0] for rec in tracer.spans] == ["qtorus.mul", "qtorus.scale"]


def test_tracer_sees_square_as_one_mul():
    # a * a takes the grid-scatter path, or the pair loop when the grid cannot
    # hold it in int64 (here: coefficients of 2^40), inside the wrapped
    # __mul__, so it is still one qtorus.mul span with len(a.terms)^2 term pairs
    tracing = load_tracing()
    s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
    for scale in (1, 2 ** 40):
        a = TorusElement(s, {(i, j): Laurent({i: scale, -j: 2})
                             for i in range(3) for j in range(2)})
        tracer = tracing.Tracer()
        with tracer.installed():
            square = a * a
        assert square == a * TorusElement(s, dict(a.terms))
        assert (a._square() is None) == (scale > 1)
        assert tracer.counts["qtorus.muls"] == 1
        assert tracer.counts["qtorus.term_pairs"] == len(a.terms) ** 2 == 36
        assert [rec[0] for rec in tracer.spans] == ["qtorus.mul"]


def test_tracer_keeps_exact_generator_verdicts():
    # the tracer's verify hook reads min(out.orders) on every PASS that
    # verify_identity returns; exactly decided rows (no orders) never pass
    # through it, and tracing changes no verdict.  On polygon6 e0_3 e2_4 one
    # row needs the representations; on e0_2 e1_3 every row is exact and
    # one of them is also certified by representation.
    tracing = load_tracing()
    for edges, labels, identities in ((["e0_3", "e2_4"], ["e2_4", "e0_3"], 1),
                                      (["e0_2", "e1_3"], ["e1_3", "e0_2"], 1)):
        _, comp, _ = compose_flips(surface_by_name("polygon6"), edges, new_labels=labels)
        plain = repcheck.verify_generator_map_identity(comp, trials=3)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = repcheck.verify_generator_map_identity(comp, trials=3)
        assert "exact" in [v.method for v in plain.values()]
        assert {lab: (v.status, v.method, v.orders, v.max_residual, v.notes)
                for lab, v in traced.items()} \
            == {lab: (v.status, v.method, v.orders, v.max_residual, v.notes)
                for lab, v in plain.items()}
        assert tracer.counts["repcheck.identities"] == identities
