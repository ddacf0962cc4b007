import numpy as np
import pytest

from qskein import coordinate_change as cc
from qskein import repcheck, suites
from qskein.coordinate_change import Expr
from qskein.library import surface_by_name
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement, TorusSpec
from qskein.repcheck import (
    DEFAULT_ORDERS,
    Inconclusive,
    RootRep,
    symplectic_normal_form,
    verify_identity,
)
from qskein.shear import ShearSkein


def spec2(u_eighth=2):
    return TorusSpec(("a", "b"), [[0, 3], [-3, 0]], u_eighth)


def spec_rank_deficient():
    # rank 2 on four labels: x[a] x[b]^2 x[c]^-1 and x[d] are central
    return TorusSpec(("a", "b", "c", "d"),
                     [[0, 2, 4, 0], [-2, 0, -2, 0], [-4, 2, 0, 0], [0, 0, 0, 0]], 2)


def spec_divisible():
    # the block entry 5 makes the pair central at L = 5
    return TorusSpec(("a", "b"), [[0, 5], [-5, 0]], 2)


SPECS = (spec2(), spec_rank_deficient(), spec_divisible())


def test_symplectic_normal_form():
    for s, d in zip(SPECS, ((3,), (2,), (5,))):
        P, Pinv, blocks = symplectic_normal_form(s)
        assert blocks == d
        assert round(abs(np.linalg.det(P))) == 1
        assert np.array_equal(P @ Pinv, np.eye(len(s.labels), dtype=np.int64))
    assert RootRep(spec_rank_deficient(), 7).dim == 7
    assert RootRep(spec_divisible(), 5).dim == 1
    assert RootRep(spec_divisible(), 7).dim == 7


def test_representation_law():
    rng = np.random.default_rng(21)
    for s in SPECS:
        n = len(s.labels)
        for L in DEFAULT_ORDERS:
            rep = RootRep(s, L)
            for v in rep.random_vectors(10):
                k = tuple(int(x) for x in rng.integers(-3, 4, n))
                m = tuple(int(x) for x in rng.integers(-3, 4, n))
                xk = TorusElement.monomial(s, k)
                xm = TorusElement.monomial(s, m)
                lhs = rep.act_element(xk, rep.act_element(xm, v))
                rhs = rep.act_element(xk * xm, v)
                assert np.linalg.norm(lhs - rhs) < 1e-12


def test_act_identity_and_inverse():
    s = spec2()
    rep = RootRep(s, 7)
    v = rep.random_vectors(1)[0]
    one = TorusElement.one(s)
    assert np.linalg.norm(rep.act_element(one, v) - v) == 0
    k = (2, -1)
    xk = TorusElement.monomial(s, k)
    xmk = TorusElement.monomial(s, tuple(-a for a in k))
    w = rep.act_element(xk, rep.act_element(xmk, v))
    assert np.linalg.norm(w - v) < 1e-12


def test_act_products_random_elements():
    rng = np.random.default_rng(23)
    for s in SPECS:
        rep = RootRep(s, 5)
        n = len(s.labels)
        for v in rep.random_vectors(10):
            a = TorusElement(
                s, {tuple(int(x) for x in rng.integers(-2, 3, n)): Laurent.one()
                    for _ in range(2)},
            )
            b = TorusElement(
                s, {tuple(int(x) for x in rng.integers(-2, 3, n)): Laurent.one()
                    for _ in range(2)},
            )
            lhs = rep.act_element(a * b, v)
            rhs = rep.act_element(a, rep.act_element(b, v))
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_solve_monomial_and_binomial():
    s = spec2()
    rep = RootRep(s, 7)
    v = rep.random_vectors(1)[0]
    mono = Expr.from_element(TorusElement.monomial(s, (1, 2), Laurent.q_power(3)))
    w = rep.act_expr(mono.inv(), v)
    assert np.linalg.norm(rep.act_expr(mono, w) - v) < 1e-10
    binom = Expr.from_element(
        TorusElement.one(s) + TorusElement.monomial(s, (1, 0))
    )
    w = rep.act_expr(binom.inv(), v)
    assert np.linalg.norm(rep.act_expr(binom, w) - v) < 1e-10


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_action_inconclusive():
    # the zero element is singular in every representation
    s = TorusSpec(("a",), [[0]], 2)
    bad = Expr.from_element(TorusElement.zero(s))
    rep = RootRep(s, 5)
    v = rep.random_vectors(1)[0]
    with pytest.raises(Inconclusive):
        rep.act_expr(bad.inv(), v)
    verdict = verify_identity(bad.inv(), bad.inv(), s, trials=2)
    assert verdict.status == "INCONCLUSIVE"


def test_verify_identity_pass_and_fail():
    s = spec2()
    k, m = (1, 0), (0, 1)
    xk = Expr.from_element(TorusElement.monomial(s, k))
    xm = Expr.from_element(TorusElement.monomial(s, m))
    lhs = xk * xm
    phase = Laurent.q_power((s.u_eighth) * s.pairing(k, m))
    rhs = (xm * xk) * phase
    assert verify_identity(lhs, rhs, s, trials=5).passed
    wrong = (xm * xk) * (phase * Laurent.q_power(1))
    verdict = verify_identity(lhs, wrong, s, trials=5)
    assert verdict.status == "FAIL" and verdict.witness is not None


def test_sum_sides():
    s = spec2()
    a = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    b = Expr.from_element(TorusElement.monomial(s, (0, 1)))
    both = Expr.from_element(
        TorusElement.monomial(s, (1, 0)) + TorusElement.monomial(s, (0, 1))
    )
    assert verify_identity([a, b], both, s, trials=3).passed


def test_restriction_to_support():
    big = TorusSpec(tuple("abcdefgh"), np.zeros((8, 8), dtype=int), 2)
    el = TorusElement.monomial(big, big.vec({"a": 1, "b": -1}))
    e = Expr.from_element(el)
    assert verify_identity(e, e, big, trials=2).passed


def spec_ambient():
    # contains spec2() as the sub-torus on (a, b), listed after c
    return TorusSpec(("c", "a", "b"), [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], 2)


def test_rep_acts_on_ambient_elements_by_label():
    big, sub = spec_ambient(), spec2()
    coeffs = {(1, 2): Laurent.q_power(3), (-2, 1): Laurent({0: 1, 4: -2})}
    on_big = TorusElement(big, {(0,) + k: c for k, c in coeffs.items()})
    on_sub = TorusElement(sub, coeffs)
    for L in DEFAULT_ORDERS:
        rep = RootRep(sub, L)
        v = rep.random_vectors(1)[0]
        assert np.array_equal(rep.act_element(on_big, v), rep.act_element(on_sub, v))
        with pytest.raises(ValueError):
            rep.act_element(TorusElement.generator(big, "c"), v)
    with pytest.raises(ValueError):
        rep.act_element(TorusElement.one(spec2(u_eighth=4)), v)


def test_shared_inverse_factorized_once_per_order(monkeypatch):
    # one inverse payload in six words: the solve cache sees the caller's
    # expressions, so each completed order factorizes it once
    calls = []
    lu_factor = repcheck.lu_factor

    def counted(mat):
        calls.append(mat.shape)
        return lu_factor(mat)

    monkeypatch.setattr(repcheck, "lu_factor", counted)
    s = spec_ambient()
    inv = Expr.from_element(TorusElement.one(s) + TorusElement.monomial(s, (0, 1, 0))).inv()
    x = Expr.from_element(TorusElement.monomial(s, (0, 0, 1)))
    verdict = verify_identity(inv * x + x * inv + inv, inv + x * inv + inv * x, s, trials=3)
    assert verdict.passed and verdict.orders == DEFAULT_ORDERS
    assert len(calls) == len(verdict.orders)


def test_pass_needs_three_orders(monkeypatch):
    # four inconclusive orders leave only 17 and 19, which is not enough
    act_expr = RootRep.act_expr

    def flaky(rep, expr, v):
        if rep.L in (5, 7, 11, 13):
            raise Inconclusive("forced at L=%d" % rep.L)
        return act_expr(rep, expr, v)

    monkeypatch.setattr(RootRep, "act_expr", flaky)
    s = spec2()
    e = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    verdict = verify_identity(e, e, s, trials=2)
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.orders == (17, 19)


def test_dia9_runs_at_full_orders():
    T = surface_by_name("polygon5")
    b1 = ShearSkein(T)
    T2, fd, theta = cc.theta_flip(T, "e0_2")
    b2 = ShearSkein(T2)
    _, _, phi = cc.phi_flip_from_data(T, T2, fd, bundles=(b1, b2))
    lhs = theta.images["e0_3"][1].map_elements(lambda el: Expr.from_element(b1.psi(el)))
    rhs = phi.apply_element(b2.psi(TorusElement.generator(b2.y, "e0_3", -2)))
    support = lhs.support_labels() | rhs.support_labels()
    labels = tuple(lab for lab in b1.x.labels if lab in support)
    idx = [b1.x.index[lab] for lab in labels]
    sub = TorusSpec(labels, b1.x.A[np.ix_(idx, idx)], b1.x.u_eighth)
    assert len(labels) == 7
    assert RootRep(sub, 11).dim == 1331
    rows = suites.suite_dia9(trials=2)
    assert len(rows) == 12
    for name, status, detail in rows:
        assert status == "PASS" and detail.endswith("at orders [5, 7, 11]"), name


def test_one_action_per_side_per_order(monkeypatch):
    # all trials of an order run as one batch through each side expression
    calls = []
    act_expr = RootRep.act_expr

    def counted(rep, expr, v):
        calls.append(rep.L)
        return act_expr(rep, expr, v)

    monkeypatch.setattr(RootRep, "act_expr", counted)
    s = spec2()
    a = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    b = Expr.from_element(TorusElement.monomial(s, (0, 1)))
    both = Expr.from_element(
        TorusElement.monomial(s, (1, 0)) + TorusElement.monomial(s, (0, 1))
    )
    verdict = verify_identity([a, b], both, s, trials=4)
    assert verdict.passed
    assert calls == [L for L in verdict.orders for _ in range(3)]


def test_solve_residual_uses_cached_matrix(monkeypatch):
    # a solution perturbed by 1e-6 must fail the residual check
    lu_solve = repcheck.lu_solve
    monkeypatch.setattr(repcheck, "lu_solve", lambda lu, b: lu_solve(lu, b) + 1e-6)
    s = spec2()
    binom = Expr.from_element(TorusElement.one(s) + TorusElement.monomial(s, (1, 0)))
    rep = RootRep(s, 7)
    v = rep.random_vectors(1)[0]
    with pytest.raises(Inconclusive, match="did not converge"):
        rep.act_expr(binom.inv(), v)
    verdict = verify_identity(binom.inv(), binom.inv(), s, trials=2)
    assert verdict.status == "INCONCLUSIVE" and verdict.orders == ()


def test_fail_witness_is_first_failing_trial():
    s = spec2()
    x = Expr.from_element(TorusElement.monomial(s, (1, 1)))
    wrong = x * Laurent.q_power(1)
    verdict = verify_identity(x, wrong, s, trials=5)
    L = DEFAULT_ORDERS[0]
    assert verdict.status == "FAIL" and verdict.orders == (L,)
    assert verdict.witness["order"] == L and verdict.witness["trial"] == 0
    assert verdict.max_residual == verdict.witness["residual"]
    # the batched residual agrees with the witness trial's vector, drawn
    # again from a fresh representation and acted on alone
    rep = RootRep(s, L, seed=0)
    v = rep.random_vectors(5)[verdict.witness["trial"]]
    a, b = rep.act_expr(x, v), rep.act_expr(wrong, v)
    alone = np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    assert abs(verdict.witness["residual"] - alone) < 1e-12


def test_nan_residual_fails(monkeypatch):
    act_expr = RootRep.act_expr

    def poisoned(rep, expr, v):
        out = act_expr(rep, expr, v)
        out[2] = np.nan
        return out

    monkeypatch.setattr(RootRep, "act_expr", poisoned)
    s = spec2()
    x = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    verdict = verify_identity(x, x, s, trials=4)
    assert verdict.status == "FAIL" and verdict.witness["trial"] == 2


def test_trial_vectors_do_not_depend_on_trials():
    for s in SPECS:
        for L in DEFAULT_ORDERS:
            rep = RootRep(s, L, seed=4)
            few = rep.random_vectors(3)
            many = RootRep(s, L, seed=4).random_vectors(20)
            assert few.shape == (3,) + rep.shape
            assert np.array_equal(few, many[:3])
            norms = np.linalg.norm(many.reshape(20, -1), axis=1)
            assert np.allclose(norms, 1.0)
            assert not np.array_equal(many[0], RootRep(s, L, seed=5).random_vectors(1)[0])


def test_one_generator_per_order(monkeypatch):
    # the characters and the whole trial batch of an order come from one
    # generator seeded by (seed, L)
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    s = spec2()
    x = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    verdict = verify_identity(x, x, s, trials=20, seed=3)
    assert verdict.passed and verdict.orders == DEFAULT_ORDERS
    assert seeds == [(3, L) for L in DEFAULT_ORDERS]
