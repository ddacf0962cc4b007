import itertools

import numpy as np
import pytest

from qskein import coordinate_change as cc
from qskein import repcheck, suites
from qskein.coordinate_change import Expr
from qskein.library import surface_by_name
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement, TorusSpec
from qskein.qscalar import RootOfUnity
from qskein.repcheck import (
    DEFAULT_ORDERS,
    EXTRA_ORDERS,
    Inconclusive,
    RootRep,
    symplectic_normal_form,
    verify_generator_map_identity,
    verify_identity,
)
from qskein.shear import ShearSkein
from test_negative_controls import scale_coefficient, shift_exponent


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
                assert np.array_equal(lhs, rhs)


def test_act_identity_and_inverse():
    s = spec2()
    rep = RootRep(s, 7)
    v = rep.random_vectors(1)[0]
    one = TorusElement.one(s)
    assert np.array_equal(rep.act_element(one, v), v)
    k = (2, -1)
    xk = TorusElement.monomial(s, k)
    xmk = TorusElement.monomial(s, tuple(-a for a in k))
    w = rep.act_element(xk, rep.act_element(xmk, v))
    assert np.array_equal(w, v)


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
            assert np.array_equal(lhs, rhs)


def test_solve_monomial_and_binomial():
    s = spec2()
    rep = RootRep(s, 7)
    v = rep.random_vectors(1)[0]
    mono = Expr.from_element(TorusElement.monomial(s, (1, 2), Laurent.q_power(3)))
    w = rep.act_expr(mono.inv(), v)
    assert np.array_equal(rep.act_expr(mono, w), v)
    binom = Expr.from_element(
        TorusElement.one(s) + TorusElement.monomial(s, (1, 0))
    )
    w = rep.act_expr(binom.inv(), v)
    assert np.array_equal(rep.act_expr(binom, w), v)


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


def test_orders_skipped_for_dimension():
    # four unit blocks: dimension L^4 fits under DENSE_DIM at L = 5 and 7 only
    s = TorusSpec(tuple("abcdefgh"), np.kron(np.eye(4, dtype=int), [[0, 1], [-1, 0]]), 2)
    x = Expr.from_element(sum((TorusElement.generator(s, lab) for lab in s.labels),
                              TorusElement.zero(s)))
    verdict = verify_identity(x, x, s)
    assert verdict.status == "INCONCLUSIVE" and verdict.orders == (5, 7)
    assert verdict.notes == ["order %d skipped (dimension %d > %d)"
                             % (L, L ** 4, repcheck.DENSE_DIM) for L in (11, 13, 17, 19)]


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


def test_no_trials_is_refused():
    # x y = y x is false on this torus; with no trials nothing would be
    # compared, so both certifiers refuse rather than PASS it
    s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
    x = Expr.from_element(TorusElement.monomial(s, (1, 0)))
    y = Expr.from_element(TorusElement.monomial(s, (0, 1)))
    assert verify_identity(x * y, y * x, s, trials=2).status == "FAIL"
    _, comp, _ = cc.compose_flips(surface_by_name("polygon4"), ["e0_2", "tmp"],
                                  new_labels=["tmp", "e0_2"])
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trial"):
            verify_identity(x * y, y * x, s, trials=trials)
        with pytest.raises(ValueError, match="trial"):
            verify_generator_map_identity(comp, trials=trials)


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
    # expressions, so each completed order inverts it once (a binomial,
    # along its cycles)
    calls = []
    for name in ("lu_factor", "cycle_inverse"):
        def counted(arg, p, invert=getattr(repcheck, name)):
            calls.append(invert)
            return invert(arg, p)

        monkeypatch.setattr(repcheck, name, counted)
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


def test_fail_witness_is_first_failing_trial():
    s = spec2()
    x = Expr.from_element(TorusElement.monomial(s, (1, 1)))
    wrong = x * Laurent.q_power(1)
    verdict = verify_identity(x, wrong, s, trials=5)
    L = DEFAULT_ORDERS[0]
    assert verdict.status == "FAIL" and verdict.orders == (L,)
    assert verdict.witness == {"order": L, "trial": 0}
    # the witness trial's vector, drawn again from a fresh representation
    # and acted on alone, separates the two sides mod p
    rep = RootRep(s, L, seed=0)
    v = rep.random_vectors(5)[verdict.witness["trial"]]
    assert not np.array_equal(rep.act_expr(x, v), rep.act_expr(wrong, v))


def test_trial_vectors_do_not_depend_on_trials():
    for s in SPECS:
        for L in DEFAULT_ORDERS:
            rep = RootRep(s, L, seed=4)
            few = rep.random_vectors(3)
            many = RootRep(s, L, seed=4).random_vectors(20)
            assert few.shape == (3, rep.dim) and few.dtype == np.int64
            assert np.array_equal(few, many[:3])
            assert many.min() >= 0 and many.max() < rep.p
            assert not np.array_equal(many[0], RootRep(s, L, seed=5).random_vectors(1)[0])


def normal_form_tori():
    """Tori whose matrix is already in symplectic normal form, 0, J and
    J (+) J, so z = x and r = 0, 1, 2 at every order."""
    J = [[0, 1], [-1, 0]]
    return (TorusSpec(("a", "b"), np.zeros((2, 2), dtype=int), 2),
            TorusSpec(("a", "b"), J, 2),
            TorusSpec(tuple("abcd"), np.kron(np.eye(2, dtype=int), J), 2))


def reference_matrix(rep, el):
    """The matrix of el on the basis tuples n, in C order, built term by
    term from z^(a,b) . e_n = zeta^(h d (2 a . n + a . b)) e_(n + b) with
    d = 1, times the central character g^(k . chi) and the coefficient."""
    root, p, L = rep.root, rep.p, rep.L
    h = rep.spec.u_eighth // 2
    basis = list(itertools.product(range(L), repeat=rep.r))
    index = {n: j for j, n in enumerate(basis)}
    mat = np.zeros((rep.dim, rep.dim), dtype=np.int64)
    for k, coeff in el.terms.items():
        a, b = k[0:2 * rep.r:2], k[1:2 * rep.r:2]
        turns = sum(int(x) * int(chi) for x, chi in zip(k, rep._character))
        scale = pow(root.g, turns % (p - 1), p) * coeff.evaluate(root) % p
        for j, n in enumerate(basis):
            e = h * sum(2 * ai * ni + ai * bi for ai, ni, bi in zip(a, n, b))
            i = index[tuple((ni + bi) % L for ni, bi in zip(n, b))]
            mat[i, j] = (mat[i, j] + scale * pow(root.zeta, e % L, p)) % p
    return mat


def random_element(spec, rng, terms):
    n = len(spec.labels)
    return TorusElement(spec, {
        tuple(int(x) for x in rng.integers(-3, 4, n)):
            Laurent({int(e): int(c) for e, c in zip(rng.integers(-8, 9, 2),
                                                     rng.integers(1, 5, 2))})
        for _ in range(terms)})


def test_flat_action_matches_reference_matrix():
    rng = np.random.default_rng(31)
    for s, r in zip(normal_form_tori(), (0, 1, 2)):
        P, _, _ = symplectic_normal_form(s)
        assert np.array_equal(P, np.eye(len(s.labels), dtype=np.int64))
        for L in (5, 7):
            rep = RootRep(s, L, seed=1)
            assert rep.r == r and rep.dim == L ** r
            batch = rep.random_vectors(4)
            for terms in (1, 3, 5):
                el = random_element(s, rng, terms)
                mat = reference_matrix(rep, el)
                assert np.array_equal(rep.act_element(el, batch[0]), mat @ batch[0] % rep.p)
                assert np.array_equal(rep.act_element(el, batch), batch @ mat.T % rep.p)


def test_solve_matches_reference_inverse():
    rng = np.random.default_rng(37)
    for s in normal_form_tori():
        for L in (5, 7):
            rep = RootRep(s, L, seed=2)
            batch = rep.random_vectors(3)
            binomial = random_element(s, rng, 2)
            mat = reference_matrix(rep, binomial)
            expr = Expr.from_element(binomial)
            assert len(binomial.terms) == 2
            one = rep._solve(expr, batch[0])
            many = rep._solve(expr, batch)
            assert np.array_equal(mat @ one % rep.p, batch[0])
            assert np.array_equal(many @ mat.T % rep.p, batch)
            assert np.array_equal(many[0], one)


def test_prime_field_per_order():
    # p is the prime below 2^25 with p = 1 (mod L), and zeta has order L
    for L in DEFAULT_ORDERS + EXTRA_ORDERS:
        root = RootOfUnity(L)
        p = root.p
        assert p < 2 ** 25 and p % L == 1
        assert all(p % f for f in range(2, int(p ** 0.5) + 1))
        powers = [pow(root.zeta, k, p) for k in range(1, L + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1]
        assert RootRep(spec2(), L).p == p


def test_lu_factor_inverts_mod_p():
    p = RootOfUnity(7).p
    rng = np.random.default_rng(9)
    for n in (1, 4, 9):
        mat = rng.integers(0, p, (n, n))
        mat[:, 0] = 0                       # the first pivot needs a row swap
        mat[n - 1, 0] = 1
        inverse = repcheck.lu_factor(mat, p)
        assert np.array_equal(mat @ inverse % p, np.eye(n, dtype=np.int64))
        rhs = rng.integers(0, p, (n, 3))
        assert np.array_equal(mat @ repcheck.lu_solve(inverse, rhs, p) % p, rhs)
    with pytest.raises(ValueError, match="singular"):
        repcheck.lu_factor(np.array([[1, 2], [3, 6]]), p)


def _whole_column_inverse(mat, p):
    """lu_factor's Gauss-Jordan elimination, updating every row at every step."""
    n = len(mat)
    m = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    for k in range(n):
        col = m[:, k] % p
        if not col[k]:
            j = k + int(np.argmax(col[k:] != 0))
            if not col[j]:
                raise ValueError("matrix is singular mod %d" % p)
            m[[k, j]], col[[k, j]] = m[[j, k]], col[[j, k]]
        row = m[k, k:] % p * pow(int(col[k]), -1, p) % p
        col[k] = 0
        m[:, k:] -= col[:, None] * row
        m[k, k:] = row
    return m[:, n:] % p


def _permuted_blocks(rng, p, blocks, size, singular=False):
    """A random block-diagonal matrix with its rows and columns permuted; a
    singular one has a block whose last row is the sum of two others."""
    mat = np.zeros((blocks * size, blocks * size), dtype=np.int64)
    for b in range(blocks):
        block = rng.integers(0, p, (size, size))
        if singular and b == blocks // 2:
            block[-1] = (block[0] + block[1]) % p
        mat[b * size:(b + 1) * size, b * size:(b + 1) * size] = block
    return mat[rng.permutation(len(mat))][:, rng.permutation(len(mat))]


@pytest.mark.parametrize("L", [5, 7])
def test_lu_factor_restricted_elimination_matches_whole_column(L):
    # updating only the rows with a nonzero pivot-column entry gives the
    # whole-column elimination's inverse bit for bit, and the same failures
    p = RootOfUnity(L).p
    rng = np.random.default_rng(L)
    sparse = rng.integers(0, p, (17, 17)) * (rng.random((17, 17)) < 0.25)
    sparse[np.arange(17), rng.permutation(17)] = rng.integers(1, p, 17)
    for mat in [rng.integers(0, p, (n, n)) for n in (1, 6, 17)] + [
            sparse, _permuted_blocks(rng, p, 4, 7), _permuted_blocks(rng, p, 11, 11)]:
        inverse = repcheck.lu_factor(mat, p)
        assert np.array_equal(inverse, _whole_column_inverse(mat, p))
        assert np.array_equal(mat @ inverse % p, np.eye(len(mat), dtype=np.int64))
    dense = rng.integers(0, p, (9, 9))
    dense[4] = 3 * dense[2] % p
    for mat in (dense, _permuted_blocks(rng, p, 4, 7, singular=True),
                _permuted_blocks(rng, p, 11, 11, singular=True)):
        for invert in (repcheck.lu_factor, _whole_column_inverse):
            with pytest.raises(ValueError, match="singular"):
                invert(mat, p)


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


# ---------------------------------------------------------------------------
# generator rows decided exactly


def flipbacks(T):
    """(edges, labels) of every flip-back on T: flip an edge, then the new
    diagonal back under the old label."""
    return [([e, "tmp"], ["tmp", e]) for e in T.inner_edges]


def two_flip_walks(T):
    """(edges, labels) of every walk of two flips, the second never undoing
    the first, followed by their reverse, which restores every label."""
    walks = []
    for e in T.inner_edges:
        T2, fd = T.flip(e)
        for f in T2.inner_edges:
            if f != fd.a_star:
                _, fd2 = T2.flip(f)
                walks.append(([e, f, fd2.a_star, fd.a_star], [fd.a_star, fd2.a_star, f, e]))
    return walks


def closed_walk_composites():
    """Every flip-back on polygon4-7 on both sides, both two-flip walks on
    polygon5 and the pentagon, as (name, composite)."""
    out = []
    for n in (4, 5, 6, 7):
        T = surface_by_name("polygon%d" % n)
        for side in ("shear", "skein"):
            for edges, labels in flipbacks(T):
                _, comp, _ = cc.compose_flips(T, edges, side=side, new_labels=labels)
                out.append(("%s polygon%d %s" % (side, n, edges[0]), comp))
    P5 = surface_by_name("polygon5")
    walks = two_flip_walks(P5)
    assert len(walks) == 2
    for edges, labels in walks:
        _, comp, _ = cc.compose_flips(P5, edges, new_labels=labels)
        out.append(("walk " + " ".join(edges), comp))
    _, comp, _ = cc.compose_flips(P5, list(suites.PENTAGON_SEQUENCE))
    out.append(("pentagon", comp))
    return out


def generator_row(comp, lab):
    """(image, generator) of one row of a composite."""
    want = Expr.from_element(TorusElement.generator(comp.target, lab, comp.gen_exponent))
    return comp.image_of_generator(lab, 1), want


def row_verdict(img, lab, spec):
    """verify_generator_map_identity's verdict on the row lab -> img (the
    inverse's image is not read)."""
    gmap = cc.GeneratorImageMap(source=spec, target=spec, images={lab: (img, img)})
    return verify_generator_map_identity(gmap, trials=3)[lab]


def test_exact_rows_agree_with_representations():
    # the representation certifier still runs on every exactly decided row
    # and must give the same status
    methods = set()
    for name, comp in closed_walk_composites():
        for lab, v in verify_generator_map_identity(comp, trials=3).items():
            methods.add((v.method, tuple(n for n in v.notes
                                         if not n.startswith("representation: "))))
            img, want = generator_row(comp, lab)
            by_rep = verify_identity(img, want, comp.target, trials=3)
            assert by_rep.method == "representation" and by_rep.orders == DEFAULT_ORDERS
            assert v.status == by_rep.status == "PASS", (name, lab, v, by_rep)
            if v.method == "exact":
                assert v.orders == () and str(v) == "PASS (exact)"
    assert methods == {("exact", ()), ("exact", ("left denominator cleared",)),
                       ("exact", ("right denominator cleared",)), ("representation", ())}


def test_all_exact_maps_cross_check_one_row(monkeypatch):
    # a map whose rows are all decided exactly still certifies its row with
    # the most words by representation; a wrong representation verdict there
    # fails the map, and a wrong exact verdict is reported over a PASS one
    _, comp, _ = cc.compose_flips(surface_by_name("polygon6"), ["e0_2", "e1_3"],
                                  new_labels=["e1_3", "e0_2"])
    verdicts = verify_generator_map_identity(comp, trials=3)
    assert {v.method for v in verdicts.values()} == {"exact"}
    checked = [lab for lab, v in verdicts.items()
               if any(n.startswith("representation: PASS") for n in v.notes)]
    assert checked == ["e0_3"] and len(comp.image_of_generator("e0_3", 1).words) == 2
    assert all(v.passed for v in verdicts.values())

    honest, honest_exact = repcheck.verify_identity, repcheck._exact_verdict

    def flipped(verdict):
        verdict.status = "FAIL" if verdict.status == "PASS" else "PASS"
        return verdict

    monkeypatch.setattr(repcheck, "verify_identity",
                        lambda *a, **kw: flipped(honest(*a, **kw)))
    v = verify_generator_map_identity(comp, trials=3)["e0_3"]
    assert v.status == "FAIL" and v.method == "representation" and "exact: PASS" in v.notes
    monkeypatch.setattr(repcheck, "verify_identity", honest)
    monkeypatch.setattr(repcheck, "_exact_verdict",
                        lambda *a: flipped(honest_exact(*a)))
    v = verify_generator_map_identity(comp, trials=3)["e0_3"]
    assert v.status == "FAIL" and v.method == "exact"
    assert any(n.startswith("representation: PASS") for n in v.notes)


def test_pentagon_generators_take_representations():
    _, comp, _ = cc.compose_flips(surface_by_name("polygon5"), list(suites.PENTAGON_SEQUENCE))
    verdicts = verify_generator_map_identity(comp, trials=3)
    assert len(verdicts) == 2
    for v in verdicts.values():
        assert v.passed and v.method == "representation" and v.orders == DEFAULT_ORDERS


def test_shared_representations_keep_verdicts_bit_identical():
    # one (RootRep, batch) per (sub-torus, order) for all generators of a
    # map: the verdicts equal those of separate verify_identity calls
    _, comp, _ = cc.compose_flips(surface_by_name("polygon5"),
                                  list(suites.PENTAGON_SEQUENCE) * 2)
    for lab, v in verify_generator_map_identity(comp, trials=4, seed=2).items():
        alone = verify_identity(*generator_row(comp, lab), comp.target, trials=4, seed=2)
        assert (v.status, v.witness, v.orders) == (alone.status, alone.witness, alone.orders)


def exact_shape_images():
    """(name, image, label, torus) of a true row of each exact shape: an
    inverse-free shear image, a left-denominator shear image folded into
    one word D^-1 A, and a right-denominator skein image."""
    P5 = surface_by_name("polygon5")
    _, shear, _ = cc.compose_flips(P5, ["e0_2", "e1_3"], new_labels=["e1_3", "e0_2"])
    _, skein, _ = cc.compose_flips(P5, ["e0_2", "tmp"], side="skein",
                                   new_labels=["tmp", "e0_2"])
    free, _ = generator_row(shear, "e0_2")
    left, _ = generator_row(shear, "e0_3")
    right, _ = generator_row(skein, "e0_2")
    # every word of left starts with the same inverse; shift_exponent edits
    # the first factor met, so in one word it changes that inverse itself
    (kind, den), = {fs[0] for _, fs in left.words}
    assert kind == "inv"
    rest = Expr(left.spec, [(c, fs[1:]) for c, fs in left.words]).as_element()
    folded = Expr(left.spec, [(Laurent.one(), (("inv", den), ("el", rest)))])
    return [("inverse-free", free, "e0_2", shear.target),
            ("left denominator", folded, "e0_3", shear.target),
            ("right denominator", right, "e0_2", skein.target)]


def test_negative_controls_fail_exactly():
    for name, img, lab, spec in exact_shape_images():
        assert row_verdict(img, lab, spec).status == "PASS"
        for perturb in (scale_coefficient, shift_exponent):
            v = row_verdict(perturb(img), lab, spec)
            assert v.status == "FAIL" and v.method == "exact", (name, perturb.__name__, v)
            assert v.orders == ()
            w = v.witness
            assert set(w) == {"monomial", "lhs", "rhs"} and w["lhs"] != w["rhs"]
            assert str(v).startswith("FAIL (exact) witness=")


def test_zero_and_nested_denominators_take_representations():
    s = spec2()
    a = TorusElement.monomial(s, (2, 0))
    x = Expr.from_element(a)
    zero = Expr.from_element(TorusElement.zero(s))
    cancelling = x + x * Laurent.integer(-1)    # two words whose sum is 0
    nested = (x + x.inv()).inv() * x
    for den in (zero, cancelling):
        v = row_verdict(den.inv() * x, "a", s)
        assert v.method == "representation" and v.status == "INCONCLUSIVE", v
    assert row_verdict(nested, "a", s).method == "representation"
    # an inverse inside a word's rest is not cleared either
    assert row_verdict(x.inv() * x * x.inv() * x * x, "a", s).method == "representation"
    assert row_verdict(x.inv() * x * x, "a", s).method == "exact"


# ---------------------------------------------------------------------------
# long composites, which the certifier decides exactly mod p


def repeated_pentagon(times):
    _, comp, _ = cc.compose_flips(surface_by_name("polygon5"),
                                  list(suites.PENTAGON_SEQUENCE) * times)
    return comp


def test_long_pentagon_composites_pass():
    # 20, 30 and 40 flips compose to the identity; no rounding decides the
    # verdict, however deep the nested solves
    for times in (4, 6, 8):
        comp = repeated_pentagon(times)
        for lab, v in verify_generator_map_identity(comp, trials=20).items():
            assert v.passed and v.orders == DEFAULT_ORDERS, (5 * times, lab, v)


def test_perturbed_20_flip_composite_fails():
    comp = repeated_pentagon(4)
    for lab in sorted(comp.source.labels):
        img, want = generator_row(comp, lab)
        for perturb in (scale_coefficient, shift_exponent):
            v = verify_identity(perturb(img), want, comp.target, trials=20)
            assert v.status == "FAIL", (lab, perturb.__name__, v)


def test_cycle_inverse_equals_gauss_jordan(monkeypatch):
    # binomials at L = 5 and 7 on r = 1 and r = 2 are inverted along their
    # cycles, bit for bit as Gauss-Jordan on their reference matrix, also
    # when one coefficient vanishes mod p (1 - q^(L/8) -> 1 - zeta^L = 0);
    # when both vanish the order is inconclusive, and lu_factor agrees
    gauss_jordan = repcheck.lu_factor

    def refuse(mat, p):
        raise AssertionError("a binomial reached lu_factor")

    monkeypatch.setattr(repcheck, "lu_factor", refuse)
    rng = np.random.default_rng(43)
    for s in normal_form_tori()[1:]:
        n = len(s.labels)
        for L in (5, 7):
            rep = RootRep(s, L, seed=5)
            batch = rep.random_vectors(2)
            vanish, unit = Laurent({0: 1, L: -1}), Laurent.q_power(3)
            k0, k1 = (0,) * n, tuple(int(x) for x in rng.integers(1, 4, n))
            binomials = [el for el in (random_element(s, rng, 2) for _ in range(8))
                         if len(el.terms) == 2]
            binomials += [TorusElement(s, {k0: vanish, k1: unit}),
                          TorusElement(s, {k0: unit, k1: vanish})]
            for el in binomials:
                expr = Expr.from_element(el)
                mat = reference_matrix(rep, el)
                assert np.array_equal(rep._solve(expr, batch) @ mat.T % rep.p, batch)
                assert np.array_equal(rep._inverses[id(expr)][1], gauss_jordan(mat, rep.p))
            zero = TorusElement(s, {k0: vanish, k1: vanish * unit})
            with pytest.raises(Inconclusive, match="singular action at L=%d" % L):
                rep._solve(Expr.from_element(zero), batch)
            with pytest.raises(ValueError, match="singular"):
                gauss_jordan(reference_matrix(rep, zero), rep.p)


def test_singular_binomial_is_inconclusive_at_its_order():
    # D = x^(0,1) + c x^(1,1), with c chosen so that N = -c rep(x^(0,1))^-1
    # rep(x^(1,1)), which is diagonal, has an entry 1 at L = 5: D is
    # singular there, so that order is inconclusive, as Gauss-Jordan finds,
    # and the verdict rests on 7, 11 and 13
    s = normal_form_tori()[1]
    rep = RootRep(s, 5)
    p = rep.p
    index, weight = rep._gathers(TorusElement(s, {(0, 1): Laurent.one(), (1, 1): Laurent.one()}))
    assert np.array_equal(index[0], index[1])
    c = -pow(int(weight[1, 0]), -1, p) * int(weight[0, 0]) % p
    D = TorusElement(s, {(0, 1): Laurent.one(), (1, 1): Laurent.integer(c)})
    with pytest.raises(ValueError, match="singular"):
        repcheck.lu_factor(reference_matrix(rep, D), p)
    with pytest.raises(Inconclusive):
        rep._solve(Expr.from_element(D), rep.random_vectors(1))
    inv = Expr.from_element(D).inv()
    verdict = verify_identity(inv * Expr.from_element(D), Expr.one(s), s, trials=3)
    assert verdict.status == "PASS" and verdict.orders == (7, 11, 13)
    assert verdict.notes == ["singular action at L=5: matrix is singular mod %d" % p]


def test_skein_flip_back_takes_no_gauss_jordan(monkeypatch):
    # guard: the polygon4 skein flip-back at e0_2 inverts its one binomial
    # payload along its cycles at dimensions 25, 49 and 121, never by lu_factor
    def refuse(mat, p):
        raise AssertionError("lu_factor on a %s matrix" % (mat.shape,))

    dims, cycle_inverse = [], repcheck.cycle_inverse

    def counted(gathers, p):
        dims.append(gathers[0].shape[1])
        return cycle_inverse(gathers, p)

    monkeypatch.setattr(repcheck, "lu_factor", refuse)
    monkeypatch.setattr(repcheck, "cycle_inverse", counted)
    P4 = surface_by_name("polygon4")
    final, comp, _ = cc.compose_flips(P4, ["e0_2", "tmp"], side="skein",
                                      new_labels=["tmp", "e0_2"])
    verdicts = verify_generator_map_identity(comp)
    assert final.same_as(P4) and all(v.passed for v in verdicts.values())
    assert dims == [25, 49, 121]
