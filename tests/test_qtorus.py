import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskein import qtorus
from qskein.coordinate_change import GeneratorImageMap
from qskein.curves import CurveError, transport_curve
from qskein.library import surface_by_name, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent, ONE
from qskein.qtorus import (
    TorusElement,
    TorusSpec,
    canonical_projection,
    mlh_apply,
)
from qskein.shear import ShearSkein
from qskein.surface import SurfaceError, torus_one_marked
from qskein.trace import trace_once_edge


def spec2(u_eighth=8):
    return TorusSpec(("a", "b"), [[0, 1], [-1, 0]], u_eighth)


def rng_vec(rng, spec, lo=-3, hi=4):
    return tuple(int(v) for v in rng.integers(lo, hi, len(spec.labels)))


def pairing(k, n, A):
    """The reference form k A n^T, in numpy."""
    return int(np.asarray(k) @ np.asarray(A) @ np.asarray(n))


def test_pairing_examples():
    s = spec2()
    assert s.pairing((1, 0), (0, 1)) == 1
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = tuple(rng.integers(-5, 6, 2))
        n = tuple(rng.integers(-5, 6, 2))
        assert s.pairing(k, k) == 0
        assert s.pairing(k, n) == -s.pairing(n, k) == pairing(k, n, s.A)


def reference_product(a, b):
    """sum c1 c2 q^((u_eighth/2) k1 A k2) x^(k1 + k2), one term pair at a time."""
    spec = a.spec
    A = spec.A.tolist()
    width = len(spec.labels)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            form = sum(k1[i] * A[i][j] * k2[j] for i in range(width) for j in range(width))
            phase = (spec.u_eighth // 2) * form
            slot = out.setdefault(tuple(x + y for x, y in zip(k1, k2)), {})
            for n1, a1 in c1.terms.items():
                for n2, a2 in c2.terms.items():
                    n = n1 + n2 + phase
                    slot[n] = slot.get(n, 0) + a1 * a2
    return TorusElement(spec, {k: Laurent(slot) for k, slot in out.items()})


def assert_canonical(el):
    """Python-int exponents and coefficients, no zero coefficient, keys of
    the spec's width, and JSON output."""
    width = len(el.spec.labels)
    for k, c in el.terms.items():
        assert type(k) is tuple and len(k) == width
        assert all(type(e) is int for e in k)
        assert c.terms
        for n, v in c.terms.items():
            assert type(n) is int and type(v) is int and v != 0
    json.dumps(el.to_json())


def random_coeff(rng, big=False):
    coeff = {}
    for _ in range(int(rng.integers(1, 4))):
        c = int(rng.integers(-5, 6)) or 1
        coeff[int(rng.integers(-12, 13))] = c * 3 ** 45 if big else c
    return coeff


def random_element(rng, spec, n_terms, big=False):
    terms = {}
    for _ in range(n_terms):
        terms[rng_vec(rng, spec, -2, 3)] = Laurent(random_coeff(rng, big))
    return TorusElement(spec, terms)


def repeating_element(rng, spec, n_terms, big=False):
    """Terms whose coefficients take three values, each value also stored
    with its terms in reverse order, so equal coefficients recur."""
    pool = []
    for _ in range(3):
        coeff = random_coeff(rng, big)
        pool += [Laurent(coeff), Laurent(dict(reversed(list(coeff.items()))))]
    terms = {}
    for _ in range(n_terms):
        terms[rng_vec(rng, spec, -2, 3)] = pool[int(rng.integers(len(pool)))]
    return TorusElement(spec, terms)


def product_specs():
    x = ShearSkein(surface_by_name("polygon5")).x
    yield TorusSpec((), np.zeros((0, 0), dtype=int), 2)
    for u_eighth in (8, 0, -6):
        yield spec2(u_eighth)
    for u_eighth in (x.u_eighth, 0, -10):
        yield TorusSpec(x.labels, x.A, u_eighth)


def test_product_matches_per_pair_reference():
    rng = np.random.default_rng(8)
    for spec in product_specs():
        zero = TorusElement.zero(spec)
        for m, p in ((0, 3), (3, 0), (1, 1), (3, 4), (6, 5)):
            for big in (False, True):
                a = random_element(rng, spec, m, big)
                b = random_element(rng, spec, p, big)
                prod = a * b
                assert prod == reference_product(a, b)
                assert_canonical(prod)
                assert zero * b == zero and a * zero == zero
        for _ in range(10):
            k, n = rng_vec(rng, spec), rng_vec(rng, spec)
            assert spec.pairing(k, n) == pairing(k, n, spec.A)


def assert_shared(el):
    """Equal coefficients of el are one object."""
    coeffs = el.terms.values()
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_square_matches_per_pair_reference(monkeypatch):
    # a * a takes the grid-scatter path, or the pair loop for big or sparse
    # coefficients; u_eighth 0 makes +phase = -phase
    paths, square_on_grid = [], TorusElement._square

    def recorded(el):
        paths.append((len(el.terms), square_on_grid(el)))
        return paths[-1][1]

    monkeypatch.setattr(TorusElement, "_square", recorded)
    rng = np.random.default_rng(11)
    for spec in product_specs():
        for n_terms in (0, 1, 2, 5, 9):
            for big in (False, True):
                for a in (random_element(rng, spec, n_terms, big),
                          repeating_element(rng, spec, n_terms, big)):
                    square = a * a
                    assert square == reference_product(a, a)
                    assert square == a * TorusElement(spec, dict(a.terms))
                    assert_canonical(square)
    # 54 of the 112 nonempty squares take the grid; the others exceed int64
    # (big coefficients) or, in 2 cases, hold a row longer than their
    # coefficient term count squared
    grid = [out for n, out in paths if n > 0 and out is not None]
    assert len(grid) >= 54
    for square in grid:
        assert_shared(square)
    # some grid square holds one coefficient object for several monomials
    assert any(len({id(c) for c in sq.terms.values()}) < len(sq.terms) for sq in grid)


def test_square_shares_exactly_the_equal_coefficients():
    # every grid square holds one object per distinct coefficient: random
    # and repeating elements, and both traces of the 9-crossing greedy rung
    rng = np.random.default_rng(13)
    squares = 0
    for spec in product_specs():
        for n_terms in (2, 5, 9):
            for a in (random_element(rng, spec, n_terms), repeating_element(rng, spec, n_terms)):
                square = a._square()
                if square is None:
                    continue
                assert square == reference_product(a, a)
                assert_canonical(square)
                assert_shared(square)
                squares += 1
    # x^(0,2)'s coefficient 1 is the first entry of x^(2,0)'s 1 + 2q + q^2:
    # the two runs begin alike but differ, so they share no object
    a = TorusElement(spec2(0), {(1, 0): Laurent({0: 1, 8: 1}), (0, 1): ONE})
    square = a._square()
    assert square == reference_product(a, a)
    assert_shared(square)
    T, alpha = greedy_rung(9)
    for el in trace_once_edge(alpha, T, bundle=ShearSkein(T))[:2]:
        square = el._square()
        assert square == reference_product(el, el)
        assert_canonical(square)
        assert_shared(square)
        assert len({id(c) for c in square.terms.values()}) < len(square.terms)
        squares += 1
    assert squares >= 30


def unmatched_element(rng, spec, n_terms):
    """A repeating element whose coefficients are multiples of 10007, which
    no other test's square holds, so none of its square's coefficients can
    be alive before it is made."""
    a = repeating_element(rng, spec, n_terms)
    return TorusElement(spec, {k: c * Laurent.integer(10007) for k, c in a.terms.items()})


def square_builds(monkeypatch, a, square=lambda a: a * a):
    """square(a), by default a * a, and the coefficients it builds."""
    built, canonical = [], Laurent._canonical

    def counted(terms):
        built.append(canonical(terms))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(Laurent, "_canonical", staticmethod(counted))
        out = square(a)
    return out, built


def test_square_takes_live_coefficients(monkeypatch):
    # a second grid square of one element, made while the first is alive,
    # holds the first square's coefficient objects and builds none
    rng = np.random.default_rng(35)
    squares = 0
    for spec in product_specs():
        for a in (unmatched_element(rng, spec, 1), unmatched_element(rng, spec, 9)):
            if a._square() is None:
                continue
            squares += 1
            first, built = square_builds(monkeypatch, a)
            assert len(built) == len(set(first.terms.values()))
            second, built = square_builds(monkeypatch, a)
            assert built == []
            assert list(second.terms) == list(first.terms)
            assert all(second.terms[k] is c for k, c in first.terms.items())
            assert second == reference_product(a, a)
    assert squares >= 10


def coefficient_sides(monkeypatch, a):
    """a._square(), and how many times it ran the coefficient side."""
    runs, coefficients = [], qtorus._square_coefficients

    def counted(*table):
        runs.append(table)
        return coefficients(*table)

    with monkeypatch.context() as m:
        m.setattr(qtorus, "_square_coefficients", counted)
        square = a._square()
    return square, len(runs)


def test_square_table_is_weak(monkeypatch):
    # the square table keeps no square alive: once every square is gone it
    # is back to its size before them, and a new square runs the
    # coefficient side and builds fresh coefficients
    rng = np.random.default_rng(36)
    before = len(qtorus._SQUARES)
    elements = [unmatched_element(rng, spec, 9) for spec in product_specs()]
    squares = [a * a for a in elements]
    assert len(qtorus._SQUARES) > before
    del squares
    gc.collect()
    assert len(qtorus._SQUARES) == before
    for a in elements:
        square, built = square_builds(monkeypatch, a)
        assert square == reference_product(a, a)
        assert {id(c) for c in square.terms.values()} == {id(c) for c in built}
        assert len(built) == len(set(built))
        del square
        assert coefficient_sides(monkeypatch, a)[1] == 1


def table_pairs():
    """(part, a, b): grid-squarable elements whose multiplication tables
    agree in every part but one: the coefficient values, each term's
    coefficient index, the pair phases (the same exponents on a spec with
    another u), or which pairs share an output monomial (all phases 0)."""
    p, r = Laurent({0: 1, 8: 2}), Laurent({-4: 3})
    keys = ((1, 0), (0, 1), (1, 1), (2, -1))
    yield ("values", TorusElement(spec2(8), dict(zip(keys, (p, r, p, r)))),
           TorusElement(spec2(8), dict(zip(keys, (p, r * r, p, r * r)))))
    yield ("indices", TorusElement(spec2(8), dict(zip(keys, (p, r, p, r)))),
           TorusElement(spec2(8), dict(zip(keys, (p, r, r, p)))))
    yield ("phases", TorusElement(spec2(8), dict(zip(keys, (p, r, p, r)))),
           TorusElement(spec2(12), dict(zip(keys, (p, r, p, r)))))
    # exponents on one axis pair to 0; pair sums 0 1 2 5 | 2 3 6 | 4 7 | 10
    # against 0 1 3 4 | 2 4 5 | 6 7 | 8: nine monomials each, the collision
    # at another pair
    yield ("collisions",
           TorusElement(spec2(8), {(n, 0): c for n, c in zip((0, 1, 2, 5), (p, r, p, r))}),
           TorusElement(spec2(8), {(n, 0): c for n, c in zip((0, 1, 3, 4), (p, r, p, r))}))


def test_square_table_tells_apart_each_part(monkeypatch):
    # the second element of each pair, squared while the first one's square
    # is alive, runs its own coefficient side and equals the reference
    for part, a, b in table_pairs():
        first = a._square()
        assert first is not None and first == reference_product(a, a), part
        second, runs = coefficient_sides(monkeypatch, b)
        assert second is not None and second == reference_product(b, b), part
        assert runs == 1, part
        again, runs = coefficient_sides(monkeypatch, a)
        assert runs == 0 and again == first, part
        # a table leaves with the square that computed it, not with a later
        # square that took it, so each pair starts with no table alive
        del first, second, again


def partly_cancelling():
    """(a, the monomial its square loses): grid-squarable elements whose
    squares lose one monomial and keep the others.  On one commuting label,
    (1 + 2 x - 2 x^2)^2 has 2 * 1 * (-2) + 2^2 = 0 at x^2.  On spec2(8),
    x^(1,0) 2 x^(0,1) + 2 x^(0,1) x^(1,0) = 2 (q^(1/2) + q^(-1/2)) x^(1,1)
    meets the cross terms 2 * (-(q^(1/2) + q^(-1/2))) of x^(1,1) and x^(0,0)."""
    yield TorusElement(TorusSpec(("a",), [[0]], 2), {
        (0,): ONE, (2,): Laurent.integer(-2), (1,): Laurent.integer(2)}), (2,)
    yield TorusElement(spec2(8), {
        (1, 0): ONE, (0, 1): Laurent.integer(2), (1, 1): Laurent({4: -1, -4: -1}),
        (0, 0): ONE}), (1, 1)


def test_square_that_partly_cancels_on_both_paths(monkeypatch):
    # the first square runs the coefficient side, the second takes the
    # first's table with its count of cancelled monomials: both drop the
    # cancelled monomial, keep every other and list their keys in one order
    for a, gone in partly_cancelling():
        reference = reference_product(a, a)
        assert gone not in reference.terms and len(reference.terms) > 2
        first, runs = coefficient_sides(monkeypatch, a)
        assert runs == 1 and first == reference
        assert_canonical(first)
        second, runs = coefficient_sides(monkeypatch, a)
        assert runs == 0 and second == reference
        assert_canonical(second)
        assert list(second.terms) == list(first.terms)
        del first, second


def greedy_rung(crossings):
    """(surface, curve): the lifted (1,0) torus curve, flipped greedily to at
    least `crossings` crossings, each flip maximizing the crossing count
    while some edge stays crossed once."""
    ld = lift(torus_one_marked())
    T, alpha = ld.delta, curve_lift(ld, torus_curve("1,0")[1])
    while len(alpha.steps) < crossings:
        best = None
        for edge in T.inner_edges:
            try:
                T2, fd = T.flip(edge)
                moved = transport_curve(alpha, T, fd, T2)
            except (SurfaceError, CurveError):
                continue
            if 1 in moved.multiplicities().values() and (
                    best is None or len(moved.steps) > len(best[1].steps)):
                best = (T2, moved)
        T, alpha = best
    return T, alpha


def test_square_of_greedy_rung_trace_matches_reference(monkeypatch):
    T, alpha = greedy_rung(14)
    assert len(alpha.steps) == 14
    shear, skein, _ = trace_once_edge(alpha, T, bundle=ShearSkein(T))
    # the rung's squares come from the grid, not from the pair loop
    grid, square_on_grid = [], TorusElement._square

    def recorded(el):
        grid.append(square_on_grid(el))
        return grid[-1]

    monkeypatch.setattr(TorusElement, "_square", recorded)
    for el in (shear, skein):
        assert len(el.terms) > 20
        square = el * el
        assert grid[-1] is square
        assert square == reference_product(el, el)
        assert_canonical(square)
    assert len(grid) == 2


def stepped_element(rng, spec, n_terms, steps):
    """Terms whose coefficients each start at an odd multiple of 4 and step
    by 4 times one of `steps`, with gaps; a step of 0 gives a one-term
    coefficient."""
    terms = {}
    for _ in range(n_terms):
        step = int(rng.choice(steps))
        start = 4 * (2 * int(rng.integers(-3, 4)) + 1)
        places = {0} if step == 0 else {0, int(rng.integers(1, 4)), int(rng.integers(0, 4))}
        terms[rng_vec(rng, spec, -2, 3)] = Laurent(
            {start + 4 * step * j: int(rng.choice((-1, 1))) * int(rng.integers(1, 6))
             for j in places})
    return TorusElement(spec, terms)


def grid_steps(a):
    """(d, e) of a's square: d the gcd of every pair phase and coefficient
    exponent difference, e that of the differences inside each coefficient."""
    coeffs = set(a.terms.values())
    ns = [n for c in coeffs for n in c.terms]
    half = a.spec.u_eighth // 2
    phases = [half * a.spec.pairing(k1, k2) for k1 in a.terms for k2 in a.terms]
    d = math.gcd(*phases, *(n - min(ns) for n in ns)) or 1
    return d, math.gcd(*(n - min(c.terms) for c in coeffs for n in c.terms)) or d


def test_square_rows_on_each_coefficients_step():
    # coefficients that all step by 2 or 3 times 4 lay their rows on that
    # step e and their product columns e/d grid steps apart; mixed steps give
    # e = 4, and one-term coefficients add no step (all one-term: e = d);
    # a square whose row would span more grid steps than the pair loop's
    # products takes the pair loop, whatever its rows' own step
    rng = np.random.default_rng(19)
    ratios, looped = set(), 0
    for spec in product_specs():
        for steps in ((2,), (3,), (2, 3), (1, 2, 3), (0,), (0, 2), (0, 3)):
            for n_terms in (1, 3, 6):
                a = stepped_element(rng, spec, n_terms, steps)
                square = a._square()
                assert a * a == reference_product(a, a)
                d, e = grid_steps(a)
                terms = sum(len(c.terms) for c in a.terms.values())
                rows = max((max(c.terms) - min(c.terms)) // d + 1 for c in a.terms.values())
                assert (square is None) == (rows > terms ** 2)
                if square is None:
                    looped += 1
                    continue
                assert square == reference_product(a, a)
                assert_canonical(square)
                assert_shared(square)
                ratios.add(e // d)
    assert {1, 2, 3} <= ratios and looped < 10


def test_square_int64_and_object_coefficients():
    # ||a||_1^2 just below 2^63 takes the int64 grid, just above the pair loop;
    # phases of 8 make the grid step 8, so each coefficient is a dense row
    s = spec2(16)
    for norm in (3037000499, 3037000500):
        assert (norm * norm < 2 ** 63) == (norm == 3037000499)
        p = norm // 4
        a = TorusElement(s, {(1, 0): Laurent({0: p, 8: -p}),
                             (0, 1): Laurent({0: p, -8: norm - 3 * p}),
                             (1, 1): Laurent()})
        assert sum(abs(v) for c in a.terms.values() for v in c.terms.values()) == norm
        assert (a._square() is None) == (norm == 3037000500)
        square = a * a
        assert square == reference_product(a, a)
        assert_canonical(square)
        # one coefficient's square reaches ||a||_1^2 itself
        mono = TorusElement.monomial(s, (1, -1), Laurent({4: norm}))
        assert (mono * mono).terms == {(2, -2): Laurent({8: norm * norm})}
        assert_canonical(mono * mono)


def test_square_pairs_are_the_upper_triangle():
    for n in range(1, 41):
        iu, ju = qtorus._pairs(n)
        ti, tj = np.triu_indices(n)
        assert iu.dtype == ti.dtype and ju.dtype == tj.dtype
        assert np.array_equal(iu, ti) and np.array_equal(ju, tj)


def test_group_pairs_is_unique_with_first_indices():
    # _group_pairs gives np.unique's first indices and inverse, all codes
    # equal, all distinct and mixed
    rng = np.random.default_rng(39)
    for n in range(1, 41):
        for codes in (np.zeros(n, dtype=np.int64), rng.permutation(n) * 7,
                      rng.integers(0, max(n // 3, 1), n)):
            first, out_of = qtorus._group_pairs(codes)
            _, ref_first, ref_of = np.unique(codes, return_index=True, return_inverse=True)
            assert np.array_equal(first, ref_first) and np.array_equal(out_of, ref_of)


def test_square_sort_key_int64_bound():
    # the exponent side sorts pair code * npairs + pair index, which stays
    # below prod(radix) * npairs; on one label with A = 0 that product is
    # the only bound near 2^63: (2 h + 1) * 6 just below takes the grid,
    # just above the pair loop, though 2 h + 1 itself fits int64 on both
    s = TorusSpec(("a",), [[0]], 2)
    below = 768614336404564650
    for h in (below, below + 1):
        assert ((2 * h + 1) * 6 < 2 ** 63) == (h == below) and 2 * h + 1 < 2 ** 63
        a = TorusElement(s, {(0,): Laurent({0: 1, 4: -2}), (1,): Laurent({2: 3}),
                             (h,): Laurent({0: 1, 4: -2})})
        assert (a._square() is None) == (h == below + 1)
        square = a * a
        assert square == reference_product(a, a) and len(square.terms) == 6
        assert_canonical(square)


def test_square_edge_cases(monkeypatch):
    for spec in product_specs():        # zero width and u_eighth 0 among them
        one_term = TorusElement.monomial(spec, spec.zero_vec(), Laurent({3: -2, 5: 1}))
        assert (one_term * one_term).terms == {spec.zero_vec(): Laurent({6: 4, 8: -4, 10: 1})}
    # exponent vectors past int64 take the pair loop; on spec2 every phase and
    # exponent difference is a multiple of d = 4 * big
    big = 2 ** 70
    for spec, keys, step in ((spec2(8), ((big, 0), (0, 1), (big, 1)), 4 * big),
                             (TorusSpec(("a",), [[0]], 2), ((big,), (big + 3,), (big + 5,)), 8),
                             (spec2(8), ((big, 0), (0, big), (big, -big)), big)):
        a = TorusElement(spec, {k: Laurent({0: i + 1, step * (i - 1): 2})
                                for i, k in enumerate(keys)})
        square = a * a
        assert square == reference_product(a, a)
        assert_canonical(square)
    # phases of 2^42 on a grid of step 8 fit int64; the placements of x^(2^20, 2^20)
    # lie 2^40 grid steps apart, and the layout holds only the placements;
    # the exponents are converted one by one, since a table over the grid
    # points they span would hold about 2^40 ints
    a = TorusElement(spec2(8), {(2 ** 20, 0): Laurent({0: 1, 8: 1}), (0, 2 ** 20): ONE})
    sizes = []

    class Recorded:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def arange(*bounds):
            sizes.append(len(range(*map(int, bounds))))
            assert sizes[-1] < 1000, "a table over the exponent grid's span"
            return np.arange(*bounds)

    with monkeypatch.context() as m:
        m.setattr(qtorus, "np", Recorded())
        square = a._square()
    assert square == a * a == reference_product(a, a) and len(square.terms) == 3
    assert_canonical(square)
    kept = {id(c): c for c in square.terms.values()}
    assert max(sizes) <= sum(len(c.terms) for c in kept.values())
    # a coefficient of three terms spanning 2^40 grid steps would need a dense
    # row of 2^40 entries, so its square takes the pair loop, as a * b does
    a = TorusElement(spec2(8), {(1, 0): Laurent({0: 1, 1: 1, 2 ** 40: 1}), (0, 1): ONE})
    square = a * a
    assert a._square() is None
    assert square == a * TorusElement(a.spec, dict(a.terms)) == reference_product(a, a)
    assert len(square.terms) == 3
    assert_canonical(square)
    # a two-term coefficient whose terms lie 2^40 apart is a row of 2 slots
    # on its own step, but next to a one-term coefficient at an odd exponent
    # the grid step is 1, so its placements would cover about 2^41 grid
    # steps: the square takes the pair loop
    a = TorusElement(spec2(8), {(1, 0): Laurent({0: 1, 2 ** 40: 1}), (0, 1): Laurent({1: 1})})
    square = a * a
    assert a._square() is None
    assert square == reference_product(a, a) and len(square.terms) == 3
    assert_canonical(square)


def test_repeated_coefficients_match_per_pair_reference():
    rng = np.random.default_rng(12)
    for spec in product_specs():
        for m, p in ((1, 6), (6, 1), (5, 7)):
            for big in (False, True):
                a = repeating_element(rng, spec, m, big)
                b = repeating_element(rng, spec, p, big)
                assert a * b == reference_product(a, b)


SPECS = list(product_specs())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_products_match_reference_property(data):
    spec = data.draw(st.sampled_from(SPECS))
    coeff = st.dictionaries(st.integers(-12, 12), st.integers(-4, 4), max_size=3)
    # few coefficient values, so that equal coefficients recur across terms
    pool = data.draw(st.lists(coeff.map(Laurent), min_size=1, max_size=3))
    vec = st.tuples(*[st.integers(-2, 2)] * len(spec.labels))
    a, b = (TorusElement(spec, data.draw(
        st.dictionaries(vec, st.sampled_from(pool), max_size=6))) for _ in range(2))
    assert a * b == reference_product(a, b)
    assert a * a == reference_product(a, a)


def test_product_cancellation_and_exact_coefficients():
    for spec in product_specs():
        if not spec.labels:
            continue
        k = (1,) + (0,) * (len(spec.labels) - 1)
        one, minus = TorusElement.one(spec), Laurent.integer(-1)
        xk = TorusElement.monomial(spec, k)
        # <k,k>_A = 0: the cross terms cancel and leave no zero coefficient
        prod = (one + xk) * (one + xk * minus)
        assert prod == one + TorusElement.monomial(spec, tuple(2 * e for e in k), minus)
        assert len(prod.terms) == 2
        # the q^0 part of (q + q^-1)(q - q^-1) cancels inside one coefficient
        a = TorusElement.monomial(spec, k, Laurent({8: 1, -8: 1}))
        b = TorusElement.monomial(spec, spec.zero_vec(), Laurent({8: 1, -8: -1}))
        assert (a * b).terms == {k: Laurent({16: 1, -16: -1})}
    s = spec2(8)
    big = 2 ** 64 + 1
    a = TorusElement(s, {(1, 0): Laurent({0: big, 3: -big}), (0, 0): Laurent({0: big})})
    b = TorusElement(s, {(0, 1): Laurent({0: big})})
    # x^(1,0) x^(0,1) = q^(1/2) x^(1,1) at u = q
    assert (a * b).terms == {
        (1, 1): Laurent({4: big * big, 7: -big * big}),
        (0, 1): Laurent({0: big * big}),
    }


def test_monomial_identity_and_powers():
    s = spec2()
    assert TorusElement.monomial(s, (0, 0)) == TorusElement.one(s)
    x = TorusElement.monomial(s, (2, -1))
    assert x.reflect() == x


def test_mul_example():
    # A = [[0,1],[-1,0]], u = q: x^(1,0) x^(0,1) = q^(1/2) x^(1,1)
    s = spec2(8)
    a = TorusElement.monomial(s, (1, 0))
    b = TorusElement.monomial(s, (0, 1))
    assert a * b == TorusElement.monomial(s, (1, 1), Laurent.q_power(4))
    assert a * a.inverse_monomial() == TorusElement.one(s)
    with pytest.raises(ValueError, match="only monomials are invertible"):
        (a + b).inverse_monomial()
    # a coefficient of several terms is bracketed, and zero prints as 0
    assert str((a + b) * (a + b)) == ("1*q^(0) * x[b]^2 + (1*q^(-1/2) + 1*q^(1/2))"
                                      " * x[a]^1 x[b]^1 + 1*q^(0) * x[a]^2")
    assert str(TorusElement.zero(s)) == "0"


def test_commutation_relation():
    s = spec2(2)  # u = q^(1/4)
    rng = np.random.default_rng(1)
    for _ in range(30):
        k, n = rng_vec(rng, s), rng_vec(rng, s)
        xk = TorusElement.monomial(s, k)
        xn = TorusElement.monomial(s, n)
        phase = Laurent.q_power(s.u_eighth * s.pairing(k, n))
        assert xk * xn == (xn * xk) * phase


def test_associativity_random():
    s = TorusSpec(("a", "b", "c"), [[0, 2, -1], [-2, 0, 3], [1, -3, 0]], -8)
    rng = np.random.default_rng(2)
    for _ in range(15):
        els = []
        for _ in range(3):
            terms = {
                rng_vec(rng, s): Laurent.q_power(int(rng.integers(-4, 5)),
                                                 int(rng.integers(-3, 4)) or 1)
                for _ in range(2)
            }
            els.append(TorusElement(s, terms))
        a, b, c = els
        assert (a * b) * c == a * (b * c)


def test_ordered_product_phase():
    # x^(k_1) ... x^(k_m) = u^((1/2) sum_(i<j) <k_i,k_j>) x^(k_1 + ... + k_m)
    s = spec2()
    rng = np.random.default_rng(3)
    ks = [rng_vec(rng, s) for _ in range(4)]
    prod = TorusElement.one(s)
    for k in ks:
        prod = prod * TorusElement.monomial(s, k)
    total = tuple(sum(v) for v in zip(*ks))
    pairs = sum(s.pairing(k, n) for i, k in enumerate(ks) for n in ks[i + 1:])
    assert prod == TorusElement.monomial(s, total, s.half_phase(pairs))


def test_decompose_monomial_roundtrip():
    # the identity substitution writes c x^k as its phase times the product
    # of its generator powers in label order, which multiplies back to c x^k
    s = TorusSpec(("a", "b", "c"), [[0, 2, -1], [-2, 0, 3], [1, -3, 0]], 2)
    identity = GeneratorImageMap(s, s, {})
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = tuple(2 * v for v in rng_vec(rng, s))
        coeff = Laurent.q_power(int(rng.integers(-5, 6)))
        el = TorusElement.monomial(s, k, coeff)
        (phase, factors), = identity.apply_element(el).words
        prod = TorusElement.one(s) * phase
        for _, g in factors:
            prod = prod * g
        assert len(factors) == sum(1 for v in k if v)
        assert prod == el


def test_reflect_antihomomorphism():
    s = spec2(2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = TorusElement(s, {rng_vec(rng, s): Laurent.q_power(int(rng.integers(-3, 4)))
                             for _ in range(2)})
        b = TorusElement(s, {rng_vec(rng, s): Laurent.q_power(int(rng.integers(-3, 4)))
                             for _ in range(2)})
        assert (a * b).reflect() == b.reflect() * a.reflect()


def test_reflection_invariant_unit_coefficients():
    # a reflection-invariant sum of distinct monomials with q-power
    # coefficients must have every coefficient equal to 1
    s = spec2()
    el = TorusElement(s, {(1, 0): Laurent.one(), (0, 1): Laurent.one()})
    assert el.is_reflection_invariant() and el.has_unit_coefficients()
    skew = TorusElement.monomial(s, (1, 0), Laurent.q_power(8))
    assert not skew.is_reflection_invariant()
    assert not skew.has_unit_coefficients()
    q_coeffs = TorusElement(
        s, {(1, 0): Laurent.q_power(3), (0, 1): Laurent.q_power(-3)}
    )
    assert not q_coeffs.is_reflection_invariant()


def test_mlh_apply_is_algebra_map():
    src = TorusSpec(("u", "v"), [[0, 1], [-1, 0]], -8)      # u_src = q^(-1)
    dst = TorusSpec(("a", "b"), [[0, -4], [4, 0]], 2)        # u_dst = q^(1/4)
    H = np.array([[1, 0], [0, 1]])
    # H B H^T = [[0,-4],[4,0]] = -4 A with A = [[0,1],[-1,0]]
    assert np.array_equal(H @ dst.A @ H.T, -4 * src.A)
    rng = np.random.default_rng(6)
    one = TorusElement.one(src)
    assert mlh_apply(H, src, dst, one) == TorusElement.one(dst)
    for _ in range(15):
        a = TorusElement(src, {rng_vec(rng, src): Laurent.one() for _ in range(2)})
        b = TorusElement(src, {rng_vec(rng, src): Laurent.one() for _ in range(2)})
        fa, fb = (mlh_apply(H, src, dst, x) for x in (a, b))
        assert mlh_apply(H, src, dst, a * b) == fa * fb
        assert mlh_apply(H, src, dst, a.reflect()) == fa.reflect()


def test_mlh_apply_sums_colliding_images():
    # H forgets b: images of terms that differ in b collide and are summed,
    # a sum of zero leaves no term, and exponents past int64 stay exact
    src, dst = spec2(8), TorusSpec(("a",), [[0]], 2)
    H = np.array([[1], [0]])
    big = 2 ** 70
    el = TorusElement(src, {(big, 0): Laurent({0: 1, 8: 2}), (big, 1): Laurent({8: -2}),
                            (1, 0): ONE, (1, 5): Laurent.integer(-1)})
    image = mlh_apply(H, src, dst, el)
    assert image.terms == {(big,): ONE}
    assert_canonical(image)
    assert mlh_apply(H, src, dst, TorusElement.zero(src)) == TorusElement.zero(dst)
    with pytest.raises(ValueError, match="does not live in the source torus"):
        mlh_apply(H, src, dst, TorusElement.one(dst))


def test_mlh_injective_on_base():
    from qskein.library import MARKED_LIBRARY, surface_by_name
    from qskein.shear import ShearSkein
    rng = np.random.default_rng(7)
    for name in MARKED_LIBRARY[:4] + ("annulus",):
        bundle = ShearSkein(surface_by_name(name))
        n = len(bundle.y.labels)
        if n == 0:
            continue
        seen = {}
        for _ in range(200):
            k = tuple(int(v) for v in rng.integers(-3, 4, n))
            img = tuple(int(v) for v in np.asarray(k) @ bundle.H)
            assert seen.setdefault(img, k) == k


def test_canonical_projection():
    s = spec2()
    el = TorusElement(s, {(1, 0): Laurent.one(), (0, 2): Laurent.one()})
    assert canonical_projection(el, lambda k: True) == el
    dropped = canonical_projection(el, lambda k: k[0] == 0)
    assert dropped == TorusElement.monomial(s, (0, 2))
    a = TorusElement.monomial(s, (1, 0))
    b = TorusElement.monomial(s, (0, 2))
    keep = lambda k: k[0] == 0
    assert canonical_projection(a + b, keep) == (
        canonical_projection(a, keep) + canonical_projection(b, keep)
    )


def test_spec_mismatch_errors():
    s1, s2 = spec2(), TorusSpec(("a", "c"), [[0, 1], [-1, 0]], 8)
    with pytest.raises(ValueError):
        TorusElement.one(s1) * TorusElement.one(s2)
    with pytest.raises(ValueError):
        TorusSpec(("a", "b"), [[0, 1], [1, 0]], 8)
    with pytest.raises(ValueError):
        TorusSpec(("a",), [[0]], 3)  # u not a power of q^(1/4)
    with pytest.raises(ValueError, match="duplicate labels"):
        TorusSpec(("a", "a"), [[0, 1], [-1, 0]], 8)
    with pytest.raises(ValueError, match=r"matrix shape \(1, 1\) does not match 2 labels"):
        TorusSpec(("a", "b"), [[0]], 8)


def test_json_roundtrip():
    from qskein.qtorus import element_from_json
    s = spec2()
    el = TorusElement(
        s, {(1, -2): Laurent.q_power(4) + Laurent.q_power(-4), (0, 0): Laurent.one()}
    )
    assert element_from_json(s, el.to_json()) == el


def test_add_refuses_what_is_not_a_torus_element():
    spec = spec2()
    el = TorusElement.generator(spec, "a")
    for other in (Laurent.q_power(1), 1.5, 1):
        with pytest.raises(TypeError):
            el + other
        with pytest.raises(TypeError):
            other + el
    with pytest.raises(TypeError):
        el - 1.5
    one = TorusElement.one(spec)
    assert one != 1 and one != Laurent.one()
    assert el + el + one == el * Laurent.integer(2) + one


def test_exponents_must_be_integers():
    # a float exponent is refused, not truncated (1.5 -> 1) and merged with
    # the term it then collides with; numpy integers become Python ints
    s = spec2()
    for terms in ({(1.5, 0): ONE}, {(1.5, 0): ONE, (1, 0): ONE}, {(1.0, 0): ONE}):
        with pytest.raises(TypeError):
            TorusElement(s, terms)
    with pytest.raises(TypeError):
        s.vec({"a": 2.7})
    with pytest.raises(ValueError, match="exponent vector of wrong length"):
        TorusElement(s, {(1,): ONE})
    el = TorusElement(s, {(np.int64(1), np.int32(-2)): ONE})
    assert el.terms == {(1, -2): ONE}
    assert all(type(e) is int for e in next(iter(el.terms)))
    assert s.vec({"a": np.int64(3)}) == (3, 0)


def test_coefficient_must_be_a_laurent_scalar():
    spec = spec2()
    for c in (3, 1.5, "q"):
        with pytest.raises(TypeError):
            TorusElement(spec, {(1, 0): c})
    assert TorusElement(spec, {(1, 0): Laurent.integer(3)}).terms == {(1, 0): Laurent.integer(3)}
