import pytest
from hypothesis import given, strategies as st

from qskein.qscalar import Laurent, RootOfUnity


def q(n, c=1):
    return Laurent.q_power(n, c)


def test_addition_examples():
    # q^(1/2) + q^(-1/2)
    s = q(4) + q(-4)
    assert s.terms == {4: 1, -4: 1}
    x = q(3, 5) + q(-2, 7)
    assert (x + x * Laurent.integer(-1)).is_zero()
    # (q + q^-1) + (q - q^-1) = 2q
    assert (q(8) + q(-8)) + (q(8) + q(-8, -1)) == q(8, 2)


def test_multiplication_examples():
    assert (q(1) * q(-1)).is_one()
    lhs = (q(8) + q(-8)) * (q(8) + q(-8, -1))
    assert lhs == q(16) + q(-16, -1)
    assert (Laurent.zero() * (q(8) + q(3, 9))).is_zero()


def test_reflect():
    assert q(4).reflect() == q(-4)
    pal = q(8) + q(-8)
    assert pal.reflect() == pal
    x = q(3, 2) + q(-5, 7) + q(0, -1)
    assert x.reflect().reflect() == x


def test_inverse():
    assert q(3).inverse() == q(-3)
    assert q(5, -1).inverse() == q(-5, -1)
    with pytest.raises(ValueError):
        (q(0, 2)).inverse()
    with pytest.raises(ValueError):
        (q(1) + q(2)).inverse()


def test_eval_examples():
    root = RootOfUnity(5)
    assert repr(root) == "RootOfUnity(L=5, p=%d)" % root.p
    assert Laurent.one().evaluate(root) == 1
    assert q(1).evaluate(root) == root.zeta
    assert q(-1).evaluate(root) * root.zeta % root.p == 1
    for L in (5, 7, 11):
        r = RootOfUnity(L)
        val = (q(8) + q(-8)).evaluate(r)
        assert val == (pow(r.zeta, 8, r.p) + pow(r.zeta, L - 8 % L, r.p)) % r.p
        assert (q(3, r.p) + q(0, 2 * r.p + 1)).evaluate(r) == 1


def test_root_order_validation():
    with pytest.raises(ValueError):
        RootOfUnity(4)
    with pytest.raises(ValueError):
        RootOfUnity(1)


scalars = st.dictionaries(
    st.integers(-10, 10), st.integers(-9, 9), max_size=4
).map(Laurent)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_hash_agrees_with_equality_on_integers():
    # Laurent.__eq__ accepts ints, so equal constants must hash alike
    for c in (0, 3, -1, 2 ** 70):
        assert Laurent.integer(c) == c and hash(Laurent.integer(c)) == hash(c)
        assert Laurent({0: c}) in {c} and c in {Laurent({0: c})}
    assert Laurent() == 0 and hash(Laurent()) == hash(0)
    assert len({Laurent.integer(3), 3}) == 1
    assert len({Laurent.zero(), 0, Laurent.integer(0)}) == 1
    assert q(8, 3) != 3 and q(0, 3) + q(8) != 3
    # the hash is kept, so the terms cannot be replaced
    c = Laurent.integer(3)
    with pytest.raises(AttributeError, match="immutable"):
        c.terms = {}
    assert c == 3 and hash(c) == hash(3)


@given(scalars)
def test_hash_agrees_with_equality(a):
    assert hash(a) == hash(Laurent(dict(reversed(list(a.terms.items())))))
    if a.terms.keys() <= {0}:
        assert a == a.terms.get(0, 0) and hash(a) == hash(a.terms.get(0, 0))


@given(scalars, scalars)
def test_reflect_is_ring_hom(a, b):
    assert (a + b).reflect() == a.reflect() + b.reflect()
    assert (a * b).reflect() == a.reflect() * b.reflect()


@given(scalars, scalars)
def test_eval_is_ring_hom(a, b):
    root = RootOfUnity(7)
    lhs = (a * b).evaluate(root)
    assert 0 <= lhs < root.p
    assert lhs == a.evaluate(root) * b.evaluate(root) % root.p
    assert (a + b).evaluate(root) == (a.evaluate(root) + b.evaluate(root)) % root.p


def test_printing():
    assert str(Laurent.zero()) == "0"
    assert str(q(4) + q(-4, 3)) == "3*q^(-1/2) + 1*q^(1/2)"
    assert str(q(8, 2)) == "2*q^(1)"


def test_scalar_on_the_left():
    from qskein.qtorus import TorusElement, TorusSpec

    spec = TorusSpec(("a", "b"), [[0, 1], [-1, 0]], 2)
    el = TorusElement.generator(spec, "a") + TorusElement.generator(spec, "b", -1)
    c = q(1)
    with pytest.raises(TypeError):
        c + el
    with pytest.raises(TypeError):
        c - 1.5


def test_int_operand_only_on_the_right():
    # an int operand is refused on either side of + and *, and
    # Laurent.integer puts a constant there; == alone accepts an int
    c = q(1) + q(-1)
    assert c + Laurent.integer(1) == Laurent.integer(1) + c == q(1) + q(-1) + q(0)
    assert c * Laurent.integer(2) == q(1, 2) + q(-1, 2)
    for op in (lambda: c + 1, lambda: c * 2, lambda: 1 + c, lambda: 1 - c,
               lambda: 2 * c):
        with pytest.raises(TypeError):
            op()
    assert Laurent.integer(1) == 1 and c != 1
