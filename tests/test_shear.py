import numpy as np
import pytest

from qskein.library import MARKED_LIBRARY, annulus_core, surface_by_name
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.shear import (
    ShearSkein,
    even_image_check,
    is_balanced,
)
from qskein.surface import annulus, polygon


def test_is_balanced_examples():
    A = annulus()
    assert is_balanced((0, 0), A)
    assert is_balanced((2, 4), A)
    assert is_balanced((1, 1), A)      # both inner edges lie in each triangle
    assert not is_balanced((1, 0), A)
    _, core = annulus_core()
    k = tuple(core.multiplicities()[e] for e in A.inner_edges)
    assert is_balanced(k, A)


def test_even_image_biconditional():
    P = polygon(5)
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = tuple(int(v) for v in rng.integers(-4, 5, 2))
        rep = even_image_check(k, P)
        assert rep["agree"], (k, rep)
    # a constructed counterexample vector: one odd entry
    rep = even_image_check((1, 0), P)
    assert not rep["balanced"] and not rep["kH_even"]
    rep = even_image_check((2, 0), P)
    assert rep["balanced"] and rep["kH_even"]


def test_duality_is_the_mlh_precondition():
    for name in ("polygon4", "polygon5", "polygon6", "annulus", "torus1-lift",
                  "sphere3-lift"):
        b = ShearSkein(surface_by_name(name))
        assert np.array_equal(b.H @ b.x.A @ b.H.T, -4 * b.y.A)


def test_psi_explicit_quadrilateral():
    P = polygon(5)
    bundle = ShearSkein(P)
    # the quadrilateral of e0_2 has boundary (e0_1, e1_2, e2_3, e0_3)
    img = bundle.psi_vec(bundle.y.unit_vec("e0_2"))
    expected = TorusElement.monomial(
        bundle.x,
        bundle.x.vec({"e0_1": 1, "e1_2": -1, "e2_3": 1, "e0_3": -1}),
    )
    assert img == expected


def test_psi_exponents_past_int64():
    # y^(b, b) -> x[d1]^(-2b) x[d2]^(2b); at b = 3 * 2^61 the image leaves
    # int64, and 2^70 does not fit int64 even as input
    bundle = ShearSkein(annulus())
    for b in (1, 3 * 2 ** 61, 2 ** 70):
        image = TorusElement.monomial(bundle.x, bundle.x.vec({"d1": -2 * b, "d2": 2 * b}))
        assert bundle.psi_vec((b, b)) == image


def test_psi_is_algebra_map():
    A = annulus()
    bundle = ShearSkein(A)
    assert bundle.psi(TorusElement.one(bundle.y)) == TorusElement.one(bundle.x)
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = TorusElement(
            bundle.y,
            {tuple(int(v) for v in rng.integers(-3, 4, 2)): Laurent.one()
             for _ in range(2)},
        )
        b = TorusElement(
            bundle.y,
            {tuple(int(v) for v in rng.integers(-3, 4, 2)): Laurent.one()
             for _ in range(2)},
        )
        assert bundle.psi(a * b) == bundle.psi(a) * bundle.psi(b)
        assert bundle.psi(a.reflect()) == bundle.psi(a).reflect()


def test_psi_balanced_iff_even_image():
    A = annulus()
    bundle = ShearSkein(A)
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = tuple(int(v) for v in rng.integers(-3, 4, 2))
        img = bundle.psi_vec(k)
        [m] = list(img.terms)
        even = all(v % 2 == 0 for v in m)
        assert even == is_balanced(k, A)


def test_Ybl_membership_closed_under_product():
    A = annulus()
    bundle = ShearSkein(A)
    rng = np.random.default_rng(14)
    for _ in range(30):
        ks = []
        while len(ks) < 2:
            k = tuple(int(v) for v in rng.integers(-3, 4, 2))
            if is_balanced(k, A):
                ks.append(k)
        a = TorusElement.monomial(bundle.y, ks[0])
        b = TorusElement.monomial(bundle.y, ks[1])
        assert all(is_balanced(k, A) for k in (a * b).terms)


def test_psi_preimage_roundtrip():
    for name in MARKED_LIBRARY:
        bundle = ShearSkein(surface_by_name(name))
        rng = np.random.default_rng(15)
        n = len(bundle.y.labels)
        terms = {
            tuple(int(v) for v in rng.integers(-2, 3, n)): Laurent.q_power(4)
            for _ in range(3)
        }
        el = TorusElement(bundle.y, terms)
        assert bundle.psi_preimage(bundle.psi(el)) == el
    bundle = ShearSkein(surface_by_name("polygon5"))
    for exponent in (1, 4):      # 4 does not divide kP; the round trip fails
        with pytest.raises(ValueError):
            bundle.psi_preimage(TorusElement.generator(bundle.x, "e0_1", exponent))


def test_psi_preimage_and_even_image_past_int64():
    A = annulus()
    bundle = ShearSkein(A)
    for b in (2**61, 3 * 2**61, 2**64 + 2):
        el = bundle.psi_vec((b, b))
        assert bundle.psi_preimage(el) == TorusElement.monomial(bundle.y, (b, b))
    with pytest.raises(ValueError):
        bundle.psi_preimage(TorusElement.generator(bundle.x, "d1", 2**64))
    for b in (2**63, 3 * 2**63):
        assert even_image_check((b, b), A) == \
            {"kH_even": True, "balanced": True, "agree": True}
        assert even_image_check((b + 1, b), A) == \
            {"kH_even": False, "balanced": False, "agree": True}
