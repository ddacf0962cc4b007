"""Negative controls per certifying suite: each true identity passes, and
the same identity with one coefficient times q^(1/8), or with one exponent
raised by one, must FAIL."""

import pytest

from qskein import coordinate_change as cc
from qskein.coordinate_change import Expr
from qskein.curves import transport_curve
from qskein.library import surface_by_name, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.qscalar import Laurent
from qskein.qtorus import TorusElement
from qskein.repcheck import verify_identity
from qskein.shear import ShearSkein
from qskein.surface import torus_one_marked
from qskein.suites import PENTAGON_SEQUENCE
from qskein.trace import trace_simple
from test_coordinate_change import plus

TRIALS = 3


def scale_coefficient(expr):
    """expr with the coefficient of its first word times q^(1/8)."""
    (c0, factors), rest = expr.words[0], expr.words[1:]
    return Expr(expr.spec, ((c0 * Laurent.q_power(1), factors),) + rest)


def shift_exponent(expr):
    """expr with one exponent raised by one: in the first term of the first
    torus element met, looking inside inverses."""
    words = list(expr.words)
    for w, (c, factors) in enumerate(words):
        for f, (kind, payload) in enumerate(factors):
            if kind == "inv":
                changed = ("inv", shift_exponent(payload))
            else:
                (k0, c0), *rest = sorted(payload.terms.items())
                i = next((i for i, e in enumerate(k0) if e), 0)
                k1 = k0[:i] + (k0[i] + 1,) + k0[i + 1:]
                changed = ("el", TorusElement(payload.spec, dict(rest))
                           + TorusElement.monomial(payload.spec, k1, c0))
            words[w] = (c, factors[:f] + (changed,) + factors[f + 1:])
            return Expr(expr.spec, words)
    raise ValueError("expression has no factor")


def generator_identity(T, edges, side, new_labels=None):
    """(lhs, rhs, torus) of a closed flip sequence's composite on its first
    generator."""
    _, comp, _ = cc.compose_flips(T, list(edges), side=side, new_labels=new_labels)
    lab = sorted(comp.source.labels)[0]
    want = Expr.from_element(TorusElement.generator(comp.target, lab, comp.gen_exponent))
    return comp.image_of_generator(lab, 1), want, comp.target


def flipback(side):
    return generator_identity(surface_by_name("polygon5"), ("e0_2", "tmpflip"), side,
                              new_labels=["tmpflip", "e0_2"])


def pentagon():
    return generator_identity(surface_by_name("polygon5"), PENTAGON_SEQUENCE, "shear")


def dia9_wide_row():
    """psi o Theta = Phi o psi on Y[e0_3]^-1 for the flip of polygon5 at
    e0_2, which lives on the 7-label skein torus."""
    T = surface_by_name("polygon5")
    b1 = ShearSkein(T)
    T2, fd, theta = cc.theta_flip(T, "e0_2")
    b2 = ShearSkein(T2)
    _, _, phi = cc.phi_flip_from_data(T, T2, fd, bundles=(b1, b2))
    lhs = theta.images["e0_3"][1].map_elements(lambda el: Expr.from_element(b1.psi(el)))
    rhs = phi.apply_element(b2.psi(TorusElement.generator(b2.y, "e0_3", -2)))
    return lhs, rhs, b1.x


def naturality_row():
    """Theta intertwines the traces of the lifted (1,0) torus curve across
    the flip at c."""
    ld = lift(torus_one_marked())
    T, alpha = ld.delta, curve_lift(ld, torus_curve("1,0")[1])
    b1 = ShearSkein(T)
    T2, fd = T.flip("c")
    alpha2 = transport_curve(alpha, T, fd, T2)
    tr1 = trace_simple(alpha, T, b1)
    tr2 = trace_simple(alpha2, T2, ShearSkein(T2))
    parts = cc.theta_element(T, T2, fd, tr2.shear_side)
    return plus(*parts), Expr.from_element(tr1.shear_side), b1.y


CASES = {
    "flip-back shear": lambda: flipback("shear"),
    "flip-back skein": lambda: flipback("skein"),
    "pentagon": pentagon,
    "dia9 7-label row": dia9_wide_row,
    "naturality": naturality_row,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_perturbed_identity_fails(name):
    lhs, rhs, spec = CASES[name]()
    assert verify_identity(lhs, rhs, spec, trials=TRIALS).status == "PASS"
    for perturb in (scale_coefficient, shift_exponent):
        verdict = verify_identity(perturb(lhs), rhs, spec, trials=TRIALS)
        assert verdict.status == "FAIL", (name, perturb.__name__, verdict)
