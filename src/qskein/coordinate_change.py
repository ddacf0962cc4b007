"""Flip coordinate changes on skein and shear coordinates.

Skew-field elements are never normalized symbolically.  They are kept as
formal sums of words; a word is a scalar prefactor times a sequence of
factors, each factor either a torus element or the formal inverse of a
whole expression.  repcheck decides a generator row of a composite
exactly when its image has no inverse, or one nonzero inverse-free
denominator D that every word starts (or ends) with: in the skew field
of the torus, an Ore domain, D^-1 A = C iff A = D C and A D^-1 = C iff
A = C D, all polynomial.  Every other equality of such expressions is
certified by repcheck's root-of-unity representations over F_p.

The flip at an inner edge a replaces it by the opposite diagonal a* of
its quadrilateral with boundary edges b, c, d, e in cyclic order, the two
old triangles being (a, b, c) and (a, d, e).  The skein-side change Phi
maps X_(a*) to [X_c X_e X_a^(-1)] + [X_b X_d X_a^(-1)].  The shear-side
change is Theta = psi^(-1) o Phi o psi' on every balanced monomial, by
one near-side rule: of y^k and y^(-k), the one whose skein image has no
negative power of X_(a*) maps to a polynomial, the other to its inverse.
The flip maps on the Y_v and the images of traces both use this rule.

Composites along a flip sequence are DAGs, not trees: each flip's images
refer to the previous composite's expressions by reference, so every
flip adds a bounded number of nodes.  Every walk over an expression
visits a shared node once (support_labels keys a memo by node id, the
root-of-unity representations cache each inverse's matrix by node),
so composing and certifying cost time linear in the number of flips.
compose_flips builds each triangulation's ShearSkein bundle once and
hands it to the flip out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .qscalar import Laurent, ONE
from .qtorus import TorusElement, TorusSpec, decompose_monomial
from .curves import CurveError, _flip_weights, classify, crossing_pattern
from .shear import ShearSkein


class Expr:
    """Formal sum of words over one quantum torus.

    words: tuple of (Laurent coefficient, factors); factors a tuple of
    ('el', TorusElement) and ('inv', Expr) entries, multiplied left to
    right.  The empty factor tuple is the identity.
    """

    __slots__ = ("spec", "words")

    def __init__(self, spec, words=()):
        self.spec = spec
        self.words = tuple(
            (c, tuple(fs)) for c, fs in words if not c.is_zero()
        )

    @staticmethod
    def from_element(el):
        return Expr(el.spec, [(ONE, (("el", el),))])

    @staticmethod
    def one(spec):
        return Expr(spec, [(ONE, ())])

    @staticmethod
    def zero(spec):
        return Expr(spec, [])

    def __add__(self, other):
        if self.spec != other.spec:
            raise ValueError("torus spec mismatch")
        return Expr(self.spec, self.words + other.words)

    def __mul__(self, other):
        if isinstance(other, (int, Laurent)):
            c = other if isinstance(other, Laurent) else Laurent.integer(other)
            return Expr(self.spec, [(w * c, fs) for w, fs in self.words])
        if self.spec != other.spec:
            raise ValueError("torus spec mismatch")
        words = []
        for c1, f1 in self.words:
            for c2, f2 in other.words:
                words.append((c1 * c2, f1 + f2))
        return Expr(self.spec, words)

    def __rmul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self * other
        return NotImplemented

    def inv(self):
        return Expr(self.spec, [(ONE, (("inv", self),))])

    def power(self, n):
        if n == 0:
            return Expr.one(self.spec)
        base = self if n > 0 else self.inv()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def support_labels(self):
        """Labels of every torus element in the expression; each node of
        a shared expression DAG is walked once."""
        out = set()
        seen = set()
        stack = [self]
        while stack:
            for _, fs in stack.pop().words:
                for kind, payload in fs:
                    if id(payload) in seen:
                        continue
                    seen.add(id(payload))
                    if kind == "el":
                        out |= payload.support_labels()
                    else:
                        stack.append(payload)
        return out

    def map_elements(self, fn):
        """Rebuild the expression with fn applied to each torus element;
        fn returns an Expr."""
        words_out = []
        spec_out = None
        for c, fs in self.words:
            word_expr = None
            for kind, payload in fs:
                piece = fn(payload) if kind == "el" else (
                    payload.map_elements(fn).inv()
                )
                word_expr = piece if word_expr is None else word_expr * piece
            if word_expr is None:
                words_out.append((c, None))
            else:
                words_out.append((c, word_expr))
                spec_out = word_expr.spec
        if spec_out is None:
            raise ValueError("cannot infer target torus of an empty map")
        out = Expr.zero(spec_out)
        for c, piece in words_out:
            if piece is None:
                piece = Expr.one(spec_out)
            out = out + piece * c
        return out

    def as_element(self):
        """Collapse to a TorusElement when no formal inverses occur."""
        total = TorusElement.zero(self.spec)
        for c, fs in self.words:
            acc = TorusElement.one(self.spec)
            for kind, payload in fs:
                if kind == "inv":
                    raise ValueError("expression contains a formal inverse")
                acc = acc * payload
            total = total + acc * c
        return total

    def is_polynomial(self):
        return all(
            all(kind == "el" for kind, _ in fs) for _, fs in self.words
        )

    def __repr__(self):
        return "Expr(%d words over %r)" % (len(self.words), self.spec)


# ---------------------------------------------------------------------------
# generator image maps


@dataclass
class GeneratorImageMap:
    """Images of the squared generators (shear side) or of the edge
    generators (skein side) under one coordinate change.

    images: {label: (expr for the generator, expr for its inverse)}.
    Labels without an entry map to themselves.  source/target are the
    tori the map goes between; gen_exponent is the exponent vector step
    of one generator (2 for both the squared shear generators Y_e = y_e^2
    and the skein generators X_e = x_e^2).
    """

    source: TorusSpec
    target: TorusSpec
    images: dict
    gen_exponent: ClassVar[int] = 2

    def image_of_generator(self, label, power):
        if label in self.images:
            pos, neg = self.images[label]
            return (pos if power > 0 else neg).power(abs(power))
        el = TorusElement.generator(
            self.target, label, self.gen_exponent * power
        )
        return Expr.from_element(el)

    def apply_element(self, el):
        """Map a torus element whose exponents are multiples of
        gen_exponent, generator by generator."""
        if el.spec != self.source:
            raise ValueError("element is not over the source torus")
        out = Expr.zero(self.target)
        for k, c in el.terms.items():
            if any(v % self.gen_exponent for v in k):
                raise ValueError(
                    "exponent %s is not a multiple of %d" % (k, self.gen_exponent)
                )
            phase, factors = decompose_monomial(self.source, k, c)
            word = Expr.one(self.target) * phase
            for lab, e in factors:
                word = word * self.image_of_generator(lab, e // self.gen_exponent)
            out = out + word
        return out

    def compose_after(self, earlier):
        """The map (self o earlier): apply earlier, then push its output
        elements through self."""
        images = {
            lab: tuple(
                earlier.image_of_generator(lab, power).map_elements(self.apply_element)
                for power in (1, -1)
            )
            for lab in earlier.source.labels
        }
        return GeneratorImageMap(source=earlier.source, target=self.target, images=images)


# ---------------------------------------------------------------------------
# the two flip maps


def phi_flip(T, a, new_label=None):
    """Skein-side coordinate change for the flip at a.

    Returns (T', flip data, map sending X-generators of T' into words
    over the Muller torus of T)."""
    T2, fd = T.flip(a, new_label=new_label)
    return phi_flip_from_data(T, T2, fd)


def theta_flip(T, a, new_label=None):
    """Shear-side coordinate change for the flip at a, on the squared
    generators Y_v.

    Rather than hard-coding the quadrilateral case table, each image comes
    from the near-side rule for balanced monomials (_theta_pair): whichever
    of Y_v, Y_v^(-1) has a nonnegative power of the new diagonal in its
    skein image expands to a polynomial, whose psi-preimage is the image;
    the other side is its formal inverse.  On squares with four distinct
    boundary edges this reproduces the familiar table

        Y_(a*)          -> Y_a^(-1)
        Y_v             -> Y_v + [Y_v Y_a]            (v opposite pair 1)
        Y_v^(-1)        -> Y_v^(-1) + [Y_v^(-1) Y_a^(-1)]   (pair 2)

    and on self-glued squares it produces the correct three-term images,
    whose middle coefficient depends on the commutation of the
    surrounding loops.
    """
    T2, fd = T.flip(a, new_label=new_label)
    return theta_flip_from_data(T, T2, fd)


def theta_flip_from_data(T, T2, fd, bundles=None):
    """theta_flip for an already performed flip."""
    bundle, bundle2 = bundles or (ShearSkein(T), ShearSkein(T2))
    _, _, phi = phi_flip_from_data(T, T2, fd, bundles=(bundle, bundle2))
    y2 = bundle2.y
    # Y_v with v != a* and H'[v, a*] = 0 maps to itself: it gets no entry
    a_star_col = bundle2.H[:, bundle2.x.index[fd.a_star]]
    images = {
        v: _theta_pair(bundle, bundle2, phi, fd.a_star, y2.unit_vec(v, 2))
        for v in y2.labels if v == fd.a_star or a_star_col[y2.index[v]]
    }
    return T2, fd, GeneratorImageMap(source=y2, target=bundle.y, images=images)


def theta_element(T, T2, fd, elem, bundles=None):
    """Theta on an element of Y(Delta') whose exponents are balanced: one
    Expr c * Theta(y^k) per term, the list that verify_identity sums.  An
    unbalanced exponent raises ValueError."""
    bundle, bundle2 = bundles or (ShearSkein(T), ShearSkein(T2))
    if elem.spec != bundle2.y:
        raise ValueError("element is not over the flipped shear torus")
    _, _, phi = phi_flip_from_data(T, T2, fd, bundles=(bundle, bundle2))
    return [_theta_pair(bundle, bundle2, phi, fd.a_star, k)[0] * c
            for k, c in elem.terms.items()]


def _theta_pair(bundle, bundle2, phi, a_star, k):
    """(Theta(y^k), Theta(y^(-k))) for a balanced k over Y(Delta').

    psi'(y^(sk)) = x^(s kH'), with kH' even.  The near side s, the sign of
    the a* entry of kH', has no negative power of X_(a*), so
    psi^(-1)(Phi(psi'(y^(sk)))) is a polynomial; the far side is its
    inverse."""
    sign = 1 if bundle2.H[:, bundle2.x.index[a_star]].dot(k) >= 0 else -1
    el = phi.apply_element(bundle2.psi_vec([sign * v for v in k])).as_element()
    near_el = bundle.psi_preimage(el)
    near = Expr.from_element(near_el)
    far = (near.inv() if len(el.terms) > 1
           else Expr.from_element(near_el.inverse_monomial()))
    return (near, far) if sign > 0 else (far, near)


# ---------------------------------------------------------------------------
# composition along flip sequences


def compose_flips(T, edges, side="shear", new_labels=None):
    """Flip the listed edges in order and compose the coordinate changes.

    Returns (final triangulation, composite GeneratorImageMap from the
    final coordinates into the initial ones, list of FlipData).
    new_labels optionally names the created diagonals, one per flip.
    Each triangulation's ShearSkein bundle is built once and serves the
    flips into and out of it.
    """
    from_data = theta_flip_from_data if side == "shear" else phi_flip_from_data
    bundle = ShearSkein(T)
    cur, composite, datas = T, None, []
    for step, a in enumerate(edges):
        lab = new_labels[step] if new_labels else None
        nxt, fd = cur.flip(a, new_label=lab)
        bundle2 = ShearSkein(nxt)
        _, _, gmap = from_data(cur, nxt, fd, bundles=(bundle, bundle2))
        composite = gmap if composite is None else composite.compose_after(gmap)
        datas.append(fd)
        cur, bundle = nxt, bundle2
    if composite is None:
        spec = bundle.y if side == "shear" else bundle.x
        composite = GeneratorImageMap(source=spec, target=spec, images={})
    return cur, composite, datas


# ---------------------------------------------------------------------------
# transfer of knot monomials through a flip


@dataclass
class TransferRecord:
    """The transfer identity in its polynomial orientation.

    lhs is psi_{T2}(y^(sign * k')) over the flipped skein torus; rhs is
    psi_T of the transfer image, a polynomial; phi_lhs is the skein-side
    change applied to lhs, which must equal rhs exactly.  flip is the
    (T, T2, fd) the identity crosses.
    """

    case: str                 # 'unchanged' | 'right-left' | 'left-right'
    sign: int                 # +1, or -1 in the left-right case
    lhs: TorusElement
    rhs: TorusElement
    phi_lhs: TorusElement
    flip: tuple

    @property
    def exact_ok(self):
        return self.phi_lhs == self.rhs


def knot_monomial_transfer(alpha2, T, a, T2, fd):
    """Relate psi(y^(k_alpha)) before and after the flip at a.

    (T2, fd) is the result of T.flip(a), and alpha2 is the curve as a
    normal curve in T2.  Emits which transfer identity applies and both
    sides for verification.
    """
    if classify(alpha2) != "simple":
        raise CurveError("transfer needs a curve simple after the flip")
    bundle, bundle2 = ShearSkein(T), ShearSkein(T2)
    mult2 = alpha2.multiplicities()
    k2 = bundle2.y.vec(mult2)
    y = bundle.y

    # a simple curve crosses a* at most once
    case = crossing_pattern(alpha2, fd.a_star) if fd.a_star in mult2 else "unchanged"
    sign = -1 if case == "left-right" else 1

    # the curve's weights on T, by the tropical rule run back from a* to a
    mult = {e: sign * m for e, m in _flip_weights(mult2, fd, back=True).items()}
    el = TorusElement.monomial(y, y.vec(mult))
    if case != "unchanged":
        # y^(sk) + [Y_a^(-s) y^(sk)] with s = sign
        el = el + TorusElement.monomial(
            y, y.vec({**mult, a: mult.get(a, 0) - 2 * sign})
        )

    lhs = bundle2.psi_vec(tuple(sign * v for v in k2))
    rhs = bundle.psi(el)
    _, _, phi = phi_flip_from_data(T, T2, fd, bundles=(bundle, bundle2))
    phi_lhs = phi.apply_element(lhs).as_element()
    return TransferRecord(case, sign, lhs, rhs, phi_lhs, (T, T2, fd))


def theta_on_balanced(gmap, transfer, elem):
    """theta_element across the flip of transfer; gmap is not read.  The
    certify workload of perfbench calls it by this name."""
    return theta_element(*transfer.flip, elem)


def phi_flip_from_data(T, T2, fd, bundles=None):
    """phi_flip for an already performed flip."""
    bundle, bundle2 = bundles or (ShearSkein(T), ShearSkein(T2))
    x, x2 = bundle.x, bundle2.x
    kbd = x.vec({fd.b: 2, fd.d: 2}) if fd.b != fd.d else x.vec({fd.b: 4})
    kce = x.vec({fd.c: 2, fd.e: 2}) if fd.c != fd.e else x.vec({fd.c: 4})
    ka = x.vec({fd.a: -2})
    term1 = TorusElement.monomial(x, tuple(p + q for p, q in zip(kce, ka)))
    term2 = TorusElement.monomial(x, tuple(p + q for p, q in zip(kbd, ka)))
    image = Expr.from_element(term1 + term2)
    gmap = GeneratorImageMap(
        source=x2, target=x, images={fd.a_star: (image, image.inv())}
    )
    return T2, fd, gmap
