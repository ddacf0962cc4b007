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
That polynomial is Phi on one monomial in exponent space (phi_monomial),
with no Expr, and Phi's own flip map is phi_monomial at X_(a*); composites
apply Phi to Exprs generator by generator (GeneratorImageMap.apply_element),
and the two routes agree exactly.  One word product, _word_product,
multiplies out every Expr product: power, map_elements, apply_element.

Composites along a flip sequence are DAGs, not trees: each flip's images
refer to the previous composite's expressions by reference, and a label
the flip leaves alone keeps the previous composite's image pair, so a
composite holds only the generators that some flip moved and every flip
adds a bounded number of nodes.  support_labels walks a shared node
once (a memo keyed by node id) and each order inverts an inverse payload
once, so certifying costs time linear in the number of flips.  map_elements
walks one flip's images, a node again per reference to it (a far side holds
its near side): a memo keyed by id() would have to keep its keys alive.
Every map reads both triangulations' tori and H from ShearSkein.of,
which builds a triangulation's bundle once and keeps it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import ClassVar

from .qscalar import Laurent, ONE
from .qtorus import TorusElement, TorusSpec
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

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return Expr(self.spec, [(w * other, fs) for w, fs in self.words])

    def inv(self):
        return Expr(self.spec, [(ONE, (("inv", self),))])

    def power(self, n):
        base = self if n >= 0 else self.inv()
        return Expr(self.spec, _word_product(ONE, [base] * abs(n)))

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
        fn returns an Expr.  Each word is multiplied out in one pass."""
        words, spec = [], None
        for c, fs in self.words:
            pieces = [fn(p) if kind == "el" else p.map_elements(fn).inv() for kind, p in fs]
            spec = pieces[-1].spec if pieces else spec
            words += _word_product(c, pieces)
        if spec is None:
            raise ValueError("cannot infer target torus of an empty map")
        return Expr(spec, words)

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


def _word_product(c, exprs):
    """The words of c times the product of exprs, multiplied out left to
    right; the empty product is the unit word."""
    words = [(c, ())]
    for e in exprs:
        words = [(c1 * c2, f1 + f2) for c1, f1 in words for c2, f2 in e.words]
    return words


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
        gen_exponent, generator by generator: x^k is u^(-s/2) times the
        product of its generator powers in label order, with
        s = sum_(i<j) k_i k_j A_ij over the source form."""
        src = self.source
        if el.spec != src:
            raise ValueError("element is not over the source torus")
        words = []
        for k, c in el.terms.items():
            if any(v % self.gen_exponent for v in k):
                raise ValueError(
                    "exponent %s is not a multiple of %d" % (k, self.gen_exponent)
                )
            nz = [(i, e) for i, e in enumerate(k) if e]
            s = sum(e * f * src._rows[i][j]
                    for n, (i, e) in enumerate(nz) for j, f in nz[n + 1:])
            words += _word_product(c * src.half_phase(-s), [
                self.image_of_generator(src.labels[i], e // self.gen_exponent)
                for i, e in nz])
        return Expr(self.target, words)

    def compose_after(self, earlier):
        """The map (self o earlier): earlier's images pushed through self.
        A label that earlier leaves alone keeps self's own image pair, so
        the composite holds only the generators that some flip moved."""
        images = {lab: pair for lab, pair in self.images.items()
                  if lab in earlier.source.index}
        for lab, pair in earlier.images.items():
            images[lab] = tuple(e.map_elements(self.apply_element) for e in pair)
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


def theta_flip_from_data(T, T2, fd):
    """theta_flip for an already performed flip."""
    bundle, bundle2 = ShearSkein.of(T), ShearSkein.of(T2)
    y2 = bundle2.y
    # Y_v with v != a* and H'[v, a*] = 0 maps to itself: it gets no entry
    a_star_col = bundle2.H[:, bundle2.x.index[fd.a_star]]
    images = {
        v: _theta_pair(bundle, bundle2, fd, y2.unit_vec(v, 2))
        for v in y2.labels if v == fd.a_star or a_star_col[y2.index[v]]
    }
    return T2, fd, GeneratorImageMap(source=y2, target=bundle.y, images=images)


def theta_element(T, T2, fd, elem):
    """Theta on an element of Y(Delta') whose exponents are balanced: one
    Expr c * Theta(y^k) per term, the list that verify_identity sums.  An
    unbalanced exponent raises ValueError."""
    bundle, bundle2 = ShearSkein.of(T), ShearSkein.of(T2)
    if elem.spec != bundle2.y:
        raise ValueError("element is not over the flipped shear torus")
    return [_theta_pair(bundle, bundle2, fd, k)[0] * c for k, c in elem.terms.items()]


def _theta_pair(bundle, bundle2, fd, k):
    """(Theta(y^k), Theta(y^(-k))) for a balanced k over Y(Delta').

    psi'(y^(sk)) = x^(s kH'), with kH' even.  The near side s, the sign of
    the a* entry of kH', has no negative power of X_(a*), so
    psi^(-1)(Phi(psi'(y^(sk)))) is a polynomial (phi_monomial); the far
    side is its inverse."""
    m = [sum(map(mul, k, col)) for col in bundle2.H.T.tolist()]
    sign = 1 if m[bundle2.x.index[fd.a_star]] >= 0 else -1
    el = phi_monomial(bundle.x, bundle2.x, fd, [sign * v for v in m])
    near, far = _image_pair(bundle.psi_preimage(el))
    return (near, far) if sign > 0 else (far, near)


def _image_pair(el):
    """(el, el^(-1)) as Exprs for a polynomial image el: the monomial
    inverse when el has one term, else the formal inverse."""
    near = Expr.from_element(el)
    return near, (near.inv() if len(el.terms) > 1
                  else Expr.from_element(el.inverse_monomial()))


def phi_monomial(x, x2, fd, m):
    """Phi(x^m) over T, for an even m over T' whose a* entry 2s is not
    negative, in exponent space: x^m = u^(-<m', 2s e_(a*)>/2) x^(m') X_(a*)^s
    with m' = m off a*, so Phi(x^m) is that phase times x^(m') relabelled
    onto T times Phi(X_(a*))^s, multiplied out by torus products, where
    Phi(X_(a*)) = [X_c X_e X_a^(-1)] + [X_b X_d X_a^(-1)] is Muller's
    exchange relation.  An odd entry or s < 0 raises ValueError."""
    j = x2.index[fd.a_star]
    if any(v % 2 for v in m) or m[j] < 0:
        raise ValueError("Phi(x^%s) is not a polynomial in the X_v" % (tuple(m),))
    rest = x.vec({lab: e for lab, e in zip(x2.labels, m) if lab != fd.a_star})
    phase = x2.half_phase(m[j] * x2.pairing(x2.unit_vec(fd.a_star), m))   # u^(-<m', 2s e_(a*)>/2)
    el = TorusElement.monomial(x, rest, phase)
    ka, exchange = x.unit_vec(fd.a, -2), TorusElement(x)
    for p, r in ((fd.c, fd.e), (fd.b, fd.d)):
        exchange += TorusElement.monomial(x, map(sum, zip(x.unit_vec(p, 2), x.unit_vec(r, 2), ka)))
    for _ in range(m[j] // 2):
        el = el * exchange
    return el


# ---------------------------------------------------------------------------
# composition along flip sequences


def compose_flips(T, edges, side="shear", new_labels=None):
    """Flip the listed edges in order and compose the coordinate changes.

    Returns (final triangulation, composite GeneratorImageMap from the
    final coordinates into the initial ones, list of FlipData).
    new_labels optionally names the created diagonals, one per flip.
    side is 'shear' (Theta) or 'skein' (Phi).  Each triangulation's bundle
    (ShearSkein.of) serves the flips into and out of it, so k flips build
    at most k + 1 bundles.
    """
    from_data = {"shear": theta_flip_from_data, "skein": phi_flip_from_data}.get(side)
    if from_data is None:
        raise ValueError("side must be 'shear' or 'skein', not %r" % (side,))
    bundle = ShearSkein.of(T)          # checks T before the first flip
    cur, composite, datas = T, None, []
    for step, a in enumerate(edges):
        lab = new_labels[step] if new_labels else None
        nxt, fd = cur.flip(a, new_label=lab)
        _, _, gmap = from_data(cur, nxt, fd)
        composite = gmap if composite is None else composite.compose_after(gmap)
        datas.append(fd)
        cur = nxt
    if composite is None:
        spec = bundle.y if side == "shear" else bundle.x
        composite = GeneratorImageMap(source=spec, target=spec, images={})
    return cur, composite, datas


# ---------------------------------------------------------------------------
# transfer of knot monomials through a flip


@dataclass
class TransferRecord:
    """The transfer identity in its polynomial orientation.

    rhs is psi_T of the transfer image, a polynomial; phi_lhs is the
    skein-side change applied to psi_{T2}(y^(sign * k')), with sign -1 in
    the left-right case and +1 otherwise, and must equal rhs exactly.
    flip is the (T, T2, fd) the identity crosses.
    """

    case: str                 # 'unchanged' | 'right-left' | 'left-right'
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
    bundle, bundle2 = ShearSkein.of(T), ShearSkein.of(T2)
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
    (m, _), = lhs.terms.items()
    phi_lhs = phi_monomial(bundle.x, bundle2.x, fd, m)
    return TransferRecord(case, bundle.psi(el), phi_lhs, (T, T2, fd))


def theta_on_balanced(gmap, transfer, elem):
    """theta_element across the flip of transfer; gmap is not read.  The
    certify workload of perfbench calls it by this name."""
    return theta_element(*transfer.flip, elem)


def phi_flip_from_data(T, T2, fd, bundles=None):
    """phi_flip for an already performed flip; bundles defaults to ShearSkein.of."""
    bundle, bundle2 = bundles or (ShearSkein.of(T), ShearSkein.of(T2))
    x2 = bundle2.x
    image = phi_monomial(bundle.x, x2, fd, x2.unit_vec(fd.a_star, 2))
    gmap = GeneratorImageMap(source=x2, target=bundle.x,
                             images={fd.a_star: _image_pair(image)})
    return T2, fd, gmap
