"""Quantum tori T(A, u) in the Weyl-normalized monomial basis.

A torus is specified by a finite ordered label set I, an antisymmetric
integer matrix A over I, and a parameter u that is an integral power of
q^(1/4).  Elements are finite sums of normalized monomials x^k with
exact Laurent coefficients.  The product rule is

    x^k * x^n = u^((1/2) <k,n>_A) x^(k+n),

where <k,n>_A = k A n^T, and the general commutation
x^k x^n = u^(<k,n>_A) x^n x^k follows.  Since u is a power of q^(1/4),
u^(1/2) lives in the coefficient ring and every product is exact.

A product groups the right operand's terms by coefficient and multiplies
each distinct pair (left coefficient, right coefficient), keyed by Laurent
value, once; a term pair then adds that product shifted by its phase
(u_eighth/2) k1 A k2, with no further coefficient multiplication.  The
pairing row k1 A is computed once per left term, so a phase is one integer
dot product.  A square a * a visits each unordered term pair once and adds
the product at +phase and at -phase, since <k2,k1>_A = -<k1,k2>_A.  Term
pairs are visited in the order of the term-by-term product, and
coefficients accumulate as Python ints, one Laurent per output monomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

import numpy as np

from .qscalar import Laurent, ONE


class TorusSpec:
    """Label set, antisymmetric matrix and parameter u = q^(u_eighth/8)."""

    def __init__(self, labels, A, u_eighth, letter="x"):
        self.labels = tuple(labels)
        self.letter = letter
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in index set")
        A = np.asarray(A, dtype=np.int64)
        n = len(self.labels)
        if A.shape != (n, n):
            raise ValueError("matrix shape %s does not match %d labels" % (A.shape, n))
        if not np.array_equal(A, -A.T):
            raise ValueError("matrix is not antisymmetric")
        if u_eighth % 2 != 0:
            raise ValueError("u must be an integral power of q^(1/4)")
        self.A = A
        self.u_eighth = int(u_eighth)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._rows = tuple(tuple(int(v) for v in row) for row in A)
        self._key = (self.labels, self.A.tobytes(), self.u_eighth)

    def __eq__(self, other):
        return isinstance(other, TorusSpec) and self._key == other._key

    def __hash__(self):
        return hash((self.labels, self.u_eighth))

    def __repr__(self):
        return "TorusSpec(%d labels, u=q^(%s/8))" % (len(self.labels), self.u_eighth)

    # k, n are integer tuples over self.labels

    def pairing_row(self, k):
        """The pairing row kA as a list of ints, summed over the nonzero
        entries of k."""
        row = [0] * len(k)
        for e, a_row in zip(k, self._rows):
            if e:
                row = [r + e * v for r, v in zip(row, a_row)]
        return row

    def pairing(self, k, n):
        """The antisymmetric form <k,n>_A = k A n^T."""
        return sum(map(mul, self.pairing_row(k), n))

    def zero_vec(self):
        return (0,) * len(self.labels)

    def unit_vec(self, label, mult=1):
        v = [0] * len(self.labels)
        v[self.index[label]] = mult
        return tuple(v)

    def vec(self, mapping):
        """Exponent tuple from a {label: int} mapping; missing labels are 0."""
        v = [0] * len(self.labels)
        for lab, e in mapping.items():
            v[self.index[lab]] = int(e)
        return tuple(v)

    def half_phase(self, pair_value):
        """u^(pair_value/2) as a Laurent scalar (pair_value an integer)."""
        return Laurent.q_power((self.u_eighth // 2) * pair_value)


def _times(c1, c2):
    """c1 * c2 as (eighth exponent, int) items in the order in which the
    term-by-term product first meets each exponent, zero sums kept: adding
    them fills an output coefficient in the term-by-term order, which its
    numeric evaluation sums in."""
    out = {}
    for n1, a1 in c1.terms.items():
        for n2, a2 in c2.terms.items():
            out[n1 + n2] = out.get(n1 + n2, 0) + a1 * a2
    return tuple(out.items())


def pairing(k, n, A):
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    return int(k @ np.asarray(A, dtype=np.int64) @ n)


class TorusElement:
    """A finite R-linear combination of normalized monomials x^k."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        self.spec = spec
        clean = {}
        if terms:
            width = len(spec.labels)
            for k, c in terms.items():
                if not isinstance(c, Laurent):
                    c = Laurent.integer(c)
                if len(k) != width:
                    raise ValueError("exponent vector of wrong length")
                if c.is_zero():
                    continue
                k = tuple(map(int, k))
                clean[k] = clean[k] + c if k in clean else c
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(spec):
        return TorusElement(spec)

    @staticmethod
    def one(spec):
        return TorusElement(spec, {spec.zero_vec(): ONE})

    @staticmethod
    def monomial(spec, k, coeff=ONE):
        return TorusElement(spec, {tuple(k): coeff})

    @staticmethod
    def generator(spec, label, power=1, coeff=ONE):
        return TorusElement.monomial(spec, spec.unit_vec(label, power), coeff)

    # -- module structure ----------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("torus spec mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = TorusElement.one(self.spec) * Laurent.integer(other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return TorusElement(self.spec, out)

    def __neg__(self):
        return TorusElement(self.spec, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Laurent)):
            c = other if isinstance(other, Laurent) else Laurent.integer(other)
            return TorusElement(self.spec, {k: v * c for k, v in self.terms.items()})
        self._check(other)
        spec = self.spec
        half = spec.u_eighth // 2
        square = other is self
        index, coeffs, right = {}, [], []
        for k2, c2 in other.terms.items():      # right terms by coefficient
            g = index.get(c2)
            if g is None:
                g = index[c2] = len(coeffs)
                coeffs.append(c2)
            right.append((k2, g))
        table = {}      # left coefficient -> its products with coeffs, as met
        acc = {}        # k -> {eighth exponent: int coefficient}
        for i, (k1, c1) in enumerate(self.terms.items()):
            prods = table.get(c1)
            if prods is None:
                prods = table[c1] = [None] * len(coeffs)
            row = [half * v for v in spec.pairing_row(k1)]
            # a square visits each unordered term pair {k1, k2} once
            for k2, g in right[i:] if square else right:
                shift = sum(map(mul, row, k2))
                k = tuple(map(add, k1, k2))
                slot = acc.get(k)
                if slot is None:
                    slot = acc[k] = {}
                get = slot.get
                prod = prods[g]
                if prod is None:
                    prod = prods[g] = _times(c1, coeffs[g])
                for n, a in prod:
                    n += shift
                    slot[n] = get(n, 0) + a
                if square and k2 != k1:     # x^k2 x^k1 has the opposite phase
                    for n, a in prod:
                        n -= shift
                        slot[n] = get(n, 0) + a
        return TorusElement(spec, {k: Laurent(slot) for k, slot in acc.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            return self.inverse_monomial() ** (-n)
        out = TorusElement.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse_monomial(self):
        """Inverse of a one-term element with unit coefficient times q-power."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the torus")
        (k, c), = self.terms.items()
        # (c x^k)^(-1) = c^(-1) x^(-k) because <k,k>_A = 0
        return TorusElement.monomial(self.spec, tuple(-e for e in k), c.inverse())

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {self.spec.zero_vec(): ONE}

    # -- reflection ----------------------------------------------------

    def reflect(self):
        """Coefficientwise bar involution; fixes every normalized monomial."""
        return TorusElement(self.spec, {k: c.reflect() for k, c in self.terms.items()})

    def is_reflection_invariant(self):
        return all(c.reflect() == c for c in self.terms.values())

    def has_unit_coefficients(self):
        return all(c.is_one() for c in self.terms.values())

    # -- misc ----------------------------------------------------------

    def support_labels(self):
        """Labels that occur with a nonzero exponent in some term."""
        out = set()
        for k in self.terms:
            for lab, e in zip(self.spec.labels, k):
                if e:
                    out.add(lab)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            letter = getattr(self.spec, "letter", "x")
            mono = " ".join(
                "%s[%s]^%d" % (letter, lab, e)
                for lab, e in zip(self.spec.labels, k)
                if e
            )
            cs = str(c)
            if "+" in cs:
                cs = "(" + cs + ")"
            parts.append(cs if not mono else "%s * %s" % (cs, mono))
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {
            "labels": list(self.spec.labels),
            "u_eighth": self.spec.u_eighth,
            "terms": [
                {
                    "exp": {lab: e for lab, e in zip(self.spec.labels, k) if e},
                    "coeff": {str(n): c for n, c in sorted(co.terms.items())},
                }
                for k, co in sorted(self.terms.items())
            ],
        }


def element_from_json(spec, data):
    terms = {}
    for t in data["terms"]:
        k = spec.vec({lab: int(e) for lab, e in t["exp"].items()})
        co = Laurent({int(n): int(c) for n, c in t["coeff"].items()})
        terms[k] = terms.get(k, Laurent.zero()) + co
    return TorusElement(spec, terms)


# ---------------------------------------------------------------------------
# Weyl normalization helpers


def weyl_normalize(spec, factors):
    """Normalized monomial of a list of exponent vectors.

    Equal to the ordinary product x^(k_1) ... x^(k_m) with the Weyl
    q-power prefactor stripped; independent of the order of the factors.
    """
    total = spec.zero_vec()
    for k in factors:
        total = tuple(a + b for a, b in zip(total, k))
    return TorusElement.monomial(spec, total)


def ordered_product_phase(spec, factors):
    """The scalar P with x^(k_1) ... x^(k_m) = P * x^(k_1 + ... + k_m).

    P = u^((1/2) sum_{i<j} <k_i, k_j>_A).  Decomposing a monomial into an
    ordered product of generators therefore costs the inverse phase.
    """
    total = 0
    for i, k in enumerate(factors[:-1]):
        row = spec.pairing_row(k)
        total += sum(sum(map(mul, row, n)) for n in factors[i + 1:])
    return spec.half_phase(total)


def decompose_monomial(spec, k, coeff=ONE):
    """Write coeff*x^k as (scalar, [(label, exponent), ...]) with the ordered
    generator product running through spec.labels in order."""
    factors = []
    vecs = []
    for lab, e in zip(spec.labels, k):
        if e:
            factors.append((lab, int(e)))
            vecs.append(spec.unit_vec(lab, e))
    phase = ordered_product_phase(spec, vecs)
    # x^k = phase^(-1) * prod_i x^(k_i)
    return coeff * phase.inverse(), factors


# ---------------------------------------------------------------------------
# Multiplicatively linear homomorphisms x^k -> y^(kH)


def mlh_check(H, B, A, r):
    """Exact test of H B H^T == r A (r an integer or Fraction)."""
    H = np.asarray(H, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64)
    if H.shape != (A.shape[0], B.shape[0]):
        raise ValueError("dimension mismatch in mlh_check")
    if A.size == 0:
        return True
    lhs = H @ B @ H.T
    r = Fraction(r)
    scaled = r.numerator * A
    if np.any(scaled % r.denominator):
        return False
    return bool(np.array_equal(lhs, scaled // r.denominator))


def mlh_apply(H, src_spec, dst_spec, elem):
    """Linear extension of x^k -> y^(kH); an algebra map when HBH^T = rA,
    which the caller checks once with mlh_check."""
    if elem.spec != src_spec:
        raise ValueError("element does not live in the source torus")
    H = np.asarray(H, dtype=np.int64)
    out = {}
    for k, c in elem.terms.items():
        kk = tuple(int(x) for x in (np.asarray(k, dtype=np.int64) @ H))
        s = out.get(kk)
        out[kk] = c if s is None else s + c
    return TorusElement(dst_spec, out)


def canonical_projection(elem, keep):
    """Drop every term whose exponent vector fails the predicate."""
    return TorusElement(
        elem.spec, {k: c for k, c in elem.terms.items() if keep(k)}
    )

