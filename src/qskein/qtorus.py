"""Quantum tori T(A, u) in the Weyl-normalized monomial basis.

A torus is specified by a finite ordered label set I, an antisymmetric
integer matrix A over I, and a parameter u that is an integral power of
q^(1/4).  Elements are finite sums of normalized monomials x^k with
exact Laurent coefficients.  The product rule is

    x^k * x^n = u^((1/2) <k,n>_A) x^(k+n),

where <k,n>_A = k A n^T, so x^k x^n = u^(<k,n>_A) x^n x^k and an ordered
product is x^(k_1) ... x^(k_m) = u^((1/2) sum_(i<j) <k_i,k_j>_A) x^(sum k_i).
Since u is a power of q^(1/4), u^(1/2) lives in the coefficient ring and
every product is exact.

A product a * b is a pair loop: each term pair multiplies its two
coefficients (qscalar._times, the product Laurent.__mul__ uses) and adds
the result shifted by its phase (u_eighth/2) k1 A k2.  The pairing row
k1 A is computed once per left term, so a phase is one integer dot
product.  Term pairs are visited in the order of the term-by-term product,
and coefficients accumulate as Python ints.

A square a * a is one int64 scatter on an exponent grid instead.  Every
coefficient exponent lies in n0 + dZ, where d is the gcd of all exponent
differences and all pair phases, so each distinct coefficient is a dense
row on that grid, and each distinct unordered coefficient pair is
convolved once.  Exponent vectors get mixed-radix codes with
code(k_i + k_j) = code_i + code_j, which key the output monomials.  Each
unordered term pair i <= j places its product at +phase and, for i < j, at
-phase, since <k_j,k_i>_A = -<k_i,k_j>_A.  Sorted by the key (output
monomial, start), the placements lose every gap that no earlier placement
reaches across, so each monomial's placements form runs and the layout is
never longer than the placements together.  One np.add.at per product
column fills it, so temporaries stay at one entry per placement.

The grid is used when every value it computes fits int64: codes below
prod(radix), exponent vectors up to 2 max|k|, phases and output exponents
up to a bound r, layout keys below (len(a.terms) + 1)^2 (r + 1), and
partial sums up to ||a||_1^2, and when no distinct coefficient's dense row
is longer than the square of a's coefficient term count, which is the
number of coefficient-term products the pair loop makes, so that one
sparse coefficient with a wide span cannot ask for rows of mostly zeros.
Any other square takes the pair loop, which is exact on Python ints.

Both paths build their output in canonical form, Python ints and no zero
coefficient, and hand it to one private constructor that skips the checks
of TorusElement() and Laurent().
"""

from __future__ import annotations

import math
from itertools import islice
from operator import add, mul

import numpy as np

from .qscalar import Laurent, ONE, _times


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


def _element(spec, terms):
    """The element from ``terms``, pairs (int tuple of the spec's width,
    {int: nonzero int}) with distinct tuples and no empty coefficient, taken
    as they are: both product kernels build exactly this."""
    out = object.__new__(TorusElement)
    out.spec = spec
    out.terms = {k: Laurent._canonical(c) for k, c in terms}
    return out


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
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return TorusElement(self.spec, out)

    def __mul__(self, other):
        if isinstance(other, Laurent):
            return TorusElement(self.spec, {k: v * other for k, v in self.terms.items()})
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check(other)
        if other is self and (square := self._square()) is not None:
            return square
        spec = self.spec
        half = spec.u_eighth // 2
        acc = {}        # k -> {eighth exponent: int coefficient}
        for k1, c1 in self.terms.items():
            row = [half * v for v in spec.pairing_row(k1)]
            for k2, c2 in other.terms.items():
                shift = sum(map(mul, row, k2))
                k = tuple(map(add, k1, k2))
                slot = acc.get(k)
                if slot is None:
                    slot = acc[k] = {}
                get = slot.get
                for n, a in _times(c1, c2).items():
                    n += shift
                    slot[n] = get(n, 0) + a
        out = ((k, {n: a for n, a in slot.items() if a}) for k, slot in acc.items())
        return _element(spec, ((k, c) for k, c in out if c))

    def _square(self):
        """self * self as one int64 scatter on the exponent grid (module
        docstring), or None when some value of it would not fit int64 or a
        distinct coefficient's dense row would be longer than the square of
        self's coefficient term count."""
        spec, terms = self.spec, self.terms
        if not terms:
            return TorusElement(spec)
        keys, half = list(terms), spec.u_eighth // 2
        index = {}          # each distinct coefficient, numbered in the order met
        group = [index.setdefault(c, len(index)) for c in terms.values()]
        coeffs = list(index)
        ns = [n for c in coeffs for n in c.terms]
        n0 = min(ns)
        cols = list(zip(*keys))
        lows = [min(col) for col in cols]
        radix = [2 * (max(col) - low) + 1 for col, low in zip(cols, lows)]
        kabs = max((max(map(abs, col)) for col in cols), default=0)
        form = kabs * kabs * int(np.abs(spec.A).sum())     # bounds |k_i A k_j|
        norm = sum(abs(v) for c in terms.values() for v in c.terms.values())
        reach = form * max(abs(half), 1) + 4 * max(map(abs, ns))    # bounds phases, exponents
        # codes, output exponent vectors, layout keys and partial sums
        if max(math.prod(radix), 2 * kabs, (len(keys) + 1) ** 2 * (reach + 1),
               norm * norm) >= 1 << 63:
            return None
        # exponent side: mixed-radix codes, code(k_i + k_j) = code_i + code_j,
        # and pair phases
        strides = np.array([math.prod(radix[:i]) for i in range(len(radix))], dtype=np.int64)
        radix, lows = np.array(radix, dtype=np.int64), np.array(lows, dtype=np.int64)
        K = np.array(keys, dtype=np.int64).reshape(len(keys), len(cols))
        code = (K - lows) @ strides
        iu, ju = np.triu_indices(len(keys))     # unordered term pairs i <= j
        out_codes, out_of = np.unique(code[iu] + code[ju], return_inverse=True)
        phase = ((K @ spec.A) @ K.T)[iu, ju] * half
        d = math.gcd(int(np.gcd.reduce(phase)), *(n - n0 for n in ns)) or 1
        # coefficient side: each distinct coefficient a dense row on the grid
        # n0 + dZ from its first exponent, and one convolution per distinct
        # unordered coefficient pair
        offset = [(min(c.terms) - n0) // d for c in coeffs]
        size = np.array([(max(c.terms) - n0) // d + 1 for c in coeffs]) - offset
        ell = int(size.max())
        if ell > sum(len(c.terms) for c in terms.values()) ** 2:
            return None             # one row outgrows the whole pair loop's products
        rows = np.zeros((len(coeffs), ell), dtype=np.int64)
        for g, c in enumerate(coeffs):
            for n, v in c.terms.items():
                rows[g, (n - n0) // d - offset[g]] = v
        group, offset = np.array(group), np.array(offset)
        g1, g2 = group[iu], group[ju]
        pairs, via = np.unique(np.minimum(g1, g2) * len(coeffs) + np.maximum(g1, g2),
                               return_inverse=True)
        left, right = divmod(pairs, len(coeffs))
        conv = np.zeros((2 * ell - 1, len(pairs)), dtype=np.int64)    # a pair per column
        right_rows = rows[right].T
        for s in range(ell):
            conv[s:s + ell] += right_rows * rows[left, s]
        # a term pair's product starts at its grid position plus its phase
        # and, for i < j, also minus its phase, since <k_j,k_i> = -<k_i,k_j>
        shift = phase // d
        base = offset[g1] + offset[g2]
        cross = iu != ju
        at = np.concatenate((base + shift, (base - shift)[cross]))
        via = np.concatenate((via, via[cross]))
        length = (size[left] + size[right] - 1)[via]
        # positions, first by the key (monomial, start), then in the layout,
        # which cuts out each gap that no earlier placement reaches across
        low = int(at.min())
        span = int((at + length).max()) - low
        pos = np.concatenate((out_of, out_of[cross])) * span + (at - low)
        order = np.argsort(pos)
        pos, via, length = pos[order], via[order], length[order]
        # cut[i] sums the gaps up to placement i, where the farthest end so
        # far falls short of the next start
        cut = np.maximum.accumulate(pos + length)
        cut = np.cumsum(np.maximum(pos - np.concatenate(([0], cut[:-1])), 0))
        pos -= cut
        flat = np.zeros(int((pos + length).max()), dtype=np.int64)
        # product column t adds to the term pairs whose product is longer
        order = np.argsort(length)
        at, via, length = pos[order], via[order], length[order]
        skip = np.searchsorted(length, np.arange(2 * ell - 1), side="right")
        for t, k in enumerate(skip.tolist()):
            np.add.at(flat, at[k:] + t, conv[t, via[k:]])
        # a nonzero entry's key is its layout index plus the cut before it
        nz = np.flatnonzero(flat)
        key = nz + cut[np.searchsorted(pos, nz, side="right") - 1]
        exps = ((key % span + low) * d + 2 * n0).tolist()
        counts = np.bincount(key // span, minlength=len(out_codes)).tolist()
        entries = zip(exps, flat[nz].tolist())
        out_keys = map(tuple, (out_codes[:, None] // strides % radix + 2 * lows).tolist())
        return _element(spec, ((k, dict(islice(entries, n)))
                               for k, n in zip(out_keys, counts) if n))

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
        co = Laurent({int(n): int(c) for n, c in t.get("coeff", {"0": 1}).items()})
        terms[k] = terms.get(k, Laurent.zero()) + co
    return TorusElement(spec, terms)


# ---------------------------------------------------------------------------
# Multiplicatively linear homomorphisms x^k -> y^(kH)


def mlh_apply(H, src_spec, dst_spec, elem):
    """Linear extension of x^k -> y^(kH); an algebra map when HBH^T = rA,
    which the caller checks once."""
    if elem.spec != src_spec:
        raise ValueError("element does not live in the source torus")
    if not elem.terms:
        return TorusElement(dst_spec)
    # one product over Python ints: exponents may exceed int64
    images = np.array(list(elem.terms), dtype=object) @ np.asarray(H).astype(object)
    out = {}
    for kk, c in zip(map(tuple, images.tolist()), elem.terms.values()):
        s = out.get(kk)
        out[kk] = c if s is None else s + c
    return TorusElement(dst_spec, out)


def canonical_projection(elem, keep):
    """Drop every term whose exponent vector fails the predicate."""
    return TorusElement(
        elem.spec, {k: c for k, c in elem.terms.items() if keep(k)}
    )

