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
differences and all pair phases: the grid.  The exponents inside each
coefficient step by a multiple of e, the gcd of the differences inside
the coefficients (e = d when each has one term), and d divides e.  So
each distinct coefficient is a dense row on step e from its lowest
exponent, each distinct unordered coefficient pair is convolved once on
that step, and product column t lands s = e/d grid steps after column
t - 1.  On the traces squares e = 2d, which halves the rows, the
convolutions and the scatter.  Exponent vectors get mixed-radix codes with
code(k_i + k_j) = code_i + code_j, which key the output monomials.  Each
unordered term pair i <= j places its product at +phase and, for i < j, at
-phase, since <k_j,k_i>_A = -<k_i,k_j>_A; a product of len columns covers
s (len - 1) + 1 grid steps.  Sorted by the key (output monomial, start),
the placements lose every gap that no earlier placement reaches across, so
each monomial's placements form runs and the layout is never longer than
the placements together.  One np.add.at per product column fills it, so
temporaries stay at one entry per placement.

The grid is used when every value it computes fits int64: the exponent
vectors, sort keys below prod(radix) npairs (below), output exponent
vectors up to 2 max|k|, phases and output exponents up to a bound r,
layout keys below (len(a.terms) + 1)^2 (r + 1), and partial sums up to
||a||_1^2, and when no distinct coefficient spans more grid steps than
the square of a's coefficient term count, which is the number of
coefficient-term products the pair loop makes, so that one sparse
coefficient with a wide span cannot ask for rows or a layout of mostly
zeros.  The bound is on grid steps, s (ell - 1) + 1 for a row of ell
slots, not on ell: a two-term coefficient whose terms lie 2^40 apart,
next to a one-term coefficient at an odd exponent, has ell = 2 but
d = 1, and its placements would cover about 2^41 grid steps.
Any other square takes the pair loop, which is exact on Python ints.

A square has an exponent side and a coefficient side.  The exponent side
reads the exponent vectors into one int64 matrix K, takes its bounds
from K's column minima and maxima, and lists the npairs unordered term
pairs i <= j row by row (_pairs), without the n x n mask of
np.triu_indices.  One sort of the key code(k_i + k_j) npairs + pair
index (_group_pairs) then groups the pairs: each run of one code is an
output monomial, the runs come in code order, and a run begins at its
monomial's first pair, so the run starts give each monomial's first pair
and each pair's monomial.  A monomial's exponent vector is K[i] + K[j]
at its first pair, so no code is decoded; the keys are built from the
columns of these sums, one tuple per monomial.  The exponent side also
takes the pair phases.  The coefficient side, _square_coefficients,
computes the rows, convolutions, layout, scatter and runs.  It reads only
the square's multiplication table: the distinct coefficients by value, in
the order met; each term's coefficient index; each unordered pair's phase
in eighths of q; and each pair's output monomial, numbered by its first
pair in pair order, a numbering that depends neither on the exponent
vectors nor on their code order.  It gives one Laurent (or None, where
the pairs cancel) per output monomial in that numbering and the number
that cancel, so that a square where none cancels takes every monomial
without a test.  _SQUARES maps the table of each live square that ran the
coefficient side to exactly what that run gave, and a square whose table
is there takes it and skips the coefficient side.  Either way the square
reads the coefficients in code order, through each monomial's first-pair
number, and takes its keys from its own exponents, so its keys, their
order, its coefficients and their term order do not depend on which
square computed them.  psi only relabels exponents and keeps the term
order, so the skein square psi(t) psi(t) takes the table of the shear
square t t.  An entry leaves _SQUARES when the square that computed it is
freed (weakref.finalize), not when a square that took it is.

After the scatter, each output monomial's nonzero entries form one run of
(exponent, value) pairs.  Runs are grouped by their exact bytes within the
square, and each distinct run is built into one Laurent, so two monomials
of one square share a Laurent exactly when their coefficients are equal.
Across squares, coefficients are shared only by a square that takes a
live table from _SQUARES.  Laurent scalars are immutable and compare by
value, so monomials that share one coefficient object give the same
outputs as separate objects would, at less memory.

A square's working memory is that of its largest stage, not the sum of
its stages.  _square drops the pair codes and each pair's monomial in
code order once it has the output exponent vectors, and the term pairs,
their phases and their first-pair numbers once the coefficient side has
run.  The coefficient side runs in four stages, rows and convolutions
(_convolutions), placements and layout (_layout), the scatter (_scatter)
and runs and Laurents (_runs), and each returns only what the next one
reads, so every array is freed once its last reader has run.  Squaring
the top traces rung's 124-term shear trace (7,750 term pairs, 1,003
output monomials) with no live table, tracemalloc reads a peak about
0.8 MB above the 1.1-1.2 MB the square retains; it read 3.9 MB above
when every array lived until the square returned.

Both paths build their output in canonical form, Python ints and no zero
coefficient, and hand it to one private constructor that skips the checks
of TorusElement() and Laurent(); state_sum and mlh_apply build theirs the
same way.
"""

from __future__ import annotations

import math
import re
import weakref
from itertools import chain, islice
from operator import add, index, mul

import numpy as np

from .qscalar import Laurent, ONE, _times

# a grid square's multiplication table -> (its coefficient of each output
# monomial numbered by first pair, None where it cancels; how many cancel)
# (module docstring); an entry leaves when its square is freed
_SQUARES = {}


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
        self._rows = tuple(map(tuple, A.tolist()))
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
        """Exponent tuple from a {label: int} mapping; missing labels are 0
        and a value that is not an integer raises TypeError."""
        v = [0] * len(self.labels)
        for lab, e in mapping.items():
            v[self.index[lab]] = index(e)
        return tuple(v)

    def half_phase(self, pair_value):
        """u^(pair_value/2) as a Laurent scalar (pair_value an integer)."""
        return Laurent.q_power((self.u_eighth // 2) * pair_value)


def _element(spec, terms):
    """The element whose terms are the dict ``terms``, int tuples of the
    spec's width to nonzero Laurent scalars, taken as it is: the product
    kernels, state_sum and mlh_apply build exactly this."""
    out = object.__new__(TorusElement)
    out.spec = spec
    out.terms = terms
    return out


class TorusElement:
    """A finite R-linear combination of normalized monomials x^k."""

    __slots__ = ("spec", "terms", "__weakref__")

    def __init__(self, spec, terms=None):
        self.spec = spec
        self.terms = {}
        if terms:
            width = len(spec.labels)
            for k, c in terms.items():
                if not isinstance(c, Laurent):
                    raise TypeError("coefficient %r is not a Laurent scalar" % (c,))
                if len(k) != width:
                    raise ValueError("exponent vector of wrong length")
                # integers only: a float exponent raises TypeError, so no
                # two keys of one dict name the same monomial
                if not c.is_zero():
                    self.terms[tuple(map(index, k))] = c

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
        return _element(spec, {k: Laurent._canonical(c) for k, c in out if c})

    def _square(self):
        """self * self on the exponent grid (module docstring), or None when
        some value of it would not fit int64 or a distinct coefficient would
        span more grid steps than the square of self's coefficient term
        count."""
        spec, terms = self.spec, self.terms
        if not terms:
            return TorusElement(spec)
        half, size, width = spec.u_eighth // 2, len(terms), len(spec.labels)
        try:
            K = np.fromiter(chain.from_iterable(terms), dtype=np.int64,
                            count=size * width).reshape(size, width)
        except OverflowError:
            return None                         # an exponent past int64
        index = {}          # each distinct coefficient, numbered in the order met
        group = np.array([index.setdefault(c, len(index)) for c in terms.values()])
        coeffs = list(index)
        mult = np.bincount(group).tolist()      # terms per distinct coefficient
        ns = [n for c in coeffs for n in c.terms]
        low = K.min(0)
        lows, highs = low.tolist(), K.max(0).tolist()
        radix = [2 * (hi - lo) + 1 for lo, hi in zip(lows, highs)]
        kabs = max(map(abs, lows + highs), default=0)
        form = kabs * kabs * int(np.abs(spec.A).sum())     # bounds |k_i A k_j|
        norm = sum(m * sum(map(abs, c.terms.values())) for m, c in zip(mult, coeffs))
        reach = form * max(abs(half), 1) + 4 * max(map(abs, ns))    # bounds phases, exponents
        npairs = size * (size + 1) // 2
        # sort keys, output exponent vectors, layout keys and partial sums
        if max(math.prod(radix) * npairs, 2 * kabs, (size + 1) ** 2 * (reach + 1),
               norm * norm) >= 1 << 63:
            return None
        # exponent side: mixed-radix codes, code(k_i + k_j) = code_i + code_j,
        # pair phases, and each output monomial numbered by its first pair
        strides = np.array([math.prod(radix[:i]) for i in range(width)], dtype=np.int64)
        code = (K - low) @ strides
        iu, ju = _pairs(size)                   # unordered term pairs i <= j
        first, out_of = _group_pairs(code[iu] + code[ju])
        count = len(first)
        sums = K[iu[first]] + K[ju[first]]      # output exponent vectors, in code order
        phase = ((K @ spec.A) @ K.T)[iu, ju] * half
        rank = np.empty_like(first)             # code order -> first-pair number
        rank[np.argsort(first)] = np.arange(count)
        by_first = rank[out_of]                 # each pair's monomial by first pair
        del code, first, out_of
        # the multiplication table keys the coefficient side (module
        # docstring): a live square with this table hands over its
        # coefficient of each numbered monomial and how many cancel
        table = (tuple(coeffs), group.tobytes(), phase.tobytes(), by_first.tobytes())
        known = _SQUARES.get(table)
        miss = known is None
        if miss:
            known = _square_coefficients(coeffs, group, iu, ju, phase, by_first, count)
            if known is None:
                return None
        del iu, ju, phase, by_first
        numbered, cancelled = known
        cols = sums.T.tolist()
        out_keys = zip(*cols) if cols else [()] * count     # zero width: () keys
        items = zip(out_keys, map(numbered.__getitem__, rank.tolist()))
        square = _element(spec, {k: c for k, c in items if c is not None}
                          if cancelled else dict(items))
        if miss:
            _SQUARES[table] = known
            weakref.finalize(square, _SQUARES.pop, table)
        return square

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
            mono = " ".join(
                "%s[%s]^%d" % (self.spec.letter, lab, e)
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
        co = {}
        for key, c in t.get("coeff", {"0": 1}).items():
            n = _eighths(key)
            if n in co:         # "3", "03" and "+3" name one exponent
                raise ValueError("%r repeats exponent %d" % (key, n))
            co[n] = int(c)
        terms[k] = terms.get(k, Laurent.zero()) + Laurent(co)
    return TorusElement(spec, terms)


def _eighths(key):
    """The eighth exponent a JSON coefficient key names: ASCII digits with
    an optional sign, where int() would also take other digits and
    underscores."""
    if not re.fullmatch(r"[+-]?[0-9]+", key):
        raise ValueError("%r is not an integer" % key)
    return int(key)


def _pairs(n):
    """The unordered pairs i <= j below n in the order of np.triu_indices(n),
    without its n x n mask: pair p of row i is (i, i + p - start of row i)."""
    rows = np.arange(n)
    lens = n - rows
    iu = np.repeat(rows, lens)
    return iu, np.arange(len(iu)) - np.repeat(np.cumsum(lens) - lens - rows, lens)


def _heads(a):
    """Where a run of equal entries of a begins: a mask, true at entry 0
    and wherever an entry differs from the one before it."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _group_pairs(codes):
    """(each output monomial's first pair, in code order; each pair's
    monomial) from the pairs' output codes, by one sort of code * npairs +
    pair index: each run of one code is a monomial, and it begins at the
    monomial's first pair."""
    npairs = len(codes)
    sums, order = np.divmod(np.sort(codes * npairs + np.arange(npairs)), npairs)
    new = _heads(sums)
    out_of = np.empty(npairs, dtype=np.int64)
    out_of[order] = np.cumsum(new) - 1
    return order[new], out_of


def _square_coefficients(coeffs, group, iu, ju, phase, out_of, count):
    """The coefficient side of a square (module docstring): its distinct
    coefficients, each term's coefficient index group, the unordered term
    pairs iu <= ju with their phases in eighths of q and output monomials
    out_of, numbered by first pair, give the coefficient of each of the
    count output monomials in that numbering, a Laurent or None where it
    cancels, and the number that cancel; None instead when a distinct
    coefficient spans more grid steps than the square of the coefficient
    term count.

    The work runs in four stages, _convolutions, _layout, _scatter and
    _runs, and each returns only what the next one reads, so an array is
    freed once its last reader has run: the working memory above the
    inputs and the result is about that of the largest stage, not the sum
    of all of them."""
    ns = [n for c in coeffs for n in c.terms]
    n0 = min(ns)
    d = math.gcd(int(np.gcd.reduce(phase)), *(n - n0 for n in ns)) or 1
    # each distinct coefficient a dense row on step e from its lowest
    # exponent, e the gcd of the exponent differences inside the
    # coefficients (d when each has one term, and a multiple of d)
    bottom = [min(c.terms) for c in coeffs]
    e = math.gcd(*(n - b for c, b in zip(coeffs, bottom) for n in c.terms)) or d
    s = e // d                  # grid steps from one product column to the next
    size = np.array([(max(c.terms) - b) // e + 1 for c, b in zip(coeffs, bottom)])
    ell = int(size.max())
    # the grid steps a row covers bound the layout, not its slots ell
    if s * (ell - 1) + 1 > sum(len(coeffs[g].terms) for g in group.tolist()) ** 2:
        return None             # one row outgrows the whole pair loop's products
    offset = np.array([(b - n0) // d for b in bottom])
    g1, g2 = group[iu], group[ju]
    conv, via, length = _convolutions(coeffs, bottom, e, size, ell, g1, g2)
    base = offset[g1] + offset[g2]
    del g1, g2
    pos, cut, via, length, low, span = _layout(base, phase // d, iu != ju, via,
                                               length, out_of, s)
    del base
    key, val = _scatter(conv, pos, cut, via, length, s)
    del conv, pos, cut, via, length
    return _runs(key, val, span, low, d, 2 * n0, count)


def _convolutions(coeffs, bottom, e, size, ell, g1, g2):
    """Rows and convolutions: each distinct coefficient a dense row of ell
    slots on step e from its bottom exponent, and one convolution per
    distinct unordered coefficient pair.  Gives the convolutions, a pair
    per column; each term pair's coefficient pair, from the term pairs'
    coefficient indices g1 and g2; and each coefficient pair's number of
    product columns."""
    rows = np.zeros((len(coeffs), ell), dtype=np.int64)
    for g, (c, b) in enumerate(zip(coeffs, bottom)):
        for n, v in c.terms.items():
            rows[g, (n - b) // e] = v
    pairs, via = np.unique(np.minimum(g1, g2) * len(coeffs) + np.maximum(g1, g2),
                           return_inverse=True)
    left, right = divmod(pairs, len(coeffs))
    conv = np.zeros((2 * ell - 1, len(pairs)), dtype=np.int64)    # a pair per column
    right_rows = rows[right].T
    for j in range(ell):
        conv[j:j + ell] += right_rows * rows[left, j]
    return conv, via, size[left] + size[right] - 1


def _layout(base, shift, cross, via, length, out_of, s):
    """Placements and layout.  A term pair's product starts at its grid
    position base plus its phase shift in grid steps and, where cross
    (i < j), also minus it, since <k_j,k_i> = -<k_i,k_j>; its column t
    lies s * t grid steps further on.  The placements are sorted by the key
    (monomial, start) and each gap that no earlier placement reaches
    across is cut out.  Gives each placement's layout position in that
    order, the gaps cut up to it, its coefficient pair and its number of
    product columns, and the lowest start and the span of starts that
    decode a key."""
    at = np.concatenate((base + shift, (base - shift)[cross]))
    via = np.concatenate((via, via[cross]))
    length = length[via]                                # product columns
    extent = s * (length - 1) + 1                       # grid steps they cover
    low = int(at.min())
    span = int((at + extent).max()) - low
    pos = np.concatenate((out_of, out_of[cross])) * span + (at - low)
    del at
    order = np.argsort(pos)
    pos, via, length, extent = pos[order], via[order], length[order], extent[order]
    del order
    # cut[i] sums the gaps up to placement i, where the farthest end so
    # far falls short of the next start
    cut = np.maximum.accumulate(pos + extent)
    cut = np.cumsum(np.maximum(pos - np.concatenate(([0], cut[:-1])), 0))
    pos -= cut
    return pos, cut, via, length, low, span


def _scatter(conv, pos, cut, via, length, s):
    """The scatter: one np.add.at per product column into the layout, which
    ends where the last placement does.  Gives the key of each nonzero
    entry, its layout index plus the cut before it, and its value."""
    flat = np.zeros(int((pos + s * (length - 1) + 1).max()), dtype=np.int64)
    # product column t adds to the placements whose product is longer
    order = np.argsort(length)
    at, via, length = pos[order], via[order], length[order]
    del order
    skip = np.searchsorted(length, np.arange(len(conv)), side="right")
    for t, k in enumerate(skip.tolist()):
        np.add.at(flat, at[k:] + s * t, conv[t, via[k:]])
    del at, via, length
    nz = np.flatnonzero(flat)
    val = flat[nz]
    del flat
    return nz + cut[np.searchsorted(pos, nz, side="right") - 1], val


def _runs(key, val, span, low, d, n_base, count):
    """Runs and Laurents.  An entry's key is its monomial times span plus
    its start above low, and its exponent is n_base plus d per unit of
    start; each output monomial's nonzero entries form one run, in
    exponent order.  Runs are grouped by their exact bytes, 16 per
    (exponent, value) entry, and each group's first run is built into one
    Laurent (module docstring).  Gives the coefficient of each of the count
    monomials and the number that cancel."""
    mono, exp = np.divmod(key, span)
    exp += low
    exp *= d
    exp += n_base
    starts = np.flatnonzero(_heads(mono))
    mono = mono[starts].tolist()
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = len(exp)
    lens = ends - starts
    raw = np.stack((exp, val), axis=1).tobytes()
    # each run's first run with the same bytes; the bytes go before the
    # Laurents are built
    first = {}
    head_of = [first.setdefault(raw[i:j], r) for r, (i, j)
            in enumerate(zip((16 * starts).tolist(), (16 * ends).tolist()))]
    del raw, starts, ends
    heads = list(first.values())
    del first
    own = np.zeros(len(head_of), dtype=bool)
    own[heads] = True
    kept = np.repeat(own, lens)
    entries = zip(exp[kept].tolist(), val[kept].tolist())
    del exp, kept
    built = [None] * len(head_of)
    for r, n in zip(heads, lens[heads].tolist()):
        built[r] = Laurent._canonical(dict(islice(entries, n)))
    out = [None] * count
    for m, r in zip(mono, head_of):
        out[m] = built[r]
    return out, count - len(head_of)


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
    return _element(dst_spec, {k: c for k, c in out.items() if c})


def canonical_projection(elem, keep):
    """Drop every term whose exponent vector fails the predicate."""
    return TorusElement(
        elem.spec, {k: c for k, c in elem.terms.items() if keep(k)}
    )

