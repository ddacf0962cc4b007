"""Root-of-unity representations over F_p certifying skew-field
identities, and exact decisions for the generator rows that need none.

At an odd order L the scalar q^(1/8) is sent to zeta = g^((p - 1) / L),
a primitive L-th root of unity in F_p, where p is the largest prime below
2^25 with p = 1 (mod L) and g generates F_p^* (qscalar.RootOfUnity).  An
exact integer symplectic normal form, P A P^T = (+) d_i J (+) 0 with P
unimodular, rewrites x^k as the monomial z^c, c = k P^(-1), of a torus
whose form is block diagonal.  With u^(1/2) = zeta^h, each block d J with
L not dividing h d acts on its own factor F_p^L by a clock-shift pair,

    z^(a,b) . e_n = zeta^(h d (2 a n + a b)) e_(n + b),

and the other blocks are central.  Each z_j also carries a central
character g^(n_j), n_j uniform, so z^c carries g^(c . n).  This is the
irreducible representation on (F_p^L)^(tensor r), r = rank_L A / 2, that
Bonahon-Liu build over any field with a primitive L-th root of unity, and
rep(x^k) rep(x^m) = u^((1/2)<k,m>) rep(x^(k+m)) holds exactly.  The basis
e_n is indexed flat in C order, m = sum_i n_i L^(r-1-i) < dim = L^r, so a
monomial, a weighted permutation of it, acts on vectors as one gather.

verify_identity represents the sub-torus on the labels its expressions
use, which keeps L^r small, and acts on the caller's expressions as they
are, mapping each element's exponents to the sub-torus by label.  Every
inverse acts through its matrix inverted once mod p (lu_factor), cached
by the inverse's payload object, so an inverse that several words share
is inverted once per order.  An order is INCONCLUSIVE only when such a
matrix is singular mod p or L^r > DENSE_DIM.  The trials at one order
are one batch of vectors uniform in F_p^(L^r), drawn trial by trial from
the generator seeded by (seed, L) after the characters, so trial t's
vector does not depend on the number of trials and a fresh
RootRep(spec, L, seed) draws a witness again.  A trial passes only when
both sides agree exactly.

A false PASS at one order is unlikely (Schwartz, J. ACM 1980; Zippel
1979): if the sides differ, an entry of their difference, denominators
cleared, is a nonzero polynomial of some degree deg in the characters,
which vanishes at the drawn ones with probability at most deg/(p - 1);
if it does not, each trial vector lies in the difference's kernel with
probability at most 1/p.  So a trial misses with probability about deg/p
at most.  Representations at roots of unity are not faithful, so PASS
needs at least three completed orders, all at least 5.

Everything is int64 residues mod p < 2^25: a product of two residues is
below 2^50, a mat-vec over at most DENSE_DIM = 4000 < 2^12 terms below
2^62, and since the elimination reduces only the pivot row and column at
each step, an unreduced entry stays below n p^2 < 2^62.

verify_generator_map_identity decides a generator row X = image exactly,
with no representation, when a scan of the image's factor kinds finds one
of three shapes (A, D and the generator monomial C inverse-free):

    inverse-free        image = A          compare A with C
    left denominator    image = D^-1 A     compare A with D C
    right denominator   image = A D^-1     compare A with C D

Here every word starts (or ends) with the same inverse node D^-1, and A
sums the rests of the words with their central coefficients.  The quantum
torus is an Ore domain, so it embeds in its skew field of fractions, where
every D != 0 is invertible (Goodearl-Warfield, An Introduction to
Noncommutative Noetherian Rings, ch. 6); multiplying by D on the left (or
right) gives D^-1 A = C <=> A = D C and A D^-1 = C <=> A = C D.  Such a
verdict has method "exact" and no orders.  A zero or nested denominator,
or any other shape, goes to verify_identity, with one (RootRep, trial
batch) per (sub-torus, order) shared by all generators of the map: a
RootRep(sub, L, seed) draws the same characters and batch every time, so
sharing changes no verdict and inverts a shared inverse once per order.
A map whose rows are all decided exactly also sends its row with the most
words to verify_identity, and that row reports the failing verdict if
either method fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qscalar import ZERO, RootOfUnity
from .qtorus import TorusElement, TorusSpec
from .coordinate_change import Expr

DEFAULT_ORDERS = (5, 7, 11)
EXTRA_ORDERS = (13, 17, 19)
MIN_ORDERS = 3
DENSE_DIM = 4000
DEFAULT_TRIALS = 20


class Inconclusive(Exception):
    """This root order cannot decide: a matrix is singular mod p, or L^r > DENSE_DIM."""


def lu_factor(mat, p):
    """The inverse of mat mod p by Gauss-Jordan elimination on [mat | 1];
    ValueError when mat is singular mod p.  (The benchmark's tracer
    counts calls to this name as factorizations.)"""
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


def lu_solve(inverse, rhs, p):
    """x with mat x = rhs mod p, one system per column of rhs, for the
    inverse that lu_factor(mat, p) returned."""
    return inverse @ rhs % p


# Nothing calls splu or lgmres.  perfbench/tracing.py looks both names up
# in this module and patches every qskein global that is the same object,
# so each stays a distinct function (a shared object or None would patch
# unrelated globals) until the tracer reads counters instead of names.
def splu(*args, **kw):
    raise NotImplementedError("repcheck has no sparse LU")


def lgmres(*args, **kw):
    raise NotImplementedError("repcheck has no iterative solver")


@lru_cache(maxsize=None)
def symplectic_normal_form(spec):
    """(P, P^-1, d) with P unimodular and P A P^T = diag(d_1 J, ..., d_m J, 0).

    J = [[0, 1], [-1, 0]] and every d_i > 0; exact integer arithmetic."""
    n = len(spec.labels)
    M = spec.A.astype(object)
    P = np.eye(n, dtype=object)
    Q = P.copy()                       # P^-1

    def swap(i, j):
        M[[i, j]] = M[[j, i]]
        M[:, [i, j]] = M[:, [j, i]]
        P[[i, j]] = P[[j, i]]
        Q[:, [i, j]] = Q[:, [j, i]]

    def add(j, i, t):                  # basis vector j += t * basis vector i
        M[j] += t * M[i]
        M[:, j] += t * M[:, i]
        P[j] += t * P[i]
        Q[:, i] -= t * Q[:, j]

    d, s = [], 0
    while s + 1 < n:
        nonzero = [(abs(M[i, j]), i, j)
                   for i in range(s, n) for j in range(s, n) if M[i, j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        swap(s, i)
        swap(s + 1, i if j == s else j)
        if M[s, s + 1] < 0:
            swap(s, s + 1)
        pivot = M[s, s + 1]
        for j in range(s + 2, n):
            add(j, s + 1, -(M[s, j] // pivot))
            add(j, s, M[s + 1, j] // pivot)
        if not M[s:s + 2, s + 2:].any():
            d.append(int(pivot))
            s += 2
    D = np.zeros((n, n), dtype=np.int64)
    for i, di in enumerate(d):
        D[2 * i, 2 * i + 1], D[2 * i + 1, 2 * i] = di, -di
    P, Q = P.astype(np.int64), Q.astype(np.int64)
    if not (np.array_equal(P @ spec.A @ P.T, D)
            and np.array_equal(P @ Q, np.eye(n, dtype=np.int64))):
        raise AssertionError("symplectic normal form failed its self-check")
    return P, Q, tuple(d)


class RootRep:
    """The clock-shift representation of one torus at order L over F_p,
    with central characters and then random vectors drawn from one
    generator seeded by seed and L.

    It acts on elements of spec and of any torus that contains spec as the
    sub-torus on spec.labels (same u, same submatrix), mapping exponents by
    label; an exponent on a label outside spec.labels raises ValueError."""

    def __init__(self, spec, L, seed=0):
        self.spec = spec
        self.root = RootOfUnity(L)
        self.L = L
        self.p = self.root.p
        _, self._to_z, d = symplectic_normal_form(spec)
        h = spec.u_eighth // 2
        blocks = [i for i, di in enumerate(d) if (h * di) % L]
        self._a = [2 * i for i in blocks]
        self._b = [2 * i + 1 for i in blocks]
        self._hd = np.array([h * d[i] for i in blocks], dtype=np.int64)
        self.r = len(blocks)
        self.dim = L ** self.r
        if self.dim > DENSE_DIM:
            raise Inconclusive("order %d skipped (dimension %d > %d)"
                               % (L, self.dim, DENSE_DIM))
        # zeta^j lookup, the coordinates n of each flat index and the strides
        self._zpow = np.array([self.root.zeta_pow(j) for j in range(L)],
                              dtype=np.int64)
        self._grid = np.indices((L,) * self.r, dtype=np.int64).reshape(self.r, self.dim)
        self._strides = L ** np.arange(self.r - 1, -1, -1, dtype=np.int64)
        # z_j carries the character g^(n_j), so z^c carries g^(c . n mod (p - 1))
        self._rng = np.random.default_rng((seed, L))
        self._character = self._rng.integers(0, self.p - 1, len(spec.labels))
        self._z_maps = {}
        self._inverses = {}

    def random_vectors(self, n):
        """The next n vectors uniform in F_p^dim from this representation's
        generator, shape (n, dim).  Each row is drawn whole before the
        next, so the first t rows do not depend on n."""
        return self._rng.integers(0, self.p, (n, self.dim), dtype=np.int64)

    def _z_map(self, source):
        """(to_z, outside) for a source torus: to_z takes its exponent rows
        to z-exponents, and outside marks its labels not in self.spec."""
        zmap = self._z_maps.get(source)
        if zmap is None:
            spec = self.spec
            idx = [source.index.get(lab) for lab in spec.labels]
            if (None in idx or source.u_eighth != spec.u_eighth
                    or not np.array_equal(source.A[np.ix_(idx, idx)], spec.A)):
                raise ValueError("%r does not contain %r as a sub-torus" % (source, spec))
            to_z = np.zeros((len(source.labels), len(idx)), dtype=np.int64)
            to_z[idx] = self._to_z
            outside = np.ones(len(source.labels), dtype=bool)
            outside[idx] = False
            zmap = self._z_maps[source] = (to_z, outside)
        return zmap

    def act_element(self, el, v):
        """Apply a torus element to v of shape (..., dim), residues mod p,
        leading axes a batch.  Term z^(a,b) is one gather: it adds to entry
        m the entry m - b times zeta^(2 h d a (m - b)) and the term's weight."""
        out = np.zeros_like(v)
        if not el.terms:
            return out
        to_z, outside = self._z_map(el.spec)
        k = np.array(list(el.terms), dtype=np.int64)
        if k[:, outside].any():
            raise ValueError("element not supported on the sublabels")
        c = k @ to_z
        a, b = c[:, self._a], c[:, self._b]
        p, root, L = self.p, self.root, self.L
        turns = (c @ self._character) % (p - 1)
        clock = np.mod((self._hd * a * b).sum(axis=1), L)
        # per term: the coordinates of each source m - b, its index and phase
        source = np.mod(self._grid - b[:, :, None], L)
        index = self._strides @ source
        phase = self._zpow[(np.mod(2 * self._hd * a, L)[:, :, None] * source).sum(axis=1) % L]
        for t, coeff in enumerate(el.terms.values()):
            weight = (pow(root.g, int(turns[t]), p) * root.zeta_pow(int(clock[t]))
                      * coeff.evaluate(root)) % p
            out += v[..., index[t]] * (weight * phase[t] % p) % p
        return out % p

    def act_expr(self, expr, v):
        """Apply a formal expression: sum over words, factors applied
        right to left, inverses through linear solves."""
        out = np.zeros_like(v)
        for coeff, factors in expr.words:
            w = v
            for kind, payload in reversed(factors):
                w = self.act_element(payload, w) if kind == "el" else self._solve(payload, w)
            out += coeff.evaluate(self.root) * w % self.p
        return out % self.p

    def _solve(self, expr, v):
        """w with expr . w = v for v of shape (dim,) or (n, dim), through
        expr's matrix inverted once mod p and cached by the payload object;
        a matrix singular mod p raises Inconclusive (retry at another order)."""
        key = id(expr)
        if key not in self._inverses:
            mat = self.act_expr(expr, np.eye(self.dim, dtype=np.int64)).T
            try:
                inverse = lu_factor(mat, self.p)
            except ValueError as exc:
                raise Inconclusive("singular action at L=%d: %s" % (self.L, exc))
            self._inverses[key] = (expr, inverse)
        _, inverse = self._inverses[key]
        return lu_solve(inverse, v.T, self.p).T


@dataclass
class Verdict:
    status: str                   # 'PASS' | 'FAIL' | 'INCONCLUSIVE'
    orders: tuple
    trials: int
    witness: object = None
    notes: list = field(default_factory=list)
    method: str = "representation"        # or 'exact'

    @property
    def passed(self):
        return self.status == "PASS"

    def __str__(self):
        if self.method == "exact":
            s = "%s (exact)" % self.status
        else:
            s = "%s (mod p over orders %s, %d trials/order)" % (
                self.status, list(self.orders), self.trials
            )
        if self.witness:
            s += " witness=%s" % (self.witness,)
        return s


def _support_spec(exprs, spec):
    """The sub-torus of spec on the labels the expressions use."""
    labels = set()
    for e in exprs:
        labels |= e.support_labels()
    sub_labels = tuple(lab for lab in spec.labels if lab in labels)
    if not sub_labels:
        sub_labels = spec.labels[:1]
    idx = [spec.index[lab] for lab in sub_labels]
    return TorusSpec(sub_labels, spec.A[np.ix_(idx, idx)], spec.u_eighth)


def verify_identity(lhs, rhs, spec, trials=DEFAULT_TRIALS, seed=0, *, _reps=None):
    """Compare two formal expressions (or lists summed termwise).

    Applies each side once to the batch RootRep.random_vectors(trials) at
    each order of DEFAULT_ORDERS, and of EXTRA_ORDERS in turn for each
    inconclusive one; FAIL with the first trial on which the two sides
    differ mod p as witness.  PASS needs at least MIN_ORDERS completed
    orders, all at least 5; anything less is INCONCLUSIVE.

    _reps is a table {(sub-torus, L): (RootRep, batch)} that calls with
    the same trials and seed may share; the verdict is the same with or
    without it.
    """
    lhs_list = [lhs] if isinstance(lhs, Expr) else list(lhs)
    rhs_list = [rhs] if isinstance(rhs, Expr) else list(rhs)
    sub = _support_spec(lhs_list + rhs_list, spec)
    reps = {} if _reps is None else _reps

    done, notes = [], []
    for L in DEFAULT_ORDERS + EXTRA_ORDERS:
        if len(done) == len(DEFAULT_ORDERS):
            break
        try:
            entry = reps.get((sub, L))
            if entry is None:
                rep = RootRep(sub, L, seed)
                entry = reps[sub, L] = (rep, rep.random_vectors(trials))
            rep, batch = entry
            av = sum((rep.act_expr(e, batch) for e in lhs_list), np.zeros_like(batch))
            bv = sum((rep.act_expr(e, batch) for e in rhs_list), np.zeros_like(batch))
        except Inconclusive as exc:
            notes.append(str(exc))
            continue
        failing = np.flatnonzero(((av - bv) % rep.p).any(axis=1))
        if failing.size:
            return Verdict("FAIL", tuple(done + [L]), trials,
                           witness={"order": L, "trial": int(failing[0])}, notes=notes)
        done.append(L)
    status = "PASS" if len(done) >= MIN_ORDERS and min(done) >= 5 else "INCONCLUSIVE"
    return Verdict(status, tuple(done), trials, notes=notes)


def _split_denominator(expr):
    """(side, D, A) with expr = A (side None, D None), D^-1 A ('left') or
    A D^-1 ('right'), where A and D are inverse-free Exprs; None for any
    other shape.  Only factor kinds and node identities are read, so no
    product is formed for an expression that does not qualify."""
    if expr.is_polynomial():
        return None, None, expr
    words = expr.words
    first = words[0][1]
    for side, end, rest in (("left", 0, slice(1, None)), ("right", -1, slice(None, -1))):
        D = first[end][1] if first and first[end][0] == "inv" else None
        if (D is not None and D.is_polynomial()
                and all(fs and fs[end][1] is D
                        and all(kind == "el" for kind, _ in fs[rest])
                        for _, fs in words)):
            return side, D, Expr(expr.spec, [(c, fs[rest]) for c, fs in words])
    return None


def _exact_verdict(expr, want):
    """The exact verdict on expr = want for an inverse-free torus element
    want, or None when expr is not of a shape _split_denominator accepts
    or its denominator is zero."""
    shape = _split_denominator(expr)
    if shape is None:
        return None
    side, D, A = shape
    lhs, rhs, notes = A.as_element(), want, []
    if D is not None:
        den = D.as_element()
        if not den.terms:
            return None
        rhs = den * want if side == "left" else want * den
        notes.append("%s denominator cleared" % side)
    if lhs == rhs:
        return Verdict("PASS", (), 0, notes=notes, method="exact")
    k = min(k for k in lhs.terms.keys() | rhs.terms.keys()
            if lhs.terms.get(k) != rhs.terms.get(k))
    spec = lhs.spec
    mono = " ".join("%s[%s]^%d" % (spec.letter, lab, e)
                    for lab, e in zip(spec.labels, k) if e)
    witness = {"monomial": mono or "1", "lhs": str(lhs.terms.get(k, ZERO)),
               "rhs": str(rhs.terms.get(k, ZERO))}
    return Verdict("FAIL", (), 0, witness=witness, notes=notes, method="exact")


def _cross_checked(exact, rep):
    """The verdict on a row decided exactly and also by representation:
    the failing one if either fails, else the exact one, noting the other."""
    if rep.status == "FAIL" and exact.status != "FAIL":
        rep.notes.append("exact: %s" % exact.status)
        return rep
    exact.notes.append("representation: %s" % rep)
    return exact


def verify_generator_map_identity(gmap, trials=DEFAULT_TRIALS, seed=0):
    """Check that a composite generator map is the identity on every
    generator.  Returns {label: Verdict}.

    Each generator is first decided exactly when its image allows it (see
    the module docstring); the others go to verify_identity with one
    shared table of representations and trial batches.  When every row is
    decided exactly, the row with the most words goes to verify_identity
    as well, so no map rests on one certifier alone."""
    out, reps, exact = {}, {}, []
    for lab in sorted(gmap.source.labels):
        img = gmap.image_of_generator(lab, 1)
        want = TorusElement.generator(gmap.target, lab, gmap.gen_exponent)
        verdict = _exact_verdict(img, want)
        if verdict is None:
            verdict = verify_identity(img, Expr.from_element(want), gmap.target,
                                      trials=trials, seed=seed, _reps=reps)
        else:
            exact.append((lab, img, want))
        out[lab] = verdict
    if exact and len(exact) == len(out):
        lab, img, want = max(exact, key=lambda row: len(row[1].words))
        rep = verify_identity(img, Expr.from_element(want), gmap.target,
                              trials=trials, seed=seed)
        out[lab] = _cross_checked(out[lab], rep)
    return out
