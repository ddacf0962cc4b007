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
e_n is indexed flat in C order, m = sum_i n_i L^(r-1-i) < L^r, so a
monomial, a weighted permutation of it, acts on vectors as one gather.

RootRep is the direct sum of these representations over several orders:
one flat index space with one block per order, each block reduced mod its
own p.  Block L gives index m a coordinate mod L for each pair with L not
dividing h d_j, and mod 1 (always 0) for the others, which then add no
shift and no phase, and nothing to the clock either, since h d_j = 0 (mod
L).  So one computation over (terms, pairs, indices) gives every block's
source index and phase, and a term acts on all blocks with one gather; only
its scalar g^(c . n) zeta^clock c(zeta) is computed per block.  The index
arrays depend only on (d, h, orders) and are derived once per key
(_layout), as the normal form is once per torus.  An order whose block
would exceed DENSE_DIM gets no block and is noted as skipped.

verify_identity represents the sub-torus on the labels its expressions
use, which keeps each L^r small, and acts on the caller's expressions as
they are, mapping each element's exponents to the sub-torus by label.  It
builds one RootRep over DEFAULT_ORDERS per row, draws one trial batch and
walks each side once.  Each block draws its characters and then its trials
from the generator seeded by (seed, L), trial by trial, so its vectors are
those of a RootRep on that order alone, trial t's vector does not depend on
the number of trials, and a fresh RootRep(spec, (L,), seed) draws a witness
again.  Every inverse acts through its matrix inverted once mod p per
block, cached in the block by the inverse's payload object, so an inverse
that several words share is inverted once per order.  A payload that
collapses to a binomial c_0 x^(k_0) + c_1 x^(k_1) acts as R_0 (I - N),
each R_t a term's weighted permutation and N = -R_0^-1 R_1 one along a
translation of (Z/L)^r, so N^l is diagonal for its cycle length l and the
inverse is (I - N^l)^-1 sum_(j<l) N^j R_0^-1 (cycle_inverse); any other
payload takes Gauss-Jordan on its block's matrix (lu_factor).  The
matrices are built on the identity rows of all blocks in one batch, but a
block larger than all the others together is built alone, on its own index
space, so it costs what it costs at its order alone.  A block singular mod
its p, which both routes detect alike, is left zero and its order noted
INCONCLUSIVE; the other blocks go on.  The verdict reads the blocks in
order: the first that differs gives FAIL at that order, an inconclusive
one is noted, and as many EXTRA_ORDERS as orders are missing are then
tried as one more sum.  A trial passes only when both sides agree exactly.
A FAIL row thus pays for all its orders, where an order-by-order loop
would stop at the first failing one.

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
batch) per (sub-torus, orders) shared by all generators of the map: a
RootRep(sub, orders, seed) draws the same characters and batch every time,
so sharing changes no verdict and inverts a shared inverse once per order.
A map whose rows are all decided exactly also sends its row with the most
words to verify_identity, and that row reports the failing verdict if
either method fails.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
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


def lu_factor(mat, p):
    """The inverse of mat mod p by Gauss-Jordan elimination on [mat | 1];
    ValueError when mat is singular mod p.  Each step updates only the rows
    with a nonzero entry in the pivot column, so on a matrix that is block
    diagonal up to a permutation a step costs the pivot's block of rows.
    A weighted permutation, one nonzero entry in each row and column, is
    inverted directly: its inverse has the transposed pattern, each entry
    inverted.  (The benchmark's tracer counts calls to this name as
    factorizations.)"""
    n = len(mat)
    mat = mat % p
    rows, cols = np.nonzero(mat)
    if len(rows) == n and len(set(rows.tolist())) == len(set(cols.tolist())) == n:
        out = np.zeros((n, n), dtype=np.int64)
        out[cols, rows] = _inverse_mod(mat[rows, cols], p)
        return out
    m = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    for k in range(n):
        col = m[:, k] % p
        if not col[k]:
            j = k + int(np.argmax(col[k:] != 0))
            if not col[j]:
                raise ValueError("matrix is singular mod %d" % p)
            m[[k, j]], col[[k, j]] = m[[j, k]], col[[j, k]]
        row = m[k, k:] % p * pow(int(col[k]), -1, p) % p
        col[k] = 0
        rows = np.flatnonzero(col)
        if rows.size:           # most steps on small payloads have no other row
            m[rows, k:] -= col[rows, None] * row
        m[k, k:] = row
    return m[:, n:] % p


def _inverse_mod(x, p):
    """Elementwise inverses mod p of nonzero residues, one pow per distinct value."""
    values = x.tolist()
    inverse = {v: pow(v, -1, p) for v in set(values)}
    return np.array([inverse[v] for v in values], dtype=np.int64)


def cycle_inverse(gathers, p):
    """The inverse mod p of R_0 + R_1 for two weighted permutations along
    translations, as gathers (index, weight) of shape (2, n) with
    (R_t v)[m] = weight[t, m] v[index[t, m]]; ValueError when it is
    singular mod p, as lu_factor.  A term whose coefficient vanishes mod p
    is not the base R_0.  Each cycle of N = -R_0^-1 R_1 has the same length
    l, and N^l is pi I on it, pi the product of N's weights around it; so
    the sum is singular iff some pi = 1, and its inverse has l entries a row."""
    index, weight = gathers if gathers[1][0].any() else (gathers[0][::-1], gathers[1][::-1])
    if not weight[0].any():
        raise ValueError("matrix is singular mod %d" % p)
    rows = np.arange(index.shape[1])
    back = np.argsort(index[0])             # R_0^-1 takes entry j from back[j] ...
    over = _inverse_mod(weight[0][back], p)     # ... times over[j]
    step, nu = index[1][back], (p - weight[1][back]) * over % p     # and N, from step[j]
    at, prod, cols, vals = rows, np.ones_like(rows), [], []
    while not cols or (at != rows).any():   # N^j has entry prod at (m, at[m])
        cols.append(at)
        vals.append(prod)
        prod, at = prod * nu[at] % p, step[at]
    gap = (1 - prod) % p
    if not gap.all():
        raise ValueError("matrix is singular mod %d" % p)
    cols = np.array(cols)
    out = np.zeros((len(rows), len(rows)), dtype=np.int64)
    out[rows, back[cols]] = np.array(vals) * _inverse_mod(gap, p) % p * over[cols] % p
    return out


def lu_solve(inverse, rhs, p):
    """x with mat x = rhs mod p, one system per column of rhs, for the
    inverse of mat mod p (lu_factor or cycle_inverse)."""
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


class _Layout:
    """The flat index space of the direct sum over orders, which depends only
    on the normal form's d, on h (u^(1/2) = zeta^h) and on the orders.

    An order whose block would exceed DENSE_DIM gets no block and a note.
    Every array holds one entry per index m (and per pair j): its block,
    the block's start, order, prime and offset into the concatenated zeta
    tables, and m's coordinate n_j with its modulus and stride.  At block L
    the modulus is L when L does not divide h d_j, and 1 (n_j = 0) when the
    pair is central there; coordinates run in C order within each block."""

    def __init__(self, d, h, orders):
        self.skipped, live = {}, []
        for L in orders:
            dim = L ** sum(1 for dj in d if h * dj % L)
            if dim > DENSE_DIM:
                self.skipped[L] = "order %d skipped (dimension %d > %d)" % (L, dim, DENSE_DIM)
            else:
                live.append((L, dim))
        self.pairs = len(d)
        self.hd = np.array([h * dj for dj in d], dtype=np.int64)
        self.lcm = math.lcm(*(L for L, _ in live))
        self.roots = [RootOfUnity(L) for L, _ in live]
        dims = [dim for _, dim in live]
        starts = np.cumsum([0] + dims)
        self.dim = int(starts[-1])
        self.spans = [slice(int(a), int(b)) for a, b in zip(starts, starts[1:])]

        def per_index(values):
            return np.repeat(np.array(values, dtype=np.int64), dims)

        self.block = per_index(range(len(live)))
        self.start = per_index(starts[:-1])
        self.order = per_index([L for L, _ in live])
        self.prime = per_index([root.p for root in self.roots])
        self.zoff = per_index(np.cumsum([0] + [L for L, _ in live])[:-1])
        self.zpow = np.array([root.zeta_pow(j) for root in self.roots for j in range(root.L)],
                             dtype=np.int64)
        self.modulus = np.where(self.hd[:, None] % self.order, self.order, 1)
        self.stride = np.cumprod(self.modulus[::-1], axis=0)[::-1] // self.modulus
        self.grid = (np.arange(self.dim) - self.start) // self.stride % self.modulus


@lru_cache(maxsize=None)
def _layout(d, h, orders):
    return _Layout(d, h, orders)


@dataclass
class Block:
    """One order's block of a RootRep: its indices span, the order's root
    of unity, the generator seeded by (seed, L) that drew the characters
    and draws the trial vectors, and {id(payload): (payload, inverse or
    note)} of the payloads inverted at this order."""
    root: RootOfUnity
    span: slice
    rng: np.random.Generator
    character: np.ndarray
    inverses: dict

    @property
    def L(self):
        return self.root.L

    @property
    def p(self):
        return self.root.p

    @property
    def dim(self):
        return self.span.stop - self.span.start


class RootRep:
    """The direct sum over orders of the clock-shift representations of one
    torus, each block over F_p at its order with central characters and then
    random vectors drawn from one generator seeded by seed and its order.

    It acts on elements of spec and of any torus that contains spec as the
    sub-torus on spec.labels (same u, same submatrix), mapping exponents by
    label; an exponent on a label outside spec.labels raises ValueError.
    blocks lists the orders' blocks in order; skipped notes each order left
    out for its dimension; prime holds the prime of each flat index."""

    def __init__(self, spec, orders, seed=0):
        self.spec, self.orders = spec, tuple(orders)
        _, self._to_z, self._d = symplectic_normal_form(spec)
        lay = self._layout = _layout(self._d, spec.u_eighth // 2, self.orders)
        self.blocks = []
        for root, span in zip(lay.roots, lay.spans):
            # z_j carries the character g^(n_j), so z^c carries g^(c . n mod (p - 1))
            rng = np.random.default_rng((seed, root.L))
            character = rng.integers(0, root.p - 1, len(spec.labels))
            self.blocks.append(Block(root, span, rng, character, {}))
        self._z_maps, self._parts = {}, {}

    @property
    def skipped(self):
        return self._layout.skipped

    @property
    def dim(self):
        return self._layout.dim

    @property
    def prime(self):
        return self._layout.prime

    def _part(self, blocks):
        """The direct sum of some of self's blocks (self for all of them)
        on its own index space, sharing their characters, generators and
        inverses."""
        if len(blocks) == len(self.blocks):
            return self
        orders = tuple(b.L for b in blocks)
        part = self._parts.get(orders)
        if part is None:
            part = self._parts[orders] = copy.copy(self)
            part.orders = orders
            part._layout = _layout(self._d, self.spec.u_eighth // 2, orders)
            part.blocks = [replace(b, span=span) for b, span in zip(blocks, part._layout.spans)]
            part._parts = {}
        return part

    def random_vectors(self, n):
        """The next n vectors uniform in F_p^dim, shape (n, dim), each
        block's columns from its own generator.  Each row of a block is
        drawn whole before the next, so the first t rows do not depend on n."""
        out = np.empty((n, self.dim), dtype=np.int64)
        for b in self.blocks:
            out[:, b.span] = b.rng.integers(0, b.p, (n, b.dim), dtype=np.int64)
        return out

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

    def _gathers(self, el):
        """(index, weight) of shape (terms, dim): term z^(a,b) of el sends v
        to weight * v[..., index], entry m from m - b times zeta^(2 h d a
        (m - b)) and the term's scalar, all at m's block."""
        to_z, outside = self._z_map(el.spec)
        k = np.array(list(el.terms), dtype=np.int64)
        if k[:, outside].any():
            raise ValueError("element not supported on the sublabels")
        c = k @ to_z
        lay = self._layout
        a, b = c[:, 0:2 * lay.pairs:2], c[:, 1:2 * lay.pairs:2]
        turns = c @ np.array([b.character for b in self.blocks],
                             dtype=np.int64).reshape(len(self.blocks), c.shape[1]).T
        clock = (a * b) @ lay.hd
        # per term: the coordinates of each source m - b, its index and phase
        source = np.mod(lay.grid - b[:, :, None], lay.modulus)
        index = lay.start + (lay.stride * source).sum(axis=1)
        tilt = np.mod(2 * lay.hd * a, lay.lcm)[:, :, None]
        phase = lay.zpow[lay.zoff + (tilt * source).sum(axis=1) % lay.order]
        scalar = np.array([[pow(root.g, int(turns[t, i]) % (root.p - 1), root.p)
                            * root.zeta_pow(int(clock[t])) * coeff.evaluate(root) % root.p
                            for i, root in enumerate(lay.roots)]
                           for t, coeff in enumerate(el.terms.values())], dtype=np.int64)
        return index, scalar[:, lay.block] * phase % lay.prime

    def act_element(self, el, v):
        """Apply a torus element to v of shape (..., dim), residues mod each
        index's prime, leading axes a batch: one gather per term."""
        out = np.zeros_like(v)
        if not el.terms:
            return out
        for index, weight in zip(*self._gathers(el)):
            out += v[..., index] * weight % self.prime
        return out % self.prime

    def act_expr(self, expr, v, dead):
        """Apply a formal expression: sum over words, factors applied
        right to left, inverses through linear solves.  A block in which an
        inverse is singular is left zero and its order noted in dead
        {L: note}, the first note kept."""
        block = self._layout.block
        out = np.zeros_like(v)
        for coeff, factors in expr.words:
            w = v
            for kind, payload in reversed(factors):
                w = self.act_element(payload, w) if kind == "el" else self._solve(payload, w, dead)
            scalar = np.array([coeff.evaluate(b.root) for b in self.blocks], dtype=np.int64)
            out += scalar[block] * w % self.prime
        return out % self.prime

    def _solve(self, expr, v, dead):
        """w with expr . w = v for v of shape (dim,) or (n, dim), block by
        block through the block's inverse (see _invert), cached in the block
        by the payload object.  A block with no inverse is left zero and
        noted in dead, as act_expr says."""
        key = id(expr)
        missing = [b for b in self.blocks if key not in b.inverses]
        for b, inverse in zip(missing, self._invert(expr, missing) if missing else ()):
            b.inverses[key] = (expr, inverse)
        rows = np.atleast_2d(v)
        out = np.zeros_like(rows)
        for b in self.blocks:
            inverse = b.inverses[key][1]
            if isinstance(inverse, str):
                dead.setdefault(b.L, inverse)
            else:
                out[:, b.span] = lu_solve(inverse, rows[:, b.span].T, b.p).T
        return out.reshape(v.shape)

    def _invert(self, expr, blocks):
        """For each of blocks, the inverse mod p of expr's action, along its
        cycles for a binomial and by Gauss-Jordan on the block's matrix
        otherwise, or the note saying why the block has none.  The matrices
        are built by acting on identity rows, those of all blocks in one
        batch, except that a block larger than all the others together is
        built alone on its own index space (_part), as at its order alone."""
        el = expr.as_element() if expr.is_polynomial() else None
        if el is not None and len(el.terms) == 2:
            index, weight = self._gathers(el)
            return [_inverse_or_note(cycle_inverse, b, (index[:, b.span] - b.span.start,
                                                        weight[:, b.span]))
                    for b in blocks]
        big = max(blocks, key=lambda b: b.dim)
        rest = [b for b in blocks if b is not big]
        groups = [[big], rest] if rest and big.dim > sum(b.dim for b in rest) else [blocks]
        out = {}
        for group in groups:
            part = self._part(group)
            # row i holds e_i of every block at once; blocks do not mix
            eye = np.zeros((max(b.dim for b in part.blocks), part.dim), dtype=np.int64)
            for b in part.blocks:
                eye[np.arange(b.dim), np.arange(b.span.start, b.span.stop)] = 1
            notes = {}
            image = part.act_expr(expr, eye, notes)
            for b in part.blocks:
                out[b.L] = notes.get(b.L) or _inverse_or_note(lu_factor, b, image[:b.dim, b.span].T)
        return [out[b.L] for b in blocks]


def _inverse_or_note(invert, block, arg):
    """invert(arg, p) at the block's prime, or the note saying it is singular."""
    try:
        return invert(arg, block.p)
    except ValueError as exc:
        return "singular action at L=%d: %s" % (block.L, exc)


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

    Applies each side once to the batch RootRep.random_vectors(trials) of
    the direct sum over DEFAULT_ORDERS, then reads its blocks in order: FAIL
    at the first order whose block differs mod p, with the first differing
    trial as witness.  Each inconclusive order (singular or too large) is
    noted, and the next EXTRA_ORDERS, as many as orders are missing, are
    tried as one more sum.  PASS needs at least MIN_ORDERS completed orders,
    all at least 5; anything less is INCONCLUSIVE.

    _reps is a table {(sub-torus, orders): (RootRep, batch)} that calls with
    the same trials and seed may share; the verdict is the same with or
    without it.  trials < 1 raises ValueError: nothing would be compared.
    """
    if trials < 1:
        raise ValueError("a verdict needs at least one trial, not %r" % (trials,))
    lhs_list = [lhs] if isinstance(lhs, Expr) else list(lhs)
    rhs_list = [rhs] if isinstance(rhs, Expr) else list(rhs)
    sub = _support_spec(lhs_list + rhs_list, spec)
    reps = {} if _reps is None else _reps

    done, notes, orders, extra = [], [], DEFAULT_ORDERS, EXTRA_ORDERS
    while orders:
        entry = reps.get((sub, orders))
        if entry is None:
            rep = RootRep(sub, orders, seed)
            entry = reps[sub, orders] = (rep, rep.random_vectors(trials))
        rep, batch = entry
        dead = dict(rep.skipped)
        av = sum((rep.act_expr(e, batch, dead) for e in lhs_list), np.zeros_like(batch))
        bv = sum((rep.act_expr(e, batch, dead) for e in rhs_list), np.zeros_like(batch))
        differ = (av - bv) % rep.prime != 0
        spans = {b.L: b.span for b in rep.blocks}
        for L in orders:
            if L in dead:
                notes.append(dead[L])
                continue
            failing = np.flatnonzero(differ[:, spans[L]].any(axis=1))
            if failing.size:
                return Verdict("FAIL", tuple(done + [L]), trials,
                               witness={"order": L, "trial": int(failing[0])}, notes=notes)
            done.append(L)
        missing = len(DEFAULT_ORDERS) - len(done)
        orders, extra = extra[:missing], extra[missing:]
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
    if trials < 1:
        raise ValueError("a verdict needs at least one trial, not %r" % (trials,))
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
