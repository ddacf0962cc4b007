"""Root-of-unity representations certifying skew-field identities.

At an odd order L the scalar q^(1/8) is sent to zeta = exp(2 pi i / L).
An exact integer symplectic normal form, P A P^T = (+) d_i J (+) 0 with P
unimodular, rewrites x^k as the monomial z^c, c = k P^(-1), of a torus
whose form is block diagonal.  With u^(1/2) = zeta^h, each block d J with
L not dividing h d acts on its own factor C^L by a clock-shift pair,

    z^(a,b) . e_n = zeta^(h d (2 a n + a b)) e_(n + b),

and the other blocks are central.  Every z-generator also carries a random
unit-modulus scalar, its central character.  The result is an irreducible
representation on (C^L)^(tensor r) of dimension L^r, r = rank_L A / 2
(Bonahon-Liu, Bonahon-Wong), and rep(x^k) rep(x^m) = u^((1/2)<k,m>)
rep(x^(k+m)) holds exactly at the chosen root.

Unit monomials invert explicitly; every other inverse acts through one
cached dense LU factorization of its L^r x L^r matrix, with a residual
check.  Representations at roots of unity are not faithful, so PASS needs
at least three completed orders, all at least 5; this is a probabilistic
check and is documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve
# unused here; kept importable because the benchmark's tracer patches them by name
from scipy.sparse.linalg import lgmres, splu  # noqa: F401

from .qscalar import RootOfUnity
from .qtorus import TorusElement, TorusSpec, restrict_element
from .coordinate_change import Expr

DEFAULT_ORDERS = (5, 7, 11)
EXTRA_ORDERS = (13, 17, 19)
MIN_ORDERS = 3
DENSE_DIM = 4000
CHARACTER_ORDER = 2 ** 20
PASS_TOL = 1e-8
SOLVE_TOL = 1e-10


class Inconclusive(Exception):
    """This root order cannot decide: a solve failed or the dimension is too large."""


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
    assert np.array_equal(P @ spec.A @ P.T, D)
    assert np.array_equal(P @ Q, np.eye(n, dtype=np.int64))
    return P, Q, tuple(d)


class RootRep:
    """The clock-shift representation of one torus at order L, with central
    characters drawn from seed and L."""

    def __init__(self, spec, L, seed=0):
        self.spec = spec
        self.root = RootOfUnity(L)
        self.L = L
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
        self.shape = (L,) * self.r
        self._axes = tuple(range(-self.r, 0))
        # zeta^j lookup and the per-axis coordinate grids
        self._zpow = np.array(
            [self.root.zeta_pow(j) for j in range(L)], dtype=np.complex128
        )
        self._coords = []
        for ax in range(self.r):
            sh = [1] * self.r
            sh[ax] = L
            self._coords.append(np.arange(L, dtype=np.int64).reshape(sh))
        # z_j carries the character exp(2 pi i n_j / CHARACTER_ORDER): with
        # integer n_j the phase of z^c stays exact however large c is
        rng = np.random.default_rng((seed, L))
        self._character = rng.integers(0, CHARACTER_ORDER, len(spec.labels))
        self._lu_cache = {}

    def random_vector(self, rng):
        v = rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)
        return v / np.linalg.norm(v)

    def act_element(self, el, v):
        """Apply a torus element to v of shape (..., L, ..., L): the last r
        axes carry the representation, leading axes are a batch."""
        out = np.zeros_like(v)
        if not el.terms:
            return out
        c = np.array(list(el.terms), dtype=np.int64) @ self._to_z
        a, b = c[:, self._a], c[:, self._b]
        turns = (c @ self._character) % CHARACTER_ORDER / CHARACTER_ORDER
        scale = np.exp(2j * np.pi * turns) * self._zpow[
            np.mod((self._hd * a * b).sum(axis=1), self.L)]
        grads = np.mod(2 * self._hd * a, self.L)
        for t, coeff in enumerate(el.terms.values()):
            phase = sum(int(g) * x for g, x in zip(grads[t], self._coords) if g)
            weight = scale[t] * complex(coeff.evaluate(self.root))
            w = v * (weight * self._zpow[np.mod(phase, self.L)])
            shifts = tuple(int(s) % self.L for s in b[t])
            if any(shifts):
                w = np.roll(w, shifts, axis=self._axes)
            out += w
        return out

    def act_expr(self, expr, v):
        """Apply a formal expression: sum over words, factors applied
        right to left, inverses through linear solves."""
        out = np.zeros_like(v)
        for coeff, factors in expr.words:
            w = v
            for kind, payload in reversed(factors):
                if kind == "el":
                    w = self.act_element(payload, w)
                else:
                    w = self._solve(payload, w)
            out += complex(coeff.evaluate(self.root)) * w
        return out

    def act_inverse(self, el, v):
        """Apply the inverse of a torus element: the w with el . w = v."""
        return self._solve(Expr.from_element(el), v)

    def _solve(self, expr, v):
        """w with expr . w = v: a unit monomial inverts explicitly, anything
        else through a cached dense LU factorization; a residual above
        SOLVE_TOL raises Inconclusive so the caller can retry at another
        order."""
        mono = _unit_monomial(expr)
        if mono is not None:
            return self.act_element(mono.inverse_monomial(), v)
        key = id(expr)
        if key not in self._lu_cache:
            basis = np.eye(self.dim, dtype=np.complex128).reshape(
                (self.dim,) + self.shape)
            mat = self.act_expr(expr, basis).reshape(self.dim, self.dim).T
            try:
                lu = lu_factor(mat)
            except ValueError as exc:
                raise Inconclusive("singular action at L=%d: %s" % (self.L, exc))
            self._lu_cache[key] = (expr, lu)
        _, lu = self._lu_cache[key]
        rhs = v.reshape(-1, self.dim).T
        sol = lu_solve(lu, rhs).T.reshape(v.shape)
        back = self.act_expr(expr, sol).reshape(-1, self.dim).T
        resid = np.linalg.norm(back - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if not np.isfinite(resid) or resid > SOLVE_TOL:
            raise Inconclusive(
                "solve at L=%d did not converge (residual %.2e)" % (self.L, resid)
            )
        return sol


def _unit_monomial(expr):
    """The product of a one-word expression of monomial factors, when its
    coefficient is a unit +-q^(n/8); otherwise None."""
    if len(expr.words) != 1:
        return None
    coeff, factors = expr.words[0]
    acc = None
    for kind, payload in factors:
        if kind != "el" or len(payload.terms) != 1:
            return None
        acc = payload if acc is None else acc * payload
    if acc is None:
        return None
    scaled = acc * coeff
    (_, c), = scaled.terms.items()
    mono = c.as_monomial()
    if mono is None or abs(mono[0]) != 1:
        return None
    return scaled


@dataclass
class Verdict:
    status: str                   # 'PASS' | 'FAIL' | 'INCONCLUSIVE'
    max_residual: float
    orders: tuple
    trials: int
    witness: object = None
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.status == "PASS"

    def __str__(self):
        s = "%s (max residual %.3e over orders %s, %d trials/order)" % (
            self.status, self.max_residual, list(self.orders), self.trials
        )
        if self.witness:
            s += " witness=%s" % (self.witness,)
        return s


def _as_expr_list(side):
    if isinstance(side, Expr):
        return [side]
    return list(side)


def _restrict_exprs(exprs, spec):
    labels = set()
    for e in exprs:
        labels |= e.support_labels()
    sub_labels = tuple(lab for lab in spec.labels if lab in labels)
    if not sub_labels:
        sub_labels = spec.labels[:1]
    idx = [spec.index[lab] for lab in sub_labels]
    subA = spec.A[np.ix_(idx, idx)]
    sub = TorusSpec(sub_labels, subA, spec.u_eighth)

    def convert(expr):
        words = []
        for c, fs in expr.words:
            nf = []
            for kind, payload in fs:
                if kind == "el":
                    nf.append(("el", restrict_element(payload, sub_labels)))
                else:
                    nf.append(("inv", convert(payload)))
            words.append((c, tuple(nf)))
        return Expr(sub, words)

    return sub, [convert(e) for e in exprs]


def verify_identity(lhs, rhs, spec, trials=20, seed=0):
    """Compare two formal expressions (or lists summed termwise).

    Applies both sides to random unit vectors at each root order; FAIL
    with a witness as soon as the relative deviation exceeds PASS_TOL.
    An inconclusive order pulls in a replacement from EXTRA_ORDERS.  PASS
    needs at least MIN_ORDERS completed orders, all at least 5; anything
    less is INCONCLUSIVE.
    """
    lhs_list = _as_expr_list(lhs)
    rhs_list = _as_expr_list(rhs)
    sub, converted = _restrict_exprs(lhs_list + rhs_list, spec)
    lhs_list = converted[: len(lhs_list)]
    rhs_list = converted[len(lhs_list):]

    queue = list(DEFAULT_ORDERS)
    extras = list(EXTRA_ORDERS)
    done = []
    max_resid = 0.0
    notes = []
    while queue:
        L = queue.pop(0)
        try:
            rep = RootRep(sub, L, seed)
            for t in range(trials):
                rng = np.random.default_rng((seed, L, t))
                v = rep.random_vector(rng)
                av = np.zeros(rep.shape, dtype=np.complex128)
                bv = np.zeros(rep.shape, dtype=np.complex128)
                for e in lhs_list:
                    av += rep.act_expr(e, v)
                for e in rhs_list:
                    bv += rep.act_expr(e, v)
                scale = max(np.linalg.norm(av), np.linalg.norm(bv), 1.0)
                resid = np.linalg.norm(av - bv) / scale
                max_resid = max(max_resid, resid)
                if resid > PASS_TOL:
                    return Verdict(
                        "FAIL", max_resid, tuple(done + [L]), trials,
                        witness={"order": L, "trial": t, "residual": resid},
                        notes=notes,
                    )
            done.append(L)
        except Inconclusive as exc:
            notes.append(str(exc))
            if extras:
                queue.append(extras.pop(0))
    status = "PASS" if len(done) >= MIN_ORDERS and min(done) >= 5 else "INCONCLUSIVE"
    return Verdict(status, max_resid, tuple(done), trials, notes=notes)


def verify_generator_map_identity(gmap, trials=20, seed=0):
    """Check that a composite generator map is the identity on every
    generator.  Returns {label: Verdict}."""
    out = {}
    for lab in sorted(gmap.source.labels):
        img = gmap.image_of_generator(lab, 1)
        want = Expr.from_element(
            TorusElement.generator(gmap.target, lab, gmap.gen_exponent)
        )
        out[lab] = verify_identity(img, want, gmap.target, trials=trials, seed=seed)
    return out
