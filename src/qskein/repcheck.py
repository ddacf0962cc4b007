"""Root-of-unity representations certifying skew-field identities.

At an odd prime order L the scalar q^(1/8) is sent to exp(2 pi i / L)
and the quantum torus acts on C[(Z/L)^I] by weighted translations:

    x^k . e_n = u^((1/2) k A n^T) e_(n + k mod L).

A direct computation shows rep(x^k) rep(x^m) = u^((1/2)<k,m>) rep(x^(k+m)),
so the assignment respects the torus product exactly at the chosen root.
Formal inverses act through iterative linear solves; no dense matrix is
ever formed.  Representations at roots of unity are not faithful, so an
identity is only certified after passing at several coprime orders; this
is a probabilistic check and is documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, lgmres, splu

from .qscalar import RootOfUnity
from .qtorus import TorusElement, TorusSpec, restrict_element
from .coordinate_change import Expr

DEFAULT_ORDERS = (5, 7, 11)
FALLBACK_ORDERS = (3, 5, 7)
EXTRA_ORDERS = (13, 17, 19)
MAX_DIM = 2_000_000
DENSE_DIM = 4000
SPARSE_DIM = 400_000   # beyond this, factorization fill is not worth the memory
PASS_TOL = 1e-8
SOLVE_TOL = 1e-10


class Inconclusive(Exception):
    """A solve failed to converge at this root order."""


class RootRep:
    """The weighted-translation representation of one torus at order L."""

    def __init__(self, spec, L):
        self.spec = spec
        self.root = RootOfUnity(L)
        self.L = L
        self.n = len(spec.labels)
        self.dim = L ** self.n
        if self.dim > MAX_DIM:
            raise ValueError(
                "dimension %d^%d too large; restrict the index set"
                % (L, self.n)
            )
        self.shape = (L,) * self.n
        # zeta^j lookup and the per-axis coordinate grids
        self._zpow = np.array(
            [self.root.zeta_pow(j) for j in range(L)], dtype=np.complex128
        )
        self._coords = []
        for ax in range(self.n):
            sh = [1] * self.n
            sh[ax] = L
            self._coords.append(np.arange(L, dtype=np.int64).reshape(sh))
        self._lu_cache = {}

    def random_vector(self, rng):
        v = rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)
        return v / np.linalg.norm(v)

    def act_element(self, el, v):
        """Apply a torus element to a vector of shape (L,)*n."""
        out = np.zeros_like(v)
        half_u = self.spec.u_eighth // 2
        for k, c in el.terms.items():
            g = np.asarray(k, dtype=np.int64) @ self.spec.A
            phase_exp = np.zeros(self.shape, dtype=np.int64)
            for ax in range(self.n):
                if g[ax]:
                    phase_exp = phase_exp + (half_u * g[ax]) * self._coords[ax]
            w = self._zpow[np.mod(phase_exp, self.L)] * v
            shifts = tuple(int(e) % self.L for e in k)
            if any(shifts):
                w = np.roll(w, shifts, axis=tuple(range(self.n)))
            out += complex(c.evaluate(self.root)) * w
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
        """Apply the inverse of a torus element: the w with el . w = v.

        Monomials invert explicitly; other elements go through a cached
        factorization or an iterative solve, and a residual above 1e-10
        raises Inconclusive so the caller can retry at another order.
        """
        if len(el.terms) == 1:
            return self.act_element(el.inverse_monomial(), v)
        return self._solve(Expr.from_element(el), v)

    def _solve(self, expr, v):
        """w with expr . w = v, residual-checked."""
        # fast path: a single plain monomial word inverts explicitly
        mono = self._as_monomial(expr)
        if mono is not None:
            return self.act_element(mono.inverse_monomial(), v)

        flat_shape = (self.dim,)

        def mv(x):
            return self.act_expr(expr, x.reshape(self.shape)).reshape(flat_shape)

        rhs = v.reshape(flat_shape)
        plain = self._plain_element(expr)
        if plain is not None and self.dim > SPARSE_DIM:
            plain = None
        if plain is not None:
            key = id(expr)
            if key not in self._lu_cache:
                try:
                    fac = splu(self._sparse_matrix(plain))
                except Exception as exc:
                    raise Inconclusive("singular action at L=%d: %s" % (self.L, exc))
                self._lu_cache[key] = (expr, ("sparse", fac))
            _, (_, fac) = self._lu_cache[key]
            sol = fac.solve(rhs)
        elif self.dim <= DENSE_DIM:
            key = id(expr)
            if key not in self._lu_cache:
                mat = np.empty((self.dim, self.dim), dtype=np.complex128)
                basis = np.zeros(flat_shape, dtype=np.complex128)
                for j in range(self.dim):
                    basis[j] = 1.0
                    mat[:, j] = mv(basis)
                    basis[j] = 0.0
                try:
                    lu = lu_factor(mat)
                except Exception as exc:
                    raise Inconclusive("singular action at L=%d: %s" % (self.L, exc))
                self._lu_cache[key] = (expr, ("dense", lu))
            _, (_, lu) = self._lu_cache[key]
            sol = lu_solve(lu, rhs)
        else:
            op = LinearOperator(
                (self.dim, self.dim), matvec=mv, dtype=np.complex128
            )
            sol, info = lgmres(op, rhs, rtol=1e-13, atol=0.0, maxiter=400)
        resid = np.linalg.norm(mv(sol) - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if not np.isfinite(resid) or resid > SOLVE_TOL:
            raise Inconclusive(
                "solve at L=%d did not converge (residual %.2e)" % (self.L, resid)
            )
        return sol.reshape(self.shape)

    @staticmethod
    def _plain_element(expr):
        """The single torus element of a one-word inverse-free expression."""
        if len(expr.words) != 1:
            return None
        coeff, factors = expr.words[0]
        acc = None
        for kind, payload in factors:
            if kind != "el":
                return None
            acc = payload if acc is None else acc * payload
        if acc is None:
            return None
        return acc * coeff

    def _sparse_matrix(self, el):
        """CSC matrix of the action of a plain torus element."""
        grid = np.indices(self.shape).reshape(self.n, -1)
        cols = np.arange(self.dim)
        half_u = self.spec.u_eighth // 2
        blocks = []
        for k, c in el.terms.items():
            kk = np.asarray(k, dtype=np.int64)
            g = kk @ self.spec.A
            phase_exp = (half_u * g) @ grid
            data = self._zpow[np.mod(phase_exp, self.L)] * complex(
                c.evaluate(self.root)
            )
            dest = np.ravel_multi_index(
                tuple((grid[ax] + int(k[ax])) % self.L for ax in range(self.n)),
                self.shape,
            )
            blocks.append(
                sp.coo_matrix((data, (dest, cols)), shape=(self.dim, self.dim))
            )
        total = blocks[0]
        for b in blocks[1:]:
            total = total + b
        return total.tocsc()

    @staticmethod
    def _as_monomial(expr):
        if len(expr.words) != 1:
            return None
        coeff, factors = expr.words[0]
        acc = None
        for kind, payload in factors:
            if kind != "el" or len(payload.terms) != 1:
                return None
            acc = payload if acc is None else acc * payload
        if acc is None or len(acc.terms) != 1:
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


def pick_orders(spec_or_nlabels, orders=None):
    """Choose root orders so the representation fits in memory."""
    if orders is not None:
        return tuple(orders)
    n = (
        spec_or_nlabels
        if isinstance(spec_or_nlabels, int)
        else len(spec_or_nlabels.labels)
    )
    if max(DEFAULT_ORDERS) ** n <= MAX_DIM:
        return DEFAULT_ORDERS
    return FALLBACK_ORDERS


def verify_identity(lhs, rhs, spec, orders=None, trials=20, seed=0, tol=PASS_TOL):
    """Compare two formal expressions (or lists summed termwise).

    Applies both sides to random unit vectors at each root order; PASS if
    the maximum relative deviation stays below tol everywhere, FAIL with a
    witness otherwise.  An inconclusive solve at some order pulls in a
    replacement order; if none fits, the verdict is INCONCLUSIVE.
    """
    lhs_list = _as_expr_list(lhs)
    rhs_list = _as_expr_list(rhs)
    sub, converted = _restrict_exprs(lhs_list + rhs_list, spec)
    lhs_list = converted[: len(lhs_list)]
    rhs_list = converted[len(lhs_list):]

    queue = list(pick_orders(sub, orders))
    extras = [L for L in EXTRA_ORDERS if L not in queue]
    done = []
    max_resid = 0.0
    notes = []
    while queue:
        L = queue.pop(0)
        if L ** len(sub.labels) > MAX_DIM:
            notes.append("order %d skipped (dimension)" % L)
            continue
        rep = RootRep(sub, L)
        try:
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
                if resid > tol:
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
    if not done:
        return Verdict("INCONCLUSIVE", max_resid, (), trials, notes=notes)
    return Verdict("PASS", max_resid, tuple(done), trials, notes=notes)


def verify_generator_map_identity(gmap, expected=None, orders=None,
                                  trials=20, seed=0):
    """Check that a composite generator map is the identity.

    expected: optional {label: Expr}; defaults to the generator itself.
    Returns {label: Verdict}."""
    out = {}
    for lab in sorted(gmap.source.labels):
        img = gmap.image_of_generator(lab, 1)
        if expected is not None and lab in expected:
            want = expected[lab]
        else:
            want = Expr.from_element(
                TorusElement.generator(gmap.target, lab, gmap.gen_exponent)
            )
        out[lab] = verify_identity(
            img, want, gmap.target, orders=orders, trials=trials, seed=seed
        )
    return out
