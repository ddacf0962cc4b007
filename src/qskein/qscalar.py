"""Exact arithmetic in the ground ring Z[q^(1/8), q^(-1/8)].

Every scalar in this library is a Laurent polynomial in a formal eighth
root of q, with integer coefficients.  Exponents are stored as plain
integers counting eighths: q itself is exponent 8, the half powers
q^(1/2) that appear in Weyl normalization are exponent 4, and u = q^(m/4)
is exponent 2m.  No rational arithmetic is ever needed.  Coefficients are
Python ints, so repeated flip compositions cannot overflow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

PRIME_BOUND = 2 ** 25


class Laurent:
    """A Laurent polynomial sum_n c_n * q^(n/8), kept in canonical form.

    ``terms`` maps the eighth-exponent n to the nonzero integer c_n.  The
    empty map is zero.  Instances are immutable and hashable.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for n, c in terms.items():
                if c:
                    clean[int(n)] = int(c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Laurent scalars are immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def _canonical(terms):
        """A Laurent taking ``terms``, a dict of int exponents to nonzero
        ints, as it is: the torus product kernels and the state sum build
        exactly this, so the clean-up of ``Laurent(terms)`` would only
        repeat their work."""
        out = object.__new__(Laurent)
        _set_terms(out, terms)
        _set_hash(out, None)
        return out

    @staticmethod
    def zero():
        return Laurent()

    @staticmethod
    def one():
        return Laurent({0: 1})

    @staticmethod
    def integer(c):
        return Laurent({0: c})

    @staticmethod
    def q_power(n, coeff=1):
        """coeff * q^(n/8) with n in eighth-of-q units."""
        return Laurent({n: coeff})

    # -- ring structure ----------------------------------------------
    # both operands are Laurent scalars: any other operand, an int on
    # either side included (write Laurent.integer(c)), gets NotImplemented
    # and so a TypeError; only __eq__ accepts ints

    def __add__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = out.get(n, 0) + c
        return Laurent(out)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent(_times(self, other))

    def inverse(self):
        """Inverse of a unit +-q^(n/8); anything else is not invertible."""
        mono = self.as_monomial()
        if mono is None or mono[0] not in (1, -1):
            raise ValueError("not a unit in Z[q^(1/8), q^(-1/8)]: %s" % self)
        c, n = mono
        return Laurent({-n: c})

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.integer(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            # a constant hashes as the int it equals (__eq__ accepts ints)
            key = terms.get(0, 0) if terms.keys() <= {0} else tuple(sorted(terms.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries -------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def as_monomial(self):
        """Return (coeff, eighth_exponent) for a single-term scalar, else None."""
        if len(self.terms) != 1:
            return None
        (n, c), = self.terms.items()
        return (c, n)

    # -- reflection symmetry -----------------------------------------

    def reflect(self):
        """The involution q^(1/8) -> q^(-1/8); negates every exponent."""
        return Laurent({-n: c for n, c in self.terms.items()})

    # -- evaluation at a root of unity -------------------------------

    def evaluate(self, root):
        """The residue mod root.p of sum_n c_n zeta^n, where zeta = root.zeta
        is the value of q^(1/8) in F_p."""
        return sum(c * root.zeta_pow(n) for n, c in self.terms.items()) % root.p

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for n, c in sorted(self.terms.items()):
            parts.append("%d*q^(%s)" % (c, _exp_str(n)))
        return " + ".join(parts)

    __repr__ = __str__


# the slot setters that __setattr__ refuses, for Laurent._canonical
_set_terms = Laurent.terms.__set__
_set_hash = Laurent._hash.__set__


def _times(c1, c2):
    """The terms of c1 * c2, {eighth exponent: int}, in the order in which
    the term-by-term product first meets each exponent, zero sums kept."""
    out = {}
    for n1, a1 in c1.terms.items():
        for n2, a2 in c2.terms.items():
            n = n1 + n2
            out[n] = out.get(n, 0) + a1 * a2
    return out


def _exp_str(n):
    f = Fraction(n, 8)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


ZERO = Laurent.zero()
ONE = Laurent.one()


class RootOfUnity:
    """Evaluation context sending q^(1/8) to the primitive L-th root of
    unity zeta = g^((p - 1) / L) of F_p, where p is the largest prime below
    PRIME_BOUND with p = 1 (mod L) and g generates F_p^*."""

    def __init__(self, L):
        if L < 3 or L % 2 == 0:
            raise ValueError("root order must be an odd integer >= 3")
        self.L = L
        self.p, self.g = _prime_field(L)
        self.zeta = pow(self.g, (self.p - 1) // L, self.p)
        self._table = [pow(self.zeta, k, self.p) for k in range(L)]

    def zeta_pow(self, n):
        return self._table[n % self.L]

    def __repr__(self):
        return "RootOfUnity(L=%d, p=%d)" % (self.L, self.p)


@lru_cache(maxsize=None)
def _prime_field(L):
    """(p, g): the largest prime p < PRIME_BOUND with p = 1 (mod L), and
    the least generator g of F_p^*; trial division suffices below 2^25."""
    p = (PRIME_BOUND - 2) // (2 * L) * (2 * L) + 1     # odd L: p = 1 (mod 2L)
    while any(p % f == 0 for f in range(3, isqrt(p) + 1, 2)):
        p -= 2 * L
    n = p - 1                     # g generates iff g^d != 1 for all d | n, d < n
    divisors = {d for f in range(1, isqrt(n) + 1) if n % f == 0 for d in (f, n // f)}
    g = next(g for g in range(2, p) if all(pow(g, d, p) != 1 for d in divisors - {n}))
    return p, g
