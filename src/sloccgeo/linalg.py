"""Exact dense linear algebra over the rationals and prime fields.

Matrices carry their field with them: ``p is None`` means entries are
``fractions.Fraction``; ``p`` a prime means entries are ints in ``[0, p)``.
Every operation is pure and rounding-free, so reduced row-echelon forms are
canonical and subspaces compare by simple equality.  The pipeline's exact
flattening is ``integer_rref``, fraction-free.

Every F_p rank, kernel, subspace and Hilbert degree goes through one
elimination, ``Matrix.rref``: it copies the rows once, updates each row in
place from the pivot column rightward, and hands its rows to the private
``Matrix._trusted`` constructor, which stores rows already in ``[0, p)``
without reducing them again.  The public constructor checks and reduces
its input; over F_p it takes integer entries only.

A Q matrix or subspace is never reduced entrywise: a state or model
reaches F_p only through ``Tensor.reduce_mod`` and
``states.reduced_flattening_image``, which check the prime.
"""

import random
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm

from .errors import UnsupportedPrimeError

#: Primes used by default for finite-field reductions.  Small enough for
#: exhaustive point enumeration, large enough that bad reduction is rare.
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)

#: Largest prime accepted by check_primes; primality is decided by trial
#: division, so the bound keeps that check to ~2*10^4 divisions.
MAX_PRIME = 2**31 - 1


def check_primes(primes):
    """The sorted distinct primes of a request, each checked to be a prime
    in [5, MAX_PRIME].  2 and 3 divide denominators of the invariant
    constants, and other integers do not give a field.  Raises
    UnsupportedPrimeError naming the first bad entry."""
    primes = tuple(sorted(set(primes)))
    if not primes:
        raise UnsupportedPrimeError("the prime list is empty")
    for p in primes:
        if (
            not isinstance(p, int)
            or isinstance(p, bool)
            or not 5 <= p <= MAX_PRIME
            or any(p % q == 0 for q in range(2, isqrt(p) + 1))
        ):
            raise UnsupportedPrimeError(
                f"{p!r} is not a prime in [5, {MAX_PRIME}]"
            )
    return primes


def clear_denominators(rows):
    """(integer rows, L): the rows of Fractions or ints times L, the least
    common multiple of all their denominators."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def integer_rref(rows, cols):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns (rank, basis, den): ``basis`` holds the rank nonzero rows of
    den * RREF, as integers in lowest terms with den > 0.  Each step
    replaces every other row by (pivot * row - entry * pivot row) divided
    exactly by the previous pivot, so entries stay minors of the input;
    after the last step every pivot equals the last pivot.
    """
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        piv = top[col]
        for i, row in enumerate(m):
            if i != rank:
                f = row[col]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev, rank = piv, rank + 1
        if rank == len(m):
            break
    basis = m[:rank]
    g = gcd(prev, *(x for row in basis for x in row))
    if prev < 0:
        g = -g
    return rank, [[x // g for x in row] for row in basis], prev // g


class Matrix:
    """Immutable dense matrix over Q (p=None) or F_p.

    The constructor checks its input and reduces it to the field's normal
    form: Fractions over Q, ints in [0, p) over F_p.  An F_p entry must be
    an int (bools count); anything else, such as a Fraction or a float,
    raises TypeError instead of being truncated, since a rational reaches
    F_p only through its state, which checks the denominator.  ``_trusted``
    skips the check for rows already in normal form.
    """

    __slots__ = ("rows", "cols", "entries", "p")

    def __init__(self, entries, cols=None, p=None):
        entries = [tuple(row) for row in entries]
        if entries:
            cols = len(entries[0])
            if any(len(row) != cols for row in entries):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if p is None:
            norm = [tuple(Fraction(x) for x in row) for row in entries]
        else:
            for row in entries:
                if not all(map(isinstance, row, repeat(int))):
                    bad = next(x for x in row if not isinstance(x, int))
                    raise TypeError(f"F_{p} matrix entry {bad!r} is not an integer")
            norm = [tuple([x % p for x in row]) for row in entries]
        self._set(tuple(norm), cols, p)

    @classmethod
    def _trusted(cls, entries, cols, p):
        """A Matrix of rows already in normal form, stored without a check:
        equal-length tuples of ints in [0, p) over F_p (of Fractions over
        Q)."""
        m = object.__new__(cls)
        m._set(tuple(entries), cols, p)
        return m

    def _set(self, entries, cols, p):
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n, p=None):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], p=p)

    @classmethod
    def zero(cls, rows, cols, p=None):
        return cls([[0] * cols for _ in range(rows)], cols=cols, p=p)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, self.entries))

    def __repr__(self):
        field = "Q" if self.p is None else f"F{self.p}"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{field}]({self.rows}x{self.cols}: {body})"

    def mul(self, other):
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("incompatible matrices")
        prod = [
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return Matrix(prod, cols=other.cols, p=self.p)

    def rref(self):
        """Return (rank, reduced) where reduced is the canonical RREF.  Over
        Q it is integer_rref of the matrix cleared of its denominators.

        Over F_p it is one Gauss-Jordan pass on a single copy of the rows.
        At each pivot the pivot row is zero left of the pivot column, so
        normalising it and clearing the column from the other rows touch
        only the columns from the pivot column rightward; each row is
        updated in place.  The result is built by ``_trusted``: its rows
        are already in [0, p).
        """
        p, m = self.p, [list(row) for row in self.entries]
        if p is None:
            rank, rows, den = integer_rref(clear_denominators(m)[0], self.cols)
            m = [[Fraction(x, den) for x in row] for row in rows]
            return rank, Matrix(m + [[0] * self.cols] * (self.rows - rank), cols=self.cols)
        rank = 0
        for col in range(self.cols):
            pivot = next((i for i in range(rank, self.rows) if m[i][col]), None)
            if pivot is None:
                continue
            top = m[pivot]
            m[pivot], m[rank] = m[rank], top
            inv = pow(top[col], -1, p)
            if inv != 1:
                top[col:] = [x * inv % p for x in top[col:]]
            tail = top[col:]
            for row in m:
                f = row[col]
                if f and row is not top:
                    row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
            rank += 1
            if rank == self.rows:
                break
        return rank, Matrix._trusted([tuple(row) for row in m], self.cols, p)

    def rank(self):
        return self.rref()[0]

    def det(self):
        """Exact determinant by cofactor expansion; meant for small sizes."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows

        def expand(rows, cols):
            if len(cols) == 1:
                return self.entries[rows[0]][cols[0]]
            total = 0
            sign = 1
            for k, c in enumerate(cols):
                x = self.entries[rows[0]][c]
                if x != 0:
                    rest = cols[:k] + cols[k + 1 :]
                    total += sign * x * expand(rows[1:], rest)
                sign = -sign
            return total

        if n == 0:
            return Fraction(1) if self.p is None else 1
        val = expand(tuple(range(n)), tuple(range(n)))
        return val % self.p if self.p is not None else Fraction(val)

    def kernel(self):
        """Right null space as a canonical Subspace of F^cols."""
        return _null_space(*self.rref())


def _null_space(rank, reduced):
    """The right null space of a matrix, as a canonical Subspace, from the
    (rank, reduced) pair of its ``rref``: one basis vector per free
    column, with 1 there and minus that column of the reduced rows at the
    pivot columns."""
    cols, rows = reduced.cols, reduced.entries[:rank]
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return Subspace.from_rows(basis, cols, p=reduced.p)


class Subspace:
    """A linear subspace, stored as the unique RREF basis of its row span."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        if basis.cols != ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, vectors, ambient_dim, p=None):
        """Canonicalize a spanning set: RREF, drop zero rows."""
        rank, red = Matrix(vectors, cols=ambient_dim, p=p).rref()
        return cls(ambient_dim, Matrix._trusted(red.entries[:rank], ambient_dim, p))

    @property
    def dim(self):
        return self.basis.rows

    @property
    def p(self):
        return self.basis.p

    def contains(self, vector):
        rows = list(self.basis.entries) + [vector]
        m = Matrix(rows, cols=self.ambient_dim, p=self.basis.p)
        return m.rank() == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def random_invertible(d, bound, seed):
    """Deterministic d x d integer matrix with nonzero determinant.

    Entries are drawn uniformly from [-bound, bound]; singular draws are
    rejected and redrawn, so the result depends only on (d, bound, seed).
    """
    if d < 1 or bound < 1:
        raise ValueError("need d >= 1 and bound >= 1")
    rng = random.Random(seed)
    while True:
        entries = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        m = Matrix(entries)
        if m.rank() == d:
            return m
