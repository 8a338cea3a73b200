"""Exact dense linear algebra over the rationals and prime fields.

Matrices carry their field with them: ``p is None`` means entries are
``fractions.Fraction``; ``p`` an int >= 2 means entries are ints in
``[0, p)``.  Every operation is pure and rounding-free, so reduced
row-echelon forms are canonical.  A subspace is its canonical basis, the
nonzero RREF rows as a ``Matrix`` (``Matrix.row_space``): ``rows`` is its
dimension and ``cols`` the ambient dimension, and two subspaces are equal
when these matrices are.

There are two elimination loops, one per ring.  Over Z it is ``_bareiss``,
fraction-free: ``integer_rref`` (the pipeline's exact flattening, every Q
``rref`` and the invertibility checks of ``random_invertible`` and
``SloccOperator``) normalises its rows, and ``Matrix.det`` reads its last
pivot.  Every F_p rank, kernel, row space and Hilbert degree goes through
the other, ``Matrix.rref``: it copies the rows once, updates each row in
place from the pivot column rightward, and hands its rows to the private
``Matrix._trusted`` constructor, which stores rows already in ``[0, p)``
without reducing them again.  The public constructor checks and reduces
its input; over F_p it takes integer entries only.  Kernels and Hilbert
quotients read the pivots and free columns of reduced rows through one
routine, ``_free_basis``; a kernel is one elimination, of the
column-reversed matrix (``Matrix.kernel``).

A Q matrix is never reduced entrywise: a state or model reaches F_p only
through ``Tensor.reduce_mod`` (``states.reduced_flattening_image`` calls
it), which checks the prime.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm

from .errors import UnsupportedPrimeError, _excerpt

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
    UnsupportedPrimeError naming the first bad entry (``_excerpt``)."""
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
            raise UnsupportedPrimeError(f"{_excerpt(p)} is not a prime in [5, {MAX_PRIME}]")
    return primes


def _check_modulus(p):
    """The modulus rule of Matrix: UnsupportedPrimeError unless p is an int
    >= 2 (a bool is not)."""
    if type(p) is not int or p < 2:
        raise UnsupportedPrimeError(f"modulus {_excerpt(p)} is not an int >= 2")


def clear_denominators(rows):
    """(integer rows, L): the rows of Fractions or ints times L, the least
    common multiple of all their denominators."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _bareiss(rows, cols):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns (rank, rows, last pivot, sign of the row swaps).  Each step
    replaces every other row by (pivot * row - entry * pivot row) divided
    exactly by the previous pivot, so entries stay minors of the input;
    after the last step every pivot equals the last pivot, which for a
    square matrix of full rank is its determinant times the sign.
    """
    m = [list(row) for row in rows]
    rank, prev, sign = 0, 1, 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot], sign = m[pivot], m[rank], -sign
        top = m[rank]
        piv = top[col]
        for i, row in enumerate(m):
            if i != rank:
                f = row[col]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev, rank = piv, rank + 1
        if rank == len(m):
            break
    return rank, m, prev, sign


def integer_rref(rows, cols):
    """The RREF of integer rows, fraction-free (``_bareiss``).

    Returns (rank, basis, den): ``basis`` holds the rank nonzero rows of
    den * RREF, as integers in lowest terms with den > 0.
    """
    rank, m, prev, _ = _bareiss(rows, cols)
    basis = m[:rank]
    g = gcd(prev, *(x for row in basis for x in row))
    if prev < 0:
        g = -g
    return rank, [[x // g for x in row] for row in basis], prev // g


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Matrix:
    """Immutable dense matrix over Q (p=None) or F_p.

    The constructor checks its input and reduces it to the field's normal
    form: Fractions over Q, ints in [0, p) over F_p.  The modulus p must be
    an int >= 2 (not a bool), else UnsupportedPrimeError; a composite p is
    refused by ``rref`` at the first pivot it cannot invert.  An F_p entry
    must be an int (bools count); anything else, such as a Fraction or a
    float, raises TypeError instead of being truncated, since a rational
    reaches F_p only through its state, which checks the denominator.
    ``_trusted`` skips the checks for rows already in normal form.
    """

    rows: int
    cols: int
    p: object
    entries: tuple

    def __init__(self, entries, cols=None, p=None):
        if p is not None:
            _check_modulus(p)
        entries = [tuple(row) for row in entries]
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
            if cols not in (None, width):
                raise ValueError(f"rows of length {width} disagree with cols={_excerpt(cols)}")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if p is None:
            norm = [tuple(Fraction(x) for x in row) for row in entries]
        else:
            for row in entries:
                if not all(map(isinstance, row, repeat(int))):
                    bad = next(x for x in row if not isinstance(x, int))
                    raise TypeError(f"F_{p} matrix entry {_excerpt(bad)} is not an integer")
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

    @classmethod
    def identity(cls, n, p=None):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], p=p)

    @classmethod
    def zero(cls, rows, cols, p=None):
        return cls([[0] * cols for _ in range(rows)], cols=cols, p=p)

    def __repr__(self):
        field = "Q" if self.p is None else f"F{self.p}"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{field}]({self.rows}x{self.cols}: {body})"

    def rref(self):
        """Return (rank, reduced) where reduced is the canonical RREF.  Over
        Q it is integer_rref of the matrix cleared of its denominators.

        Over F_p it is one Gauss-Jordan pass on a single copy of the rows.
        At each pivot the pivot row is zero left of the pivot column, so
        normalising it and clearing the column from the other rows touch
        only the columns from the pivot column rightward; each row is
        updated in place.  The result is built by ``_trusted``: its rows
        are already in [0, p).  A pivot that is not invertible modulo a
        composite p raises UnsupportedPrimeError.
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
            try:
                inv = pow(top[col], -1, p)
            except ValueError:
                raise UnsupportedPrimeError(
                    f"pivot {top[col]} is not invertible modulo {p}"
                ) from None
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
        """Exact determinant from the integer elimination ``_bareiss`` of
        the rows cleared of their common denominator L (the residues over
        F_p): the sign of its row swaps times its last pivot when the rank
        is full, else 0, divided by L^n over Q and reduced modulo p over
        F_p; O(n^3) operations on integers that stay minors of the input."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        m, den = clear_denominators(self.entries)
        rank, _, last, sign = _bareiss(m, self.cols)
        det = sign * last if rank == self.rows else 0
        if self.p is None:
            return Fraction(det, den**self.rows)
        return det % self.p

    def row_space(self):
        """The row span as its canonical basis: the rank nonzero rows of the
        RREF, a rank x cols Matrix over the same field."""
        rank, reduced = self.rref()
        return Matrix._trusted(reduced.entries[:rank], self.cols, self.p)

    def kernel(self):
        """Right null space as its canonical basis (see ``row_space``), from
        one elimination, of the matrix with its columns reversed, whose null
        space is this one's reversed.  The free-column basis vector of that
        elimination for free column f is 1 at f and 0 at the other free
        columns, and it is nonzero elsewhere only at pivot columns left of f.
        So each vector, reversed, leads with a 1 where every other one is 0:
        the reversed vectors, in reverse order, are in reduced row-echelon
        form, and by its uniqueness they are the canonical basis."""
        rev = Matrix._trusted([row[::-1] for row in self.entries], self.cols, self.p)
        rank, reduced = rev.rref()
        basis = _free_basis(reduced.entries[:rank], self.cols)
        return Matrix([v[::-1] for v in reversed(basis)], cols=self.cols, p=self.p)


def _free_basis(rows, cols):
    """The free-column basis of the right null space of the nonzero rows
    of an RREF with cols columns: for each column that is no row's pivot,
    in order, the vector with 1 there, minus that column of the rows at
    their pivot columns and 0 elsewhere.  Entries are left unreduced."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f not in pivot_set:
            v = [0] * cols
            v[f] = 1
            for row, pc in zip(rows, pivots):
                v[pc] = -row[f]
            basis.append(v)
    return basis


def random_invertible(d, bound, seed):
    """Deterministic d x d integer matrix with nonzero determinant.

    Entries are drawn uniformly from [-bound, bound]; singular draws are
    rejected and redrawn, so the result depends only on (d, bound, seed).
    Each draw is decided on its integer rows (``integer_rref``), and only
    the draw returned becomes a Matrix.
    """
    if d < 1 or bound < 1:
        raise ValueError("need d >= 1 and bound >= 1")
    rng = random.Random(seed)
    while True:
        entries = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        if integer_rref(entries, d)[0] == d:
            return Matrix(entries)
