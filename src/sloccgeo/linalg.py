"""Exact dense linear algebra over prime fields.

Matrices carry their field with them: ``p`` a prime (``FIELD``: 2, 3, or
one that ``check_primes`` accepts) means entries are ints in ``[0, p)``,
and every elimination is over the field F_p.  ``p is None``
means entries are ``fractions.Fraction``: such a Matrix is a value only
(an operator's factor, a flattening image), and its ``rref``, ``rank``,
``row_space``, ``kernel`` and ``det`` raise ValueError.  Every operation is
pure and rounding-free, so reduced row-echelon forms are canonical.  A
subspace is its canonical basis, the nonzero RREF rows as a ``Matrix``
(``Matrix.row_space``): ``rows`` is its dimension and ``cols`` the ambient
dimension, and two subspaces are equal when these matrices are.

There are two elimination loops, one per ring, one rank routine and one
kernel routine.
Over Z it is ``_bareiss``, fraction-free: ``states.flattening_basis``
normalises its rows into the one RREF over Q, and the invertibility checks
of ``random_invertible`` and ``SloccOperator`` read its rank;
``Matrix.det``, the prime filing and ``classify``'s curve invariants
(``geometry._slice_pivot``) read its last pivot.  Every F_p RREF and row
space, and the lower degrees of a Hilbert profile, go through
``_eliminate``, the column-pivot Gauss-Jordan: it works in place on rows
already in ``[0, p)``, updates each row from the pivot column rightward,
and returns the rank and the pivot columns, so no caller scans its rows
for them again.  Every F_p rank that needs no RREF goes through
``_echelon_rank``: each row joins a row-echelon basis keyed by pivot
column, and reading stops once the rank reaches the caller's ceiling (the
column count for ``Matrix.rank`` and a profile's top degree, d for a
Jacobian, width - rank(forms) for ``zalgebra.relations_from_points`` and 4
for a section product).  So rows that come one at a time, the point
checks' evaluation rows, are ranked without eliminating their basis again,
and a lazy point walk stops as soon as its rank is full.  Every F_p
kernel goes through ``_kernel_basis``: one elimination of the
column-reversed rows and their free-column basis, for
``Matrix.kernel`` and for the point walk's fibres
(``geometry._kernel_points``), which builds no Matrix.  Over a field
every nonzero pivot is a unit, so no elimination can meet one it cannot
invert.
``Matrix.rref``, ``row_space`` and ``kernel`` hand their rows
to the private ``Matrix._trusted`` constructor, which stores rows already
in ``[0, p)`` without reducing them again.  The public constructor
checks and reduces its input; over F_p it takes integer entries only.

A Q matrix is never reduced entrywise: a state or model reaches F_p only
through ``Tensor.reduce_mod`` (``geometry._reduced_model`` and
``states.reduced_flattening_image`` call it), which checks the prime; both
eliminate its residues with ``_eliminate`` directly
(``states._flattening_rows``), with no Matrix in between.
"""

import random
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm

from ._guard import RATIONAL_ROWS, UNCHECKED, Kind, each, guard, ints
from .errors import SchemaError, UnsupportedPrimeError, WorkLimitError, _excerpt

#: Primes used by default for finite-field reductions.  Small enough for
#: exhaustive point enumeration, large enough that bad reduction is rare.
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)

#: Largest prime accepted by check_primes.  Primality is decided by
#: Miller-Rabin with the bases 2, 3, 5 and 7 (``_is_prime``), which is exact
#: below 3,215,031,751 (Pomerance, Selfridge and Wagstaff 1980): the bound
#: keeps every accepted entry under that.
MAX_PRIME = 2**31 - 1

#: Most entries a kernel basis (``_kernel_basis``, behind ``Matrix.kernel``
#: and the point walk) may have, counted as cols**2 before any
#: elimination: widths up to 362 pass, among them every kernel of the
#: package, the fibres of the point walk (d columns, d at most 256).
MAX_MATRIX_ENTRIES = 2**17

#: Most decimal digits parse_state accepts in a numerator or denominator of
#: a coefficient, as written and once the state is over its common
#: denominator in lowest terms, and most digits a random draw's bound may
#: have (``DRAW_BOUND``).  The largest number a (3,3) report prints has
#: about 36 digits per digit of the state, so 100 digits keep every report
#: under Python's 4,300-digit limit on int-to-string conversion.
MAX_COEFFICIENT_DIGITS = 100

#: Most d**4 * bits(bound) a random invertible d x d draw may cost: its
#: fraction-free elimination makes ~d**3 updates of entries that grow to
#: ~d times the bound's size.  Draws at the limit take up to ~1.2 s on a
#: 2-vCPU VM (128 x 128 of 1-bit entries 0.8 s, 29 x 29 of 100-digit
#: entries 1.1 s); 32 x 32 of 100-digit entries (1.5 s) is refused.
MAX_DRAW_COST = 2**28


def check_primes(primes: UNCHECKED):
    """The sorted distinct primes of a request, each checked to be a prime
    in [5, MAX_PRIME]: the check of the guard's prime kinds, so not guarded
    itself.  2 and 3 divide denominators of the invariant
    constants, and other integers do not give a field.  Raises
    UnsupportedPrimeError naming the first bad entry (``_excerpt``), or
    naming the request when it is not a collection of comparable entries.
    An iterator is no collection: checking it would use it up, and the
    caller would then read no prime."""
    try:
        if not isinstance(primes, Collection):
            raise TypeError
        primes = _sorted_primes(primes)
    except TypeError:
        raise UnsupportedPrimeError(f"{_excerpt(primes)} is not a collection of primes") from None
    if not primes:
        raise UnsupportedPrimeError("the prime list is empty")
    for p in primes:
        if type(p) is not int or not 5 <= p <= MAX_PRIME or not _is_prime(p):
            raise UnsupportedPrimeError(f"{_excerpt(p)} is not a prime in [5, {MAX_PRIME}]")
    return primes


def _sorted_primes(primes):
    """The distinct entries of a prime request in ascending order, as a
    tuple, or DEFAULT_PRIMES for None: the one normal form of a request.
    ``check_primes`` returns it, and ``classify`` and
    ``geometry._file_sweep`` apply it to the request they receive, since
    the guard checks a prime list but passes the caller's value on."""
    return DEFAULT_PRIMES if primes is None else tuple(sorted(set(primes)))


#: A prime, checked in full where its state is reduced: every int passes,
#: and check_primes refuses anything else with its message.
PRIME = Kind(lambda v: type(v) is int or check_primes((v,)), "a prime")
#: A prime list, checked in full.
PRIMES = Kind(check_primes, "a prime list")
#: The prime of a Matrix over F_p and of a model built by hand over F_p
#: (``geometry.VarietyModel``): 2, 3 or a prime that check_primes accepts,
#: so that every elimination, point and rank is over a field.
FIELD = Kind(
    lambda v: type(v) is int and (v in (2, 3) or 5 <= v <= MAX_PRIME and _is_prime(v)),
    f"a prime up to {MAX_PRIME}",
    UnsupportedPrimeError,
)
#: A matrix dimension (``Matrix``).
SIZE = ints(0)
#: The bound of a random draw's entries, short enough that every state
#: ``states.random_state`` draws parses back.
DRAW_BOUND = ints(
    1, 10**MAX_COEFFICIENT_DIGITS - 1, what=f"an int > 0 of at most {MAX_COEFFICIENT_DIGITS} digits"
)


def _is_prime(n):
    """Whether an int 5 <= n <= MAX_PRIME is prime: 2, 3, 5 and 7 are
    divided out first (which decides every n below 11^2), then each of them
    is a strong-probable-prime (Miller-Rabin) base, which decides every n
    below 3,215,031,751 exactly.  With n - 1 = m * 2^s, m odd, n passes
    base a when a^m is 1 or one of its first s squarings is -1 mod n."""
    if n % 2 == 0 or n % 3 == 0 or n % 5 == 0 or n % 7 == 0:
        return n in (5, 7)
    if n < 121:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def clear_denominators(rows: RATIONAL_ROWS):
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
    after the last step every pivot equals the last pivot.  For rows of
    full row rank d the last pivot is the sign times the d x d minor of the
    rows at the pivot columns, the first nonzero column of each returned
    row: for a square matrix of full rank, its determinant times the sign.
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


#: The rows of a Matrix: ints (bools count) and Fractions.
MATRIX_ROWS = each(
    each(lambda x: isinstance(x, (int, Fraction)), "").test, "rows of ints and Fractions"
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Matrix:
    """Immutable dense matrix over F_p, or a value over Q (p=None).

    The constructor checks its input and reduces it to the field's normal
    form: Fractions over Q, ints in [0, p) over F_p.  The entries are ints
    (bools count) and Fractions, else ValueError (``MATRIX_ROWS``).  p must
    be a prime (``FIELD``: 2, 3, or one that ``check_primes`` accepts),
    else UnsupportedPrimeError when the matrix is built, so a composite or
    too large modulus is never eliminated.  An F_p entry must be an int; a
    Fraction raises ValueError instead of being truncated, since a rational
    reaches F_p only through its state, which checks the denominator.
    ``_trusted`` skips the checks for rows already in normal form.  Only an
    F_p matrix is eliminated: over Q, ``rref``, ``rank``, ``row_space``,
    ``kernel`` and ``det`` raise ValueError (``_residue_rows``).
    """

    rows: int
    cols: int
    p: object
    entries: tuple

    def __init__(self, entries: MATRIX_ROWS, cols: SIZE = None, p: FIELD = None):
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
                    raise ValueError(f"F_{p} matrix entry {_excerpt(bad)} is not an integer")
            norm = [tuple([x % p for x in row]) for row in entries]
        self._set(tuple(norm), cols, p)

    @classmethod
    def _trusted(cls, entries, cols, p):
        """A Matrix of rows already in normal form, stored without a check:
        equal-length tuples of ints in [0, p)."""
        m = object.__new__(cls)
        m._set(tuple(entries), cols, p)
        return m

    def _set(self, entries, cols, p):
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "p", p)

    def __repr__(self):
        field = "Q" if self.p is None else f"F{self.p}"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{field}]({self.rows}x{self.cols}: {body})"

    def rref(self):
        """Return (rank, reduced) where reduced is the canonical RREF: one
        Gauss-Jordan pass (``_eliminate``) on a single copy of the rows,
        built by ``_trusted``: its rows are already in [0, p).
        """
        rank, rows = self._reduced_rows()
        return rank, Matrix._trusted(rows, self.cols, self.p)

    def _reduced_rows(self):
        """(rank, rows): the RREF's rows as tuples, the zero rows last."""
        m = self._residue_rows()
        rank = _eliminate(m, self.cols, self.p)[0]
        return rank, [tuple(row) for row in m]

    def _residue_rows(self):
        """A copy of the rows as lists, to be eliminated over F_p.  A matrix
        over Q is a value only, so ValueError: a rational reaches F_p
        through its state (``Tensor.reduce_mod``)."""
        if self.p is None:
            raise ValueError("a Matrix over Q is not eliminated; reduce it modulo a prime")
        return [list(row) for row in self.entries]

    def rank(self):
        """The rank, from the rows joined one at a time up to the column
        count (``_echelon_rank``), with no RREF."""
        return _echelon_rank(self._residue_rows(), self.p, self.cols)[0]

    def det(self):
        """The determinant modulo p from the integer elimination
        ``_bareiss`` of the residues: the sign of its row swaps times its
        last pivot when the rank is full, else 0; O(n^3) operations on
        integers that stay minors of the input."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rank, _, last, sign = _bareiss(self._residue_rows(), self.cols)
        return sign * last % self.p if rank == self.rows else 0

    def row_space(self):
        """The row span as its canonical basis: the rank nonzero rows of the
        RREF, a rank x cols Matrix over the same field."""
        rank, rows = self._reduced_rows()
        return Matrix._trusted(rows[:rank], self.cols, self.p)

    def kernel(self):
        """Right null space as its canonical basis (see ``row_space``), from
        the one kernel routine (``_kernel_basis``).  The basis has up to
        cols x cols entries, so a cols**2 above MAX_MATRIX_ENTRIES raises
        WorkLimitError before any elimination or allocation, as it does for
        every caller of the routine; the width is checked here first, so a
        matrix over Q that is too wide is refused for its width too.  Every
        kernel of the package, a fibre of the point walk (d columns, d at
        most 256, ``geometry._kernel_points``), passes."""
        _check_kernel_width(self.cols)
        basis = _kernel_basis(self._residue_rows(), self.cols, self.p)
        return Matrix._trusted(basis, self.cols, self.p)


def _eliminate(m, cols, p):
    """Gauss-Jordan elimination over F_p of the rows m, lists of ints in
    [0, p), in place, to the canonical RREF, zero rows last: the package's
    one column-pivot elimination, for the callers that read an RREF.
    Returns (rank, pivots), the pivot column of each of the first rank rows.

    At each pivot the pivot row is zero left of the pivot column, so
    normalising it and clearing the column from every other row touch only
    the columns from the pivot column rightward, and each row is updated in
    place.  A rank alone comes from ``_echelon_rank``.
    """
    rank, pivots, height = 0, [], len(m)
    for col in range(cols):
        pivot = next((i for i in range(rank, height) if m[i][col]), None)
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
        pivots.append(col)
        rank += 1
        if rank == height:
            break
    return rank, pivots


def _echelon_rank(rows, p, ceiling):
    """(rank, read): the rank over F_p of the rows read, lists of ints in
    [0, p) taken one at a time from any iterable and reduced in place, and
    how many were read.  The package's one rank-only elimination: reading
    stops once the rank reaches ``ceiling``, which each caller sets to a
    bound no rank of its rows can pass, so a lazy source (the point walk)
    is never drawn past the first row that reaches it.

    Each row joins a row-echelon basis keyed by pivot column, each basis
    row led by a 1 there.  The row is scanned left to right, each entry
    read after every update to its left: a nonzero entry at a basis row's
    column is cleared by that basis row, which changes only that entry and
    entries to its right, and the first nonzero entry at a column with no
    basis row makes the row join, scaled to lead with a 1 there.  A row
    whose scan reaches its end is zero, so it lies in the span.  The basis
    rows lead at distinct columns, so they are independent, and the rank
    after each row is that of all the rows so far, at most one update per
    basis row.  Reading a row costs ~rank * width, and a caller
    whose rows come one at a time never eliminates its basis again.  An
    RREF needs the column-pivot loop, ``_eliminate``: joining rows and then
    back-substituting gives the same rows but is slower.
    """
    basis, read, rows = {}, 0, iter(rows)
    while len(basis) < ceiling and (row := next(rows, None)) is not None:
        read += 1
        for col, f in enumerate(row):
            if not f:
                continue
            if col not in basis:
                inv = pow(f, -1, p)
                basis[col] = [x * inv % p for x in row[col:]]
                break
            row[col:] = [(a - f * b) % p for a, b in zip(row[col:], basis[col])]
    return len(basis), read


def _check_kernel_width(cols):
    """WorkLimitError when a kernel basis of cols columns could have more
    than MAX_MATRIX_ENTRIES entries, counted as cols**2."""
    if cols**2 > MAX_MATRIX_ENTRIES:
        size = f"{_excerpt(cols)} x {_excerpt(cols)}"
        raise WorkLimitError(f"a {size} matrix has more than {MAX_MATRIX_ENTRIES} entries")


def _kernel_basis(rows, cols, p):
    """The canonical basis of the right null space over F_p of integer
    rows of cols entries, in any range: the package's one kernel routine,
    for ``Matrix.kernel`` and the point walk.  Returns the basis rows as
    tuples of ints in [0, p), a cols**2 above MAX_MATRIX_ENTRIES raising
    WorkLimitError first (``_check_kernel_width``).

    One elimination (``_eliminate``), of the rows reduced mod p with their
    columns reversed, whose null space is this one's reversed.  Its
    free-column basis vector for free column f is 1 at f, minus column f
    of the RREF's rows at their pivot columns, and 0 elsewhere: 0 at the
    other free columns, and nonzero elsewhere only at pivot columns left of
    f.  So each vector, reversed, leads with a 1 where every other one is
    0: the reversed vectors, free columns taken from the right, are in
    reduced row-echelon form, and by its uniqueness they are the canonical
    basis.
    """
    _check_kernel_width(cols)
    m = [[x % p for x in reversed(row)] for row in rows]
    pivots = _eliminate(m, cols, p)[1]
    basis = []
    for f in sorted(set(range(cols)).difference(pivots), reverse=True):
        v = [0] * cols
        v[f] = 1
        for row, pc in zip(m, pivots):
            v[pc] = -row[f] % p
        basis.append(tuple(v[::-1]))
    return basis


def _check_local_dimension(d):
    """SchemaError when d exceeds 256, the largest local dimension of a
    state with n >= 2 under states.MAX_COEFFICIENTS = 2**16: an operator's
    invertibility check is cubic in d."""
    if d > 256:
        raise SchemaError(f"local dimension {_excerpt(d)} exceeds the limit of 256")


def random_invertible(d: ints(1), bound: DRAW_BOUND, seed: int):
    """Deterministic d x d integer matrix with nonzero determinant.

    Entries are drawn uniformly from [-bound, bound]; singular draws are
    rejected and redrawn, so the result depends only on (d, bound, seed).
    Each draw is decided on its integer rows (``_bareiss``), and only
    the draw returned becomes a Matrix.  Before anything is drawn, a d
    above 256 raises SchemaError (``_check_local_dimension``), and a draw
    whose d**4 * bits(bound) exceeds MAX_DRAW_COST WorkLimitError.
    """
    _check_local_dimension(d)
    if (cost := d**4 * bound.bit_length()) > MAX_DRAW_COST:
        raise WorkLimitError(f"a {d} x {d} draw costs {cost}, over the limit of {MAX_DRAW_COST}")
    rng = random.Random(seed)
    while True:
        entries = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        if _bareiss(entries, d)[0] == d:
            return Matrix(entries)


guard(globals(), Matrix)
