"""n-qudit states as integer tensors over one denominator, plus the local
group action.

A state of n qudits with local dimension d is a dense array of d**n exact
rational coefficients in row-major order (last index fastest), stored as
integer numerators over one positive common denominator, in lowest terms.
The last tensor factor is the distinguished one: ``flatten_last`` reads the
state as a linear map from the dual of the last factor into the product of
the rest, and ``flattening_image`` is the column span of that map, whose
canonical basis ``flattening_basis`` computes by fraction-free elimination.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import random

from ._guard import (
    COEFFICIENT,
    COEFFICIENTS,
    INTS,
    MAPPING,
    NONZERO,
    UNCHECKED,
    Kind,
    each,
    guard,
    ints,
    power_exceeds,
)
from .errors import (
    BadReductionError,
    DuplicateIndexError,
    IndexRangeError,
    SchemaError,
    SingularOperatorError,
    WorkLimitError,
    _excerpt,
)
from .linalg import (
    DRAW_BOUND,
    MAX_COEFFICIENT_DIGITS,
    PRIME,
    Matrix,
    _bareiss,
    _check_local_dimension,
    _eliminate,
    check_primes,
    clear_denominators,
    random_invertible,
)

#: The one integer-literal rule: an optional minus sign and ASCII digits.
#: A coefficient's numerator (``_RATIONAL_RE``), a coefficient of the
#: canonical document (``_CANONICAL_RE``) and the command line's integer
#: options (``cli._INTEGER_RE``) are all built from it.
_INTEGER = r"-?[0-9]+"

_RATIONAL_RE = re.compile(rf"({_INTEGER})(?:/([1-9][0-9]*))?\Z")

# The canonical document: the compact form state_to_json writes of an
# integer state, with JSON whitespace (RFC 8259) around it.  An index is
# matched as any digits and commas, and ``_canonical_offset`` admits only
# the indices state_to_json writes, so every document ``_read_canonical``
# accepts is JSON with exactly the keys n, d, entries, and idx, c in each
# entry.  An n or d of more digits than a readable format has is left to
# the checked path, which refuses it.
_WHITESPACE = r"[ \t\n\r]*"
_ENTRY = rf'\{{"idx":\[[0-9,]+\],"c":"{_INTEGER}"\}}'
_CANONICAL_RE = re.compile(
    rf'{_WHITESPACE}\{{"n":([1-9][0-9]?),"d":([1-9][0-9]{{0,2}}),'
    rf'"entries":\[((?:{_ENTRY}(?:,{_ENTRY})*)?)\]\}}{_WHITESPACE}\Z'
)

#: Most coefficients d**n a state may have.
MAX_COEFFICIENTS = 2**16

#: Most cell updates d**(n+1) an exact flattening may cost: eliminating its
#: d integer rows of d**(n-1) entries takes about d updates per cell.
#: (2,32) costs 32,768 and passes; (2,64) costs 262,144 and is refused.
MAX_FLATTENING_COST = 2**16

#: The n or the d of a format: a state has n >= 2 factors of dimension
#: d >= 2.
FORMAT = ints(2)


def _check_state_size(n, d):
    """Raise SchemaError when a state of n >= 2 factors of dimension d >= 2
    would exceed MAX_COEFFICIENTS entries, decided before d**n is formed
    (``power_exceeds``).  The message prints neither, so no huge one meets
    int-to-string conversion."""
    if power_exceeds(d, n, MAX_COEFFICIENTS):
        raise SchemaError(f"d**n exceeds the limit of {MAX_COEFFICIENTS} coefficients")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Tensor:
    """Immutable dense tensor with equal local dimensions: integer
    numerators ``nums`` over one common denominator ``den`` > 0, in lowest
    terms.  ``coeffs`` builds the Fraction coefficients on demand."""

    n: int
    d: int
    nums: tuple
    den: int

    def __init__(self, n: FORMAT, d: FORMAT, coeffs: COEFFICIENTS):
        (nums,), den = clear_denominators([coeffs])
        self._set(n, d, nums, den)

    @classmethod
    def from_integers(cls, n: FORMAT, d: FORMAT, nums: INTS, den: NONZERO = 1):
        """The tensor with coefficients nums[i] / den (ints, den nonzero)."""
        t = cls.__new__(cls)
        t._set(n, d, list(nums), den)
        return t

    def _set(self, n, d, nums, den):
        # d**n is formed only when it is at most size, and never printed
        size = len(nums)
        if power_exceeds(d, n, size) or d**n != size:
            raise ValueError(f"expected d**n coefficients, got {size}")
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [a // g for a in nums], den // g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self):
        return tuple(Fraction(a, self.den) for a in self.nums)

    @classmethod
    def from_entries(cls, n: FORMAT, d: FORMAT, entries: MAPPING):
        """Build from {index tuple: coefficient}; unspecified entries are 0."""
        _check_state_size(n, d)
        coeffs = [0] * d**n
        for idx, c in entries.items():
            coeffs[cls._offset_static(n, d, idx)] = c
        return cls(n, d, coeffs)

    @staticmethod
    def _offset_static(n, d, idx):
        """Row-major offset of an index tuple or list of n ints (not bools),
        else ValueError; IndexRangeError (an IndexError) when an index lies
        outside [0, d).  ``offset``, ``__getitem__``, ``from_entries`` and
        the state document's indices all go through here."""
        if type(idx) not in (tuple, list) or len(idx) != n:
            raise ValueError("index arity mismatch")
        off = 0
        for i in idx:
            if type(i) is not int:
                raise ValueError(f"index {_excerpt(list(idx))} holds an entry that is not an int")
            if not 0 <= i < d:
                raise IndexRangeError(f"index {_excerpt(list(idx))} out of range for d={d}")
            off = off * d + i
        return off

    def offset(self, idx: UNCHECKED):
        return self._offset_static(self.n, self.d, idx)

    def __getitem__(self, idx):
        return Fraction(self.nums[self.offset(idx)], self.den)

    def indices(self):
        return product(range(self.d), repeat=self.n)

    def __repr__(self):
        return f"Tensor(n={self.n}, d={self.d}, nonzero={sum(1 for a in self.nums if a)})"

    def scale(self, factor: COEFFICIENT):
        nums = [factor.numerator * a for a in self.nums]
        return Tensor.from_integers(self.n, self.d, nums, factor.denominator * self.den)

    def reduce_mod(self, p: PRIME):
        """Entrywise residues modulo a prime p.  Every reduction of a state
        starts here, so p is checked here (``check_primes``): anything but
        a prime in [5, MAX_PRIME] raises UnsupportedPrimeError.  Raises
        BadReductionError when p divides the denominator, naming the first
        coefficient whose denominator it divides, as str excerpts it
        (``_excerpt``)."""
        check_primes((p,))
        if self.den % p == 0:
            bad = next(c for c in self.coeffs if c.denominator % p == 0)
            raise BadReductionError(p, f"denominator divisible by {p} for {_excerpt(bad, str)}")
        inv = pow(self.den, -1, p)
        return [a * inv % p for a in self.nums]


#: The factors of a SloccOperator.
MATRICES = each(lambda v: isinstance(v, Matrix), "Matrices")


@dataclass(frozen=True)
class SloccOperator:
    """A tuple of n invertible d x d rational matrices acting locally.

    The factors are checked once, here: they must be square rational
    matrices of one size (else ValueError), of size at most 256 (else
    SchemaError, ``linalg._check_local_dimension``, before any
    elimination), and each invertible (else SingularOperatorError), which
    one integer elimination per factor decides.  Each factor is kept
    cleared to integer rows over its denominator, the form ``apply_slocc``
    contracts."""

    factors: MATRICES
    _cleared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("an operator needs at least one factor")
        d = factors[0].rows
        for f in factors:
            if f.p is not None or f.rows != d or f.cols != d:
                raise ValueError("factors must be square rational matrices of equal size")
        _check_local_dimension(d)
        cleared = tuple(clear_denominators(f.entries) for f in factors)
        if any(_bareiss(rows, d)[0] != d for rows, _ in cleared):
            raise SingularOperatorError("operator factor is singular")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_cleared", cleared)

    @property
    def n(self):
        return len(self.factors)

    @property
    def d(self):
        return self.factors[0].rows

    @classmethod
    def random(cls, n: FORMAT, d: FORMAT, bound: DRAW_BOUND, seed: int):
        """n independent deterministic invertible factors; d and bound as
        ``random_invertible`` asks.  An (n, d) with no state (a d**n over
        MAX_COEFFICIENTS) raises SchemaError before the first draw
        (``_check_state_size``)."""
        _check_state_size(n, d)
        return cls([random_invertible(d, bound, seed * n + k) for k in range(n)])


DOCUMENT = Kind(lambda v: isinstance(v, (str, bytes, bytearray)), "a str or bytes")


def parse_state(document: DOCUMENT):
    """Parse a state file (str, or bytes in UTF-8) into a Tensor.

    The document is JSON: {"n": int, "d": int, "entries": [{"idx": [...],
    "c": "num" or "num/den"}]}.  Coefficients are exact decimal-free
    rationals: the whole string is an optional minus sign, ASCII digits
    and, optionally, a slash and a denominator of ASCII digits that starts
    with 1-9.  Duplicate indices and out-of-range indices are rejected, and
    so is a state with a numerator or denominator of more than
    MAX_COEFFICIENT_DIGITS digits, as written (leading zeros of a numerator
    not counted) or over the common denominator, before any arithmetic on
    the state.  An error message echoes a malformed value only as a short
    excerpt (``_excerpt``).

    Two routes give the same Tensor.  The canonical document, the compact
    form ``state_to_json`` writes of an integer state, with JSON whitespace
    around it, is read in one pattern pass (``_read_canonical``).  Every
    other document, and a canonical one that breaks a rule above, goes
    through the checked path (``_parse_checked``), which alone raises the
    errors.
    """
    t = _read_canonical(document)
    return _parse_checked(document) if t is None else t


@lru_cache(maxsize=8)
def _index_offsets(n, d):
    """For format (n, d), as the canonical document writes indices: the
    dict ``_read_canonical`` fills with {"i,j,...": row-major offset} for
    each index it has read (at most d**n entries), and {"i": i} for the
    numbers an index may hold.  Kept for the last 8 formats read."""
    return {}, {str(i): i for i in range(d)}


def _canonical_offset(idx, n, d, values):
    """The row-major offset of an index string, or None unless it is
    written as state_to_json writes it: n numbers from ``values``."""
    parts = idx.split(",")
    if len(parts) != n or None in (indices := list(map(values.get, parts))):
        return None
    off = 0
    for i in indices:
        off = off * d + i
    return off


def _read_canonical(document):
    """The Tensor of a canonical document (``_CANONICAL_RE``) that keeps
    every rule of ``parse_state``, or None for any other document.  Never
    raises: the checked path reads what this leaves and names its errors."""
    if isinstance(document, bytes):
        if not document.isascii():  # a canonical document is ASCII
            return None
        document = document.decode("ascii")
    if not isinstance(document, str) or (match := _CANONICAL_RE.match(document)) is None:
        return None
    n, d = int(match[1]), int(match[2])
    if n < 2 or d < 2 or power_exceeds(d, n, MAX_COEFFICIENTS):
        return None
    (offsets, values), digits, entries = _index_offsets(n, d), MAX_COEFFICIENT_DIGITS, match[3]
    nums, seen = [0] * d**n, set()
    # the pattern matched, so the entries split at their fixed punctuation
    pairs = (e.split('],"c":"') for e in entries[8:-2].split('"},{"idx":[')) if entries else ()
    for idx, c in pairs:
        if (off := offsets.get(idx)) is None:
            if (off := _canonical_offset(idx, n, d, values)) is None:
                return None
            offsets[idx] = off
        if off in seen or len(c) > digits:
            return None
        seen.add(off)
        nums[off] = int(c)
    return Tensor.from_integers(n, d, nums)


def _parse_checked(document):
    """``parse_state`` for any document, checked entry by entry; the only
    source of its errors."""
    try:
        doc = json.loads(document.decode("utf-8") if isinstance(document, bytes) else document)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and too deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"n", "d", "entries"}:
        raise SchemaError('top level must be {"n", "d", "entries"}')
    n, d, entries = doc["n"], doc["d"], doc["entries"]
    if type(n) is not int or type(d) is not int:
        raise SchemaError("n and d must be integers")
    if n < 2 or d < 2:
        raise SchemaError("need n >= 2 and d >= 2")
    _check_state_size(n, d)
    if not isinstance(entries, list):
        raise SchemaError("entries must be a list")
    digits = MAX_COEFFICIENT_DIGITS
    seen, dens = {}, {}  # offset -> numerator; offset -> denominator > 1; in lowest terms
    for entry in entries:
        if not isinstance(entry, dict) or len(entry) != 2 or "idx" not in entry or "c" not in entry:
            raise SchemaError('each entry must be {"idx", "c"}')
        idx = entry["idx"]
        if type(idx) is not list or len(idx) != n or set(map(type, idx)) != {int}:
            raise SchemaError(f"idx must be a list of {n} integers")
        off = Tensor._offset_static(n, d, idx)
        if off in seen:
            raise DuplicateIndexError(f"index {idx} appears twice")
        c = entry["c"]
        match = _RATIONAL_RE.match(c) if isinstance(c, str) else None
        if match is None:
            raise SchemaError(f"coefficient {_excerpt(c)} is not a decimal-free rational string")
        num, den = match.groups()
        sign, num = "-" if num[0] == "-" else "", num.lstrip("-0") or "0"
        if len(num) > digits or (den is not None and len(den) > digits):
            raise SchemaError(f"coefficient at {idx} has more than {digits} digits")
        a = int(sign + num)
        if den is not None:
            b = int(den)
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                dens[off] = b
        seen[off] = a
    limit, den, nums = 10**digits, 1, [0] * d**n
    too_long = f"a coefficient over the common denominator has more than {digits} digits"
    for b in dens.values():
        if (den := lcm(den, b)) >= limit:
            raise SchemaError(too_long)
    for off, a in seen.items():
        nums[off] = a if den == 1 else a * (den // dens.get(off, 1))
    if den != 1 and any(abs(a) >= limit for a in nums):
        raise SchemaError(too_long)
    return Tensor.from_integers(n, d, nums, den)


def _frac_str(x):
    """A rational (Fraction or int) as "num" or "num/den"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def state_to_json(t: Tensor):
    """Canonical serialization: entries sorted by index, zeros omitted."""
    entries = [
        {"idx": list(idx), "c": _frac_str(Fraction(a, t.den))}
        for idx, a in zip(t.indices(), t.nums)
        if a
    ]
    return json.dumps({"n": t.n, "d": t.d, "entries": entries}, separators=(",", ":"))


def flatten_last(t: Tensor):
    """Read the state as a d**(n-1) x d matrix.

    Column k is the slice with last index k, vectorized row-major; this is
    the state viewed as a map from the dual of the last factor into the
    tensor product of the remaining factors.
    """
    coeffs = t.coeffs
    return Matrix([coeffs[r : r + t.d] for r in range(0, len(coeffs), t.d)], cols=t.d)


def check_flattening_cost(t: Tensor):
    """Raise WorkLimitError when d**(n+1) exceeds MAX_FLATTENING_COST: the
    cost of an exact flattening grows with it, and every route from a state
    to its model, exact or over F_p, checks it before any elimination."""
    cost = t.d ** (t.n + 1)
    if cost > MAX_FLATTENING_COST:
        raise WorkLimitError(
            f"an exact flattening of format (n={t.n}, d={t.d}) costs {cost} "
            f"cell updates, over the limit of {MAX_FLATTENING_COST}"
        )


def _slice_elimination(t):
    """``linalg._bareiss`` of the state's slice numerators t.nums[k::d], the
    rows of its flattening over Q up to the denominator: (rank, rows, last
    pivot, sign).  The one elimination of a state over Z, which
    ``flattening_basis`` and ``geometry._slice_pivot`` read; the
    flattening's cost is checked first (``check_flattening_cost``)."""
    check_flattening_cost(t)
    return _bareiss([t.nums[k :: t.d] for k in range(t.d)], t.d ** (t.n - 1))


def flattening_basis(t: Tensor):
    """(rows, den): the canonical basis of the flattening image as integer
    rows over one denominator, rows / den being the RREF basis, in lowest
    terms with den > 0: the package's one RREF over Q.  The rows come from
    one fraction-free Gauss-Jordan pass over the state's slices along the
    last axis (``linalg._bareiss``), whose rows are the RREF times its last
    pivot, divided by the gcd of that pivot and all their entries; there
    are as many as the image has dimensions.

    Raises WorkLimitError, before any elimination, when d**(n+1) exceeds
    MAX_FLATTENING_COST (``_slice_elimination``).
    """
    rank, m, pivot, _ = _slice_elimination(t)
    g = gcd(pivot, *(x for row in m[:rank] for x in row))
    if pivot < 0:
        g = -g
    return [[x // g for x in row] for row in m[:rank]], pivot // g


def flattening_image(t: Tensor):
    """Column span of flatten_last(t) inside Q^(d**(n-1)), as its canonical
    basis: a Matrix of at most d rows, flattening_basis(t) as Fractions."""
    rows, den = flattening_basis(t)
    basis = [[Fraction(x, den) for x in row] for row in rows]
    return Matrix(basis, cols=t.d ** (t.n - 1))


def reduced_flattening_image(t: Tensor, p: PRIME):
    """The flattening image over F_p, reduced on the state side, as its
    canonical basis: a Matrix of the nonzero RREF rows
    (``_flattening_rows``), as ``Matrix.row_space`` would give them.

    Reducing the tensor first and spanning over F_p is the saturated
    reduction of the subspace: denominators introduced by the canonical
    rational basis cannot produce spurious bad primes.  Genuine state
    denominators still raise BadReductionError.  Every reduction of a state
    passes through ``Tensor.reduce_mod``, which checks p: anything but a
    prime >= 5 raises UnsupportedPrimeError.  ``geometry._reduced_model``
    eliminates its residues by the same rule.
    """
    rows = _flattening_rows(t.reduce_mod(p), t.d, p)
    return Matrix._trusted(rows, t.d ** (t.n - 1), p)


def _flattening_rows(residues, d, p):
    """The canonical basis of the span of a state's slices over F_p: the
    nonzero rows of the RREF (``_eliminate``) of the slices residues[k::d]
    of its residues (``Tensor.reduce_mod``), as tuples of ints in [0, p).
    There are as many as the reduced flattening's rank."""
    slices = [residues[k::d] for k in range(d)]
    rank = _eliminate(slices, len(residues) // d, p)[0]
    return tuple(map(tuple, slices[:rank]))


def _contract(tensor, x):
    """Contract the first axis of a flat row-major tensor with x."""
    inner = len(tensor) // len(x)
    acc = None
    for i, xi in enumerate(x):
        if xi:
            part = tensor[i * inner : (i + 1) * inner]
            if acc is None:
                acc = part if xi == 1 else [xi * v for v in part]
            else:
                acc = [a + xi * v for a, v in zip(acc, part)]
    return acc if acc is not None else [0] * inner


def _rotate(tensor, d):
    """Move the first axis, of length d, of a flat row-major tensor last."""
    inner = len(tensor) // d
    return [x for r in range(inner) for x in tensor[r::inner]]


def apply_slocc(t: Tensor, g: SloccOperator):
    """Act by a local operator: coefficients transform by one factor per axis.

    The numerators are contracted over the integers with each integer row
    of the first axis's factor (cleared and checked when the operator was
    built), and the new axis is rotated last, once per factor; the
    denominators multiply.
    """
    if g.n != t.n or g.d != t.d:
        raise ValueError("operator format mismatch")
    nums, den = t.nums, t.den
    for rows, f_den in g._cleared:
        nums = _rotate([x for row in rows for x in _contract(nums, row)], t.d)
        den *= f_den
    return Tensor.from_integers(t.n, t.d, nums, den)


def random_state(n: FORMAT, d: FORMAT, bound: DRAW_BOUND, seed: int):
    """i.i.d. integer coefficients in [-bound, bound], fixed by the seed.
    The bound must be at least 1 and, so that parse_state reads the state
    back, have at most MAX_COEFFICIENT_DIGITS digits; else ValueError
    (``linalg.DRAW_BOUND``)."""
    _check_state_size(n, d)
    rng = random.Random(seed)
    return Tensor.from_integers(n, d, [rng.randint(-bound, bound) for _ in range(d**n)])


def tensor_product(s: Tensor, t: Tensor):
    """Tensor product of two states with the same local dimension."""
    if s.d != t.d:
        raise ValueError("local dimensions differ")
    _check_state_size(s.n + t.n, s.d)
    nums = [a * b for a in s.nums for b in t.nums]
    return Tensor.from_integers(s.n + t.n, s.d, nums, s.den * t.den)


def basis_state(n: FORMAT, d: FORMAT, idx: INTS):
    """The separable basis state with a single unit coefficient."""
    return Tensor.from_entries(n, d, {tuple(idx): 1})


def ghz(n: FORMAT, d: FORMAT):
    """Sum of the n-fold repeated basis states |k...k> for k < d."""
    _check_state_size(n, d)
    return Tensor.from_entries(n, d, {(k,) * n: 1 for k in range(d)})


def w_state(n: FORMAT):
    """Sum over basis states with a single 1 among zeros (qubits)."""
    _check_state_size(n, 2)
    entries = {}
    for k in range(n):
        idx = [0] * n
        idx[k] = 1
        entries[tuple(idx)] = 1
    return Tensor.from_entries(n, 2, entries)


def four_qubit_generic_family(a: COEFFICIENT, b: COEFFICIENT, c: COEFFICIENT, e: COEFFICIENT):
    """The diagonal 4-qubit family spanning the generic orbits.

    a(|0000>+|1111>) + b(|0011>+|1100>) + c(|0101>+|1010>) + e(|0110>+|1001>).
    """
    pairs = {
        (0, 0, 0, 0): a, (1, 1, 1, 1): a,
        (0, 0, 1, 1): b, (1, 1, 0, 0): b,
        (0, 1, 0, 1): c, (1, 0, 1, 0): c,
        (0, 1, 1, 0): e, (1, 0, 0, 1): e,
    }
    return Tensor.from_entries(4, 2, pairs)


guard(globals(), Tensor, SloccOperator)
