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

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import random

from .errors import (
    BadReductionError,
    DuplicateIndexError,
    IndexRangeError,
    SchemaError,
    SingularOperatorError,
    WorkLimitError,
)
from .linalg import (
    Matrix,
    check_primes,
    clear_denominators,
    integer_rref,
    random_invertible,
)

_RATIONAL_RE = re.compile(r"^(-?)(\d+)(?:/([1-9]\d*))?$")

#: Most coefficients d**n a state may have.
MAX_COEFFICIENTS = 2**16

#: Most cell updates d**(n+1) an exact flattening may cost: eliminating its
#: d integer rows of d**(n-1) entries takes about d updates per cell.
#: (2,32) costs 32,768 and passes; (2,64) costs 262,144 and is refused.
MAX_FLATTENING_COST = 2**16

#: Most decimal digits parse_state accepts in a numerator or denominator of
#: a coefficient, as written and once the state is over its common
#: denominator in lowest terms.  The largest number a (3,3) report prints
#: has about 36 digits per digit of the state, so 100 digits keep every
#: report under Python's 4,300-digit limit on int-to-string conversion.
MAX_COEFFICIENT_DIGITS = 100


def _check_state_size(n, d):
    """Raise SchemaError when a state of n factors of dimension d would
    exceed MAX_COEFFICIENTS entries.  With d >= 2, any n of at least
    MAX_COEFFICIENTS.bit_length() is too large, and so is any d above
    MAX_COEFFICIENTS once n >= 1, so d**n is never computed for a larger n
    or d.  The message prints neither, so no huge one meets int-to-string
    conversion."""
    d, n = min(d, MAX_COEFFICIENTS + 1), min(n, MAX_COEFFICIENTS.bit_length())
    if d >= 2 and d**n > MAX_COEFFICIENTS:
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

    def __init__(self, n, d, coeffs):
        (nums,), den = clear_denominators([[Fraction(c) for c in coeffs]])
        self._set(n, d, nums, den)

    @classmethod
    def from_integers(cls, n, d, nums, den=1):
        """The tensor with coefficients nums[i] / den (den nonzero)."""
        t = cls.__new__(cls)
        t._set(n, d, list(nums), den)
        return t

    def _set(self, n, d, nums, den):
        if n < 2 or d < 2:
            raise ValueError("need n >= 2 and d >= 2")
        # d**n exceeds size whenever d or n does, so it is formed only for
        # small d and n, and it is never printed
        size = len(nums)
        if d > size or n > size.bit_length() or d**n != size:
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
    def from_entries(cls, n, d, entries):
        """Build from {index tuple: coefficient}; unspecified entries are 0."""
        _check_state_size(n, d)
        coeffs = [0] * d**n
        for idx, c in entries.items():
            coeffs[cls._offset_static(n, d, idx)] = c
        return cls(n, d, coeffs)

    @staticmethod
    def _offset_static(n, d, idx):
        """Row-major offset of an index tuple; IndexRangeError (an
        IndexError) when an index lies outside [0, d)."""
        if len(idx) != n:
            raise ValueError("index arity mismatch")
        off = 0
        for i in idx:
            if not 0 <= i < d:
                raise IndexRangeError(f"index {list(idx)} out of range for d={d}")
            off = off * d + i
        return off

    def offset(self, idx):
        return self._offset_static(self.n, self.d, idx)

    def __getitem__(self, idx):
        return Fraction(self.nums[self.offset(idx)], self.den)

    def indices(self):
        return product(range(self.d), repeat=self.n)

    def __repr__(self):
        return f"Tensor(n={self.n}, d={self.d}, nonzero={sum(1 for a in self.nums if a)})"

    def scale(self, factor):
        f = Fraction(factor)
        nums = [f.numerator * a for a in self.nums]
        return Tensor.from_integers(self.n, self.d, nums, f.denominator * self.den)

    def add(self, other):
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("format mismatch")
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return Tensor.from_integers(self.n, self.d, nums, self.den * other.den)

    def reduce_mod(self, p):
        """Entrywise residues modulo a prime p.  Every reduction of a state
        starts here, so p is checked here (``check_primes``): anything but
        a prime in [5, MAX_PRIME] raises UnsupportedPrimeError.  Raises
        BadReductionError when p divides the denominator, naming the first
        coefficient whose denominator it divides."""
        check_primes((p,))
        if self.den % p == 0:
            bad = next(c for c in self.coeffs if c.denominator % p == 0)
            raise BadReductionError(p, f"denominator divisible by {p} for {bad}")
        inv = pow(self.den, -1, p)
        return [a * inv % p for a in self.nums]


@dataclass(frozen=True)
class SloccOperator:
    """A tuple of n invertible d x d rational matrices acting locally.

    The factors are checked once, here: they must be square rational
    matrices of one size (else ValueError) and each invertible (else
    SingularOperatorError), which one integer elimination per factor
    decides.  Each factor is kept cleared to integer rows over its
    denominator, the form ``apply_slocc`` contracts."""

    factors: tuple
    _cleared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("an operator needs at least one factor")
        d = factors[0].rows
        for f in factors:
            if f.p is not None or f.rows != d or f.cols != d:
                raise ValueError("factors must be square rational matrices of equal size")
        cleared = tuple(clear_denominators(f.entries) for f in factors)
        if any(integer_rref(rows, d)[0] != d for rows, _ in cleared):
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
    def random(cls, n, d, bound, seed):
        """n independent deterministic invertible factors."""
        return cls([random_invertible(d, bound, seed * n + k) for k in range(n)])

    def compose(self, other):
        """Operator equal to applying ``other`` first, then ``self``."""
        return SloccOperator([a.mul(b) for a, b in zip(self.factors, other.factors)])


def parse_state(document):
    """Parse a state file into a Tensor.

    The document is JSON: {"n": int, "d": int, "entries": [{"idx": [...],
    "c": "num" or "num/den"}]}.  Coefficients are exact decimal-free
    rationals; duplicate indices and out-of-range indices are rejected, and
    so is a state with a numerator or denominator of more than
    MAX_COEFFICIENT_DIGITS digits, as written or over the common
    denominator, before any arithmetic on the state.
    """
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
        if type(idx) is not list or len(idx) != n:
            raise SchemaError(f"idx must be a list of {n} integers")
        off = 0
        for i in idx:
            if type(i) is not int:
                raise SchemaError(f"idx must be a list of {n} integers")
            off = off * d + i
        if min(idx) < 0 or max(idx) >= d:
            raise IndexRangeError(f"index {idx} out of range for d={d}")
        if off in seen:
            raise DuplicateIndexError(f"index {idx} appears twice")
        c = entry["c"]
        match = _RATIONAL_RE.match(c) if isinstance(c, str) else None
        if match is None:
            raise SchemaError(f"coefficient {c!r} is not a decimal-free rational string")
        sign, num, den = match.groups()
        if len(num.lstrip("0")) > digits or (den is not None and len(den) > digits):
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


def state_to_json(t):
    """Canonical serialization: entries sorted by index, zeros omitted."""
    entries = [
        {"idx": list(idx), "c": _frac_str(Fraction(a, t.den))}
        for idx, a in zip(t.indices(), t.nums)
        if a
    ]
    return json.dumps({"n": t.n, "d": t.d, "entries": entries}, separators=(",", ":"))


def state_hash(t):
    """Hex digest of the canonical serialization."""
    return hashlib.sha256(state_to_json(t).encode("utf-8")).hexdigest()


def flatten_last(t):
    """Read the state as a d**(n-1) x d matrix.

    Column k is the slice with last index k, vectorized row-major; this is
    the state viewed as a map from the dual of the last factor into the
    tensor product of the remaining factors.
    """
    coeffs = t.coeffs
    return Matrix([coeffs[r : r + t.d] for r in range(0, len(coeffs), t.d)], cols=t.d)


def flattening_basis(t):
    """(rows, den): the canonical basis of the flattening image as integer
    rows over one denominator, rows / den being the RREF basis, in lowest
    terms with den > 0.  The rows come from one fraction-free Gauss-Jordan
    pass over the state's slices along the last axis (``integer_rref``);
    there are as many as the image has dimensions.

    Raises WorkLimitError, before any elimination, when d**(n+1) exceeds
    MAX_FLATTENING_COST: the exact elimination's cost grows with it.
    """
    cost = t.d ** (t.n + 1)
    if cost > MAX_FLATTENING_COST:
        raise WorkLimitError(
            f"an exact flattening of format (n={t.n}, d={t.d}) costs {cost} "
            f"cell updates, over the limit of {MAX_FLATTENING_COST}"
        )
    return integer_rref([t.nums[k :: t.d] for k in range(t.d)], t.d ** (t.n - 1))[1:]


def flattening_image(t):
    """Column span of flatten_last(t) inside Q^(d**(n-1)), as its canonical
    basis: a Matrix of at most d rows, flattening_basis(t) as Fractions."""
    rows, den = flattening_basis(t)
    basis = [[Fraction(x, den) for x in row] for row in rows]
    return Matrix(basis, cols=t.d ** (t.n - 1))


def reduced_flattening_image(t, p):
    """The flattening image over F_p, reduced on the state side, as its
    canonical basis (``Matrix.row_space``).

    Reducing the tensor first and spanning over F_p is the saturated
    reduction of the subspace: denominators introduced by the canonical
    rational basis cannot produce spurious bad primes.  Genuine state
    denominators still raise BadReductionError.  Every reduction of a model
    over Q passes through here, and every reduction of a state through
    ``Tensor.reduce_mod``, which checks p: anything but a prime >= 5 raises
    UnsupportedPrimeError.
    """
    residues = t.reduce_mod(p)
    slices = [residues[k :: t.d] for k in range(t.d)]
    return Matrix(slices, cols=t.d ** (t.n - 1), p=p).row_space()


def apply_slocc(t, g):
    """Act by a local operator: coefficients transform by one factor per axis.

    The numerators are contracted over the integers, one axis at a time,
    with each factor's integer rows (cleared and checked when the operator
    was built), and the denominators multiply.
    """
    if g.n != t.n or g.d != t.d:
        raise ValueError("operator format mismatch")
    d, n = t.d, t.n
    nums, den = t.nums, t.den
    for axis, (rows, f_den) in enumerate(g._cleared):
        stride = d ** (n - 1 - axis)
        new = []
        for base in range(0, len(nums), d * stride):
            parts = (nums[i : i + stride] for i in range(base, base + d * stride, stride))
            columns = list(zip(*parts))
            for row in rows:
                new.extend(sum(map(mul, row, column)) for column in columns)
        nums, den = new, den * f_den
    return Tensor.from_integers(n, d, nums, den)


def permute_factors(t, perm):
    """Relabel tensor factors: new[(i_0,...)] = old[(i_perm[0],...)].

    The construction distinguishes the last factor, and nothing in the
    underlying symmetry argument picks a canonical one, so callers choose.
    """
    if sorted(perm) != list(range(t.n)):
        raise ValueError("not a permutation of the factors")
    nums = [t.nums[t.offset([idx[perm[k]] for k in range(t.n)])] for idx in t.indices()]
    return Tensor.from_integers(t.n, t.d, nums, t.den)


def random_state(n, d, bound, seed):
    """i.i.d. integer coefficients in [-bound, bound], fixed by the seed.
    The bound must be at least 1 and, so that parse_state reads the state
    back, have at most MAX_COEFFICIENT_DIGITS digits; else ValueError."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound >= 10**MAX_COEFFICIENT_DIGITS:
        raise ValueError(f"bound must have at most {MAX_COEFFICIENT_DIGITS} digits")
    _check_state_size(n, d)
    rng = random.Random(seed)
    return Tensor.from_integers(n, d, [rng.randint(-bound, bound) for _ in range(d**n)])


def tensor_product(s, t):
    """Tensor product of two states with the same local dimension."""
    if s.d != t.d:
        raise ValueError("local dimensions differ")
    _check_state_size(s.n + t.n, s.d)
    nums = [a * b for a in s.nums for b in t.nums]
    return Tensor.from_integers(s.n + t.n, s.d, nums, s.den * t.den)


def basis_state(n, d, idx):
    """The separable basis state with a single unit coefficient."""
    return Tensor.from_entries(n, d, {tuple(idx): 1})


def ghz(n, d):
    """Sum of the n-fold repeated basis states |k...k> for k < d."""
    return Tensor.from_entries(n, d, {(k,) * n: 1 for k in range(d)})


def w_state(n):
    """Sum over basis states with a single 1 among zeros (qubits)."""
    entries = {}
    for k in range(n):
        idx = [0] * n
        idx[k] = 1
        entries[tuple(idx)] = 1
    return Tensor.from_entries(n, 2, entries)


def four_qubit_generic_family(a, b, c, e):
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
