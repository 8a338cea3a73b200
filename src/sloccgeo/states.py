"""n-qudit states as dense rational tensors, plus the local group action.

A state of n qudits with local dimension d is a dense array of d**n exact
rational coefficients in row-major order (last index fastest).  The last
tensor factor is the distinguished one: ``flatten_last`` reads the state as
a linear map from the dual of the last factor into the product of the rest,
and ``flattening_image`` is the column span of that map.
"""

import hashlib
import json
import re
from fractions import Fraction
from itertools import product

import random

from .errors import (
    DuplicateIndexError,
    SchemaError,
    SingularOperatorError,
    WorkLimitError,
)
from .linalg import Matrix, Subspace, reduce_scalar

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

#: Most coefficients d**n a state may have.
MAX_COEFFICIENTS = 2**16

#: Most cell updates d**(n+1) an exact flattening may cost: eliminating its
#: d rows of d**(n-1) Fractions takes about d updates per cell.  (2,32)
#: costs 32,768 and passes; (2,64) costs 262,144 and is refused.
MAX_FLATTENING_COST = 2**16


def _check_state_size(n, d):
    """Raise SchemaError when a state of n factors of dimension d would
    exceed MAX_COEFFICIENTS entries.  With d >= 2, any n of at least
    MAX_COEFFICIENTS.bit_length() is too large, so d**n is never computed
    for a larger n."""
    if d >= 2 and d ** min(n, MAX_COEFFICIENTS.bit_length()) > MAX_COEFFICIENTS:
        raise SchemaError(
            f"format (n={n}, d={d}) exceeds the limit of {MAX_COEFFICIENTS} coefficients"
        )


class Tensor:
    """Immutable dense tensor of Fractions with equal local dimensions."""

    __slots__ = ("n", "d", "coeffs")

    def __init__(self, n, d, coeffs):
        if n < 2 or d < 2:
            raise ValueError("need n >= 2 and d >= 2")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != d**n:
            raise ValueError(f"expected {d**n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def from_entries(cls, n, d, entries):
        """Build from {index tuple: coefficient}; unspecified entries are 0."""
        _check_state_size(n, d)
        coeffs = [Fraction(0)] * d**n
        for idx, c in entries.items():
            coeffs[cls._offset_static(n, d, idx)] = Fraction(c)
        return cls(n, d, coeffs)

    @staticmethod
    def _offset_static(n, d, idx):
        if len(idx) != n:
            raise ValueError("index arity mismatch")
        off = 0
        for i in idx:
            if not 0 <= i < d:
                raise IndexError(f"index {list(idx)} out of range for d={d}")
            off = off * d + i
        return off

    def offset(self, idx):
        return self._offset_static(self.n, self.d, idx)

    def __getitem__(self, idx):
        return self.coeffs[self.offset(idx)]

    def indices(self):
        return product(range(self.d), repeat=self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and (self.n, self.d) == (other.n, other.d)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.d, self.coeffs))

    def __repr__(self):
        nonzero = sum(1 for c in self.coeffs if c != 0)
        return f"Tensor(n={self.n}, d={self.d}, nonzero={nonzero})"

    def scale(self, factor):
        return Tensor(self.n, self.d, [factor * c for c in self.coeffs])

    def add(self, other):
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("format mismatch")
        return Tensor(self.n, self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def reduce_mod(self, p):
        """Entrywise residues; raises BadReductionError on a bad denominator."""
        return [reduce_scalar(c, p) for c in self.coeffs]


class SloccOperator:
    """A tuple of n invertible d x d rational matrices acting locally."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        d = factors[0].rows
        for f in factors:
            if f.p is not None or f.rows != d or f.cols != d:
                raise ValueError("factors must be square rational matrices of equal size")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("SloccOperator is immutable")

    @property
    def n(self):
        return len(self.factors)

    @property
    def d(self):
        return self.factors[0].rows

    @classmethod
    def random(cls, n, d, bound, seed):
        """n independent deterministic invertible factors."""
        from .linalg import random_invertible

        return cls([random_invertible(d, bound, seed * n + k) for k in range(n)])

    def compose(self, other):
        """Operator equal to applying ``other`` first, then ``self``."""
        return SloccOperator([a.mul(b) for a, b in zip(self.factors, other.factors)])


def parse_state(document):
    """Parse a state file into a Tensor.

    The document is JSON: {"n": int, "d": int, "entries": [{"idx": [...],
    "c": "num" or "num/den"}]}.  Coefficients are exact decimal-free
    rationals; duplicate indices and out-of-range indices are rejected.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"n", "d", "entries"}:
        raise SchemaError('top level must be {"n", "d", "entries"}')
    n, d, entries = doc["n"], doc["d"], doc["entries"]
    if not isinstance(n, int) or not isinstance(d, int) or isinstance(n, bool) or isinstance(d, bool):
        raise SchemaError("n and d must be integers")
    if n < 2 or d < 2:
        raise SchemaError("need n >= 2 and d >= 2")
    _check_state_size(n, d)
    if not isinstance(entries, list):
        raise SchemaError("entries must be a list")
    seen = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"idx", "c"}:
            raise SchemaError('each entry must be {"idx", "c"}')
        idx = entry["idx"]
        if (
            not isinstance(idx, list)
            or len(idx) != n
            or any(not isinstance(i, int) or isinstance(i, bool) for i in idx)
        ):
            raise SchemaError(f"idx must be a list of {n} integers")
        if any(not 0 <= i < d for i in idx):
            raise IndexError(f"index {idx} out of range for d={d}")
        key = tuple(idx)
        if key in seen:
            raise DuplicateIndexError(f"index {idx} appears twice")
        c = entry["c"]
        if not isinstance(c, str) or not _RATIONAL_RE.match(c):
            raise SchemaError(f"coefficient {c!r} is not a decimal-free rational string")
        seen[key] = Fraction(c)
    return Tensor.from_entries(n, d, seen)


def _coeff_str(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def state_to_json(t):
    """Canonical serialization: entries sorted by index, zeros omitted."""
    entries = [
        {"idx": list(idx), "c": _coeff_str(t[idx])}
        for idx in t.indices()
        if t[idx] != 0
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
    rows = t.d ** (t.n - 1)
    return Matrix(
        [[t.coeffs[r * t.d + k] for k in range(t.d)] for r in range(rows)],
        cols=t.d,
    )


def flattening_image(t):
    """Column span of flatten_last(t) inside Q^(d**(n-1)); dim <= d.

    Raises WorkLimitError, before any elimination, when d**(n+1) exceeds
    MAX_FLATTENING_COST: the exact elimination's cost grows with it.
    """
    cost = t.d ** (t.n + 1)
    if cost > MAX_FLATTENING_COST:
        raise WorkLimitError(
            f"an exact flattening of format (n={t.n}, d={t.d}) costs {cost} "
            f"cell updates, over the limit of {MAX_FLATTENING_COST}"
        )
    return Subspace.from_rows(
        flatten_last(t).transpose().entries, t.d ** (t.n - 1)
    )


def reduced_flattening_image(t, p):
    """The flattening image over F_p, reduced on the state side.

    Reducing the tensor first and spanning over F_p is the saturated
    reduction of the subspace: denominators introduced by the canonical
    rational basis cannot produce spurious bad primes.  Genuine state
    denominators still raise BadReductionError.
    """
    residues = t.reduce_mod(p)
    rows = t.d ** (t.n - 1)
    cols = [
        [residues[r * t.d + k] for r in range(rows)] for k in range(t.d)
    ]
    return Subspace.from_rows(cols, rows, p=p)


def apply_slocc(t, g):
    """Act by a local operator: coefficients transform by one factor per axis."""
    if g.n != t.n or g.d != t.d:
        raise ValueError("operator format mismatch")
    for f in g.factors:
        if f.rank() != t.d:
            raise SingularOperatorError("operator factor is singular")
    coeffs = list(t.coeffs)
    d, n = t.d, t.n
    for axis in range(n):
        a = g.factors[axis]
        stride = d ** (n - 1 - axis)
        new = [Fraction(0)] * len(coeffs)
        for off in range(len(coeffs)):
            j = (off // stride) % d
            base = off - j * stride
            new[off] = sum(a.entries[j][i] * coeffs[base + i * stride] for i in range(d))
        coeffs = new
    return Tensor(n, d, coeffs)


def permute_factors(t, perm):
    """Relabel tensor factors: new[(i_0,...)] = old[(i_perm[0],...)].

    The construction distinguishes the last factor, and nothing in the
    underlying symmetry argument picks a canonical one, so callers choose.
    """
    if sorted(perm) != list(range(t.n)):
        raise ValueError("not a permutation of the factors")
    entries = {}
    for idx in t.indices():
        c = t[tuple(idx[perm[k]] for k in range(t.n))]
        if c != 0:
            entries[idx] = c
    return Tensor.from_entries(t.n, t.d, entries)


def random_state(n, d, bound, seed):
    """i.i.d. integer coefficients in [-bound, bound], fixed by the seed."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_state_size(n, d)
    rng = random.Random(seed)
    return Tensor(n, d, [rng.randint(-bound, bound) for _ in range(d**n)])


def tensor_product(s, t):
    """Tensor product of two states with the same local dimension."""
    if s.d != t.d:
        raise ValueError("local dimensions differ")
    entries = {}
    for i in s.indices():
        a = s[i]
        if a == 0:
            continue
        for j in t.indices():
            b = t[j]
            if b != 0:
                entries[i + j] = a * b
    return Tensor.from_entries(s.n + t.n, s.d, entries)


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
