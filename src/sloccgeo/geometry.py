"""Multiprojective models cut out by a state's flattening image.

A state whose flattening image has full dimension d defines d multilinear
forms on P(V_1) x ... x P(V_{n-1}); their common zero locus is a complete
intersection (a plane-cubic-like curve for (3,3) and (4,2), a surface for
(5,2)).  This module keeps those forms as integer coefficient rows
(``VarietyModel``), eliminates one factor through determinants of the
linear-form matrix, and gathers finite-field smoothness evidence by
exhaustive point enumeration plus Jacobian ranks.  ``MultiForm`` is only
the readable value of a form or a projection; no computation goes through
it.

A model over Q reduces modulo p in one way only: through its source state
(``model_mod_p``).  Points come from one walk over the variable groups
(``enumerate_points``), and the curve formats and their projections are
listed once, in ``CURVE_AXES`` and ``PROJECTION_MONOMIALS``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import log2

from .errors import (
    AllPrimesBadError,
    BadReductionError,
    NotOnVarietyError,
    RankDeficientError,
    UnsupportedFormatError,
    WorkLimitError,
)
from .linalg import DEFAULT_PRIMES, Matrix, check_primes
from .states import flattening_basis, reduced_flattening_image

_GROUP_NAMES = "xyzw"

#: Most prefixes one point sweep may visit: summed over the requested primes
#: in smoothness_scan, per call in enumerate_points.  A full default-prime
#: (5,2) sweep visits 92,624; a (4,3) sweep visits ~10^6 at p = 31 alone.
PREFIX_BUDGET = 200_000

#: Most bits d**n may have in ``section_count`` and ``moduli_dimension``,
#: checked as n*log2(d) before any power is computed.  The formulas hold for
#: every format, but their values must stay cheap to compute and to print:
#: 2^4096 has 1,234 digits, under Python's 4,300-digit limit on
#: int-to-string conversion.
MAX_FORMULA_BITS = 4096

#: Exponent triples of the ternary-cubic monomials, lexicographically
#: descending: x0^3, x0^2*x1, x0^2*x2, x0*x1^2, x0*x1*x2, x0*x2^2, x1^3,
#: x1^2*x2, x1*x2^2, x2^3.
CUBIC_MONOMIALS = tuple(
    sorted(
        ((i, j, 3 - i - j) for i in range(4) for j in range(4 - i)),
        reverse=True,
    )
)

#: Exponent vectors (x0, x1, y0, y1) of the bidegree-(2,2) monomials in
#: three blocks by the y part (y0^2, y0*y1, y1^2), each block ordered
#: x0^2, x0*x1, x1^2: a form reads as A(x)*y0^2 + B(x)*y0*y1 + C(x)*y1^2.
BIQUADRATIC_MONOMIALS = tuple(
    (2 - i, i, 2 - k, k) for k in range(3) for i in range(3)
)

#: Output monomials of the determinantal projection, per format.
PROJECTION_MONOMIALS = {(3, 3): CUBIC_MONOMIALS, (4, 2): BIQUADRATIC_MONOMIALS}

#: The formats whose models are curves with determinantal projections, and
#: the kept axes of each projection.
CURVE_AXES = {(3, 3): ((0,), (1,)), (4, 2): ((0, 1), (0, 2), (1, 2))}


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MultiForm:
    """A multihomogeneous polynomial in groups of variables, as a value.

    Terms map flat exponent tuples (all groups concatenated) to coefficients;
    every term must have the same degree within each variable group.  Over Q
    coefficients are Fractions (p=None); over F_p they are ints in [0, p).
    Forms are built by ``from_multilinear`` (a model's defining forms) and
    ``determinantal_projection``, then read by coefficient, compared and
    printed; the pipeline computes on integer coefficient rows, not on forms.
    """

    group_dims: tuple
    multidegree: tuple
    terms: dict
    p: object

    def __init__(self, group_dims, terms, p=None):
        group_dims = tuple(group_dims)
        nvars = sum(group_dims)
        cleaned = {}
        multidegree = None
        for exps, coeff in terms.items():
            coeff = Fraction(coeff) if p is None else int(coeff) % p
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            deg = self._group_degrees(group_dims, exps)
            if multidegree is None:
                multidegree = deg
            elif deg != multidegree:
                raise ValueError(f"mixed multidegrees {multidegree} and {deg}")
            cleaned[exps] = coeff
        if multidegree is None:
            multidegree = (0,) * len(group_dims)
        object.__setattr__(self, "group_dims", group_dims)
        object.__setattr__(self, "multidegree", multidegree)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "p", p)

    @staticmethod
    def _group_degrees(group_dims, exps):
        degs = []
        pos = 0
        for dim in group_dims:
            degs.append(sum(exps[pos : pos + dim]))
            pos += dim
        return tuple(degs)

    @classmethod
    def from_multilinear(cls, group_dims, vector, p=None):
        """Read a vector in the tensor product of the groups as a form of
        multidegree (1,...,1); the vector is indexed row-major."""
        nvars = sum(group_dims)
        offsets = []
        pos = 0
        for dim in group_dims:
            offsets.append(pos)
            pos += dim
        terms = {}
        for flat, idx in enumerate(product(*(range(d) for d in group_dims))):
            c = vector[flat]
            if c == 0:
                continue
            exps = [0] * nvars
            for g, i in enumerate(idx):
                exps[offsets[g] + i] = 1
            terms[tuple(exps)] = c
        return cls(group_dims, terms, p=p)

    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        zero = 0 if self.p is not None else Fraction(0)
        return self.terms.get(tuple(exps), zero)

    def __hash__(self):
        # terms is a dict, which the generated hash could not hash
        return hash((self.group_dims, self.p, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "MultiForm(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = []
            pos = 0
            for g, dim in enumerate(self.group_dims):
                for i in range(dim):
                    e = exps[pos + i]
                    if e == 1:
                        mono.append(f"{_GROUP_NAMES[g]}{i}")
                    elif e > 1:
                        mono.append(f"{_GROUP_NAMES[g]}{i}^{e}")
                pos += dim
            body = "*".join(mono) if mono else "1"
            bits.append(f"{c}*{body}" if c != 1 or not mono else body)
        return " + ".join(bits)


@dataclass(frozen=True)
class VarietyModel:
    """Multilinear forms on (P^(d-1))^(n-1), kept as integer coefficient
    rows: row k holds form k's coefficients, row-major over the variable
    groups (first group slowest).  Over Q (p None) the forms are the rows
    divided by den, and a model built from a state has the canonical basis
    of its flattening image; over F_p the rows are residues and den is 1.

    A model over Q reduces modulo a prime only through its ``source``
    state (``model_mod_p``); a model built by hand over F_p needs none.
    """

    n: int
    d: int
    rows: tuple
    den: int
    p: object
    source: object = None    # source Tensor, when built from one

    @property
    def groups(self):
        return self.n - 1

    @property
    def forms(self):
        """The rows as MultiForms."""
        dims = (self.d,) * self.groups
        return tuple(
            MultiForm.from_multilinear(dims, [Fraction(x, self.den) for x in row], p=self.p)
            for row in self.rows
        )


def model_mod_p(model, p):
    """The model over F_p, reduced on the state side.

    The rows are those of the source state's flattening image reduced
    modulo p (``reduced_flattening_image``), so denominators of the
    rational canonical basis cannot poison the prime, and p must pass
    ``check_primes``.  A state denominator divisible by p, or a rank drop
    of the reduced flattening (genuine geometric degeneration), raises
    BadReductionError.  A model already over F_p is returned as it is; any
    other model without a source raises ValueError.
    """
    if model.p == p:
        return model
    if model.source is None:
        raise ValueError(f"a model without a source state cannot be reduced modulo {p}")
    basis = reduced_flattening_image(model.source, p)
    if basis.rows < model.d:
        raise BadReductionError(p, f"flattening rank drops modulo {p}")
    return VarietyModel(model.n, model.d, basis.entries, 1, p, model.source)


@dataclass(frozen=True)
class ProjPoint:
    """A point of a product of projective spaces over F_p.

    Each coordinate tuple has its first nonzero entry normalized to 1, so
    representatives are unique and comparable.
    """

    p: int
    coords: tuple

    def __str__(self):
        return " x ".join("[" + ":".join(str(x) for x in c) + "]" for c in self.coords)


@dataclass(frozen=True)
class SmoothnessReport:
    """Per-prime point counts and Jacobian-rank evidence.

    A recorded singular witness is strong evidence against smoothness (and
    proof modulo that prime); an empty sweep is probabilistic evidence only.
    ``bad_primes`` divide a denominator; ``excluded_primes`` divide an exact
    curve discriminant, so the reduction degenerates and says nothing about
    the original model.
    """

    primes: tuple
    point_counts: tuple          # (prime, count) pairs, ascending primes
    bad_primes: tuple
    excluded_primes: tuple
    witnesses: tuple             # (prime, ProjPoint, jacobian rank)
    verdict: str                 # "SingularFound" | "NoSingularPointFound"

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "primes": list(self.primes),
            "point_counts": [[p, c] for p, c in self.point_counts],
            "bad_primes": list(self.bad_primes),
            "excluded_primes": list(self.excluded_primes),
            "witnesses": [
                {"prime": p, "point": [list(c) for c in pt.coords], "rank": r}
                for p, pt, r in self.witnesses
            ],
        }


def _check_formula_format(n, d):
    """ValueError unless n, d >= 2; WorkLimitError when d**n would have
    more than MAX_FORMULA_BITS bits.  Since d >= 2, an n above the limit is
    refused before n*log2(d) is formed, so no huge n meets a float, and the
    message prints neither, so no huge one meets int-to-string conversion."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if n > MAX_FORMULA_BITS or n * log2(d) > MAX_FORMULA_BITS:
        raise WorkLimitError(f"d**n is over the limit of 2**{MAX_FORMULA_BITS}")


def section_count(n, d):
    """Expected dimension of the degree-(1,...,1) section space on the model:
    all multilinear monomials modulo the d defining forms.  Formats whose
    d**n exceeds 2**MAX_FORMULA_BITS raise WorkLimitError."""
    _check_formula_format(n, d)
    return d ** (n - 1) - d


def variety_from_state(t):
    """Build the model cut out by the flattening image.

    Raises RankDeficientError when the image has dimension below d: such a
    state sits outside the generic locus and has no complete-intersection
    model of the expected codimension.
    """
    rows, den = flattening_basis(t)
    if len(rows) != t.d:
        raise RankDeficientError(len(rows), t.d)
    return VarietyModel(t.n, t.d, tuple(map(tuple, rows)), den, None, t)


@cache
def _projection_layout(n, d, kept):
    """Expansion steps for projection_coefficients, one per row.

    A kept monomial takes one variable from each kept group, and row k's
    entry in column l of the matrix of linear forms is a sum over kept
    monomials of a coefficient times the monomial.  det M is expanded one
    row at a time: a partial term is keyed by the columns used so far and
    the product of the monomials chosen, and equal keys merge.  Each step
    is (size, plus, minus): the number of keys after the row, and the
    moves (source key, target key, row position) that add or subtract the
    source value times that row entry.  The sign is that of the Laplace
    expansion, -1 per used column to the right of the new one.  The last
    step's target keys are the indices of PROJECTION_MONOMIALS.
    """
    groups = n - 1
    dropped = next(g for g in range(groups) if g not in kept)
    stride = [d ** (groups - 1 - g) for g in range(groups)]
    monomials = [
        (sum(v * stride[g] for g, v in zip(kept, mono)), mono)
        for mono in product(range(d), repeat=len(kept))
    ]
    index = {m: i for i, m in enumerate(PROJECTION_MONOMIALS[(n, d)])}
    keys, steps = {(0, (0,) * (d * len(kept))): 0}, []
    for k in range(d):
        targets, moves = index if k == d - 1 else {}, ([], [])
        for (used, exps), source in keys.items():
            for l in range(d):
                if used >> l & 1:
                    continue
                sign = (used >> l).bit_count() % 2
                for base, mono in monomials:
                    grown = list(exps)
                    for g, v in enumerate(mono):
                        grown[g * d + v] += 1
                    key = tuple(grown) if k == d - 1 else (used | 1 << l, tuple(grown))
                    target = targets.setdefault(key, len(targets))
                    moves[sign].append((source, target, base + l * stride[dropped]))
        steps.append((len(targets), *map(tuple, moves)))
        keys = targets
    return tuple(steps)


def projection_coefficients(rows, n, d, kept):
    """Coefficients of the determinantal projection of d coefficient rows.

    Row k holds form k's coefficients, row-major over the n-1 variable
    groups.  The matrix of linear forms M[k][l] = df_k/dz_l (z the dropped
    group) has entries linear in each kept group, and det M is expanded
    row by row with equal partial terms merged (``_projection_layout``):
    a (3,3) projection takes 117 products, a (4,2) one 40.  Integer rows
    give integer coefficients, in PROJECTION_MONOMIALS order: 10 for a
    (3,3) cubic, 9 for a (4,2) form of bidegree (2,2).
    """
    acc = (1,)
    for row, (size, plus, minus) in zip(rows, _projection_layout(n, d, kept)):
        nxt = [0] * size
        for source, target, pos in plus:
            nxt[target] += acc[source] * row[pos]
        for source, target, pos in minus:
            nxt[target] -= acc[source] * row[pos]
        acc = nxt
    return acc


def determinantal_projection(model, kept_axes):
    """Eliminate one variable group through the determinant of the matrix
    of linear forms.

    For (3,3) keep one axis and get a ternary cubic; for (4,2) keep two and
    get a form of bidegree (2,2).  The kept axes must be listed for the
    format in CURVE_AXES, else UnsupportedFormatError.  The matrix entry
    (k, j) is the partial derivative of form k with respect to variable j
    of the dropped group.  The coefficients come from
    ``projection_coefficients`` on the model's integer rows; over Q the
    result is divided by den^d.
    """
    kept = tuple(sorted(kept_axes))
    fmt = (model.n, model.d)
    if kept not in CURVE_AXES.get(fmt, ()):
        raise UnsupportedFormatError(f"format {fmt} has no projection keeping axes {kept}")
    coeffs = projection_coefficients(model.rows, model.n, model.d, kept)
    if model.p is None:
        coeffs = [Fraction(c, model.den**model.d) for c in coeffs]
    return MultiForm(
        (model.d,) * len(kept), dict(zip(PROJECTION_MONOMIALS[fmt], coeffs)), p=model.p
    )


def projective_points(dim, p):
    """All normalized representatives of P^(dim-1) over F_p, in a fixed order."""
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=dim - 1 - lead):
            yield prefix + tail


def _normalize_projective(vec, p):
    lead = next((i for i, x in enumerate(vec) if x != 0), None)
    if lead is None:
        return None
    inv = pow(vec[lead], -1, p)
    return tuple(x * inv % p for x in vec)


def _subspace_points(basis_rows, dim, p):
    """Normalized projective points of the row span of an RREF basis."""
    k = len(basis_rows)
    if k == 0:
        return
    for coeff in projective_points(k, p):
        vec = [0] * dim
        for c, row in zip(coeff, basis_rows):
            if c:
                for i, x in enumerate(row):
                    vec[i] = (vec[i] + c * x) % p
        yield _normalize_projective(vec, p)


def _check_prefix_budget(d, groups, primes):
    """Refuse a sweep whose prefix count, summed over the primes, exceeds
    PREFIX_BUDGET; the count is known before any point is enumerated."""
    total = sum(sum(p**i for i in range(d)) ** (groups - 1) for p in primes)
    if total > PREFIX_BUDGET:
        raise WorkLimitError(
            f"a point sweep of (P^{d - 1})^{groups} at primes "
            f"{list(primes)} visits {total} prefixes, over the budget of "
            f"{PREFIX_BUDGET}"
        )


def _coefficient_tensor(model):
    """The rows of a model as one flat tensor, indexed row-major by one
    variable per group (first group slowest) and then by the form
    (fastest)."""
    return [x for column in zip(*model.rows) for x in column]


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


def _kernel_points(system, d, p):
    """Normalized projective points of the right kernel of one prefix
    system (rows of d unreduced integers), in the order of _subspace_points.

    For d = 2, 3 with d rows, a nonzero determinant mod p means no point,
    and a rank d-1 system yields its one point directly: (v, -u) for a
    nonzero row (u, v) when d = 2, a nonzero cross product of two rows when
    d = 3.  Every other system goes through Matrix.kernel.
    """
    if len(system) == d and d in (2, 3):
        if _det(system) % p:
            return ()
        if d == 2:
            candidates = [(v, -u) for u, v in system]
        else:
            r0, r1, r2 = system
            candidates = (_cross(r1, r2), _cross(r0, r2), _cross(r0, r1))
        for vec in candidates:
            vec = [x % p for x in vec]
            if any(vec):
                return (_normalize_projective(vec, p),)
    kernel = Matrix(system, cols=d, p=p).kernel()
    return tuple(_subspace_points(kernel.entries, d, p))


def _det(rows):
    """Determinant of a 2 x 2 or 3 x 3 matrix given as plain lists."""
    if len(rows) == 2:
        (a, b), (c, e) = rows
        return a * e - b * c
    r0, r1, r2 = rows
    c = _cross(r1, r2)
    return r0[0] * c[0] + r0[1] * c[1] + r0[2] * c[2]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _pencil_roots(a, b, d, p):
    """The t in F_p where det(A + tB) vanishes, A and B the d x d matrices
    with rows a and b (d = 2, 3).  The determinant is a polynomial of
    degree at most d in t: its coefficients come from the rows once, and
    it is evaluated at t = 0..p-1 in one pass; a polynomial that vanishes
    identically mod p has every t as a root."""
    if d == 2:
        (a0, a1), (a2, a3) = a
        (b0, b1), (b2, b3) = b
        c0 = a0 * a3 - a1 * a2
        c1 = (a0 * b3 + b0 * a3 - a1 * b2 - b1 * a2) % p
        c2 = (b0 * b3 - b1 * b2) % p
        c3 = 0
    else:
        x, z = _cross(a[1], a[2]), _cross(b[1], b[2])
        y = [u + v for u, v in zip(_cross(b[1], a[2]), _cross(a[1], b[2]))]
        c0 = _dot(a[0], x)
        c1 = (_dot(b[0], x) + _dot(a[0], y)) % p
        c2 = (_dot(b[0], y) + _dot(a[0], z)) % p
        c3 = _dot(b[0], z) % p
    c0 %= p
    if not (c0 or c1 or c2 or c3):
        return range(p)
    return [t for t in range(p) if (((c3 * t + c2) * t + c1) * t + c0) % p == 0]


@cache
def _line_bases(d, p):
    """The points (v, 0) of P^(d-1) over F_p, v running over P^(d-2) in
    projective_points order: the bases of the lines _line_points walks.
    Cached per (d, p); PREFIX_BUDGET keeps each entry small."""
    return tuple(v + (0,) for v in projective_points(d - 1, p))


def _line_points(part, d, m, p):
    """(x, part contracted with x) for the points x of the group that
    ``part`` (a flat tensor over m forms) starts with, in
    projective_points order.

    Those points split into the lines x = u + t*e_last for the bases u of
    _line_bases and t = 0..p-1, then e_last itself.  On a line the
    contraction is A + tB, with A the contraction with u and B the one with
    e_last, so each line costs one contraction.  When the contraction is a
    square prefix system (m = d forms, d = 2, 3), one determinant
    polynomial per line tells which t can carry points: only those t are
    yielded, and e_last only when det B vanishes mod p.  Otherwise every
    point is yielded.
    """
    size = len(part) // d
    b = part[(d - 1) * size :]
    b_rows = [b[k::m] for k in range(m)]
    pencil = m == d and d in (2, 3) and size == d * d
    for u in _line_bases(d, p):
        a = _contract(part, u)
        ts = _pencil_roots([a[k::m] for k in range(m)], b_rows, d, p) if pencil else range(p)
        for t in ts:
            yield u[:-1] + (t,), [x + t * y for x, y in zip(a, b)]
    if not (pencil and _det(b_rows) % p):
        yield (0,) * (d - 1) + (1,), b


def _points(reduced, p):
    """The points of enumerate_points, lazily and in the same order."""
    groups, d, m = reduced.groups, reduced.d, len(reduced.rows)

    def walk(part, prefix):
        if len(prefix) == groups - 1:  # part is the prefix system
            for tail in _kernel_points([part[k::m] for k in range(m)], d, p):
                yield ProjPoint(p, prefix + (tail,))
            return
        for x, inner in _line_points(part, d, m, p):
            yield from walk(inner, prefix + (x,))

    yield from walk(_coefficient_tensor(reduced), ())


def enumerate_points(model, p):
    """Exhaustive, duplicate-free list of F_p-points of the model.

    The forms are multilinear, so once every group but the last is fixed
    they become a linear system in the last group; points over each prefix
    are exactly the projective points of that system's kernel.  One walk
    fixes the prefix groups one at a time, contracting the coefficients of
    all forms with each group's points and reusing every contraction for
    all inner prefixes; n = 2 has no prefix group and solves one system.
    A group's points are taken one projective line x = u + t*e_last at a
    time, along which the contraction is A + tB.  For square systems (d
    forms) with d = 2 or 3 the innermost prefix group has closed-form
    roots: the coefficients of det(A + tB) are computed once per line and
    evaluated at every t in one pass, and a kernel is taken only at its
    roots (at every t when it vanishes identically mod p), plus at e_last.
    Every other system is solved at every t.  Points come in prefix order
    (``projective_points`` per group), then in kernel order.  Raises
    WorkLimitError when the prefix count exceeds PREFIX_BUDGET; the budget
    counts prefixes, not lines.
    """
    reduced = model_mod_p(model, p)
    _check_prefix_budget(reduced.d, reduced.groups, (p,))
    return list(_points(reduced, p))


def _prefix_contractions(tensor, coords):
    """The coefficients contracted with none, the first, the first two, ...
    of the coordinate vectors, up to all but the last; the last entry,
    read by the last group's variable, holds the prefix system."""
    parts = [tensor]
    for x in coords[:-1]:
        parts.append(_contract(parts[-1], x))
    return parts


def _partials(part, later, d, i):
    """Derivatives of every form along variable i of the group that
    ``part`` (a prefix contraction) starts with, at the later groups'
    coordinate vectors."""
    size = len(part) // d
    column = part[i * size : (i + 1) * size]
    for x in later:
        column = _contract(column, x)
    return column


def _jacobian_rows(tensor, coords, d, p):
    """Partial derivatives of each form at a point, group by group.  The
    entry for variable i of group g contracts the coefficients with every
    coordinate vector except that of group g: the groups before g first,
    then, in slice i of group g, the groups after it."""
    parts = _prefix_contractions(tensor, coords)
    columns = [
        [v % p for v in _partials(part, coords[g + 1 :], d, i)]
        for g, part in enumerate(parts)
        for i in range(d)
    ]
    return [list(row) for row in zip(*columns)]


def jacobian_rank_at(model, pt):
    """Rank over F_p of the matrix of partial derivatives at a point.

    The model is smooth at the point exactly when the rank equals d.  The
    point must satisfy every defining form, else NotOnVarietyError.
    """
    reduced = model_mod_p(model, pt.p)
    d = reduced.d
    if len(pt.coords) != reduced.groups or any(len(c) != d for c in pt.coords):
        raise ValueError("coordinate arity mismatch")
    jac = _jacobian_rows(_coefficient_tensor(reduced), pt.coords, d, pt.p)
    # Euler's identity for a multilinear form: f(x) = sum_i x_0[i] df/dx_0[i].
    for k, row in enumerate(jac):
        if sum(x * v for x, v in zip(pt.coords[0], row)) % pt.p:
            raise NotOnVarietyError(f"form {reduced.forms[k]!r} does not vanish at {pt}")
    return Matrix(jac, cols=reduced.groups * d, p=pt.p).rank()


def _first_witness(reduced, points):
    """(p, point, rank) for the first of ``points`` (points of the reduced
    model) where the Jacobian rank drops below d, or None.

    The Jacobian's last-group block S is the point's prefix system, which
    the point's last coordinates solve, so rank S <= d - 1.  When rank S is
    exactly d - 1 its left kernel is one line, spanned by a vector l that
    _kernel_points finds on the transpose of S (closed form for d = 2, 3),
    and the Jacobian has rank d unless l*J = 0 mod p.  The other blocks of
    l*J are built from the prefix contractions, innermost group first, up
    to the first nonzero entry.  Matrix.rank runs only when the test fails,
    so a witness reports its exact rank, or when rank S <= d - 2.
    """
    d, p, m = reduced.d, reduced.p, len(reduced.rows)
    tensor = _coefficient_tensor(reduced)
    for pt in points:
        coords = pt.coords
        parts = _prefix_contractions(tensor, coords)
        system = parts[-1]
        left = _kernel_points([system[l * m : (l + 1) * m] for l in range(d)], m, p)
        if len(left) == 1 and any(
            sum(x * v for x, v in zip(left[0], _partials(parts[g], coords[g + 1 :], d, i))) % p
            for g in reversed(range(len(parts) - 1))
            for i in range(d)
        ):
            continue
        rank = Matrix(_jacobian_rows(tensor, coords, d, p), cols=len(coords) * d, p=p).rank()
        if rank < d:
            return p, pt, rank
    return None


class _PrimeSweep:
    """The one per-prime loop of smoothness_scan and of classify's sweeps.

    Construction checks every prime (``check_primes``) and the prefix
    budget before any work.  Iterating files each prime as bad (the state
    has a denominator there, or the flattening rank drops), excluded (p
    divides the numerator of one of the caller's ``discs``, when none of
    them vanishes) or used, and yields (p, reduced model) for each used
    prime in order; how much of that prime to sweep is the caller's choice.
    smoothness_scan passes the state's ``slice_discriminants``: for a curve
    format that is smooth by the exact discriminant test, such a p makes
    the reduced curve degenerate, and it says nothing about the original
    model.  Once the primes run out it raises AllPrimesBadError if none was
    used or excluded.
    """

    def __init__(self, t, primes, discs=None):
        self.primes = check_primes(DEFAULT_PRIMES if primes is None else primes)
        _check_prefix_budget(t.d, t.n - 1, self.primes)
        self.model = variety_from_state(t)
        self.discs = discs if discs and all(discs) else ()
        self.used, self.bad, self.excluded = [], [], []

    @property
    def pending(self):
        """How many primes are not filed yet."""
        return len(self.primes) - len(self.used) - len(self.bad) - len(self.excluded)

    def __iter__(self):
        for p in self.primes:
            try:
                reduced = model_mod_p(self.model, p)
            except BadReductionError:
                self.bad.append(p)
                continue
            if any(disc.numerator % p == 0 for disc in self.discs):
                self.excluded.append(p)
                continue
            self.used.append(p)
            yield p, reduced
        if not self.used and not self.excluded:
            raise AllPrimesBadError(f"all primes {list(self.primes)} hit bad reduction")


def smoothness_scan(t, primes=None):
    """Sweep primes: enumerate all points and test the Jacobian rank at
    each until the first singular one.

    Any rank drop is recorded as a witness (the first per prime, in point
    order) and the verdict becomes SingularFound; a clean sweep is
    probabilistic evidence only.  Every point is counted.  Primes are
    filed as used, bad or excluded as ``_PrimeSweep`` describes, and every
    prime must pass ``check_primes``.  Each rank test is one left-kernel
    test, not an elimination (see ``_first_witness``).
    """
    from .invariants import slice_discriminants

    sweep = _PrimeSweep(t, primes, slice_discriminants(t))
    counts = []
    witnesses = []
    for p, reduced in sweep:
        pts = enumerate_points(reduced, p)
        counts.append((p, len(pts)))
        witness = _first_witness(reduced, pts)
        if witness is not None:
            witnesses.append(witness)
    return SmoothnessReport(
        primes=tuple(sweep.used),
        point_counts=tuple(counts),
        bad_primes=tuple(sweep.bad),
        excluded_primes=tuple(sweep.excluded),
        witnesses=tuple(witnesses),
        verdict="SingularFound" if witnesses else "NoSingularPointFound",
    )


def hasse_window(p):
    """Exact integer point-count window for a genus-one curve over F_p:
    [p + 1 - floor(2*sqrt(p)), p + 1 + floor(2*sqrt(p))].  Used as a
    sanity oracle for the elliptic-curve cases; violations flag bugs.  p
    must pass ``check_primes``."""
    from math import isqrt

    check_primes((p,))
    b = isqrt(4 * p)
    return p + 1 - b, p + 1 + b
