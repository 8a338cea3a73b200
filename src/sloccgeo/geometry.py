"""Multiprojective models cut out by a state's flattening image.

A state whose flattening image has full dimension d defines d multilinear
forms on P(V_1) x ... x P(V_{n-1}); their common zero locus is a complete
intersection (a plane-cubic-like curve for (3,3) and (4,2), a surface for
(5,2)).  This module keeps those forms as integer coefficient rows
(``VarietyModel``), eliminates one factor through determinants of the
linear-form matrix, and gathers finite-field smoothness evidence by
exhaustive point enumeration plus Jacobian ranks.

A model over Q reduces modulo p in one way only: through its source state
(``model_mod_p``).  Points come from one walk over the variable groups
(``_points``): ``enumerate_points`` lists it, and both Jacobian sweeps
(``smoothness_scan`` and the one in ``invariants.classify``) test the
points it does not certify smooth.  The walk solves the innermost prefix
group's lines through a determinant pencil and reads each prefix system's
fibre from its rank, so Matrix.kernel runs only for the one system of an
n = 2 model, a d = 3 system of rank 1, a non-square system and d > 3.
A (3,3) or (4,2) state whose slice discriminants all are nonzero skips
that walk in ``smoothness_scan``: at each used prime its point count is
that of its first projected curve (``_curve_count``), and the scan finds
no singular point there by proof, not by search.  The curve formats and
their projections are listed once, in ``CURVE_AXES`` and
``PROJECTION_MONOMIALS``.
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
    _excerpt,
)
from .linalg import DEFAULT_PRIMES, Matrix, check_primes
from .states import _contract, _rotate, flattening_basis, reduced_flattening_image

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
    proof modulo that prime); an empty sweep is probabilistic evidence only,
    except for a (3,3) or (4,2) state whose slice discriminants all are
    nonzero: its counts are those of its projected curve, and
    NoSingularPointFound proves each used reduction smooth.
    ``bad_primes`` divide a denominator or drop the flattening rank.
    ``excluded_primes`` are primes of singular reduction of a model proved
    smooth over the algebraic closure of Q, so the reduced model says
    nothing about the original one: for a curve format they divide the
    numerator of a slice discriminant (``invariants.slice_discriminants``),
    and for a (5,2) state whose pencil form certifies it smooth
    (``invariants._certified_smooth``) they are the primes where the sweep
    found a witness.
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
            "witnesses": [_witness_json(w) for w in self.witnesses],
        }


def _witness_json(witness):
    """The JSON record of a singular witness, a (prime, ProjPoint, rank)
    tuple."""
    p, pt, rank = witness
    return {"prime": p, "point": [list(c) for c in pt.coords], "rank": rank}


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
    of linear forms, as a coefficient tuple in PROJECTION_MONOMIALS order.

    For (3,3) keep one axis and get a ternary cubic's 10 coefficients; for
    (4,2) keep two and get the 9 of a form of bidegree (2,2).  The kept
    axes must be listed for the format in CURVE_AXES, else
    UnsupportedFormatError.  The matrix entry (k, j) is the partial
    derivative of form k with respect to variable j of the dropped group.
    The coefficients come from ``projection_coefficients`` on the model's
    integer rows: over Q divided by den^d, as Fractions, over F_p as
    residues.
    """
    kept = tuple(sorted(kept_axes))
    fmt = (model.n, model.d)
    if kept not in CURVE_AXES.get(fmt, ()):
        raise UnsupportedFormatError(f"format {fmt} has no projection keeping axes {kept}")
    coeffs = projection_coefficients(model.rows, model.n, model.d, kept)
    if model.p is None:
        return tuple(Fraction(c, model.den**model.d) for c in coeffs)
    return tuple(c % model.p for c in coeffs)


def projective_points(dim, p):
    """All normalized representatives of P^(dim-1) over F_p, in a fixed order."""
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=dim - 1 - lead):
            yield prefix + tail


def _normalize_projective(vec, p):
    """A nonzero vector of residues scaled so that its first nonzero entry
    is 1."""
    inv = pow(next(x for x in vec if x), -1, p)
    return tuple(x * inv % p for x in vec)


def _subspace_points(basis_rows, p):
    """Normalized projective points of the row span of an RREF basis: the
    basis rows, flattened, contracted with each coefficient point."""
    flat = [x for row in basis_rows for x in row]
    for coeff in projective_points(len(basis_rows), p):
        yield _normalize_projective([v % p for v in _contract(flat, coeff)], p)


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
    (fastest): the form axis of the stacked rows, rotated last."""
    return _rotate([x for row in model.rows for x in row], len(model.rows))


def _kernel_points(system, d, p):
    """Normalized projective points of the right kernel of one prefix
    system (rows of d unreduced integers), in the order of _subspace_points,
    read from the system's rank mod p.

    A zero system has all of P^(d-1) as kernel (``_projective_space``).  A
    nonzero square system with d = 2 or 3 must be singular mod p, and a
    rank d-1 one yields its one point: (v, -u) for its first nonzero row
    (u, v) when d = 2, the first nonzero cross product of two rows, in the
    order r1 x r2, r0 x r2, r0 x r1, when d = 3.  Both callers meet only
    singular square systems: the walk takes a system at a root of its
    line's determinant pencil (``_pencil_roots``) or at e_last when det B
    vanishes, and ``_first_witness`` the transpose of a system that the
    point solves.  So no determinant is taken here.  Every other system (d
    = 3 of rank 1, a non-square one, any other d) goes through
    Matrix.kernel.
    """
    if not any(x % p for row in system for x in row):
        return _projective_space(d, p)
    if len(system) == d == 2:
        for u, v in system:
            if v % p:
                return ((1, -u * pow(v, -1, p) % p),)
            if u % p:
                return ((0, 1),)
    if len(system) == d == 3:
        r0, r1, r2 = system
        for a, b in ((r1, r2), (r0, r2), (r0, r1)):
            vec = [x % p for x in _cross(a, b)]
            if any(vec):
                return (_normalize_projective(vec, p),)
    kernel = Matrix(system, cols=d, p=p).kernel()
    return tuple(_subspace_points(kernel.entries, p))


@cache
def _projective_space(d, p):
    """projective_points(d, p) as a tuple: the fibre over a prefix whose
    system vanishes mod p.  Cached per (d, p); with a prefix group the
    fibre has no more points than the prefixes PREFIX_BUDGET bounds."""
    return tuple(projective_points(d, p))


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
    """(t, simple) for the t in F_p where c(t) = det(A + tB) vanishes, A
    and B the d x d matrices with rows a and b (d = 2, 3).  c is a
    polynomial of degree at most d in t: its coefficients come from the
    rows once, and it is evaluated at t = 0..p-1 in one pass.  A root is
    simple when c'(t) = 3*c3*t^2 + 2*c2*t + c1 does not vanish there.  A
    polynomial that vanishes identically mod p has every t as a root, none
    of them simple.

    A simple root certifies the point over it as smooth, over any field.
    By Jacobi's formula c'(t) = tr(adj(A + tB) * B), so at a simple root
    adj(A + tB) is nonzero: the system S = A + tB has corank 1, one kernel
    point y and a left kernel spanned by one v, and v.B.y != 0 mod p (adj
    is a nonzero multiple of y v^T).  The last-group block of the Jacobian
    is S, and B.y is its column for variable e_last of the line's group, so
    any w with w.J = 0 is a multiple of v with w.B.y = 0, hence zero: J has
    full rank d.  _line_points marks those points, and the Jacobian sweeps
    skip them."""
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
        return _every_t(p)
    return [
        (t, ((3 * c3 * t + 2 * c2) * t + c1) % p != 0)
        for t in range(p)
        if (((c3 * t + c2) * t + c1) * t + c0) % p == 0
    ]


@cache
def _every_t(p):
    """(t, False) for t = 0..p-1: every point of a line, none certified."""
    return tuple((t, False) for t in range(p))


@cache
def _line_bases(d, p):
    """The points (v, 0) of P^(d-1) over F_p, v running over P^(d-2) in
    projective_points order: the bases of the lines _line_points walks.
    Cached per (d, p); PREFIX_BUDGET keeps each entry small."""
    return tuple(v + (0,) for v in projective_points(d - 1, p))


def _line_points(part, d, m, p):
    """(x, part contracted with x, certified) for the points x of the
    group that ``part`` (a flat tensor over m forms) starts with, in
    projective_points order.

    Those points split into the lines x = u + t*e_last for the bases u of
    _line_bases and t = 0..p-1, then e_last itself.  On a line the
    contraction is A + tB, with A the contraction with u and B the one with
    e_last, so each line costs one contraction.  When the contraction is a
    square prefix system (m = d forms, d = 2, 3), one determinant
    polynomial per line tells which t can carry points: only those t are
    yielded, and e_last only when det B vanishes mod p.  Otherwise every
    point is yielded.  So every square d = 2, 3 system this yields is
    singular mod p by construction, and its fibre is read from its rank
    (``_kernel_points``) with no second determinant.

    ``certified`` is True exactly at the simple roots of that polynomial,
    where the one point over x is smooth (``_pencil_roots``).  e_last, and
    every x of a group whose contraction is no square d = 2, 3 prefix
    system, carry False.
    """
    size = len(part) // d
    b = part[(d - 1) * size :]
    b_rows = [b[k::m] for k in range(m)]
    pencil = m == d and d in (2, 3) and size == d * d
    for u in _line_bases(d, p):
        a = _contract(part, u)
        ts = _pencil_roots([a[k::m] for k in range(m)], b_rows, d, p) if pencil else _every_t(p)
        for t, simple in ts:
            yield u[:-1] + (t,), [x + t * y for x, y in zip(a, b)], simple
    if not (pencil and _det(b_rows) % p):
        yield (0,) * (d - 1) + (1,), b, False


def _points(reduced, p):
    """(point, certified) for the points of enumerate_points, lazily and in
    the same order.  A point is certified when its innermost prefix
    coordinate lies over a simple root of its line's determinant pencil,
    which makes it smooth (``_pencil_roots``).  Every other point,
    including every point of a model with no prefix group (n = 2) or a
    non-square system, carries False and says nothing either way.

    The innermost prefix group's lines hand over the prefix systems, and
    each system's fibre is read from its rank (``_kernel_points``) and
    yielded as finished points.  A square d = 2, 3 system there sits at a
    root of its pencil, or at e_last when det B vanishes, so it is singular
    by construction and no determinant is taken again.  With n = 2 the
    model is one system, which may be regular, so it is eliminated."""
    groups, d, m = reduced.groups, reduced.d, len(reduced.rows)
    if groups == 1:
        kernel = Matrix(reduced.rows, cols=d, p=p).kernel()
        for tail in _subspace_points(kernel.entries, p):
            yield ProjPoint(p, (tail,)), False
        return

    def walk(part, prefix):
        if len(prefix) < groups - 2:
            for x, inner, _ in _line_points(part, d, m, p):
                yield from walk(inner, prefix + (x,))
            return
        for x, system, certified in _line_points(part, d, m, p):
            head = prefix + (x,)
            for tail in _kernel_points([system[k::m] for k in range(m)], d, p):
                yield ProjPoint(p, head + (tail,)), certified

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
    Every other system is solved at every t.  Each prefix system's fibre is
    read from its rank (``_kernel_points``): all of P^(d-1) when it
    vanishes mod p, one closed-form point at rank d-1 for d = 2, 3, and
    Matrix.kernel otherwise.  A square system at a pencil root is singular
    by construction, so no determinant is taken there.  Points come in
    prefix order (``projective_points`` per group), then in kernel order.
    Raises WorkLimitError when the prefix count exceeds PREFIX_BUDGET; the
    budget counts prefixes, not lines.

    The walk (``_points``) also marks the points it certifies smooth
    (``_pencil_roots``); this list drops those marks, and the Jacobian
    sweeps read them.
    """
    reduced = model_mod_p(model, p)
    _check_prefix_budget(reduced.d, reduced.groups, (p,))
    return [pt for pt, _ in _points(reduced, p)]


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
    point must satisfy every defining form, else NotOnVarietyError, and
    each group's coordinate vector must be nonzero mod p, else ValueError.
    """
    reduced = model_mod_p(model, pt.p)
    d = reduced.d
    if len(pt.coords) != reduced.groups or any(len(c) != d for c in pt.coords):
        raise ValueError("coordinate arity mismatch")
    if not all(any(x % pt.p for x in c) for c in pt.coords):
        raise ValueError(f"{pt} has a zero coordinate vector: not a projective point")
    jac = _jacobian_rows(_coefficient_tensor(reduced), pt.coords, d, pt.p)
    # Euler's identity for a multilinear form: f(x) = sum_i x_0[i] df/dx_0[i].
    for k, row in enumerate(jac):
        if sum(x * v for x, v in zip(pt.coords[0], row)) % pt.p:
            raise NotOnVarietyError(
                f"form {k} (row {_excerpt(reduced.rows[k])}) does not vanish at {pt}"
            )
    return Matrix(jac, cols=reduced.groups * d, p=pt.p).rank()


def _first_witness(reduced, points):
    """(p, point, rank) for the first of ``points``, (point, certified)
    pairs of the reduced model as ``_points`` yields them, where the
    Jacobian rank drops below d, or None.

    A certified point is skipped untested: it is smooth
    (``_pencil_roots``), so it can never be the witness.  At every other
    point the Jacobian's last-group block S is the point's prefix system,
    which the point's last coordinates solve, so rank S <= d - 1.  When
    rank S is exactly d - 1 its left kernel is one line, spanned by a
    vector l that _kernel_points finds on the transpose of S (closed form
    for d = 2, 3), and the Jacobian has rank d unless l*J = 0 mod p.  The
    other blocks of l*J are built from the prefix contractions, innermost
    group first, up to the first nonzero entry.  Matrix.rank runs only when
    the test fails, so a witness reports its exact rank, or when rank S <=
    d - 2.
    """
    d, p, m = reduced.d, reduced.p, len(reduced.rows)
    tensor = _coefficient_tensor(reduced)
    for pt, certified in points:
        if certified:
            continue
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


def _singular_reduction(discs, p):
    """Whether p divides the numerator of one of ``discs`` while none of
    them vanishes: the curve model of those slice discriminants
    (``invariants.slice_discriminants``) is smooth over Q, and its
    reduction modulo p is singular.  False when ``discs`` is None."""
    return bool(discs) and all(discs) and any(disc.numerator % p == 0 for disc in discs)


def _curve_count(reduced, p):
    """#C_p(F_p) for the first projected curve C_p (``CURVE_AXES``) of a
    reduced (3,3) or (4,2) model, counted from its coefficients mod p.

    (4,2): C_p is A(x)*y0^2 + B(x)*y0*y1 + C(x)*y1^2 = 0, and over each x
    of P^1(F_p) the quadratic in y has 1 + chi(q(x)) projective roots,
    where q = B^2 - 4AC (``invariants._branch``) and chi is the quadratic
    character (chi(0) = 0), read from the set of nonzero squares mod p.
    That holds unless A, B and C all vanish at x, so that C_p contains the
    line {x} x P^1, which a smooth C_p does not.  So #C_p = p + 1 + the
    sum of chi(q(x)), in O(p).  (3,3): the zeros of the plane cubic C on
    P^2(F_p), one chart line at a time: the roots v of C(1, u, v) for
    each u, of C(0, 1, v), and the point (0, 0, 1), in O(p^2).
    """
    from .invariants import _branch

    fmt = (reduced.n, reduced.d)
    coeffs = projection_coefficients(reduced.rows, *fmt, CURVE_AXES[fmt][0])
    if fmt == (4, 2):
        q0, q1, q2, q3, q4 = (c % p for c in _branch(coeffs))
        squares = {t * t % p for t in range(1, p)}
        values = [((((q4 * t + q3) * t + q2) * t + q1) * t + q0) % p for t in range(p)] + [q4]
        return p + 1 + sum(1 if v in squares else -1 for v in values if v)
    # the coefficients of x0^3, x0^2*x1, x0^2*x2, x0*x1^2, x0*x1*x2,
    # x0*x2^2, x1^3, x1^2*x2, x1*x2^2, x2^3 (CUBIC_MONOMIALS)
    c = [x % p for x in coeffs]
    powers = [(v, v * v % p, v**3 % p) for v in range(p)]
    lines = [  # the coefficients of 1, v, v^2, v^3 in C(1, u, v)
        (
            c[0] + c[1] * u + c[3] * u2 + c[6] * u3,
            (c[2] + c[4] * u + c[7] * u2) % p,
            (c[5] + c[8] * u) % p,
            c[9],
        )
        for u, u2, u3 in powers
    ]
    lines.append((c[6], c[7], c[8], c[9]))  # C(0, 1, v)
    count = c[9] == 0  # the point (0, 0, 1)
    for a0, a1, a2, a3 in lines:
        count += [(a1 * v + a2 * w + a3 * x) % p for v, w, x in powers].count(-a0 % p)
    return count


def _file_primes(t, primes, discs=None):
    """The primes of one sweep, filed once, before any point is enumerated.

    Checks every prime (``check_primes``; None stands for DEFAULT_PRIMES)
    and the prefix budget, builds the model, and files each prime in order
    as bad (the state has a denominator there, or the flattening rank
    drops), excluded (p divides the numerator of one of ``discs``, when
    none of them vanishes: ``_singular_reduction``) or used.  Returns
    (used, bad, excluded), where used lists a (p, reduced model) pair per
    used prime; how much of each to sweep is the caller's choice.
    smoothness_scan passes the state's ``slice_discriminants``: for a curve
    format that is smooth by the exact discriminant test, such a p makes the
    reduced curve degenerate, and it says nothing about the original model.
    The checks raise in that order (UnsupportedPrimeError, WorkLimitError,
    then RankDeficientError from the model); the filing itself never
    raises.  When every prime is bad, bad lists them all, in order, and
    each caller states what that means for its own result.
    """
    primes = check_primes(DEFAULT_PRIMES if primes is None else primes)
    _check_prefix_budget(t.d, t.n - 1, primes)
    model = variety_from_state(t)
    used, bad, excluded = [], [], []
    for p in primes:
        try:
            reduced = model_mod_p(model, p)
        except BadReductionError:
            bad.append(p)
            continue
        if _singular_reduction(discs, p):
            excluded.append(p)
        else:
            used.append((p, reduced))
    return used, tuple(bad), tuple(excluded)


def smoothness_scan(t, primes=None):
    """Sweep primes: enumerate all points and test the Jacobian rank at
    each until the first singular one.

    Any rank drop is recorded as a witness (the first per prime, in point
    order) and the verdict becomes SingularFound; a clean sweep is
    probabilistic evidence only.  Every point is counted.  Primes are
    filed as used, bad or excluded as ``_file_primes`` describes, and every
    prime must pass ``check_primes``.  When no prime is used or excluded,
    so that every one is bad, the scan raises AllPrimesBadError naming the
    checked primes.  The points come from the walk (``_points``), and only
    those it does not certify smooth (``_pencil_roots``) are tested; the
    witness, its rank and the counts are those of testing every point.
    Each rank test is one left-kernel test, not an elimination (see
    ``_first_witness``).  The prefix budget is checked once, for all
    primes, by ``_file_primes``.

    A (3,3) or (4,2) state whose slice discriminants all are nonzero is
    neither walked nor swept: each used prime's count is that of its first
    projected curve C_p (``_curve_count``), and it has no witness.  That
    is exact.  p >= 5 does not divide a slice-discriminant numerator, so
    C_p is smooth over the algebraic closure of F_p.  At a point x of a
    smooth C_p the matrix of linear forms M(x) has corank exactly 1:
    corank 2 would make adj M(x) = 0, and with it grad det M(x), by
    Jacobi's formula.  So over each F_p-point of C_p lies exactly one
    point of the model, defined over F_p, and the model is smooth there
    (the argument of ``_pencil_roots``): the sweep could find no witness,
    and NoSingularPointFound proves each used reduction smooth.  Every
    other state (a vanishing slice discriminant, (5,2) and the other
    formats) is walked and swept as above.

    When the sweep of a (5,2) state finds a witness, the state is offered
    the smoothness certificate of ``classify`` once
    (``invariants._certified_smooth``); a clean sweep never pays for it.  A
    certified model is smooth over the algebraic closure of Q, so each
    witness prime is a prime of singular reduction: it moves from
    ``primes``, ``point_counts`` and ``witnesses`` to ``excluded_primes``,
    and the verdict is NoSingularPointFound, as ``classify`` finds.
    """
    from .invariants import _certified_smooth, slice_discriminants

    discs = slice_discriminants(t)
    used, bad, excluded = _file_primes(t, primes, discs)
    if not used and not excluded:
        raise AllPrimesBadError(f"all primes {list(bad)} hit bad reduction")
    smooth_curve = bool(discs) and all(discs)
    counts = []
    witnesses = []
    for p, reduced in used:
        if smooth_curve:
            counts.append((p, _curve_count(reduced, p)))
            continue
        walk = list(_points(reduced, p))
        counts.append((p, len(walk)))
        witness = _first_witness(reduced, walk)
        if witness is not None:
            witnesses.append(witness)
    used = tuple(p for p, _ in used)
    if witnesses and _certified_smooth(t):
        excluded = tuple(p for p, _, _ in witnesses)  # a (5,2) scan excludes no other
        used = tuple(p for p in used if p not in excluded)
        counts = [(p, c) for p, c in counts if p not in excluded]
        witnesses = []
    return SmoothnessReport(
        primes=used,
        point_counts=tuple(counts),
        bad_primes=bad,
        excluded_primes=excluded,
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
