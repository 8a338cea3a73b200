"""Multiprojective models cut out by a state's flattening image.

A state whose flattening image has full dimension d defines d multilinear
forms on P(V_1) x ... x P(V_{n-1}); their common zero locus is a complete
intersection (a plane-cubic-like curve for (3,3) and (4,2), a surface for
(5,2)).  This module keeps those forms as integer coefficient rows
(``VarietyModel``), eliminates one factor through determinants of the
linear-form matrix, and gathers finite-field smoothness evidence by
exhaustive point enumeration plus Jacobian ranks.

Every model over F_p comes from one leaf, ``_reduced_model``: the state
reduced modulo p once, and the slices of its residues eliminated, refused
as bad reduction when their rank drops.  ``model_mod_p``, the sweeps and
``_file_primes`` reduce through it directly; the graded checks of
``zalgebra`` reduce through ``_rotation_models``, which names a failed
reduction of one state in one error order, and the relation spaces of a
state's n rotations come from its one reduction, rotated.

What a prime means for a state is filed in one place, ``_file_primes``:
bad, excluded or used.  It files by one rank certificate, the last
fraction-free pivot of the state's slices: a prime that divides neither
it nor the denominator keeps rank d with no reduction, and only the others
are reduced to be filed.  The sweeps (``smoothness_scan`` and classify's
vote) file their primes through one entry, ``_file_sweep``, which checks
their summed prefix budget first, and a graded check of ``zalgebra`` that
fails files its one prime through the filing
(``_refuse_singular_reduction``) to tell a singular reduction from its own
refusal.

Points come from one walk over the variable groups (``_points``), as
plain tuples of coordinate tuples:
``enumerate_points`` lists it as ProjPoints, both Jacobian sweeps
(``smoothness_scan`` and the one in ``invariants.classify``) test the
points it does not certify smooth, and only a witness becomes a
ProjPoint.  The walk solves the innermost prefix group's lines through a
determinant pencil and reads each prefix system's fibre from its rank, so
the one kernel routine (``linalg._kernel_basis``) runs only for the one
system of an n = 2 model, a d = 3 system of rank 1, a non-square system
and d > 3; no walk or sweep builds a Matrix.  A reader takes at most
PREFIX_BUDGET points of a walk, which is refused only when the next one is
asked for.  The section products
of ``zalgebra`` walk nothing: a (4,2) model's points, projected onto two
groups, are the F_p-points of those groups' determinantal curve, one
binary quadratic per point of the first group, whose roots come from the
walk's one root rule (``_roots``).  The projected curves of
a (3,3) or (4,2) state share their invariants, as polynomial identities in
the state (``invariants._curve_projections``), so a state has one slice
discriminant, computed from one projection.  A state whose slice
discriminant is nonzero skips that walk in ``smoothness_scan``, and its
model is reduced only to file a prime.  Such a model is a smooth genus-one
curve, and so is its reduction at each used prime.  A smooth genus-one
curve over F_p has an F_p-point (Lang), so it is isomorphic to its
Jacobian y^2 = x^3 + a*x + b, whose (a, b) are the curve's exact
invariants: (-S/3, T/108) for a plane cubic (Artin,
Rodriguez-Villegas and Tate) and (-27I, -27J) for the branch quartic of a
(2,2)-form (An, Kim, Marshall, Marshall, McCallum and Perlis).  So the
point count is a sum of quadratic characters over F_p
(``invariants._jacobian_count``), and the scan finds no singular point
there by proof, not by search.  A prime that divides the slice
discriminant's numerator is excluded instead, by the filing.  The curve
formats and their projections are listed once, in ``CURVE_AXES`` and
``PROJECTION_MONOMIALS``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice, product, repeat

from ._guard import INTS, NONZERO, ROWS, UNCHECKED, Kind, guard, power_exceeds
from .errors import (
    AllPrimesBadError,
    BadReductionError,
    NotOnVarietyError,
    RankDeficientError,
    SloccGeoError,
    UnsupportedFormatError,
    WorkLimitError,
    _excerpt,
)
from .linalg import FIELD, PRIME, PRIMES, _echelon_rank, _kernel_basis, _sorted_primes, check_primes
from .states import (
    FORMAT,
    Tensor,
    _contract,
    _flattening_rows,
    _rotate,
    _slice_elimination,
    check_flattening_cost,
    flattening_basis,
)

#: Most prefixes one point sweep may visit: summed over the requested primes
#: in smoothness_scan, per call in enumerate_points and in a section product,
#: whose curve listing evaluates about as many quadratics.  A full
#: default-prime (5,2) sweep visits 92,624; a (4,3) sweep visits ~10^6 at
#: p = 31 alone.
PREFIX_BUDGET = 200_000

#: Most bits d**n may have in ``section_count`` and ``moduli_dimension``,
#: checked before d**n is formed (``power_exceeds``).  The formulas hold for
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
    state (``model_mod_p``); a model built by hand over F_p needs none, and
    its p must be a prime (``FIELD``: 2, 3, or one that ``check_primes``
    accepts), else UnsupportedPrimeError, so no composite modulus reaches
    the walk or a rank.  Every model has n, d >= 2 (``states.FORMAT``)
    and at least one row, each of d**(n-1) coefficients, else ValueError;
    the length is decided before d**(n-1) is formed (``power_exceeds``).
    The entry points that read the d x d matrix of linear forms also need
    d rows (``_check_square``); ``enumerate_points`` takes any number.
    """

    n: FORMAT
    d: FORMAT
    rows: ROWS
    den: NONZERO
    p: FIELD = None
    source: Tensor = None    # when built from one

    def __post_init__(self):
        n, d, rows = self.n, self.d, self.rows
        width = len(rows[0]) if rows else 0
        shaped = not power_exceeds(d, n - 1, width) and d ** (n - 1) == width
        if not shaped or any(len(row) != width for row in rows):
            fmt = f"(n={_excerpt(n)}, d={_excerpt(d)})"
            raise ValueError(f"a model of format {fmt} needs rows of d**(n-1) coefficients")

    @property
    def groups(self):
        return self.n - 1


def _reduced_model(t, p, turns=1):
    """The models over F_p of a state and of its first turns - 1 rotations
    (rotation j moves the first axis last j times, ``_rotate``), from one
    reduction of the state: a list of turns models, whose rows are the
    canonical basis of each rotation's flattening reduced on the state side
    (``states._flattening_rows``, the rule of ``reduced_flattening_image``),
    so denominators of the rational canonical basis cannot poison the prime.

    This is the one route from a state to its F_p models and relation
    spaces.  The format's cost is checked first (``check_flattening_cost``),
    then p, by the state's one reduction (``Tensor.reduce_mod``): a p that
    is no supported prime raises UnsupportedPrimeError, one that divides the
    denominator BadReductionError.  Each rotation permutes the residues
    (``_rotate``) and eliminates its slices, and the first rotation whose
    reduced flattening drops rank raises BadReductionError too.  Rank can
    only drop modulo p, so a reduced flattening of rank d proves the exact
    one has rank d.  A rank deficiency over Q is told from a bad prime by
    the caller, from the rank of the state's slices (``_slice_pivot``), with
    no basis over Q: ``_rotation_models`` reads it after a failure, and
    ``_file_primes`` before any reduction.  The leaf itself ranks no slices
    over Z, so each bad prime of a filing costs one elimination.  The state
    is the source of the first model only; a rotation's model has none.
    """
    check_flattening_cost(t)
    residues, models = t.reduce_mod(p), []
    for j in range(turns):
        if j:
            residues = _rotate(residues, t.d)
        rows = _flattening_rows(residues, t.d, p)
        if len(rows) < t.d:
            raise BadReductionError(p, f"flattening rank drops modulo {p}")
        models.append(VarietyModel(t.n, t.d, rows, 1, p, None if j else t))
    return models


def model_mod_p(model: VarietyModel, p: PRIME):
    """The model over F_p of the model's source state (``_reduced_model``).
    A model already over F_p is returned as it is; any other model without
    a source raises ValueError.  p is a prime (``linalg.PRIME``): None,
    which names no field, raises UnsupportedPrimeError.
    """
    if model.p == p:
        return model
    if model.source is None:
        raise ValueError(f"a model without a source state cannot be reduced modulo {p}")
    return _reduced_model(model.source, p)[0]


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


#: A ProjPoint whose p is an int and whose coordinates are rows of ints.
POINT = Kind(
    lambda v: isinstance(v, ProjPoint) and PRIME.test(v.p) and ROWS.test(v.coords),
    "a ProjPoint of ints",
)


@dataclass(frozen=True)
class SmoothnessReport:
    """Per-prime point counts and Jacobian-rank evidence.

    A recorded singular witness is strong evidence against smoothness (and
    proof modulo that prime); an empty sweep is probabilistic evidence only,
    except for a (3,3) or (4,2) state whose slice discriminant is nonzero:
    its counts are those of the Jacobian of its projected curve,
    and NoSingularPointFound proves each used reduction smooth.
    ``bad_primes`` divide a denominator or drop the flattening rank.
    ``excluded_primes`` are primes of singular reduction of a model proved
    smooth over the algebraic closure of Q, so the reduced model says
    nothing about the original one: for a curve format they divide the
    numerator of the slice discriminant (``invariants.slice_discriminants``),
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
    """WorkLimitError when d**n, for ints n, d >= 2, would have more than
    MAX_FORMULA_BITS bits, decided before d**n is formed
    (``power_exceeds``).  The message prints neither, so no huge one meets
    int-to-string conversion."""
    if power_exceeds(d, n, 2**MAX_FORMULA_BITS):
        raise WorkLimitError(f"d**n is over the limit of 2**{MAX_FORMULA_BITS}")


def section_count(n: FORMAT, d: FORMAT):
    """Expected dimension of the degree-(1,...,1) section space on the model:
    all multilinear monomials modulo the d defining forms.  Formats whose
    d**n exceeds 2**MAX_FORMULA_BITS raise WorkLimitError."""
    _check_formula_format(n, d)
    return d ** (n - 1) - d


def variety_from_state(t: Tensor):
    """Build the model cut out by the flattening image.

    Raises RankDeficientError when the image has dimension below d: such a
    state sits outside the generic locus and has no complete-intersection
    model of the expected codimension.
    """
    rows, den = flattening_basis(t)
    if len(rows) != t.d:
        raise RankDeficientError(len(rows), t.d)
    return VarietyModel(t.n, t.d, tuple(map(tuple, rows)), den, None, t)


def _rotation_models(t, p, turns):
    """The models over F_p of the state's first ``turns`` rotations, from
    its one reduction (``_reduced_model``): the one entry of the graded
    checks (``zalgebra.cyclic_relations``, ``roundtrip_check`` and
    ``multiplication_surjectivity``) to their models.  When the reduction
    fails, the slices of every rotation are ranked (``_slice_pivot``; only
    this error path builds a rotation's Tensor), so the errors come in one
    order: WorkLimitError, then RankDeficientError of any rotation, then
    the reduction's own error."""
    try:
        return _reduced_model(t, p, turns)
    except SloccGeoError:
        for _ in range(turns):
            if (rank := _slice_pivot(t)[0]) < t.d:
                raise RankDeficientError(rank, t.d)
            t = Tensor.from_integers(t.n, t.d, _rotate(t.nums, t.d), t.den)
        raise


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


def projection_coefficients(rows: ROWS, n: int, d: int, kept: INTS):
    """Coefficients of the determinantal projection of d coefficient rows.

    Row k holds form k's coefficients, row-major over the n-1 variable
    groups.  The kept axes must be listed for the format in CURVE_AXES,
    else UnsupportedFormatError, and there must be d rows of d**(n-1)
    coefficients (``_check_square``).  The matrix of linear forms
    M[k][l] = df_k/dz_l (z the dropped group) has entries linear in each
    kept group, and det M is expanded
    row by row with equal partial terms merged (``_projection_layout``):
    a (3,3) projection takes 117 products, a (4,2) one 40.  Integer rows
    give integer coefficients, in PROJECTION_MONOMIALS order: 10 for a
    (3,3) cubic, 9 for a (4,2) form of bidegree (2,2).
    """
    if kept not in CURVE_AXES.get((n, d), ()):
        raise UnsupportedFormatError(f"format {(n, d)} has no projection keeping axes {kept}")
    _check_square(rows, n, d)
    acc = (1,)
    for row, (size, plus, minus) in zip(rows, _projection_layout(n, d, kept)):
        nxt = [0] * size
        for source, target, pos in plus:
            nxt[target] += acc[source] * row[pos]
        for source, target, pos in minus:
            nxt[target] -= acc[source] * row[pos]
        acc = nxt
    return acc


def _check_square(rows, n, d):
    """ValueError unless there are d rows of d**(n-1) coefficients: the d x d
    matrix of linear forms of a projection or a Jacobian reads them all.
    d**(n-1) is a row length of a built model, or of a curve format."""
    if len(rows) != d or any(len(row) != d ** (n - 1) for row in rows):
        size = d ** (n - 1)
        raise ValueError(f"a model of format (n={n}, d={d}) needs {d} rows of {size} coefficients")


def determinantal_projection(model: VarietyModel, kept_axes: INTS):
    """Eliminate one variable group through the determinant of the matrix
    of linear forms, as a coefficient tuple in PROJECTION_MONOMIALS order.

    For (3,3) keep one axis and get a ternary cubic's 10 coefficients; for
    (4,2) keep two and get the 9 of a form of bidegree (2,2).  The kept
    axes must be listed for the format in CURVE_AXES, else
    UnsupportedFormatError, and the model needs d rows, else ValueError
    (both checked by ``projection_coefficients``).  The matrix entry
    (k, j) is the partial derivative of form k with respect to variable j
    of the dropped group.
    The coefficients come from ``projection_coefficients`` on the model's
    integer rows: over Q divided by den^d, as Fractions, over F_p as
    residues.
    """
    coeffs = projection_coefficients(model.rows, model.n, model.d, tuple(sorted(kept_axes)))
    if model.p is None:
        return tuple(Fraction(c, model.den**model.d) for c in coeffs)
    return tuple(c % model.p for c in coeffs)


def projective_points(dim: UNCHECKED, p: UNCHECKED):
    """All normalized representatives of P^(dim-1) over F_p, in a fixed
    order, the last entry fastest.  A generator of the point walk's inner
    loops, left unchecked.  Each entry after the leading 1 is appended
    lazily from range(p), whose residues are never stored
    (itertools.product would copy range(p) into a tuple before its first
    point), so a reader that stops early pays for the points it took, at
    any p."""
    for lead in range(dim):
        points = [(0,) * lead + (1,)]
        for _ in range(dim - 1 - lead):
            points = chain.from_iterable(map(q.__add__, zip(range(p))) for q in points)
        yield from points


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
            f"{_excerpt(list(primes))} visits {total} prefixes, over the budget of "
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

    A zero system has all of P^(d-1) as kernel.  A
    nonzero square system with d = 2 or 3 must be singular mod p, and a
    rank d-1 one yields its one point: (v, -u) for its first nonzero row
    (u, v) when d = 2, the first nonzero cross product of two rows, in the
    order r1 x r2, r0 x r2, r0 x r1, when d = 3.  Both callers meet only
    singular square systems: the walk takes a system at a root of its
    line's determinant pencil (``_pencil_roots``) or at e_last when det B
    vanishes, and ``_first_witness`` the transpose of a system that the
    point solves.  So no determinant is taken here.  Every other system (d
    = 3 of rank 1, a non-square one, any other d) goes through the one
    kernel routine, ``linalg._kernel_basis``.
    """
    if not any(x % p for row in system for x in row):
        return tuple(projective_points(d, p))
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
    return tuple(_subspace_points(_kernel_basis(system, d, p), p))


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


def _roots(c0, c1, c2, c3, p):
    """(t, simple) for the t in F_p where c(t) = c3*t^3 + c2*t^2 + c1*t + c0
    vanishes, the coefficients given as residues in [0, p): c is evaluated
    at t = 0..p-1 in one pass, and a root is simple when c'(t) =
    3*c3*t^2 + 2*c2*t + c1 does not vanish there.  A polynomial that
    vanishes identically mod p has every t as a root, none of them simple.
    The one root rule of the walk's lines (``_pencil_roots``) and of the
    section products' binary quadratics
    (``zalgebra._projected_points``)."""
    if not (c0 or c1 or c2 or c3):
        return [(t, False) for t in range(p)]
    return [
        (t, ((3 * c3 * t + 2 * c2) * t + c1) % p != 0)
        for t in range(p)
        if (((c3 * t + c2) * t + c1) * t + c0) % p == 0
    ]


def _pencil_roots(a, b, d, p):
    """(t, simple) for the t in F_p where c(t) = det(A + tB) vanishes, A
    and B the d x d matrices with rows a and b (d = 2, 3).  c is a
    polynomial of degree at most d in t: its coefficients come from the
    rows once, and its roots from one pass over t = 0..p-1 (``_roots``).

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
    return _roots(c0 % p, c1, c2, c3, p)


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
        ts = (_pencil_roots([a[k::m] for k in range(m)], b_rows, d, p) if pencil
              else zip(range(p), repeat(False)))
        for t, simple in ts:
            yield u[:-1] + (t,), [x + t * y for x, y in zip(a, b)], simple
    if not (pencil and _det(b_rows) % p):
        yield (0,) * (d - 1) + (1,), b, False


def _points(reduced, p):
    """(coords, certified) for the points of enumerate_points, lazily and
    in the same order: coords is the point's tuple of coordinate tuples,
    one per variable group, each normalized as a ProjPoint's, and no
    ProjPoint is built.  A point is certified when its innermost prefix
    coordinate lies over a simple root of its line's determinant pencil,
    which makes it smooth (``_pencil_roots``).  Every other point,
    including every point of a model with no prefix group (n = 2) or a
    non-square system, carries False and says nothing either way.

    The innermost prefix group's lines hand over the prefix systems, and
    each system's fibre is read from its rank (``_kernel_points``) and
    yielded as finished points.  A square d = 2, 3 system there sits at a
    root of its pencil, or at e_last when det B vanishes, so it is singular
    by construction and no determinant is taken again.  With n = 2 the
    model is one system, which may be regular, so its kernel is taken
    (``linalg._kernel_basis``), and its projective space is its one fibre.

    A reader takes at most PREFIX_BUDGET points, charged as they are
    taken: the walk raises WorkLimitError when point PREFIX_BUDGET + 1 is
    asked for, and only then, with one message for every format.  So a
    reader that stops sooner, as ``relations_from_points`` does at its
    ceiling, is never refused, however large the fibre it stops in, and a
    list of a walk, even of a model with a large component (a zero fibre
    over every prefix of a line), is refused once it holds PREFIX_BUDGET
    points.  The n = 2 system is one fibre under the same rule, its points
    formed one at a time from the kernel basis (``_subspace_points``)."""
    groups, d, m = reduced.groups, reduced.d, len(reduced.rows)

    def walk(part, prefix):
        if len(prefix) < groups - 2:
            for x, inner, _ in _line_points(part, d, m, p):
                yield from walk(inner, prefix + (x,))
            return
        for x, system, certified in _line_points(part, d, m, p):
            head = prefix + (x,)
            for tail in _kernel_points([system[k::m] for k in range(m)], d, p):
                yield head + (tail,), certified

    if groups == 1:
        points = (((x,), False) for x in _subspace_points(_kernel_basis(reduced.rows, d, p), p))
    else:
        points = walk(_coefficient_tensor(reduced), ())
    yield from islice(points, PREFIX_BUDGET)
    if next(points, None) is not None:
        raise WorkLimitError(
            f"a model of format (n={reduced.n}, d={reduced.d}) has more than "
            f"{PREFIX_BUDGET} points at p={p}, the budget of a walk"
        )


def enumerate_points(model: VarietyModel, p: PRIME):
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
    vanishes mod p, one closed-form point at rank d-1 for d = 2, 3, and the
    one kernel routine (``linalg._kernel_basis``) otherwise.  A square
    system at a pencil root is singular by construction, so no determinant
    is taken there.  Points come in prefix order (``projective_points`` per
    group), then in kernel order.  Raises WorkLimitError when the prefix
    count exceeds PREFIX_BUDGET; the budget counts prefixes, not lines.
    The same budget bounds the points listed: the list is refused with
    WorkLimitError once it holds PREFIX_BUDGET points and the walk has
    another (``_points``), the n = 2 model's one fibre, the kernel's
    projective space, included.  So a model with more points pays for
    PREFIX_BUDGET of them before it is refused.

    The walk (``_points``) yields plain coordinate tuples and marks the
    points it certifies smooth (``_pencil_roots``); this list makes each
    point a ProjPoint and drops those marks, which the Jacobian sweeps read.
    The sweeps and the graded checks read the walk itself (``_walk``), so
    this list serves only its callers outside the package.
    """
    return [ProjPoint(p, coords) for coords, _ in _walk(model, p)[1]]


def _walk(model, p):
    """(reduced model, its walk): the model over F_p (``model_mod_p``) and
    the lazy (coords, certified) pairs of ``_points`` over it, the prefix
    budget at p checked in between.  ``enumerate_points`` lists the walk,
    and ``zalgebra.relations_from_points`` stops it once its rank is full."""
    reduced = model_mod_p(model, p)
    _check_prefix_budget(reduced.d, reduced.groups, (p,))
    return reduced, _points(reduced, p)


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


def jacobian_rank_at(model: VarietyModel, pt: POINT):
    """Rank over F_p of the matrix of partial derivatives at a point.

    The model is smooth at the point exactly when the rank equals d.  The
    point must satisfy every defining form, else NotOnVarietyError, and
    each group's coordinate vector must be nonzero mod p, else ValueError.
    The point needs one coordinate vector of length d per group, and a
    hand-built model d rows (``_check_square``), else ValueError.  The
    rank is the one rank routine's (``linalg._echelon_rank``), up to d.
    """
    reduced = model_mod_p(model, pt.p)
    d, groups = reduced.d, reduced.groups
    if len(pt.coords) != groups or any(len(c) != d for c in pt.coords):
        raise ValueError("coordinate arity mismatch")
    _check_square(reduced.rows, reduced.n, d)
    if not all(any(x % pt.p for x in c) for c in pt.coords):
        raise ValueError(f"{pt} has a zero coordinate vector: not a projective point")
    jac = _jacobian_rows(_coefficient_tensor(reduced), pt.coords, d, pt.p)
    # Euler's identity for a multilinear form: f(x) = sum_i x_0[i] df/dx_0[i].
    for k, row in enumerate(jac):
        if sum(x * v for x, v in zip(pt.coords[0], row)) % pt.p:
            raise NotOnVarietyError(
                f"form {k} (row {_excerpt(reduced.rows[k])}) does not vanish at {pt}"
            )
    return _echelon_rank(jac, pt.p, d)[0]


def _first_witness(reduced, points):
    """(p, point, rank) for the first of ``points``, (coords, certified)
    pairs of the reduced model as ``_points`` yields them, where the
    Jacobian rank drops below d, or None.  The witness is the one point of
    a sweep that becomes a ProjPoint.

    A certified point is skipped untested: it is smooth
    (``_pencil_roots``), so it can never be the witness.  At every other
    point the Jacobian's last-group block S is the point's prefix system,
    which the point's last coordinates solve, so rank S <= d - 1.  When
    rank S is exactly d - 1 its left kernel is one line, spanned by a
    vector l that _kernel_points finds on the transpose of S (closed form
    for d = 2, 3), and the Jacobian has rank d unless l*J = 0 mod p.  The
    other blocks of l*J are built from the prefix contractions, innermost
    group first, up to the first nonzero entry.  The Jacobian is ranked
    (``linalg._echelon_rank``, up to d) only when the test fails, so a
    witness reports its exact rank, or when rank S <= d - 2.
    """
    d, p, m = reduced.d, reduced.p, len(reduced.rows)
    tensor = _coefficient_tensor(reduced)
    for coords, certified in points:
        if certified:
            continue
        parts = _prefix_contractions(tensor, coords)
        system = parts[-1]
        left = _kernel_points([system[l * m : (l + 1) * m] for l in range(d)], m, p)
        if len(left) == 1 and any(
            sum(x * v for x, v in zip(left[0], _partials(parts[g], coords[g + 1 :], d, i))) % p
            for g in reversed(range(len(parts) - 1))
            for i in range(d)
        ):
            continue
        rank = _echelon_rank(_jacobian_rows(tensor, coords, d, p), p, d)[0]
        if rank < d:
            return p, ProjPoint(p, coords), rank
    return None


def _slice_pivot(t):
    """(rank, M) of the fraction-free elimination of the state's slice
    numerators (``states._slice_elimination``, which checks the
    flattening's cost first): their rank, which is the flattening's, and
    the last pivot M, which at full rank d is +- the d x d minor of the
    slices at the pivot columns."""
    rank, _, pivot, _ = _slice_elimination(t)
    return rank, pivot


def _file_primes(t, primes, disc=None, pivot=None):
    """The one filing of primes: each of the given primes, which the caller
    passes distinct and ascending, filed once as bad, excluded or used,
    before any point is enumerated.  A caller that has eliminated the
    slices at full rank already (``classify``) passes their last pivot, and
    no second elimination is made; otherwise the flattening's cost is
    checked and RankDeficientError raised when the flattening over Q has
    dimension below d.  The filing itself never raises.  Returns (used,
    bad, excluded), three tuples of primes; each caller reduces a used
    prime (``_reduced_model``) only when it sweeps it.  When every prime is
    bad, bad lists them all, in order, and each caller states what that
    means for its own result.  The sweeps file through ``_file_sweep``,
    which checks their prefix budget first.

    One rank certificate files every prime: the last pivot M of the
    fraction-free elimination (``linalg._bareiss``) of the state's slice
    numerators.  Their rank there is the flattening's rank over Q, and at
    full rank M is, up to sign, the d x d minor of the slices at the pivot
    columns, so it is nonzero.  A prime that divides neither the state's
    denominator nor M keeps that minor nonzero mod p (the reduced slices'
    minor is +-M times den^-d), so the flattening keeps rank d modulo p and
    the prime is not bad, with no reduction.  Every other prime is reduced
    and filed bad when the reduction fails.

    ``disc`` is the state's one slice discriminant
    (``invariants._slice_curve``; its projected curves share it), which
    ``smoothness_scan`` and ``_refuse_singular_reduction`` pass.  A prime
    that is not bad is excluded when it divides the numerator of that
    nonzero value: the curve model is smooth over Q, its reduction modulo
    p is singular, and the reduced curve says nothing about the original
    model.  Every other prime that is not bad is used.
    """
    if pivot is None:
        rank, pivot = _slice_pivot(t)
        if rank < t.d:
            raise RankDeficientError(rank, t.d)
    used, bad, excluded = [], [], []
    for p in primes:
        if t.den * pivot % p == 0:
            try:
                _reduced_model(t, p)
            except BadReductionError:
                bad.append(p)
                continue
        (excluded if disc and disc.numerator % p == 0 else used).append(p)
    return tuple(used), tuple(bad), tuple(excluded)


def _file_sweep(t, primes, disc=None, pivot=None):
    """The filing (``_file_primes``) of one sweep's primes, after its
    prefix budget, summed over them, is checked, so WorkLimitError comes
    before RankDeficientError.  None stands for DEFAULT_PRIMES, and the
    primes are filed distinct and ascending (``linalg._sorted_primes``).
    Both sweeps,
    ``smoothness_scan`` and classify's vote, file through here."""
    primes = _sorted_primes(primes)
    _check_prefix_budget(t.d, t.n - 1, primes)
    return _file_primes(t, primes, disc, pivot)


def _refuse_singular_reduction(t, p):
    """Raise BadReductionError when the filing (``_file_primes``) excludes
    p for the state: p divides the slice discriminant of a smooth curve
    state, so the reduced curve is singular.  The graded checks of
    ``zalgebra`` call this only after a check has failed, before their own
    error, so a check that passes files no prime.  The state's projected
    curves share one discriminant, which one projection gives
    (``invariants._slice_curve``); a state outside the curve formats has
    none, so it is refused by the check's own error and files nothing."""
    from .invariants import _slice_curve

    curve = _slice_curve(t)
    if curve and _file_primes(t, (p,), curve.discriminant)[2]:
        raise BadReductionError(
            p, f"p={p} divides a slice discriminant: the reduced curve is singular"
        )


def smoothness_scan(t: Tensor, primes: PRIMES = None):
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
    ``_first_witness``).  The prefix budget is checked once, summed over
    all primes, before they are filed (``_file_sweep``), also for the scans
    below that walk no point.

    A (3,3) or (4,2) state has one slice discriminant, since its
    projected curves share their invariants (``invariants._slice_curve``
    builds one projection).  A state whose slice discriminant is nonzero
    is neither walked nor swept, and reduced only to file a prime: each
    used prime's count is that of the Jacobian of its projected curve
    (``_jacobian_count``, on the invariants of that one curve), in O(p),
    and it has no witness.  That is exact.  A used p >= 5 does not divide
    the slice discriminant's numerator, so the reduced projected curve C_p
    is smooth over the algebraic closure of F_p, and a smooth genus-one
    curve over F_p has as many points as its Jacobian.  At a point x of a
    smooth C_p the matrix of linear forms M(x) has corank exactly 1:
    corank 2 would make adj M(x) = 0, and with it grad det M(x), by
    Jacobi's formula.  So over each F_p-point of C_p lies exactly one
    point of the model, defined over F_p, and the model is smooth there (the
    argument of ``_pencil_roots``): the count is the model's, the sweep
    could find no witness, and NoSingularPointFound proves each used
    reduction smooth.  Every other state (a vanishing slice discriminant,
    (5,2) and the other formats) is walked and swept as above.

    When the sweep of a (5,2) state finds a witness, the state is offered
    the smoothness certificate of ``classify`` once
    (``invariants._certified_smooth``); a clean sweep never pays for it.  A
    certified model is smooth over the algebraic closure of Q, so each
    witness prime is a prime of singular reduction: it moves from
    ``primes``, ``point_counts`` and ``witnesses`` to ``excluded_primes``,
    and the verdict is NoSingularPointFound, as ``classify`` finds.
    """
    from .invariants import _certified_smooth, _jacobian_count, _slice_curve

    curve = _slice_curve(t)
    disc = curve and curve.discriminant
    used, bad, excluded = _file_sweep(t, primes, disc)
    if not used and not excluded:
        raise AllPrimesBadError(f"all primes {_excerpt(list(bad))} hit bad reduction")
    counts = []
    witnesses = []
    for p in used:
        if disc:
            counts.append((p, _jacobian_count(curve, p)))
            continue
        (reduced,) = _reduced_model(t, p)
        walk = list(_points(reduced, p))
        counts.append((p, len(walk)))
        witness = _first_witness(reduced, walk)
        if witness is not None:
            witnesses.append(witness)
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


def hasse_window(p: PRIME):
    """Exact integer point-count window for a genus-one curve over F_p:
    [p + 1 - floor(2*sqrt(p)), p + 1 + floor(2*sqrt(p))].  Used as a
    sanity oracle for the elliptic-curve cases; violations flag bugs.  p
    must pass ``check_primes``."""
    from math import isqrt

    check_primes((p,))
    b = isqrt(4 * p)
    return p + 1 - b, p + 1 + b


guard(globals(), VarietyModel)
