"""Graded algebras attached to generic states, and the point-based checks
that accompany them.

A (3,3) or (4,2) state w in V^(x)n defines a Z-algebra: its relation space
R_j is the flattening image of w with the factors rotated by j, and the
degree-k part is V^(x)k modulo the span of all
V^(x)j (x) R_{j mod n} (x) V^(x)(k-a-j), where a = n - 1 is the relation
degree.  By construction w lies in R_0 (x) V and in V (x) R_1, the
overlap condition of a regular algebra (Artin-Tate-Van den Bergh); generic
states give the Hilbert functions of 3-dimensional quadratic and cubic
regular algebras (Artin-Schelter 1987), whose Hilbert series are
1/(1-t)^3 and 1/((1-t)^2 (1-t^2)): each the inverse of the Euler
polynomial of its minimal resolution, so the expected values are these
series' coefficients in closed form (``quadratic_expected_dims``,
``cubic_expected_dims``), not values copied from a table.

The profile is built in the quotient one degree at a time.  The span in
degree k is the span in degree k-1 tensored with V plus
V^(x)(k-a) (x) R_{(k-a) mod n}, so A_k = (A_{k-1} (x) V) / W_k, where W_k
is the image of A_{k-a} (x) R_{(k-a) mod n} under the multiplication maps
that the earlier degrees built, each kept as the nonzero entries of its
columns.  Each degree ranks an h_{k-a}*d by h_{k-1}*d matrix, not the
d^k-wide span of every shift.  The ranks are taken over F_p after
reducing the state, so a profile is evidence at one prime and agreement
across good primes is the intended standard.

Every check here reaches F_p from the state's reduced flattenings alone,
through one entry, ``geometry._rotation_models``, which reduces the one
state once per call (``geometry._reduced_model``): a profile's relation
spaces are the flattenings of the n rotations of that one reduction
(``cyclic_relations``), and the roundtrip and the section products read
the first.  No check builds a basis over Q: a failed reduction is named
from the rank of the state's slices (``geometry._slice_pivot``), in one
error order.  Each check answers for one prime; a refusal says nothing
about the state at any other prime.

What a prime means is filed in geometry, once (``geometry._file_primes``).
A check that fails asks that filing about its prime
(``geometry._refuse_singular_reduction``): a profile off its expected
series, a roundtrip short of its rank and a section product short of its
points are refused with BadReductionError when the filing excludes the
prime, since it divides the slice discriminant of a smooth curve state
and the reduced curve is singular.  A check that passes files no prime.
This module imports nothing from ``invariants``.

The reconstruction roundtrip and the section-product test evaluate
monomials at the model's F_p-points instead, by one rule
(``_monomial_row``): a point's row is the Kronecker product of its
coordinate vectors in the order given.  The roundtrip reads the point
walk (``geometry._walk``) as plain coordinate tuples; the section
product reads no walk, since the projections of the points onto a pair
of groups are the F_p-points of the pair's determinantal curve
(``_projected_points``).  Both rank their rows with the package's one
rank routine, ``linalg._echelon_rank``, which joins each row to the
row-echelon basis of the rows before it and stops at the largest rank
the check can reach (4 for a section product); no ProjPoint is built.
The roundtrip is one evaluation rank: the points give back the model's
forms exactly when that rank reaches width - rank(forms), which no rank
can pass, so ``relations_from_points`` stops or refuses at that ceiling
and takes no kernel, and ``roundtrip_check`` returns True or refuses.
"""

from dataclasses import dataclass

from ._guard import Kind, guard, ints, power_exceeds
from .errors import InsufficientPointsError, WorkLimitError, WrongFormatError
from .linalg import PRIME, Matrix, _echelon_rank, _eliminate
from .states import FORMAT, Tensor
from .geometry import (
    VarietyModel,
    _check_prefix_budget,
    _refuse_singular_reduction,
    _roots,
    _rotation_models,
    _walk,
    hasse_window,
    projection_coefficients,
    projective_points,
)

#: Widest degree a Hilbert profile may reach: d**k_max.  That is k_max <= 5
#: for (3,3) and k_max <= 8 for (4,2).  The quotient recursion is cheap on
#: generic states, but degenerate relations let h_k grow like 3*2**(k-1)
#: (the x^2, y^2, z^2 of GHZ), so the worst case is still d**k wide.
MAX_PROFILE_WIDTH = 256

#: A Hilbert degree k_max: no profile reaches a degree above its width, and
#: an expected series is a tuple of k_max + 1 ints.
DEGREE = ints(0, MAX_PROFILE_WIDTH, WorkLimitError)


@dataclass(frozen=True)
class HilbertProfile:
    """Computed vs expected graded dimensions dim A_{i,i+k} for k <= k_max."""

    kind: str            # "quadratic" | "cubic"
    prime: int
    dims: tuple
    expected: tuple

    def matches(self):
        return self.dims == self.expected

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "prime": self.prime,
            "computed": list(self.dims),
            "expected": list(self.expected),
            "matches": self.matches(),
        }


def quadratic_expected_dims(k_max: DEGREE):
    """h(0), ..., h(k_max) of 1/(1-t)^3, the inverse of the Euler polynomial
    (1-t)^3 of the resolution 0 -> P_{i+3} -> P_{i+2}^3 -> P_{i+1}^3 -> P_i
    -> S_i -> 0: h(k) = (k+1)(k+2)/2.  k_max is at most MAX_PROFILE_WIDTH
    (``DEGREE``)."""
    return tuple((k + 1) * (k + 2) // 2 for k in range(k_max + 1))


def cubic_expected_dims(k_max: DEGREE):
    """h(0), ..., h(k_max) of 1/((1-t)^2 (1-t^2)), the inverse of the Euler
    polynomial 1 - 2t + 2t^3 - t^4 = (1-t)^2 (1-t^2) of the resolution
    0 -> P_{i+4} -> P_{i+3}^2 -> P_{i+1}^2 -> P_i -> S_i -> 0:
    h(k) = floor((k+2)^2/4).  k_max is at most MAX_PROFILE_WIDTH
    (``DEGREE``)."""
    return tuple((k + 2) ** 2 // 4 for k in range(k_max + 1))


def _monomial_row(point, p):
    """The evaluation row of one point, given as a tuple of coordinate
    vectors: the Kronecker product of those vectors in the order given,
    first slowest, as a list of ints in [0, p)."""
    row = [1]
    for v in point:
        row = [a * x % p for a in row for x in v]
    return row


def relations_from_points(model: VarietyModel, p: PRIME):
    """The forms that the model's F_p-points give back: the span of the
    model's rows over F_p, as its canonical basis, a Matrix over F_p whose
    ``rows`` is the span's dimension and whose ``cols`` is d**k, returned
    only once the points determine it.

    A point's row is the Kronecker product of the coordinate vectors of
    the model's k = n - 1 groups, in order (``_monomial_row``).  Every form
    of the model vanishes at every point, so every row lies in the
    orthogonal complement of the forms' span, and the evaluation rank can
    never exceed the ceiling width - rank(forms) over F_p.  It reaches the
    ceiling exactly when the rows span that whole complement, that is, when
    the kernel of the evaluation is exactly the forms' span: the points
    then give back the forms and nothing else.  So the ceiling is the one
    target.  The forms are eliminated once, to their canonical basis
    (``_eliminate``), which gives both the ceiling and the result.  Below
    the ceiling the kernel would come out too big, so the computation
    aborts with InsufficientPointsError, naming the rank, the ceiling and
    the F_p-point count, instead of reporting a wrong space.

    The points are walked lazily (``geometry._walk``), and each row joins
    a row-echelon basis of the rows so far (``linalg._echelon_rank``), so
    no matrix of all the points is formed and the basis is never
    eliminated again; the walk stops once the rank reaches the ceiling,
    when no further point can change the answer.  A walk that stays short
    runs to the end, so the error names the full rank and the count of
    rows read, which is the point count.  The walk lists at most
    PREFIX_BUDGET points (``geometry._points``), and that bound can fire
    before the ceiling: a model with a large component, such as
    {x0 = 0} x P^2 at p = 443, is refused with WorkLimitError after its
    first fibres, whatever rank they reached.  So the ``roundtrip`` command
    turns that refusal at a later prime into the prime's error entry
    (``cli._per_prime``), and no computed entry is discarded.

    The evaluation rows are d**k wide, the width of the model's rows, so
    before any point is enumerated a model whose rows are too wide is
    refused with WorkLimitError, naming that width, by the width bound of
    the Hilbert profiles: d**k <= MAX_PROFILE_WIDTH.  The model may be over
    Q or over F_p: the walk reduces it (``model_mod_p``) and then checks
    the prefix budget.
    """
    width = len(model.rows[0])
    if width > MAX_PROFILE_WIDTH:
        raise WorkLimitError(
            f"the evaluation rows of a model of format (n={model.n}, d={model.d}) are "
            f"{width} wide, over the limit of {MAX_PROFILE_WIDTH}"
        )
    reduced, walk = _walk(model, p)
    forms = [[x % p for x in row] for row in reduced.rows]
    span = _eliminate(forms, width, p)[0]
    ceiling = width - span
    rank, count = _echelon_rank((_monomial_row(coords, p) for coords, _ in walk), p, ceiling)
    if rank < ceiling:
        raise InsufficientPointsError(
            f"evaluation rank {rank} below generic target {ceiling} at p={p} "
            f"from {count} F_p-points"
        )
    return Matrix._trusted(map(tuple, forms[:span]), width, p)


def cyclic_relations(state: Tensor, p: PRIME):
    """The basis rows of the relation spaces R_0, ..., R_{n-1} of a state
    over F_p.

    R_j is the state-side reduction of the flattening image of the state
    with its factors rotated by j (factor k moves to position k - j mod n:
    the first axis moved last j times, ``states._rotate``), so the rotation
    by j lies in both R_j (x) V and V (x) R_{j+1}: the rows of the
    rotation's model over F_p.  All n come from one reduction of the state,
    whose residues the leaf rotates (``geometry._reduced_model``), with no
    Tensor per rotation; the errors come in one order
    (``geometry._rotation_models``): WorkLimitError, then
    RankDeficientError of some rotation, then the reduction's own error.
    """
    return [model.rows for model in _rotation_models(state, p, state.n)]


def _push(terms, mu, size, rest, p):
    """Apply mu (x) id to the (index, coefficient) terms of a vector of
    A_j (x) V (x) V^(x)rest, indexed (column of A_j (x) V) * d**rest + word;
    the image lies in A_{j+1} (x) V^(x)rest, where A_{j+1} has dimension
    size, and mu[col] lists the (i, x) pairs of the nonzero entries of
    column col's image.  Returns the image's entries as a list of ints in
    [0, p)."""
    out = [0] * (size * rest)
    for idx, c in terms:
        if c:
            col, word = divmod(idx, rest)
            for i, x in mu[col]:
                out[i * rest + word] += c * x
    return [x % p for x in out]


def check_hilbert_degree(d: FORMAT, k_max: DEGREE):
    """Raise WorkLimitError unless d**k_max <= MAX_PROFILE_WIDTH, decided
    before d**k_max is formed (``power_exceeds``); k_max is at least 0 by
    its kind (``DEGREE``)."""
    if power_exceeds(d, k_max, MAX_PROFILE_WIDTH):
        raise WorkLimitError(
            f"k_max={k_max} is out of range: need {d}**k_max <= {MAX_PROFILE_WIDTH}"
        )


def _hilbert_profile(state, p, k_max, kind, expected_fn):
    """The profile of dims A_m for m <= k_max (``_quotient_dims``) against
    its expected series.  A profile off that series is refused with
    BadReductionError when the one filing excludes p
    (``geometry._refuse_singular_reduction``), the rule of the roundtrip
    and the section products: p divides the slice discriminant of a smooth
    curve state, the reduced curve is singular, and its profile says
    nothing about the state's.  Every other profile is reported, on target
    or not."""
    profile = HilbertProfile(kind, p, _quotient_dims(state, p, k_max), expected_fn(k_max))
    if not profile.matches():
        _refuse_singular_reduction(state, p)
    return profile


def _quotient_dims(state, p, k_max):
    """dim A_m for m <= k_max, built one degree at a time in the quotient.

    I_m = I_{m-1} (x) V + V^(x)(m-a) (x) R_{(m-a) mod n}, so A_m is
    (A_{m-1} (x) V) / W_m, where W_m is the image of A_{m-a} (x) R.  Each
    basis vector of A_{m-a} tensored with each basis row of R is carried
    into A_{m-1} (x) V through the multiplication maps
    mu_j: A_{j-1} (x) V -> A_j of the earlier degrees.  Below the relation
    degree a nothing is divided out, so A_j = V^(x)j and mu_j is the
    identity: those pushes are skipped, and no mu_j is built for j < a.
    The elimination of those rows (``_eliminate``) leaves the free columns
    as A_m's basis, and mu_m is the transpose of the free-column basis of
    their null space: it keeps a free column and sends a pivot column to
    minus its row on the free columns (unreduced; ``_push`` reduces).  mu_m
    is stored sparsely, as the (i, x) pairs of each column's nonzero
    entries: a free column has the one pair (i, 1), and when A_m is 0 every
    column has none.  No later degree reads mu_{k_max}, so the top degree
    is ranked only, up to its width (``linalg._echelon_rank``), with no
    RREF and no mu.
    """
    check_hilbert_degree(state.d, k_max)
    relations = cyclic_relations(state, p)
    n, d = state.n, state.d
    arity = n - 1
    block = d**arity
    dims = [1]
    mus = [None]  # mus[m][c]: image in A_m of column c of A_{m-1} (x) V, for m >= arity
    for m in range(1, k_max + 1):
        width = dims[m - 1] * d
        if m < arity:
            dims.append(width)
            mus.append(None)
            continue
        if m == arity:
            rows = [list(rel) for rel in relations[0]]
        else:
            rows = []
            for b in range(dims[m - arity]):
                for rel in relations[(m - arity) % n]:
                    terms = [(b * block + w, c) for w, c in enumerate(rel)]
                    for j in range(max(m - arity + 1, arity), m):
                        vec = _push(terms, mus[j], dims[j], d ** (m - j), p)
                        terms = enumerate(vec)
                    rows.append(vec)
        if m == k_max:
            dims.append(width - _echelon_rank(rows, p, width)[0])
            break
        rank, pivots = _eliminate(rows, width, p)
        dims.append(width - rank)
        pivot_set = set(pivots)
        free = [f for f in range(width) if f not in pivot_set]
        mu = [()] * width
        for i, f in enumerate(free):
            mu[f] = ((i, 1),)
        for row, pc in zip(rows, pivots):
            mu[pc] = tuple([(i, -row[f]) for i, f in enumerate(free) if row[f]])
        mus.append(mu)
    return tuple(dims)


def quadratic_hilbert(state: Tensor, p: PRIME, k_max: DEGREE = 4):
    """Graded dimensions of the quadratic algebra of a (3,3) state.

    The degree-2 relations cycle through the flattening images of the
    three rotations of the state; the generic answer is
    ``quadratic_expected_dims``.  A profile off it at a prime that divides
    a slice discriminant of a smooth state raises BadReductionError
    (``_hilbert_profile``).
    """
    if (state.n, state.d) != (3, 3):
        raise WrongFormatError("quadratic profiles need format (3,3)")
    return _hilbert_profile(state, p, k_max, "quadratic", quadratic_expected_dims)


def cubic_hilbert(state: Tensor, p: PRIME, k_max: DEGREE = 5):
    """Graded dimensions of the cubic algebra of a (4,2) state.

    The degree-3 relations cycle through the flattening images of the
    four rotations of the state; the generic answer is
    ``cubic_expected_dims``.  A profile off it at a prime that divides a
    slice discriminant of a smooth state raises BadReductionError
    (``_hilbert_profile``).
    """
    if (state.n, state.d) != (4, 2):
        raise WrongFormatError("cubic profiles need format (4,2)")
    return _hilbert_profile(state, p, k_max, "cubic", cubic_expected_dims)


@dataclass(frozen=True)
class ProductMapResult:
    """Rank evidence for the section-product map on one axis pair."""

    p: int
    axis_pair: tuple
    rank: int
    kernel_dim: int
    points_used: int

    @property
    def surjective(self):
        return self.kernel_dim == 0

    def to_json_dict(self):
        return {
            "prime": self.p,
            "axes": list(self.axis_pair),
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "points_used": self.points_used,
            "verdict": "Surjective" if self.surjective else f"KernelDim({self.kernel_dim})",
        }


#: Two distinct groups among 0, 1 and 2 of a (4,2) model, as a collection
#: of two ints in either order.
AXIS_PAIR = Kind(
    lambda v: hasattr(v, "__iter__") and all(type(a) is int for a in v)
    and sorted(v) in ([0, 1], [0, 2], [1, 2]),
    "a pair naming two distinct groups among 0, 1 and 2",
)


def _projected_points(model, pair, p):
    """The F_p-points (x, y) of the determinantal curve of a (4,2) model
    over F_p on the axis pair (a, b), a < b: the form F =
    ``projection_coefficients(model.rows, 4, 2, pair)`` mod p, read as
    A(x)*y0^2 + B(x)*y0*y1 + C(x)*y1^2 (``BIQUADRATIC_MONOMIALS``).  For
    each x of P^1(F_p), in ``projective_points`` order, the points over x
    are the roots (1, t) of the binary quadratic A + B*t + C*t^2, by the
    walk's root rule (``geometry._roots``), and then (0, 1) when C(x)
    vanishes; a quadratic that vanishes identically gives all of P^1.
    Each (x, y) comes once, as a pair of normalized coordinate tuples."""
    f = [c % p for c in projection_coefficients(model.rows, 4, 2, pair)]
    points = []
    for x in projective_points(2, p):
        x0, x1 = x
        a, b, c = (((f[k] * x0 + f[k + 1] * x1) * x0 + f[k + 2] * x1 * x1) % p for k in (0, 3, 6))
        points += [(x, (1, t)) for t, _ in _roots(a, b, c, 0, p)]
        if not c:
            points.append((x, (0, 1)))
    return points


def multiplication_surjectivity(state: Tensor, axis_pair: AXIS_PAIR, p: PRIME):
    """Test whether products of sections from two axes span the full
    4-dimensional target, by evaluating the 4 monomials at the
    projections of the model's F_p-points.

    Full rank certifies surjectivity (the two degree-2 bundles are not
    isomorphic); a positive kernel is evidence of isomorphic bundles or a
    bad prime.  The number of distinct projected points must be plausible
    for a curve of genus one: a count above the Hasse window certifies a
    degenerate model, and fewer than five points cannot pin the kernel
    down.  Both refuse the prime.  When the one filing excludes p
    (``geometry._refuse_singular_reduction``, the filing of
    ``smoothness_scan``), the reduced curve is singular, and the refusal is
    a BadReductionError saying so; every other refusal is an
    InsufficientPointsError.  For a smooth curve state every other prime
    gives a smooth reduced curve, whose projected count lies in the Hasse
    window (``geometry.smoothness_scan``), so only p = 5 and 7, where the
    window starts below five, can still lack points.  The prime is not
    tested before the points are listed: at many singular reductions the
    test still passes.  The axis pair must name two distinct groups among
    0, 1 and 2 (``AXIS_PAIR``), else ValueError.

    The projections are listed without walking the model.  With c the
    third group, the model's two forms read M(x, y) z = 0, M the 2 x 2
    matrix of linear forms in z, so (x, y) is the projection of an
    F_p-point exactly when M(x, y) has an F_p kernel vector, that is,
    when det M(x, y) = 0 mod p.  det M is the pair's determinantal curve
    (``geometry.projection_coefficients``), so the projected points are
    that curve's F_p-points, one binary quadratic in y per x
    (``_projected_points``).  The listing evaluates ~(p+1)*p quadratics,
    against the walk's (p+1)**2 prefixes, so the walk's prefix budget at p
    (``geometry._check_prefix_budget``) still bounds the work and still
    refuses the same primes, first.  The projections' evaluation rows
    (``_monomial_row``) are ranked up to the full rank 4
    (``linalg._echelon_rank``), which reads no row past it.
    """
    if (state.n, state.d) != (4, 2):
        raise WrongFormatError("the section-product test needs format (4,2)")
    axis_pair = tuple(sorted(axis_pair))
    (model,) = _rotation_models(state, p, 1)
    _check_prefix_budget(model.d, model.groups, (p,))
    projected = _projected_points(model, axis_pair, p)
    lo, hi = hasse_window(p)
    if not max(5, lo) <= len(projected) <= hi:
        _refuse_singular_reduction(state, p)
        if len(projected) > hi:
            raise InsufficientPointsError(
                f"{len(projected)} projected points at p={p} exceed the genus-one "
                f"bound {hi}: degenerate model"
            )
        raise InsufficientPointsError(
            f"only {len(projected)} projected points at p={p}; kernel not determined"
        )
    rank = _echelon_rank((_monomial_row(pt, p) for pt in projected), p, 4)[0]
    return ProductMapResult(p, axis_pair, rank, 4 - rank, len(projected))


def roundtrip_check(state: Tensor, p: PRIME):
    """Reconstruct the flattening image from the model's F_p-points: True,
    or a refusal.

    The model's forms are the state-side reduction of the flattening
    image (``geometry._rotation_models``), and the points give them back exactly when
    the evaluation rank reaches width - rank(forms)
    (``relations_from_points``), so a roundtrip that returns returns True;
    it never reports a wrong space.  Bad reduction is raised by the
    model's reduction, or, when the evaluation rank falls short and the one
    filing excludes p (``geometry._refuse_singular_reduction``), as
    BadReductionError naming the singular reduced curve, as in
    ``multiplication_surjectivity``.  Any other shortfall is an
    InsufficientPointsError naming the F_p-point count: a smooth curve at
    a good prime can have fewer points than the rank needs (3 at p = 7,
    against a target of 6), and W(5) at p = 5, 7, 11 and 13 has rank 11
    against 14.
    """
    (reduced,) = _rotation_models(state, p, 1)
    try:
        relations_from_points(reduced, p)
    except InsufficientPointsError:
        _refuse_singular_reduction(state, p)
        raise
    return True


guard(globals())
