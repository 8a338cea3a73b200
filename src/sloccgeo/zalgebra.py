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
through the one leaf ``geometry._reduced_model``, which reduces the state
once per call: a profile's relation spaces are the flattenings of the n
rotations of that one reduction (``cyclic_relations``).  No check builds
a basis over Q: a failed reduction is named from the rank of the state's
slices (``geometry._slice_pivot``).

The reconstruction roundtrip and the section-product test evaluate
monomials at the model's F_p-points instead, by one rule
(``_monomial_row``): a point's row is the Kronecker product of its
coordinate vectors in the order given.  Both read the point walk
(``geometry._walk``) as plain coordinate tuples and eliminate plain
residue rows (``_eliminate``); no ProjPoint is built.
"""

from dataclasses import dataclass

from ._guard import Kind, guard, ints, power_exceeds
from .errors import (
    BadReductionError,
    InsufficientPointsError,
    WorkLimitError,
    WrongFormatError,
)
from .linalg import PRIME, Matrix, _eliminate
from .states import FORMAT, Tensor
from .geometry import (
    VarietyModel,
    _rotation_models,
    _singular_reduction,
    _walk,
    hasse_window,
    reduced_models,
)
from .invariants import slice_discriminants

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
    """Kernel of the monomial evaluation at all F_p-points, as its
    canonical basis (``Matrix.kernel``): a Matrix over F_p whose ``rows``
    is the kernel's dimension and whose ``cols`` is d**k.

    A point's row is the Kronecker product of the coordinate vectors of
    the model's k = n - 1 groups, in order (``_monomial_row``).  On a
    generic curve model the monomials span a space of dimension
    k*d (sections of the product line bundle), leaving a kernel of
    dimension d**k - k*d.  If the evaluation rank falls short of that
    target the kernel would come out too big, so the computation aborts
    with InsufficientPointsError, naming the rank and the F_p-point count,
    instead of reporting a wrong space.

    The points are walked lazily (``geometry._walk``), and each row joins
    a row-echelon basis of the rows so far (``_eliminate`` without
    back-substitution), so no matrix of all the points is formed.  Every
    form of the model vanishes at every point, so every row lies in the
    orthogonal complement of the model's row space, and the rank can never
    exceed width - rank(model rows) over F_p.  Once it reaches that
    ceiling, and the ceiling is at least the target, the rows span the
    whole complement, so the kernel is exactly the model's row space and
    no further point can change it: the walk stops there.  A walk that
    stays short runs to the end, so the error names the full rank and
    point count.  The kernel is taken from the basis rows, whose span is
    that of all the rows, so it is the same canonical basis.

    The evaluation matrix is d**k wide, the width of the model's rows, so
    before any point is enumerated a model whose rows are too wide is
    refused with WorkLimitError, naming that width, by the width bound of
    the Hilbert profiles: d**k <= MAX_PROFILE_WIDTH.  The model may be over
    Q or over F_p: the walk reduces it (``model_mod_p``) and then checks
    the prefix budget.
    """
    d, k, width = model.d, model.groups, len(model.rows[0])
    if width > MAX_PROFILE_WIDTH:
        raise WorkLimitError(
            f"the evaluation rows of a model of format (n={model.n}, d={d}) are "
            f"{width} wide, over the limit of {MAX_PROFILE_WIDTH}"
        )
    reduced, walk = _walk(model, p)
    forms = [[x % p for x in row] for row in reduced.rows]
    ceiling = width - _eliminate(forms, width, p, reduce=False)[0]
    basis, rank, count = [], 0, 0
    for coords, _ in walk:
        count += 1
        if rank < ceiling:
            basis.append(_monomial_row(coords, p))
            rank = _eliminate(basis, width, p, reduce=False)[0]
            del basis[rank:]
            if rank == ceiling >= k * d:
                break
    if rank < k * d:
        raise InsufficientPointsError(
            f"evaluation rank {rank} below generic target {k * d} at p={p} "
            f"from {count} F_p-points"
        )
    return Matrix._trusted(map(tuple, basis), width, p).kernel()


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
    RankDeficientError of some rotation, then the first failing
    reduction's error.
    """
    return [model.rows for model in _rotation_models([state], p, state.n)]


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
    is ranked only: forward elimination, no back-substitution and no mu.
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
        top = m == k_max
        rank, pivots = _eliminate(rows, width, p, reduce=not top)
        dims.append(width - rank)
        if top:
            break
        pivot_set = set(pivots)
        free = [f for f in range(width) if f not in pivot_set]
        mu = [()] * width
        for i, f in enumerate(free):
            mu[f] = ((i, 1),)
        for row, pc in zip(rows, pivots):
            mu[pc] = tuple([(i, -row[f]) for i, f in enumerate(free) if row[f]])
        mus.append(mu)
    return HilbertProfile(kind, p, tuple(dims), expected_fn(k_max))


def quadratic_hilbert(state: Tensor, p: PRIME, k_max: DEGREE = 4):
    """Graded dimensions of the quadratic algebra of a (3,3) state.

    The degree-2 relations cycle through the flattening images of the
    three rotations of the state; the generic answer is
    ``quadratic_expected_dims``.
    """
    if (state.n, state.d) != (3, 3):
        raise WrongFormatError("quadratic profiles need format (3,3)")
    return _hilbert_profile(state, p, k_max, "quadratic", quadratic_expected_dims)


def cubic_hilbert(state: Tensor, p: PRIME, k_max: DEGREE = 5):
    """Graded dimensions of the cubic algebra of a (4,2) state.

    The degree-3 relations cycle through the flattening images of the
    four rotations of the state; the generic answer is
    ``cubic_expected_dims``.
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


def multiplication_surjectivity(state: Tensor, axis_pair: AXIS_PAIR, p: PRIME):
    """Test whether products of sections from two axes span the full
    4-dimensional target, by evaluating the 4 monomials at the
    projections of the model's F_p-points.

    Full rank certifies surjectivity (the two degree-2 bundles are not
    isomorphic); a positive kernel is evidence of isomorphic bundles or a
    bad prime.  The number of distinct projected points must be plausible
    for a curve of genus one: a count above the Hasse window certifies a
    degenerate model, and fewer than five points cannot pin the kernel
    down.  Both refuse the prime.  When no slice discriminant vanishes and
    p divides the numerator of one (a prime ``smoothness_scan`` excludes),
    the reduced curve is singular, and the refusal is a BadReductionError
    saying so; every other refusal is an InsufficientPointsError.  For such
    a state every other prime gives a smooth reduced curve, whose projected
    count lies in the Hasse window (``geometry.smoothness_scan``), so only
    p = 5 and 7, where the window starts below five, can still lack
    points.  The prime is not tested before the points are enumerated: at
    many singular reductions the test still passes.  The axis pair must
    name two distinct groups among 0, 1 and 2 (``AXIS_PAIR``), else
    ValueError.

    The walk's coordinate tuples are projected as they come
    (``geometry._walk``), with no list of ProjPoints, and the rank is that
    of the distinct projections' evaluation rows (``_monomial_row``) under
    forward elimination (``_eliminate`` without back-substitution).
    """
    if (state.n, state.d) != (4, 2):
        raise WrongFormatError("the section-product test needs format (4,2)")
    a, b = axis_pair = tuple(sorted(axis_pair))
    (model,) = reduced_models([state], p)
    projected = sorted({(coords[a], coords[b]) for coords, _ in _walk(model, p)[1]})
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
    rank = _eliminate([_monomial_row(pt, p) for pt in projected], 4, p, reduce=False)[0]
    return ProductMapResult(p, axis_pair, rank, 4 - rank, len(projected))


def _refuse_singular_reduction(state, p):
    """Raise BadReductionError when p divides a slice discriminant of a
    smooth curve state (``geometry._singular_reduction``): the reduced
    curve is singular.  A refusing check calls this before its own error."""
    if _singular_reduction(slice_discriminants(state), p):
        raise BadReductionError(
            p, f"p={p} divides a slice discriminant: the reduced curve is singular"
        )


def roundtrip_check(state: Tensor, p: PRIME):
    """Reconstruct the flattening image from the model's F_p-points.

    True when the kernel of the monomial evaluation
    (``relations_from_points``) equals the state-side reduction of the
    flattening image, as canonical
    subspaces: the kernel's RREF rows are those of the reduced model.
    The construction guarantees the kernel contains that reduction, so a
    full evaluation rank forces equality; failures therefore surface only
    as bad reduction or insufficient points, never as a wrong kernel.  Bad
    reduction is raised by the model's reduction (``reduced_models``), or,
    when the evaluation rank falls short and p divides a slice discriminant
    of a smooth curve state, as BadReductionError naming the singular
    reduced curve, as in ``multiplication_surjectivity``.  Any other
    shortfall is
    an InsufficientPointsError naming the F_p-point count: a smooth curve
    at a good prime can have fewer points than the rank needs (3 at p = 7,
    against a target of 6).
    """
    (reduced,) = reduced_models([state], p)
    try:
        relations = relations_from_points(reduced, p)
    except InsufficientPointsError:
        _refuse_singular_reduction(state, p)
        raise
    return relations.entries == reduced.rows


guard(globals())
