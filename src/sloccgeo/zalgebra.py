"""Graded algebras attached to generic states, and the point-based checks
that accompany them.

A (3,3) or (4,2) state w in V^(x)n defines a Z-algebra: its relation space
R_j is the flattening image of w with the factors rotated by j, and the
degree-k part is V^(x)k modulo the span of all
V^(x)j (x) R_{j mod n} (x) V^(x)(k-a-j), where a = n - 1 is the relation
degree.  By construction w lies in R_0 (x) V and in V (x) R_1, the
overlap condition of a regular algebra (Artin-Tate-Van den Bergh); generic
states give the Hilbert functions of 3-dimensional quadratic and cubic
regular algebras.  The expected Hilbert values are not hardcoded: they
come from the Euler characteristics of the two minimal resolution shapes
(quadratic and cubic), evaluated by a plain linear recurrence.

The profile is built in the quotient one degree at a time.  The span in
degree k is the span in degree k-1 tensored with V plus
V^(x)(k-a) (x) R_{(k-a) mod n}, so A_k = (A_{k-1} (x) V) / W_k, where W_k
is the image of A_{k-a} (x) R_{(k-a) mod n} under the multiplication maps
that the earlier degrees built.  Each degree ranks an h_{k-a}*d by
h_{k-1}*d matrix, not the d^k-wide span of every shift.  The ranks are
taken over F_p after reducing the state, so a profile is evidence at one
prime and agreement across good primes is the intended standard.

The reconstruction roundtrip and the section-product test evaluate slot
monomials at the model's F_p-points instead.
"""

from dataclasses import dataclass
from itertools import product

from .errors import InsufficientPointsError, WorkLimitError, WrongFormatError
from .linalg import Matrix, _free_basis
from .states import permute_factors
from .geometry import enumerate_points, hasse_window, model_mod_p, variety_from_state


@dataclass(frozen=True)
class RelationSpace:
    """Kernel of the slot-monomial evaluation on the model's F_p-points.

    ``slot_pattern`` lists which variable group feeds each slot, so the
    monomials are products of one coordinate per slot in that order.
    ``basis`` is the kernel's canonical basis, a Matrix over F_p of
    slot_dim**arity columns (``Matrix.row_space``).
    """

    p: int
    slot_pattern: tuple
    slot_dim: int
    basis: Matrix

    @property
    def arity(self):
        return len(self.slot_pattern)

    @property
    def dim(self):
        return self.basis.rows


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


def _resolution_dims(k_max, steps):
    """h(0), ..., h(k_max) of the recurrence h(k) = [k = 0] + the sum of
    c*h(k-s) over the (c, s) steps read off a minimal resolution."""
    dims = []
    for k in range(k_max + 1):
        dims.append(int(k == 0) + sum(c * dims[k - s] for c, s in steps if s <= k))
    return tuple(dims)


def quadratic_expected_dims(k_max):
    """Euler characteristic of 0 -> P_{i+3} -> P_{i+2}^3 -> P_{i+1}^3 ->
    P_i -> S_i -> 0: h(k) = 3h(k-1) - 3h(k-2) + h(k-3), h(0) = 1."""
    return _resolution_dims(k_max, ((3, 1), (-3, 2), (1, 3)))


def cubic_expected_dims(k_max):
    """Euler characteristic of 0 -> P_{i+4} -> P_{i+3}^2 -> P_{i+1}^2 ->
    P_i -> S_i -> 0: h(k) = 2h(k-1) - 2h(k-3) + h(k-4), h(0) = 1."""
    return _resolution_dims(k_max, ((2, 1), (-2, 3), (1, 4)))


def _monomial_rows(points, slot_pattern, d, p):
    """Evaluation matrix: one row per point, given as a tuple of coordinate
    vectors, and one column per slot monomial."""
    k = len(slot_pattern)
    rows = []
    for pt in points:
        coords = [pt[g] for g in slot_pattern]
        row = []
        for idx in product(range(d), repeat=k):
            val = 1
            for s in range(k):
                val = val * coords[s][idx[s]] % p
            row.append(val)
        rows.append(row)
    return Matrix(rows, cols=d**k, p=p)


def relations_from_points(model, p, slot_pattern):
    """Kernel of the slot-monomial evaluation at all F_p-points.

    On a generic curve model the monomials span a space of dimension
    k*d (sections of the product line bundle), leaving a kernel of
    dimension d**k - k*d.  If the evaluation rank falls short of that
    target the kernel would come out too big, so the computation aborts
    with InsufficientPointsError instead of reporting a wrong space.
    """
    slot_pattern = tuple(slot_pattern)
    if any(not 0 <= g < model.groups for g in slot_pattern):
        raise ValueError("slot pattern names a nonexistent group")
    d = model.d
    k = len(slot_pattern)
    reduced = model_mod_p(model, p)
    points = enumerate_points(reduced, p)
    target_rank = min(k * d, d**k)
    kernel = _monomial_rows([pt.coords for pt in points], slot_pattern, d, p).kernel()
    rank = d**k - kernel.rows
    if rank < target_rank:
        raise InsufficientPointsError(
            f"evaluation rank {rank} below generic target {target_rank} at p={p}"
        )
    return RelationSpace(p, slot_pattern, d, kernel)


def cyclic_relations(state, p):
    """The basis rows of the relation spaces R_0, ..., R_{n-1} of a state
    over F_p.

    R_j is the state-side reduction of the flattening image of the state
    with its factors rotated by j (factor k moves to position k - j mod n),
    so the rotation by j lies in both R_j (x) V and V (x) R_{j+1}: the rows
    of the rotation's model reduced modulo p (``model_mod_p``).  Every
    rotation's model is built first, so RankDeficientError (the flattening
    has dimension below d over Q) wins over BadReductionError (the prime
    divides a denominator, or the rank drops only modulo p).
    """
    n = state.n
    models = [
        variety_from_state(permute_factors(state, [(k - j) % n for k in range(n)]))
        for j in range(n)
    ]
    return [model_mod_p(model, p).rows for model in models]


def _push(terms, mu, size, rest, p):
    """Apply mu (x) id to the (index, coefficient) terms of a vector of
    A_j (x) V (x) V^(x)rest, indexed (column of A_j (x) V) * d**rest + word;
    the image lies in A_{j+1} (x) V^(x)rest, where A_{j+1} has dimension
    size.  Returns the image's entries as a tuple of ints in [0, p)."""
    out = [0] * (size * rest)
    for idx, c in terms:
        if c:
            col, word = divmod(idx, rest)
            for i, x in enumerate(mu[col]):
                if x:
                    out[i * rest + word] += c * x
    return tuple([x % p for x in out])


#: Widest degree a Hilbert profile may reach: d**k_max.  That is k_max <= 5
#: for (3,3) and k_max <= 8 for (4,2).  The quotient recursion is cheap on
#: generic states, but degenerate relations let h_k grow like 3*2**(k-1)
#: (the x^2, y^2, z^2 of GHZ), so the worst case is still d**k wide.
MAX_PROFILE_WIDTH = 256


def check_hilbert_degree(d, k_max):
    """Raise WorkLimitError unless 0 <= k_max and d**k_max <= MAX_PROFILE_WIDTH.
    With d >= 2, any k_max of at least MAX_PROFILE_WIDTH.bit_length() is too
    wide, so d**k_max is never computed for a larger k_max."""
    if k_max < 0 or d ** min(k_max, MAX_PROFILE_WIDTH.bit_length()) > MAX_PROFILE_WIDTH:
        raise WorkLimitError(
            f"k_max={k_max} is out of range: need k_max >= 0 and "
            f"{d}**k_max <= {MAX_PROFILE_WIDTH}"
        )


def _hilbert_profile(state, p, k_max, kind, expected_fn):
    """dim A_m for m <= k_max, built one degree at a time in the quotient.

    I_m = I_{m-1} (x) V + V^(x)(m-a) (x) R_{(m-a) mod n}, so A_m is
    (A_{m-1} (x) V) / W_m, where W_m is the image of A_{m-a} (x) R.  Each
    basis vector of A_{m-a} tensored with each basis row of R is carried
    into A_{m-1} (x) V through the multiplication maps
    mu_j: A_{j-1} (x) V -> A_j of the earlier degrees.  The row space of
    those rows leaves the free columns as A_m's basis, and mu_m is the
    transpose of the free-column basis of their null space: it keeps a
    free column and sends a pivot column to minus its row on the free
    columns (unreduced; ``_push`` reduces).  When A_m is 0, mu_m sends
    every column to the empty vector.
    """
    check_hilbert_degree(state.d, k_max)
    relations = cyclic_relations(state, p)
    n, d = state.n, state.d
    arity = n - 1
    dims = [1]
    mus = [None]  # mus[m][c]: image in A_m of column c of A_{m-1} (x) V
    for m in range(1, k_max + 1):
        width = dims[m - 1] * d
        rows = []
        if m >= arity:
            block = d**arity
            for b in range(dims[m - arity]):
                for rel in relations[(m - arity) % n]:
                    terms = [(b * block + w, c) for w, c in enumerate(rel)]
                    for j in range(m - arity + 1, m):
                        vec = _push(terms, mus[j], dims[j], d ** (m - j), p)
                        terms = enumerate(vec)
                    rows.append(vec)
            rows = Matrix._trusted(rows, width, p).row_space().entries
        basis = _free_basis(rows, width)
        mus.append(list(zip(*basis)) if basis else [()] * width)
        dims.append(len(basis))
    return HilbertProfile(kind, p, tuple(dims), expected_fn(k_max))


def quadratic_hilbert(state, p, k_max=4):
    """Graded dimensions of the quadratic algebra of a (3,3) state.

    The degree-2 relations cycle through the flattening images of the
    three rotations of the state; the generic answer is the plane count
    (k+1)(k+2)/2.
    """
    if (state.n, state.d) != (3, 3):
        raise WrongFormatError("quadratic profiles need format (3,3)")
    return _hilbert_profile(state, p, k_max, "quadratic", quadratic_expected_dims)


def cubic_hilbert(state, p, k_max=5):
    """Graded dimensions of the cubic algebra of a (4,2) state.

    The degree-3 relations cycle through the flattening images of the
    four rotations of the state; the generic answer is 1, 2, 4, 6, 9, 12.
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


def multiplication_surjectivity(state, axis_pair, p):
    """Test whether products of sections from two axes span the full
    4-dimensional target, by evaluating the 4 slot monomials at the
    projections of the model's F_p-points.

    Full rank certifies surjectivity (the two degree-2 bundles are not
    isomorphic); a positive kernel is evidence of isomorphic bundles or a
    bad prime.  The number of distinct projected points must be plausible
    for a curve of genus one: a count above the Hasse window certifies a
    degenerate model, and fewer than five points cannot pin the kernel
    down; both abort with InsufficientPointsError.  The axis pair must name
    two distinct groups among 0, 1 and 2 (ints, in either order), else
    ValueError.
    """
    if (state.n, state.d) != (4, 2):
        raise WrongFormatError("the section-product test needs format (4,2)")
    pairs = ([0, 1], [0, 2], [1, 2])
    if any(type(a) is not int for a in axis_pair) or sorted(axis_pair) not in pairs:
        raise ValueError("axis pair must name two distinct groups of 0,1,2")
    axis_pair = tuple(sorted(axis_pair))
    model = variety_from_state(state)
    reduced = model_mod_p(model, p)
    projected = sorted(
        {tuple(pt.coords[a] for a in axis_pair) for pt in enumerate_points(reduced, p)}
    )
    lo, hi = hasse_window(p)
    if len(projected) > hi:
        raise InsufficientPointsError(
            f"{len(projected)} projected points at p={p} exceed the genus-one "
            f"bound {hi}: degenerate model"
        )
    if len(projected) < max(5, lo):
        raise InsufficientPointsError(
            f"only {len(projected)} projected points at p={p}; kernel not determined"
        )
    rank = _monomial_rows(projected, (0, 1), 2, p).rank()
    return ProductMapResult(p, axis_pair, rank, 4 - rank, len(projected))


def roundtrip_check(state, p):
    """Reconstruct the flattening image from the model's F_p-points.

    True when the kernel of the natural slot-monomial evaluation equals
    the state-side reduction of the flattening image, as canonical
    subspaces: the kernel's RREF rows are those of the reduced model.
    The construction guarantees the kernel contains that reduction, so a
    full evaluation rank forces equality; failures therefore surface only
    as bad reduction (raised by the model's reduction, ``model_mod_p``) or
    insufficient points, never as a wrong kernel.
    """
    reduced = model_mod_p(variety_from_state(state), p)
    relations = relations_from_points(reduced, p, tuple(range(state.n - 1)))
    return relations.basis.entries == reduced.rows
