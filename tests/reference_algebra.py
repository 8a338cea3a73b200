"""Test-only reference algebra on forms as term dicts and on Matrix values.

The library computes on coefficient rows and keeps Matrix without
products; the dict-polynomial operations, the matrix product (the former
``Matrix.mul``, which also composes SLOCC operators factor by factor), the
matrix-vector product, the Kronecker product, the factor permutation
(the former ``permute_factors``) and the entrywise scalar reduction that
the tests compare the integer core against live here, as plain
functions.  So
does the full-row F_p Gauss-Jordan loop that ``Matrix.rref``'s in-place,
column-restricted elimination is checked against, the former
two-elimination kernel that ``Matrix.kernel`` is checked against, the
former index loops behind the monomial rows and the span points, the
former full sweep of ``smoothness_scan`` (every witness reported) and
its former filing, each with a reduction at every prime, the former
listed-points route of ``multiplication_surjectivity``, the former exact
route of ``cyclic_relations`` (a model over Q per rotation), and the former exact
kernels of the curve path: the determinant-sum projection, the
term-by-term S/T evaluation, the sorted-tuple S/T contraction and the
``Fraction`` discriminant and j, and the former canonical-basis route of
``classify``'s curve verdict (``canonical_verdict``).  The
exact Schlaefli pencil form of a (5,2) state, which
``invariants._schlaefli_pencil`` builds modulo one prime, is here over Q.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import product
from math import gcd

from sloccgeo.errors import BadReductionError
from sloccgeo.geometry import (
    CURVE_AXES,
    PROJECTION_MONOMIALS,
    _first_witness,
    _points,
    _reduced_model,
    enumerate_points,
    model_mod_p,
    projective_points,
    variety_from_state,
)
from sloccgeo.invariants import (
    BIQUADRATIC,
    PLANE_CUBIC,
    _PERMS3,
    _S_WIRING,
    _T_WIRING,
    _W,
    schlaefli_hyperdet,
    slice_discriminants,
)
from sloccgeo.linalg import Matrix
from sloccgeo.states import Tensor, _rotate, flattening_basis


# A form is a plain term dict {flat exponent tuple: coefficient}: the
# exponents of every variable group, concatenated, and no zero coefficient.
# Forms are added, multiplied and differentiated over Z or Q; a form read
# from a model over F_p has residues as coefficients, and a result is
# reduced where it is read (``evaluate`` and its callers).


def model_forms(model):
    """A model's defining forms as term dicts, read from its rows: over Q
    the rows over den, over F_p the residues.  Row entry i belongs to the
    multilinear monomial whose group exponents are unit vectors, first group
    slowest, as the rows are ordered."""
    units = [tuple(int(i == j) for j in range(model.d)) for i in range(model.d)]
    monomials = [sum(m, ()) for m in product(units, repeat=model.groups)]
    return [
        _collect((m, c if model.p else Fraction(c, model.den)) for m, c in zip(monomials, row))
        for row in model.rows
    ]


def _collect(terms):
    """A form from (exponents, coefficient) pairs: equal exponents add up,
    and zero terms are left out."""
    out = {}
    for exps, c in terms:
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def add(f, g):
    return _collect([*f.items(), *g.items()])


def scale(f, factor):
    return _collect((e, factor * c) for e, c in f.items())


def mul(f, g):
    return _collect(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.items()
        for e2, c2 in g.items()
    )


def partial(f, v):
    """Derivative with respect to the variable at flat position v."""
    return _collect(
        (e[:v] + (e[v] - 1,) + e[v + 1 :], c * e[v]) for e, c in f.items() if e[v]
    )


def evaluate(f, coords, p=None):
    """Evaluate at one coordinate tuple per group, modulo p when given."""
    flat = [x for group in coords for x in group]
    total = 0
    for exps, c in f.items():
        if len(exps) != len(flat):
            raise ValueError("coordinate arity mismatch")
        term = c
        for x, e in zip(flat, exps):
            term *= x**e
        total += term
    return total % p if p is not None else Fraction(total)


def substitute(f, offset, matrix):
    """Replace the variable vector v at flat positions offset, offset + 1,
    ... (as many as the square matrix has rows) by matrix @ v."""
    dim = matrix.rows
    if matrix.cols != dim:
        raise ValueError("substitution matrix has the wrong shape")
    result = []
    for exps, c in f.items():
        # expand prod_i (sum_j m[i][j] v_j)^(e_i) as a dense map on the group
        polys = {(0,) * dim: c}
        for i in range(dim):
            for _ in range(exps[offset + i]):
                polys = _collect(
                    (mono[:j] + (mono[j] + 1,) + mono[j + 1 :], coeff * mij)
                    for mono, coeff in polys.items()
                    for j, mij in enumerate(matrix.entries[i])
                )
        result += [(exps[:offset] + mono + exps[offset + dim :], k) for mono, k in polys.items()]
    return _collect(result)


def drop_groups(f, dim, kept):
    """Restrict a form on groups of dim variables each to the kept groups;
    its degree in every other group must be zero."""
    out = {}
    for exps, c in f.items():
        groups = [exps[g * dim : (g + 1) * dim] for g in range(len(exps) // dim)]
        if any(sum(x) for g, x in enumerate(groups) if g not in kept):
            raise ValueError("nonzero degree in a dropped group")
        out[sum((groups[g] for g in kept), ())] = c
    return out


def apply(matrix, vector):
    """Matrix-vector product."""
    if len(vector) != matrix.cols:
        raise ValueError("dimension mismatch")
    return tuple(
        sum(row[k] * vector[k] for k in range(matrix.cols)) for row in matrix.entries
    )


def matmul(a, b):
    """Matrix product, same field."""
    if a.p != b.p or a.cols != b.rows:
        raise ValueError("incompatible matrices")
    prod = [
        [sum(x * b.entries[k][j] for k, x in enumerate(row)) for j in range(b.cols)]
        for row in a.entries
    ]
    return Matrix(prod, cols=b.cols, p=a.p)


def kron(a, b):
    """Kronecker product, same field."""
    if a.p != b.p:
        raise ValueError("field mismatch")
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            out.append(
                [
                    a.entries[i][j] * b.entries[k][l]
                    for j in range(a.cols)
                    for l in range(b.cols)
                ]
            )
    return Matrix(out, cols=a.cols * b.cols, p=a.p)


def permute_factors(t, perm):
    """Relabel tensor factors: new[(i_0,...)] = old[(i_perm[0],...)].

    The former library routine, one index tuple at a time, that the
    tensor rotations (``states._rotate``) are checked against.
    """
    if sorted(perm) != list(range(t.n)):
        raise ValueError("not a permutation of the factors")
    nums = [t.nums[t.offset([idx[perm[k]] for k in range(t.n)])] for idx in t.indices()]
    return Tensor.from_integers(t.n, t.d, nums, t.den)


def identity(n, p=None):
    """The n x n identity Matrix (the former ``Matrix.identity``)."""
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)], p=p)


def rref_rows(rows, cols):
    """The nonzero rows of the RREF of rows of ints and Fractions, by
    Fraction elimination: the RREF over Q that ``Matrix`` no longer
    computes."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def reduce_scalar(x, p):
    """Reduce a Fraction (or int) modulo p.

    Raises BadReductionError when the denominator is divisible by p.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise BadReductionError(p, f"denominator divisible by {p} for {x}")
    return x.numerator * pow(x.denominator, -1, p) % p


def rref_mod_p(matrix):
    """(rank, reduced) of an F_p Matrix: every row op rewrites whole rows,
    and the result goes through the public, reducing constructor."""
    p, m = matrix.p, [list(row) for row in matrix.entries]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((i for i in range(rank, matrix.rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(matrix.rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == matrix.rows:
            break
    return rank, Matrix(m, cols=matrix.cols, p=p)


def kernel_mod_p(matrix):
    """The canonical basis rows of the right null space of an F_p Matrix,
    from rref_mod_p alone: the free-column vectors, put in RREF."""
    p, cols = matrix.p, matrix.cols
    rank, red = rref_mod_p(matrix)
    pivots = [next(c for c in range(cols) if red.entries[r][c] != 0) for r in range(rank)]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][f] % p
        basis.append(v)
    dim, canonical = rref_mod_p(Matrix(basis, cols=cols, p=p))
    return canonical.entries[:dim]


def kernel_two_eliminations(matrix):
    """The canonical basis of the right null space of an F_p Matrix, by two
    eliminations: the free-column vectors of the matrix's RREF,
    then the RREF of those vectors (the library's kernel before it became
    one elimination of the column-reversed matrix)."""
    cols = matrix.cols
    rank, red = matrix.rref()
    pivots = [next(c for c in range(cols) if red.entries[r][c] != 0) for r in range(rank)]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][f]
        basis.append(v)
    return Matrix(basis, cols=cols, p=matrix.p).row_space()


def monomial_rows(points, d, k, p):
    """The monomial evaluation matrix by one index loop: one row per point,
    a tuple of k coordinate vectors of length d, and one column per index
    tuple of ``product(range(d), repeat=k)`` (the library's evaluation
    rows before ``zalgebra._monomial_row`` took Kronecker products)."""
    rows = []
    for pt in points:
        row = []
        for idx in product(range(d), repeat=k):
            val = 1
            for s in range(k):
                val = val * pt[s][idx[s]] % p
            row.append(val)
        rows.append(row)
    return Matrix(rows, cols=d**k, p=p)


def subspace_points(basis_rows, dim, p):
    """Normalized projective points of the row span of an F_p basis, one
    entry at a time (the library's ``_subspace_points`` before it
    contracted the flattened basis)."""
    for coeff in projective_points(len(basis_rows), p):
        vec = [0] * dim
        for c, row in zip(coeff, basis_rows):
            if c:
                for i, x in enumerate(row):
                    vec[i] = (vec[i] + c * x) % p
        lead = next(x for x in vec if x)
        inv = pow(lead, -1, p)
        yield tuple(x * inv % p for x in vec)


def cyclic_relations(state, p):
    """The relation rows R_0, ..., R_{n-1} over F_p the former way: every
    rotation's exact model over Q first (``variety_from_state``), then each
    reduced through its state (``model_mod_p``).  ``zalgebra`` builds them
    from the reduced flattenings, and the models over Q only to name a
    failed reduction."""
    n, d, models, nums = state.n, state.d, [], state.nums
    for _ in range(n):
        models.append(variety_from_state(Tensor.from_integers(n, d, nums, state.den)))
        nums = _rotate(nums, d)
    return [model_mod_p(model, p).rows for model in models]


def section_product(state, axis_pair, p):
    """(rank, projected point count) of the section-product map the former
    way: the exact model (``variety_from_state``) reduced through its state
    (``model_mod_p``), every F_p-point listed as a ProjPoint
    (``enumerate_points``) and projected onto the axis pair, and the
    index-loop evaluation rows of the distinct projections ranked as a
    Matrix.  ``zalgebra.multiplication_surjectivity`` projects the walk's
    coordinate tuples and ranks by forward elimination."""
    model = model_mod_p(variety_from_state(state), p)
    pair = sorted(axis_pair)
    projected = sorted({tuple(pt.coords[a] for a in pair) for pt in enumerate_points(model, p)})
    return monomial_rows(projected, 2, 2, p).rank(), len(projected)


def full_sweep(t, primes):
    """(used primes, witnesses) of a sweep of every used prime up to its
    first witness: smoothness_scan's sweep before it excluded the witness
    primes of a (5,2) state that the pencil form certifies smooth.  Every
    prime is reduced (``_reduced_model``), and used unless that fails, as
    the former filing did; when none is used, the model over Q is built,
    so a state that is rank-deficient over Q raises RankDeficientError."""
    used, found = [], []
    for p in primes:
        try:
            (reduced,) = _reduced_model(t, p)
        except BadReductionError:
            continue
        used.append(p)
        found.append(_first_witness(reduced, _points(reduced, p)))
    if not used:
        variety_from_state(t)
    return tuple(used), [w for w in found if w is not None]


def reduced_filing(t, primes):
    """(used, bad, excluded) primes of smoothness_scan's former filing,
    which built the model over Q and reduced it at every prime: a prime is
    bad when the reduction fails, excluded when the slice discriminants
    all are nonzero and p divides one of their numerators, else used."""
    discs = slice_discriminants(t)
    model = variety_from_state(t)
    used, bad, excluded = [], [], []
    for p in primes:
        try:
            model_mod_p(model, p)
        except BadReductionError:
            bad.append(p)
            continue
        singular = bool(discs) and all(discs) and any(disc.numerator % p == 0 for disc in discs)
        (excluded if singular else used).append(p)
    return tuple(used), tuple(bad), tuple(excluded)


# ------------------------------------------------- former curve kernels


def det(rows):
    """Determinant of a 2 x 2 or 3 x 3 matrix given as plain lists."""
    if len(rows) == 2:
        (a, b), (c, e) = rows
        return a * e - b * c
    (a, b, c), (e, f, g), (h, i, j) = rows
    return a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)


def projection_coefficients(rows, n, d, kept):
    """The determinantal projection as a sum of numeric determinants: the
    matrix of linear forms is a sum over kept monomials of a scalar matrix
    times the monomial, so det M sums, over one kept monomial per row, a
    d x d determinant of plain numbers (27 of 3 x 3 for (3,3), 16 of 2 x 2
    for (4,2)), each added to the output monomial their product gives."""
    groups = n - 1
    dropped = next(g for g in range(groups) if g not in kept)
    stride = [d ** (groups - 1 - g) for g in range(groups)]
    monomials = tuple(product(range(d), repeat=len(kept)))
    columns = []
    for mono in monomials:
        base = sum(v * stride[g] for g, v in zip(kept, mono))
        columns.append([base + l * stride[dropped] for l in range(d)])
    index = {m: i for i, m in enumerate(PROJECTION_MONOMIALS[(n, d)])}
    vectors = [[[row[i] for i in column] for column in columns] for row in rows]
    out = [0] * len(index)
    for choice in product(range(len(monomials)), repeat=d):
        exps = [0] * (d * len(kept))
        for s in choice:
            for g, v in enumerate(monomials[s]):
                exps[g * d + v] += 1
        out[index[tuple(exps)]] += det([vectors[k][s] for k, s in enumerate(choice)])
    return out


def evaluate_terms(terms, coeffs):
    """Sum of k * prod(coeffs[i] for i in idx) over the (k, idx) terms."""
    total = 0
    for k, idx in terms:
        for i in idx:
            k *= coeffs[i]
        total += k
    return total


def contract(wiring):
    """The epsilon-at-a-time contraction of ``invariants._contract`` with
    sorted index tuples: each copy's received indices as a sorted tuple,
    and each monomial as the sorted tuple of its coefficient indices,
    sorted again after every merge (the library's form before it grew the
    copies through a table and kept a monomial as one int).  Returns
    {sorted monomial indices: integer coefficient}, in the library's
    insertion order."""
    states = {((),) * (1 + max(map(max, wiring))): {(): 1}}
    for slots in wiring:
        merged = {}
        for state, poly in states.items():
            for perm, sign in _PERMS3:
                got, coeff, monos = list(state), sign, ()
                for c, i in zip(slots, perm):
                    got[c] = tuple(sorted(got[c] + (i,)))
                    if len(got[c]) == 3:
                        fac, m = _W[got[c]]
                        coeff, monos, got[c] = coeff * fac, monos + (m,), ()
                target = merged.setdefault(tuple(got), {})
                for key, k in poly.items():
                    key = tuple(sorted(key + monos))
                    target[key] = target.get(key, 0) + coeff * k
        states = merged
    (poly,) = states.values()
    return {key: k for key, k in poly.items() if k}


@cache
def st_terms():
    """((S terms, S scale), (T terms, T scale)) in the former layout: the
    contractions divided by their content as (k, monomial indices) terms,
    with the scales that give S = -3a and T = 108b on the Weierstrass
    cubics x1^2*x2 - x0^3 - a*x0*x2^2 - b*x2^3."""
    from sloccgeo.invariants import TernaryCubic

    out = []
    for wiring, unit, target in (
        (_S_WIRING, TernaryCubic.weierstrass(1, 0), -3),
        (_T_WIRING, TernaryCubic.weierstrass(0, 1), 108),
    ):
        poly = contract(wiring)
        content = reduce(gcd, poly.values())
        terms = [(k // content, idx) for idx, k in poly.items()]
        out.append((terms, Fraction(target, evaluate_terms(terms, [int(c) for c in unit.coeffs]))))
    return tuple(out)


def cubic_st(coeffs, den):
    """(S, T) as Fractions of the cubic with integer coefficients coeffs / den."""
    (s_terms, s_scale), (t_terms, t_scale) = st_terms()
    return (
        s_scale * evaluate_terms(s_terms, coeffs) / den**4,
        t_scale * evaluate_terms(t_terms, coeffs) / den**6,
    )


def quartic_ij(a, b, c, d, e):
    """The classical invariants (I, J) of the binary quartic
    a*s^4 + b*s^3*t + c*s^2*t^2 + d*s*t^3 + e*t^4."""
    i_val = 12 * a * e - 3 * b * d + c * c
    j_val = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return i_val, j_val


def curve(kind, pair):
    """(pair, discriminant, j) from the Fraction pair (S, T) or (I, J):
    c = 64*S^3 or 4*I^3, b = T or J, discriminant c - b^2 and
    j = 1728*c/(c - b^2), None where the discriminant vanishes."""
    c = (64 if kind == PLANE_CUBIC else 4) * pair[0] ** 3
    disc = c - pair[1] ** 2
    return tuple(pair), disc, None if disc == 0 else 1728 * c / disc


def schlaefli_pencil(t):
    """The exact coefficients (constant first) of f(lam) = P(lam, 1) for the
    pencil form P(lam, mu) = Schlaefli(lam * t_0 + mu * t_1) of a (5,2)
    state, t_k its slice with last index k: Fraction Newton interpolation
    of the exact ``schlaefli_hyperdet`` values at lam = -12, ..., 12."""
    xs = range(-12, 13)
    c = [
        schlaefli_hyperdet(
            Tensor.from_integers(4, 2, [x * a + b for a, b in zip(t.nums[0::2], t.nums[1::2])], t.den)
        )
        for x in xs
    ]
    for k in range(1, 25):
        for i in range(24, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
    f = [Fraction(0)] * 25
    for k in range(24, -1, -1):
        f = [(f[i - 1] if i else c[k]) - xs[k] * f[i] for i in range(25)]
    return f


def branch_quartic(coeffs):
    """B^2 - 4AC of a (2,2)-form in BIQUADRATIC_MONOMIALS order, A, B, C
    its y0^2, y0*y1, y1^2 parts: the 5 coefficients of its branch
    quartic."""
    a_q, b_q, c_q = coeffs[0:3], coeffs[3:6], coeffs[6:9]

    def conv(u, v):
        return [sum(u[i] * v[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]

    return [x - 4 * y for x, y in zip(conv(b_q, b_q), conv(a_q, c_q))]


def canonical_verdict(t):
    """The exact part of a (3,3) or (4,2) verdict by the former
    canonical-basis route: (rank, projections, j, hyperdeterminant, hint).
    The flattening's RREF basis comes as integer rows over den
    (``flattening_basis``); each projection is their determinant-sum
    projection over den^d (``projection_coefficients``), a list of
    (axes, pair, discriminant, j) from ``cubic_st`` or the branch quartic's
    ``quartic_ij``; j is the projections' common j when no discriminant
    vanishes, else None; the (4,2) hyperdeterminant comes from its own
    Cayley pencil (``schlaefli_hyperdet``), and its hint is True where it
    is nonzero, else None."""
    fmt = (t.n, t.d)
    rows, den = flattening_basis(t)
    hyperdet = schlaefli_hyperdet(t) if fmt == (4, 2) else None
    hint = True if hyperdet else None
    if len(rows) < t.d:
        return len(rows), [], None, hyperdet, hint
    projections = []
    for axes in CURVE_AXES[fmt]:
        coeffs = projection_coefficients(rows, t.n, t.d, axes)
        if fmt == (3, 3):
            pair = cubic_st(coeffs, den**3)
            kind = PLANE_CUBIC
        else:
            i_val, j_val = quartic_ij(*branch_quartic(coeffs))
            pair = (Fraction(i_val, den**8), Fraction(j_val, den**12))
            kind = BIQUADRATIC
        projections.append((axes, *curve(kind, pair)))
    js = {j for *_, j in projections}
    j = js.pop() if None not in js and len(js) == 1 else None
    return t.d, projections, j, hyperdet, hint
