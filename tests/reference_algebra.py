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
former index loops behind the slot-monomial rows and the span points, the
former full sweep of ``smoothness_scan`` (every witness reported), and
the former exact kernels of the curve path: the determinant-sum
projection, the term-by-term S/T evaluation and the ``Fraction``
discriminant and j.  The exact Schlaefli pencil form of a (5,2) state,
which ``invariants._schlaefli_pencil`` builds modulo one prime, is here
over Q.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import product
from math import gcd

from sloccgeo.errors import BadReductionError
from sloccgeo.geometry import (
    PROJECTION_MONOMIALS,
    _file_primes,
    _first_witness,
    _points,
    projective_points,
)
from sloccgeo.invariants import (
    PLANE_CUBIC,
    _S_WIRING,
    _T_WIRING,
    _contract,
    schlaefli_hyperdet,
)
from sloccgeo.linalg import Matrix
from sloccgeo.states import Tensor


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
    """The canonical basis of the right null space of a Matrix over Q or
    F_p, by two eliminations: the free-column vectors of the matrix's RREF,
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


def monomial_rows(points, slot_pattern, d, p):
    """The slot-monomial evaluation matrix by one index loop: one row per
    point, one column per index tuple of ``product(range(d), repeat=k)``
    (the library's ``_monomial_rows`` before it took Kronecker products)."""
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


def full_sweep(t, primes):
    """(used primes, witnesses) of a sweep of every used prime up to its
    first witness: smoothness_scan's sweep before it excluded the witness
    primes of a (5,2) state that the pencil form certifies smooth."""
    used = _file_primes(t, primes)[0]
    found = [_first_witness(reduced, _points(reduced, p)) for p, reduced in used]
    return tuple(p for p, _ in used), [w for w in found if w is not None]


# ------------------------------------------------- former curve kernels


def _det(rows):
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
        out[index[tuple(exps)]] += _det([vectors[k][s] for k, s in enumerate(choice)])
    return out


def evaluate_terms(terms, coeffs):
    """Sum of k * prod(coeffs[i] for i in idx) over the (k, idx) terms."""
    total = 0
    for k, idx in terms:
        for i in idx:
            k *= coeffs[i]
        total += k
    return total


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
        poly = _contract(wiring)
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
