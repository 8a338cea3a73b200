"""Classical invariants of the projected curves and the final verdicts.

The plane-cubic invariants S (degree 4) and T (degree 6) are not copied
from any table: they are generated at first use as full epsilon
contractions of the symmetric coefficient tensor (``_contract``, which sums
one epsilon at a time over polynomial-valued partial states), then
calibrated on the Weierstrass family  x1^2*x2 - x0^3 - a*x0*x2^2 - b*x2^3
by requiring S = -3a and T = 108b.  Both curve kinds then share one rule
(``_curve``): with c = 64*S^3 for a plane cubic, or c = 4*I^3 from the
(I, J) of a (2,2)-curve's branch quartic, and b = T or J, the discriminant
is c - b^2 and j = 1728*c/(c - b^2).  On the Weierstrass family this is
1728*4a^3/(4a^3 + 27b^2), and the discriminant vanishes exactly on
singular curves.

Each invariant is kept as one tuple of integer terms and one Fraction
scale (1/16 for S, -1/8 for T).  S and T have even degree, so a term is
k times two (S) or three (T) of the cubic's 55 pairwise coefficient
products, which are formed once per cubic.  A curve with rational
coefficients is evaluated on its coefficients times L, the lcm of their
denominators, and divided once: by L^4 for S and L^6 for T.  The projected
curves of a model are built the same way from its integer rows
(``projection_coefficients``), so S/T and the quartic I/J of a projection
are integer numerators over integer denominators, and ``_curve`` forms the
discriminant and j from those integers, with one Fraction normalisation per
reported value.  Over F_p the same integers decide whether a discriminant
vanishes: p divides its numerator.  The public curve path is that same
one: ``plane_cubic_invariants`` and ``biquadratic_invariants`` take integer
coefficients over one denominator in CUBIC_MONOMIALS or
BIQUADRATIC_MONOMIALS order, as ``geometry.determinantal_projection``
returns them, and ``classify`` calls them on every projection.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import combinations, permutations, product
from math import factorial, gcd, prod

from .errors import (
    AllPrimesBadError,
    FormatMismatchError,
    SloccGeoError,
    UnsupportedFormatError,
    UnsupportedPrimeError,
    WrongDegreeError,
    WrongFormatError,
)
from .linalg import DEFAULT_PRIMES, MAX_PRIME, check_primes, clear_denominators
from .states import _frac_str, flattening_basis
from .geometry import (
    BIQUADRATIC_MONOMIALS,
    CUBIC_MONOMIALS,
    CURVE_AXES,
    _check_formula_format,
    _file_primes,
    _first_witness,
    _points,
    _witness_json,
    projection_coefficients,
)

_CUBIC_INDEX = {m: i for i, m in enumerate(CUBIC_MONOMIALS)}


@dataclass(frozen=True)
class TernaryCubic:
    """A cubic form in three variables, stored as 10 exact coefficients."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != 10:
            raise ValueError("a ternary cubic has 10 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_terms(cls, terms):
        """Build from {exponent triple: coefficient}."""
        coeffs = [Fraction(0)] * 10
        for mono, c in terms.items():
            coeffs[_CUBIC_INDEX[tuple(mono)]] = Fraction(c)
        return cls(coeffs)

    @classmethod
    def weierstrass(cls, alpha, beta):
        """x1^2*x2 - x0^3 - alpha*x0*x2^2 - beta*x2^3."""
        return cls.from_terms(
            {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -alpha, (0, 0, 3): -beta}
        )


#: (permutation, sign) for the permutations of (0, 1, 2), in permutations
#: order; the sign is -1 to the number of inversions.
_PERMS3 = [
    (perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
    for perm in permutations(range(3))
]


def _scaled_entry(i, j, k):
    """Entry (as coefficient multiple) of six times the symmetric tensor
    of a cubic: w_ijk = 6 * f_ijk where f is the polarized form.  With c
    the exponent triple of the monomial x_i*x_j*x_k, f_ijk is its
    coefficient over the 6 / prod(c!) orderings of (i, j, k), so the
    multiple is prod(c!)."""
    counts = tuple(map((i, j, k).count, range(3)))
    return prod(map(factorial, counts)), _CUBIC_INDEX[counts]


_W = {idx: _scaled_entry(*idx) for idx in product(range(3), repeat=3)}


def _contract(wiring):
    """Complete contraction of copies of the cubic tensor with one epsilon
    per entry of ``wiring``: copy wiring[e][s] feeds slot s of epsilon e.

    The epsilons are summed one at a time.  A state holds the indices each
    unfinished copy has received, sorted because the tensor is symmetric;
    a copy that receives its third index multiplies its entry of _W into
    the term and leaves the state (its slot reads () again: the wiring
    fixes which copies are done), so equal states merge.  Returns
    {sorted monomial indices: integer coefficient}.
    """
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


#: Tensor copies feeding slots 0, 1, 2 of each epsilon.  S: each copy skips
#: exactly one epsilon, the unique 3-regular pairing at degree 4.  T: the
#: cyclic contraction, copy i feeding slot 0 of epsilon i, slot 1 of
#: epsilon i+1 and slot 2 of epsilon i+2.
_S_WIRING = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_T_WIRING = tuple((e, (e - 1) % 6, (e - 2) % 6) for e in range(6))


#: The 55 products c_i*c_j (i <= j) of a cubic's ten coefficients, in the
#: order the S and T terms index them.
_PAIRS = tuple((i, j) for i in range(10) for j in range(i, 10))


def _pair_terms(poly):
    """An integer contraction divided by its content, as (k, a, b, ...)
    terms: the term's sorted monomial indices taken two at a time, each
    pair given by its position in _PAIRS."""
    content = reduce(gcd, poly.values())
    pair = {ij: a for a, ij in enumerate(_PAIRS)}.__getitem__
    return tuple(
        (k // content, *map(pair, zip(idx[::2], idx[1::2]))) for idx, k in poly.items()
    )


def _st_sums(coeffs, s_terms, t_terms):
    """The integer sums of the S and T terms on one cubic's coefficients:
    its 55 pairwise products once, then two products per S term and three
    per T term."""
    pairs = [coeffs[i] * coeffs[j] for i, j in _PAIRS]
    s = t = 0
    for k, a, b in s_terms:
        s += k * pairs[a] * pairs[b]
    for k, a, b, c in t_terms:
        t += k * pairs[a] * pairs[b] * pairs[c]
    return s, t


@cache
def _calibrated_invariants():
    """(S terms, T terms, S scale, T scale); computed once per process.

    The scales make S = -3a and T = 108b on the Weierstrass cubics.  There
    a has weight 4 and b weight 6, so the degree-4 S is a multiple of a
    alone and the degree-6 T of b alone, and the one cubic a = b = 1 fixes
    both scales."""
    terms = _pair_terms(_contract(_S_WIRING)), _pair_terms(_contract(_T_WIRING))
    s, t = _st_sums([int(c) for c in TernaryCubic.weierstrass(1, 1).coeffs], *terms)
    if s == 0 or t == 0:
        raise SloccGeoError("invariant contraction degenerated; calibration impossible")
    return (*terms, Fraction(-3, s), Fraction(108, t))


def _cubic_st(coeffs, den):
    """(S, T) of the cubic with integer coefficients coeffs / den, each as
    an integer (numerator, denominator) pair."""
    s_terms, t_terms, s_scale, t_scale = _calibrated_invariants()
    s, t = _st_sums(coeffs, s_terms, t_terms)
    return (
        (s_scale.numerator * s, s_scale.denominator * den**4),
        (t_scale.numerator * t, t_scale.denominator * den**6),
    )


def _ij(a, b, c, d, e):
    i_val = 12 * a * e - 3 * b * d + c * c
    j_val = (
        72 * a * c * e
        + 9 * b * c * d
        - 27 * a * d * d
        - 27 * b * b * e
        - 2 * c**3
    )
    return i_val, j_val


def _conv(u, v):
    """Product of two binary forms given as coefficient lists."""
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _branch(coeffs):
    """B^2 - 4AC for the (2,2)-form with coefficients in
    BIQUADRATIC_MONOMIALS order, A, B, C its y0^2, y0*y1, y1^2 parts."""
    a_q, b_q, c_q = coeffs[0:3], coeffs[3:6], coeffs[6:9]
    return [x - 4 * y for x, y in zip(_conv(b_q, b_q), _conv(a_q, c_q))]


def branch_quartic(coeffs):
    """Discriminant of a (2,2)-form, given by its 9 coefficients in
    BIQUADRATIC_MONOMIALS order, read as a quadratic in the second pair:
    the 5 coefficients (of x0^4, x0^3*x1, ..., x1^4) of the binary quartic
    over the first pair whose roots are the branch points of the 2:1
    projection.  Any other number of coefficients raises WrongDegreeError.
    The pipeline calls ``_branch``, not this name, so a span bound to this
    name (as ``perfbench/tracer.py`` binds one) counts only outside calls."""
    _check_count(coeffs, BIQUADRATIC_MONOMIALS)
    return tuple(_branch(coeffs))


def _check_count(coeffs, monomials):
    """WrongDegreeError unless coeffs has one coefficient per monomial."""
    if len(coeffs) != len(monomials):
        raise WrongDegreeError(f"expected {len(monomials)} coefficients, got {len(coeffs)}")


def _pencil_cayley(e):
    """b^2 - 4ac of a 2x2x2 tensor whose entries e[4i+2j+k] are binary
    forms (coefficient lists of one length): a and c are the determinants
    of the slices k = 0, 1 and b their mixed term.  Scalars are forms of
    length 1."""
    def minor(w, x, y, z):
        return [u - v for u, v in zip(_conv(e[w], e[x]), _conv(e[y], e[z]))]

    a, c = minor(0, 6, 2, 4), minor(1, 7, 3, 5)
    b = [u + v for u, v in zip(minor(0, 7, 2, 5), minor(1, 6, 3, 4))]
    return [u - 4 * v for u, v in zip(_conv(b, b), _conv(a, c))]


def cayley_hyperdet(t):
    """Degree-4 hyperdeterminant of a 2x2x2 tensor.

    Computed as the discriminant of the determinant of the matrix pencil
    spanned by the two slices along the last axis; it vanishes exactly when
    that pencil of bilinear forms is degenerate.
    """
    if (t.n, t.d) != (3, 2):
        raise WrongFormatError(f"Cayley hyperdeterminant needs format 2x2x2, got {(t.n, t.d)}")
    return Fraction(_pencil_cayley([[a] for a in t.nums])[0], t.den**4)


def schlaefli_hyperdet(t):
    """Degree-24 hyperdeterminant of a 2x2x2x2 tensor.

    The Cayley hyperdeterminant of the slice pencil s*T0 + u*T1 is a binary
    quartic in (s, u); the value returned is its discriminant normalized as
    (4*I^3 - J^2)/27.  The quartic comes from integer 2 x 2 determinants of
    the slices' numerators, and the value is divided once, by 27 * den^24.
    """
    if (t.n, t.d) != (4, 2):
        raise WrongFormatError(f"Schlaefli hyperdeterminant needs format 2x2x2x2, got {(t.n, t.d)}")
    return Fraction(_schlaefli(t.nums), 27 * t.den**24)


def _schlaefli(nums):
    """27 times the Schlaefli hyperdeterminant of the 2x2x2x2 tensor with
    the 16 integer entries nums (last index fastest): 4*I^3 - J^2 of the
    Cayley quartic of the pencil of its slices nums[0::2], nums[1::2]."""
    i_val, j_val = _ij(*_pencil_cayley([[x, y] for x, y in zip(nums[0::2], nums[1::2])]))
    return 4 * i_val**3 - j_val**2


def _schlaefli_pencil(t, q):
    """The pencil form P(lam, mu) = 27 * Schlaefli(lam * t_0 + mu * t_1) of a
    (5,2) state's numerators, t_k = nums[k::2] its slices with last index k,
    as the coefficients of f(lam) = P(lam, 1) mod q, constant term first.

    P is a binary form of degree 24.  Each value f(lam), lam = 0, ..., 24,
    is the integer core of ``schlaefli_hyperdet`` (``_schlaefli``) on the
    slice entries reduced mod q; Newton interpolation at those 25 points
    (divided differences over the unit steps, then Horner expansion) gives
    f.  The state's denominator scales P by den^-24 and is
    left out."""
    t0, t1 = t.nums[0::2], t.nums[1::2]
    f = []
    for lam in range(25):
        f.append(_schlaefli([(lam * x + y) % q for x, y in zip(t0, t1)]) % q)
    for k in range(1, 25):
        inv = pow(k, -1, q)
        for i in range(24, k - 1, -1):
            f[i] = (f[i] - f[i - 1]) * inv % q
    poly = [f[24]]
    for k in range(23, -1, -1):
        poly = [c % q for c in _conv(poly, [-k, 1])]
        poly[0] = (poly[0] + f[k]) % q
    return poly


def _squarefree(f, q):
    """Whether the binary form P of degree 24 with f(lam) = P(lam, 1), given
    by its coefficients mod the prime q (constant first), is squarefree:
    mu^2 does not divide P (deg f >= 23), and gcd(f, f') is a nonzero
    constant, which over the perfect field F_q holds exactly when f is
    squarefree.  The gcd is Euclid's algorithm mod q."""
    def trim(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    a = trim(list(f))
    if len(a) < 24:
        return False
    b = trim([k * c % q for k, c in enumerate(a)][1:])
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            c, shift = a.pop() * inv % q, len(a) - len(b) + 1
            for i, x in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - c * x) % q
            trim(a)
        a, b = b, a
    return len(a) == 1


def _certified_smooth(t):
    """Whether t is a (5,2) state whose pencil form P is squarefree mod
    q = MAX_PRIME (``_schlaefli_pencil``, ``_squarefree``), which proves
    its model smooth over the algebraic closure of Q when the flattening
    rank is full (``classify`` gives the argument)."""
    return (t.n, t.d) == (5, 2) and _squarefree(_schlaefli_pencil(t, MAX_PRIME), MAX_PRIME)


def moduli_dimension(n, d):
    """Dimension of the generic orbit-space: d^n - n*d^2 + n - 1, the state
    space less the GL_d^n orbit (n - 1 of the n*d^2 directions scale the
    state trivially), where the generic stabilizer is finite: for every
    n >= 3 but (3,2).  For two parties (matrices of full rank) and for
    three qubits (the GHZ class) the generic orbit is dense, so the orbit
    space is a point and the dimension 0; there, and only there, the
    formula is negative.  Formats whose d**n exceeds 2**MAX_FORMULA_BITS
    raise WorkLimitError."""
    _check_formula_format(n, d)
    return max(d**n - n * d * d + n - 1, 0)


RANK_DEFICIENT = "RankDeficient"
SINGULAR_MODEL = "SingularModel"
SMOOTH_GENERIC = "SmoothGeneric"

PLANE_CUBIC = "plane_cubic"
BIQUADRATIC = "biquadratic"


@dataclass(frozen=True)
class CurveInvariants:
    """Exact invariants of one projected curve.

    ``pair`` is (S, T) for a plane cubic and (I, J) for the branch quartic
    of a biquadratic; ``j`` is None exactly when the discriminant vanishes.
    """

    kind: str
    pair: tuple
    discriminant: Fraction
    j: object

    def to_json_dict(self):
        names = ("S", "T") if self.kind == PLANE_CUBIC else ("I", "J")
        return {
            "kind": self.kind,
            names[0]: _frac_str(self.pair[0]),
            names[1]: _frac_str(self.pair[1]),
            "discriminant": _frac_str(self.discriminant),
            "j": _j_json(self.j),
        }


@dataclass(frozen=True)
class Projection:
    axes: tuple
    invariants: CurveInvariants

    def to_json_dict(self):
        out = {"axes": list(self.axes)}
        out.update(self.invariants.to_json_dict())
        return out


@dataclass(frozen=True)
class Verdict:
    """Classification record for one state."""

    n: int
    d: int
    status: str
    rank: int
    projections: tuple
    j: object                   # Fraction, None (singular/unavailable)
    hyperdeterminant: object    # Fraction or None
    semistable_hint: object     # bool or None
    primes_used: tuple
    singular_witness: object    # (prime, ProjPoint, rank) or None

    def to_json_dict(self):
        if self.status == SMOOTH_GENERIC and self.j is not None:
            j_out = _j_json(self.j)
        elif self.status == SINGULAR_MODEL:
            j_out = "singular"
        else:
            j_out = None
        witness = self.singular_witness
        return {
            "status": self.status,
            "j": j_out,
            "projections": [pr.to_json_dict() for pr in self.projections],
            "hyperdeterminant": (
                None if self.hyperdeterminant is None else _frac_str(self.hyperdeterminant)
            ),
            "semistable_hint": self.semistable_hint,
            "primes_used": list(self.primes_used),
            "singular_witness": None if witness is None else _witness_json(witness),
        }


def _j_json(j):
    if j is None:
        return "singular"
    j = Fraction(j)
    return [str(j.numerator), str(j.denominator)]


def _curve(kind, pair):
    """The invariants of a plane cubic from its (S, T), or of a (2,2)-curve
    from the (I, J) of its branch quartic, each given as an integer
    (numerator, denominator) pair.  With c = 64*S^3 or 4*I^3 and b = T or
    J, the discriminant is c - b^2 and j = 1728*c/(c - b^2); j is None
    where the discriminant vanishes.  Both are integers over the common
    denominator A^3*B^2 of c and b^2 (A, B those of the pair), which
    cancels from j, so each reported value is one Fraction normalisation."""
    (a, a_den), (b, b_den) = pair
    c = (64 if kind == PLANE_CUBIC else 4) * a**3 * b_den**2
    disc = c - b**2 * a_den**3
    return CurveInvariants(
        kind,
        (Fraction(a, a_den), Fraction(b, b_den)),
        Fraction(disc, a_den**3 * b_den**2),
        None if disc == 0 else Fraction(1728 * c, disc),
    )


def plane_cubic_invariants(coeffs, den=1):
    """CurveInvariants of the plane cubic with the 10 integer coefficients
    coeffs / den, in CUBIC_MONOMIALS order: (S, T), the discriminant
    64*S^3 - T^2 and j.  Any other number of coefficients raises
    WrongDegreeError."""
    _check_count(coeffs, CUBIC_MONOMIALS)
    return _curve(PLANE_CUBIC, _cubic_st(coeffs, den))


def biquadratic_invariants(coeffs, den=1):
    """CurveInvariants of the (2,2)-curve with the 9 integer coefficients
    coeffs / den, in BIQUADRATIC_MONOMIALS order: the (I, J) of its branch
    quartic, the discriminant 4*I^3 - J^2 and j.  The branch quartic is
    _branch(coeffs) / den^2, so I and J are integers divided by den^4 and
    den^6.  It is kept homogeneous, so a vanishing leading coefficient
    needs no chart, and a repeated root (equal branch points) is exactly
    the 4*I^3 = J^2 locus.  Any other number of coefficients raises
    WrongDegreeError."""
    _check_count(coeffs, BIQUADRATIC_MONOMIALS)
    i_int, j_int = _ij(*_branch(coeffs))
    return _curve(BIQUADRATIC, ((i_int, den**4), (j_int, den**6)))


def aronhold_invariants(f):
    """The degree-4 and degree-6 invariants (S, T) of a TernaryCubic, from
    its coefficients with their denominators cleared once."""
    (coeffs,), den = clear_denominators([f.coeffs])
    return plane_cubic_invariants(coeffs, den).pair


def cubic_discriminant(f):
    """64*S^3 - T^2 of a TernaryCubic, as ``aronhold_invariants`` reads it;
    it vanishes exactly on singular cubics."""
    (coeffs,), den = clear_denominators([f.coeffs])
    return plane_cubic_invariants(coeffs, den).discriminant


def _curve_projections(fmt, rows, den):
    """Exact invariants of every projection of the model whose forms have
    the coefficient rows rows / den (integer rows); each projection is
    integer and stands for its value divided by den^d."""
    n, d = fmt
    invariants = plane_cubic_invariants if fmt == (3, 3) else biquadratic_invariants
    return [
        Projection(axes, invariants(projection_coefficients(rows, n, d, axes), den**d))
        for axes in CURVE_AXES[fmt]
    ]


def _discriminants(fmt, rows, den):
    return tuple(pr.invariants.discriminant for pr in _curve_projections(fmt, rows, den))


def exact_projection_discriminants(t):
    """Exact discriminants of every projected curve, or None when the
    format has no determinantal projections or the rank is deficient."""
    if (t.n, t.d) not in CURVE_AXES:
        return None
    rows, den = flattening_basis(t)
    if len(rows) != t.d:
        return None
    return _discriminants((t.n, t.d), rows, den)


def slice_discriminants(t):
    """Discriminants of the projections of the model whose rows are the
    state's own slices along the last axis, or None outside the curve
    formats; they are the numerators t.nums[k::d], over the state's
    denominator.  With full flattening rank these rows differ from the
    canonical basis by an invertible d x d change, which scales every
    discriminant by a nonzero power of its determinant; over F_p the same
    holds for the reduced basis whenever the reduction is good.  So for
    such p >= 5 a reduced curve is singular exactly when p divides the
    numerator of one of these values."""
    if (t.n, t.d) not in CURVE_AXES:
        return None
    return _discriminants((t.n, t.d), [t.nums[k :: t.d] for k in range(t.d)], t.den)


def curve_singular_mod_p(model_p):
    """Whether a curve model over F_p has a vanishing projection
    discriminant; used to recognize primes of bad geometric reduction.

    The reduced rows are read as integers and run through the exact
    projection and invariants; a discriminant vanishes mod p exactly when
    p divides its numerator.  Requires p > 3 so the invariant denominators
    stay invertible: p = 2 and 3 raise UnsupportedPrimeError, larger moduli
    of a hand-built model are not checked.  A model over Q raises
    ValueError: reduce it first (``model_mod_p``).
    """
    fmt = (model_p.n, model_p.d)
    if fmt not in CURVE_AXES:
        raise UnsupportedFormatError(f"no curve discriminants for format {fmt}")
    if model_p.p is None:
        raise ValueError("curve_singular_mod_p needs a model over F_p; reduce it with model_mod_p")
    if model_p.p < 5:
        raise UnsupportedPrimeError(f"curve_singular_mod_p needs p >= 5, not {model_p.p}")
    return any(disc.numerator % model_p.p == 0 for disc in _discriminants(fmt, model_p.rows, 1))


#: The hyperdeterminant of each format that has one, as (name, function).
#: The functions are looked up when called, so a wrapper installed on the
#: module attribute (as a profiler does) sees every call.
HYPERDETERMINANTS = {
    (3, 2): ("cayley", lambda t: cayley_hyperdet(t)),
    (4, 2): ("schlaefli", lambda t: schlaefli_hyperdet(t)),
}


#: How many verdicts ``classify`` keeps, least recently used first out.  A
#: state met again within this many distinct classifications (as a
#: ``slocc_compare`` of states just classified meets them) is not
#: recomputed.
CLASSIFY_MEMO_SIZE = 32


def classify(t, primes=None):
    """Full verdict for a state: rank, exact curve invariants where the
    format supports them, finite-field smoothness evidence elsewhere.

    Verdicts are memoized by the exact state value and the checked, sorted
    primes: equal tensors (same n, d, numerators and denominator in lowest
    terms) share one entry, so a state built again, parsed again or scaled
    back is not reclassified.  The memo holds the last CLASSIFY_MEMO_SIZE
    verdicts and their states; a call that raises is not memoized, and
    ``classify.cache_clear()`` empties it.  Every verdict is frozen, so
    callers share it.

    For (3,3) and (4,2) the smooth/singular split is decided exactly by
    discriminants; the prime sweep only supplies a singular witness.

    A (5,2) state of full flattening rank is first offered a proof of
    smoothness.  Its model X cuts two (1,1,1,1) forms out of (P^1)^4, and X
    is singular exactly when the 2^5 hyperdeterminant Det(t) vanishes
    (Gelfand-Kapranov-Zelevinsky 1994, ch. 14).  By Schlaefli's method Det
    divides the discriminant of the binary form P(lam, mu) =
    Schlaefli(lam * t_0 + mu * t_1) of degree 24, t_k the slice with last
    index k.  disc P is an integer polynomial in the state's numerators
    (the denominator only scales P by den^-24), so if P is squarefree
    modulo one prime, disc P, and with it Det, is nonzero, and X is smooth
    over the algebraic closure of Q.  The prime is q = MAX_PRIME =
    2^31 - 1 (``_certified_smooth``, which ``smoothness_scan`` shares).
    Such a state is
    SmoothGeneric with no primes used and no witness: nothing is filed or
    swept, so it needs no usable prime and never raises AllPrimesBadError.
    A P that is not squarefree mod q proves nothing (P vanishes on GHZ(5,2)
    and W(5), and disc P has factors other than Det), and the state goes to
    the vote below.  An uncertified (5,2) state and every other format rest
    on the sweep alone, so their verdicts are evidence, not proof.  A (5,2)
    sweep uses only the given primes up to 13, or all of them when none is
    that small, since each larger prime costs a far larger sweep.

    Neither reads a point count, so the sweep here is lazy, and as in
    ``smoothness_scan`` only the points that the walk (``_points``) does not
    certify smooth (``_pencil_roots``) get a Jacobian test.  Every prime is
    filed up front as used or bad (``_file_primes``), so ``primes_used`` and
    the witness are those of the full ``smoothness_scan`` (whose exclusions
    apply only to smooth curve models and certified (5,2) models, which
    never reach the sweep here).
    One loop then tests each used prime in order up to its first witness,
    and stops at the first witness for a curve model, or, for other formats,
    once the vote is settled: with W witnesses, C clean primes and R used
    primes not yet swept, the model is smooth when W + R <= C and singular
    when W > C + R, whatever those R primes show.  ``_file_primes`` only
    files; the rule for a sweep whose primes are all bad is stated here, in
    one branch before the loop.  A singular curve model is still
    SingularModel, with no primes used and no witness, while any other
    format raises AllPrimesBadError, naming the primes of its scan: it has
    no verdict without a usable prime.  Given primes must pass
    ``check_primes``, also when no sweep runs or the verdict is memoized.
    """
    return _classify(t, DEFAULT_PRIMES if primes is None else check_primes(primes))


@lru_cache(maxsize=CLASSIFY_MEMO_SIZE)
def _classify(t, primes):
    fmt = (t.n, t.d)
    rows, den = flattening_basis(t)
    rank = len(rows)
    hyperdet = HYPERDETERMINANTS[fmt][1](t) if fmt in HYPERDETERMINANTS else None
    hint = None if hyperdet is None else hyperdet != 0
    curve = fmt in CURVE_AXES and rank == t.d
    projections = tuple(_curve_projections(fmt, rows, den)) if curve else ()
    j, used, witness = None, (), None
    if rank < t.d:
        status = RANK_DEFICIENT
    elif curve and all(pr.invariants.discriminant != 0 for pr in projections):
        js = {pr.invariants.j for pr in projections}
        if len(js) != 1:
            raise SloccGeoError(f"projection j values disagree: {sorted(map(str, js))}")
        status, j = SMOOTH_GENERIC, js.pop()
    elif _certified_smooth(t):
        status = SMOOTH_GENERIC
    else:
        used, status, witness = _vote(t, primes, curve)
    return Verdict(t.n, t.d, status, rank, projections, j, hyperdet, hint, used, witness)


def _vote(t, primes, curve):
    """(primes used, status, witness or None) of the sweep that decides a
    state with no exact verdict, or finds a singular curve model's witness;
    ``classify`` states the rules."""
    scan = (tuple(p for p in primes if p <= 13) or primes) if (t.n, t.d) == (5, 2) else primes
    filed = _file_primes(t, scan)[0]
    # every prime bad: a curve model is singular by its discriminants
    # alone, any other model has no verdict
    if not filed and not curve:
        raise AllPrimesBadError(f"all primes {list(scan)} hit bad reduction")
    witnesses, clean = [], 0
    for p, reduced in filed:
        if (found := _first_witness(reduced, _points(reduced, p))) is None:
            clean += 1
        else:
            witnesses.append(found)
        w, rest = len(witnesses), len(filed) - len(witnesses) - clean
        if (w > 0) if curve else (w + rest <= clean or w > clean + rest):
            break
    used = tuple(p for p, _ in filed)
    # A curve model is singular by its exact discriminants, and the sweep
    # only looks for a witness.  Elsewhere no exact discriminant exists, so
    # a single-prime witness may be bad-reduction noise; only a strict
    # majority of usable primes decides.
    singular = curve or 2 * len(witnesses) > len(used)
    witness = witnesses[0] if singular and witnesses else None
    return used, SINGULAR_MODEL if singular else SMOOTH_GENERIC, witness


classify.cache_info = _classify.cache_info
classify.cache_clear = _classify.cache_clear


DISTINCT_CERTIFIED = "DistinctCertified"
CONSISTENT_UNKNOWN = "ConsistentUnknown"
BOTH_DEGENERATE = "BothDegenerate"


@dataclass(frozen=True)
class ComparisonResult:
    outcome: str
    detail: str
    left: Verdict
    right: Verdict

    def to_json_dict(self):
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
        }


def slocc_compare(a, b, primes=None):
    """Compare two states of the same format.

    Distinctness can be certified (different statuses, or both smooth with
    different j); agreement never can, because equal j leaves the remaining
    line-bundle data undetermined and the dictionary itself only holds on
    the generic locus.  Two smooth states of a format without an exact j
    (any but (3,3) and (4,2)) are never separated; the detail then says
    that the format has no exact j.

    Both verdicts come from ``classify``, so a state classified a few calls
    earlier (with the same primes) is not classified again.
    """
    if (a.n, a.d) != (b.n, b.d):
        raise FormatMismatchError(f"formats {(a.n, a.d)} and {(b.n, b.d)} differ")
    va = classify(a, primes)
    vb = classify(b, primes)
    if va.status != vb.status:
        outcome, detail = DISTINCT_CERTIFIED, f"statuses differ: {va.status} vs {vb.status}"
    elif va.status != SMOOTH_GENERIC:
        outcome = BOTH_DEGENERATE
        detail = f"both states have status {va.status}; j-based separation unavailable"
    elif va.j != vb.j:
        outcome, detail = DISTINCT_CERTIFIED, "exact j values differ"
    else:
        outcome = CONSISTENT_UNKNOWN
        agree = "equal j" if va.j is not None else f"format {(a.n, a.d)} has no exact j"
        detail = f"{agree}; line-bundle data not compared, equivalence not certified"
    return ComparisonResult(outcome, detail, va, vb)
