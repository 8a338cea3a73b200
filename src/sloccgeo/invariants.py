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
vanishes: p divides its numerator.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import permutations
from math import factorial, gcd

from .errors import (
    AllPrimesBadError,
    FormatMismatchError,
    SloccGeoError,
    UnsupportedFormatError,
    WrongDegreeError,
    WrongFormatError,
)
from .linalg import DEFAULT_PRIMES, check_primes, clear_denominators
from .states import _frac_str, flattening_basis
from .geometry import (
    BIQUADRATIC_MONOMIALS,
    CUBIC_MONOMIALS,
    CURVE_AXES,
    MultiForm,
    _PrimeSweep,
    _check_formula_format,
    _first_witness,
    _points,
    projection_coefficients,
)

_CUBIC_INDEX = {m: i for i, m in enumerate(CUBIC_MONOMIALS)}


class TernaryCubic:
    """A cubic form in three variables, stored as 10 exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != 10:
            raise ValueError("a ternary cubic has 10 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TernaryCubic is immutable")

    @classmethod
    def from_form(cls, form):
        if form.group_dims != (3,) or (not form.is_zero() and form.multidegree != (3,)):
            raise WrongDegreeError("expected a cubic form in one group of 3 variables")
        return cls([form.coefficient(m) for m in CUBIC_MONOMIALS])

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

    def to_form(self):
        return MultiForm((3,), dict(zip(CUBIC_MONOMIALS, self.coeffs)))

    def __eq__(self, other):
        return isinstance(other, TernaryCubic) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TernaryCubic({self.coeffs})"


_PERMS3 = []
for _perm in permutations((0, 1, 2)):
    _sgn = 1
    for _i in range(3):
        for _j in range(_i + 1, 3):
            if _perm[_i] > _perm[_j]:
                _sgn = -_sgn
    _PERMS3.append((_perm, _sgn))


def _scaled_entry(i, j, k):
    """Entry (as coefficient multiple) of six times the symmetric tensor
    of a cubic: w_ijk = 6 * f_ijk where f is the polarized form."""
    counts = [0, 0, 0]
    for t in (i, j, k):
        counts[t] += 1
    perms = 6
    for c in counts:
        perms //= factorial(c)
    return 6 // perms, _CUBIC_INDEX[tuple(counts)]


_W = {
    (i, j, k): _scaled_entry(i, j, k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
}


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


def _ratios(pair):
    """A pair of rationals as integer (numerator, denominator) pairs."""
    return tuple((x.numerator, x.denominator) for x in pair)


def aronhold_invariants(f):
    """The degree-4 and degree-6 invariants (S, T) of a ternary cubic."""
    (coeffs,), den = clear_denominators([f.coeffs])
    return tuple(Fraction(*x) for x in _cubic_st(coeffs, den))


def cubic_discriminant(f):
    return _curve(PLANE_CUBIC, _ratios(aronhold_invariants(f))).discriminant


def j_plane_cubic(f):
    """j-invariant of a plane cubic; None marks the singular locus."""
    return _curve(PLANE_CUBIC, _ratios(aronhold_invariants(f))).j


@dataclass(frozen=True)
class BinaryQuartic:
    """a*s^4 + b*s^3*t + c*s^2*t^2 + d*s*t^3 + e*t^4 with exact coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction

    @classmethod
    def of(cls, a, b, c, d, e):
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d), Fraction(e))


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


def quartic_invariants(g):
    """The classical degree-2 and degree-3 invariants (I, J)."""
    return _ij(g.a, g.b, g.c, g.d, g.e)


def quartic_discriminant(g):
    return _curve(BIQUADRATIC, _ratios(quartic_invariants(g))).discriminant


def j_binary_quartic(g):
    """j-invariant of the double cover branched at the quartic's roots."""
    return _curve(BIQUADRATIC, _ratios(quartic_invariants(g))).j


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


def branch_quartic(m):
    """Discriminant of a (2,2)-form read as a quadratic in the second pair:
    the binary quartic over the first pair whose roots are the branch
    points of the 2:1 projection."""
    if m.group_dims != (2, 2):
        raise WrongDegreeError("expected a form on two groups of 2 variables")
    if not m.is_zero() and m.multidegree != (2, 2):
        raise WrongDegreeError(f"expected bidegree (2,2), got {m.multidegree}")
    return BinaryQuartic(*_branch([m.coefficient(e) for e in BIQUADRATIC_MONOMIALS]))


def j_biquadratic(m):
    """j-invariant of a (2,2)-curve via its branch quartic; None if singular.

    The quartic is kept homogeneous throughout, so a vanishing leading
    coefficient needs no special chart handling; a repeated root (equal
    branch points) is exactly the 4*I^3 = J^2 locus.
    """
    return j_binary_quartic(branch_quartic(m))


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
    s0, s1 = t.nums[0::2], t.nums[1::2]
    i_val, j_val = _ij(*_pencil_cayley([[x, y] for x, y in zip(s0, s1)]))
    return Fraction(4 * i_val**3 - j_val**2, 27 * t.den**24)


def moduli_dimension(n, d):
    """Dimension of the generic orbit-space: d^n - n*d^2 + n - 1.  Formats
    whose d**n exceeds 2**MAX_FORMULA_BITS raise WorkLimitError."""
    _check_formula_format(n, d)
    return d**n - n * d * d + n - 1


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
        witness = None
        if self.singular_witness is not None:
            wp, wpt, wrank = self.singular_witness
            witness = {
                "prime": wp,
                "point": [list(c) for c in wpt.coords],
                "rank": wrank,
            }
        return {
            "status": self.status,
            "j": j_out,
            "projections": [pr.to_json_dict() for pr in self.projections],
            "hyperdeterminant": (
                None if self.hyperdeterminant is None else _frac_str(self.hyperdeterminant)
            ),
            "semistable_hint": self.semistable_hint,
            "primes_used": list(self.primes_used),
            "singular_witness": witness,
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


def _plane_cubic(coeffs, den):
    """Invariants of the plane cubic with integer coefficients coeffs / den."""
    return _curve(PLANE_CUBIC, _cubic_st(coeffs, den))


def _biquadratic(coeffs, den):
    """Invariants of the (2,2)-curve with integer coefficients coeffs / den:
    its branch quartic is _branch(coeffs) / den^2, so I and J are integers
    divided by den^4 and den^6."""
    i_int, j_int = _ij(*_branch(coeffs))
    return _curve(BIQUADRATIC, ((i_int, den**4), (j_int, den**6)))


def _curve_projections(fmt, rows, den):
    """Exact invariants of every projection of the model whose forms have
    the coefficient rows rows / den (integer rows); each projection is
    integer and stands for its value divided by den^d."""
    n, d = fmt
    invariants = _plane_cubic if fmt == (3, 3) else _biquadratic
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
    stay invertible.
    """
    fmt = (model_p.n, model_p.d)
    if fmt not in CURVE_AXES:
        raise UnsupportedFormatError(f"no curve discriminants for format {fmt}")
    return any(disc.numerator % model_p.p == 0 for disc in _discriminants(fmt, model_p.rows, 1))


#: The hyperdeterminant of each format that has one, as (name, function).
#: The functions are looked up when called, so a wrapper installed on the
#: module attribute (as a profiler does) sees every call.
HYPERDETERMINANTS = {
    (3, 2): ("cayley", lambda t: cayley_hyperdet(t)),
    (4, 2): ("schlaefli", lambda t: schlaefli_hyperdet(t)),
}


def _format_hyperdet(t):
    entry = HYPERDETERMINANTS.get((t.n, t.d))
    return None if entry is None else entry[1](t)


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
    discriminants; the prime sweep only supplies a singular witness.  For
    other formats (notably (5,2)) the verdict rests on the sweep alone.

    Neither reads a point count, so the sweep here is lazy: a singular
    curve model is swept only up to its first witness, and the (5,2) rule
    sweeps each prime up to that prime's first witness, and no further
    prime once the vote is settled: with W witnesses, C clean primes and R
    primes not yet filed, the model is smooth when W + R <= C and singular
    when W > C + R, whatever those R primes show.  The primes are still all
    filed as used, bad or excluded, so ``primes_used`` and the witness are
    those of the full ``smoothness_scan``.  Given primes must pass
    ``check_primes``, also when no sweep runs or the verdict is memoized.
    """
    return _classify(t, DEFAULT_PRIMES if primes is None else check_primes(primes))


@lru_cache(maxsize=CLASSIFY_MEMO_SIZE)
def _classify(t, primes):
    fmt = (t.n, t.d)
    rows, den = flattening_basis(t)
    rank = len(rows)
    hyperdet = _format_hyperdet(t)
    hint = None if hyperdet is None else hyperdet != 0

    if rank < t.d:
        return Verdict(t.n, t.d, RANK_DEFICIENT, rank, (), None, hyperdet, hint, (), None)

    if fmt in CURVE_AXES:
        projections = tuple(_curve_projections(fmt, rows, den))
        if all(pr.invariants.discriminant != 0 for pr in projections):
            js = {pr.invariants.j for pr in projections}
            if len(js) != 1:
                raise SloccGeoError(
                    f"projection j values disagree: {sorted(map(str, js))}"
                )
            return Verdict(
                t.n, t.d, SMOOTH_GENERIC, rank, projections,
                js.pop(), hyperdet, hint, (), None,
            )
        sweep = _PrimeSweep(t, primes)
        witness = None
        try:
            for p, reduced in sweep:
                if witness is None:
                    witness = _first_witness(reduced, _points(reduced, p))
            used = tuple(sweep.used)
        except AllPrimesBadError:
            used, witness = (), None
        return Verdict(
            t.n, t.d, SINGULAR_MODEL, rank, projections,
            None, hyperdet, hint, used, witness,
        )

    scan_primes = tuple(p for p in primes if p <= 13) if fmt == (5, 2) else primes
    if not scan_primes:
        scan_primes = primes
    sweep = _PrimeSweep(t, scan_primes)
    witnesses, clean, settled = [], 0, False
    for p, reduced in sweep:
        if not settled:
            witness = _first_witness(reduced, _points(reduced, p))
            if witness is None:
                clean += 1
            else:
                witnesses.append(witness)
            w, rest = len(witnesses), sweep.pending
            settled = w + rest <= clean or w > clean + rest
    used = tuple(sweep.used)
    # No exact discriminant exists here, so a single-prime witness may be
    # bad-reduction noise; only a strict majority of usable primes decides.
    if used and 2 * len(witnesses) > len(used):
        return Verdict(
            t.n, t.d, SINGULAR_MODEL, rank, (), None, hyperdet, hint,
            used, witnesses[0],
        )
    return Verdict(
        t.n, t.d, SMOOTH_GENERIC, rank, (), None, hyperdet, hint, used, None,
    )


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
    the generic locus.

    Both verdicts come from ``classify``, so a state classified a few calls
    earlier (with the same primes) is not classified again.
    """
    if (a.n, a.d) != (b.n, b.d):
        raise FormatMismatchError(f"formats {(a.n, a.d)} and {(b.n, b.d)} differ")
    va = classify(a, primes)
    vb = classify(b, primes)
    if va.status != vb.status:
        return ComparisonResult(
            DISTINCT_CERTIFIED,
            f"statuses differ: {va.status} vs {vb.status}",
            va,
            vb,
        )
    if va.status == SMOOTH_GENERIC:
        if va.j != vb.j:
            return ComparisonResult(
                DISTINCT_CERTIFIED, "exact j values differ", va, vb
            )
        return ComparisonResult(
            CONSISTENT_UNKNOWN,
            "equal j; line-bundle data not compared, equivalence not certified",
            va,
            vb,
        )
    return ComparisonResult(
        BOTH_DEGENERATE,
        f"both states have status {va.status}; j-based separation unavailable",
        va,
        vb,
    )
