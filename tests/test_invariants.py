import functools
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from sloccgeo.errors import (
    AllPrimesBadError,
    BadReductionError,
    FormatMismatchError,
    UnsupportedPrimeError,
    WorkLimitError,
    WrongDegreeError,
    WrongFormatError,
)
from sloccgeo.linalg import (
    DEFAULT_PRIMES,
    Matrix,
    clear_denominators,
    random_invertible,
)
from sloccgeo.geometry import (
    CUBIC_MONOMIALS,
    MultiForm,
    determinantal_projection,
    model_mod_p,
    smoothness_scan,
    variety_from_state,
)
from sloccgeo.invariants import (
    BOTH_DEGENERATE,
    CLASSIFY_MEMO_SIZE,
    CONSISTENT_UNKNOWN,
    DISTINCT_CERTIFIED,
    RANK_DEFICIENT,
    SINGULAR_MODEL,
    SMOOTH_GENERIC,
    BinaryQuartic,
    TernaryCubic,
    aronhold_invariants,
    branch_quartic,
    cayley_hyperdet,
    classify,
    cubic_discriminant,
    curve_singular_mod_p,
    exact_projection_discriminants,
    j_binary_quartic,
    j_biquadratic,
    j_plane_cubic,
    moduli_dimension,
    _PERMS3,
    _S_WIRING,
    _T_WIRING,
    _W,
    _contract,
    _curve_projections,
    quartic_discriminant,
    quartic_invariants,
    schlaefli_hyperdet,
    slice_discriminants,
    slocc_compare,
)
from sloccgeo.states import (
    SloccOperator,
    Tensor,
    apply_slocc,
    flattening_image,
    basis_state,
    four_qubit_generic_family,
    ghz,
    parse_state,
    random_state,
    state_to_json,
    w_state,
)

import reference_algebra as ref

# regression constants frozen from exact runs of this implementation
FAMILY_1235_J = Fraction(498677257, 213444)
FAMILY_1235_SCHLAEFLI = 622402704000000
GHZ3_QUBIT_CAYLEY = 1

FERMAT = TernaryCubic.from_terms({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
TRIANGLE = TernaryCubic.from_terms({(1, 1, 1): 1})


def weierstrass_j(alpha, beta):
    """Independent oracle: the closed-form j of y^2 z = x^3 + a x z^2 + b z^3."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    return 1728 * 4 * alpha**3 / (4 * alpha**3 + 27 * beta**2)


def test_fermat_invariants():
    s, t = aronhold_invariants(FERMAT)
    assert s == 0 and t != 0
    assert j_plane_cubic(FERMAT) == 0


def test_triangle_is_singular():
    s, t = aronhold_invariants(TRIANGLE)
    assert (s, t) == (Fraction(1, 16), Fraction(1, 8))  # regression
    assert cubic_discriminant(TRIANGLE) == 0
    assert j_plane_cubic(TRIANGLE) is None


@pytest.mark.parametrize(
    "alpha,beta", [(-1, 0), (0, 1), (1, 1), (2, 3), (-2, 5)]
)
def test_weierstrass_family_calibration(alpha, beta):
    cubic = TernaryCubic.weierstrass(alpha, beta)
    assert j_plane_cubic(cubic) == weierstrass_j(alpha, beta)
    s, t = aronhold_invariants(cubic)
    assert (s, t) == (-3 * Fraction(alpha), 108 * Fraction(beta))


def test_harmonic_weierstrass_is_1728():
    assert j_plane_cubic(TernaryCubic.weierstrass(-1, 0)) == 1728


def test_aronhold_covariance_under_substitutions():
    # the calibration contract: S picks up det^4 and T det^6, exactly,
    # under 20 random invertible substitutions
    base = TernaryCubic.weierstrass(2, 3).to_form()
    s0, t0 = aronhold_invariants(TernaryCubic.from_form(base))
    for trial in range(20):
        g = random_invertible(3, 3, seed=5000 + trial)
        moved = TernaryCubic.from_form(ref.substitute(base, 0, g))
        s1, t1 = aronhold_invariants(moved)
        det = g.det()
        assert s1 == det**4 * s0
        assert t1 == det**6 * t0


def test_j_is_projectively_invariant():
    cubic = TernaryCubic.from_terms(
        {(3, 0, 0): 2, (2, 1, 0): -1, (1, 1, 1): 3, (0, 0, 3): 5, (0, 2, 1): 7}
    )
    j0 = j_plane_cubic(cubic)
    assert j0 is not None
    for trial in range(5):
        g = random_invertible(3, 4, seed=900 + trial)
        moved = TernaryCubic.from_form(ref.substitute(cubic.to_form(), 0, g))
        assert j_plane_cubic(moved) == j0
        scaled = TernaryCubic([7 * c for c in cubic.coeffs])
        assert j_plane_cubic(scaled) == j0


def test_quartic_invariant_values():
    assert quartic_invariants(BinaryQuartic.of(1, 0, 0, 0, 1)) == (12, 0)
    assert quartic_invariants(BinaryQuartic.of(1, 0, 0, 1, 0)) == (0, -27)
    assert quartic_invariants(BinaryQuartic.of(0, 0, 0, 0, 0)) == (0, 0)


def test_j_of_lemniscatic_quartic():
    # 6912 * 12^3 / (4 * 12^3) = 1728
    assert j_binary_quartic(BinaryQuartic.of(1, 0, 0, 0, 1)) == 1728


def test_quartic_with_int_fields_gets_exact_j():
    # the dataclass keeps int fields as given; j was once their float quotient
    g = BinaryQuartic(1, 0, -1, 0, 2)
    j = j_binary_quartic(g)
    assert type(j) is Fraction and j == Fraction(125000, 49)
    assert j == j_binary_quartic(BinaryQuartic.of(1, 0, -1, 0, 2))


def test_biquadratic_with_lemniscatic_branch_quartic():
    # A = -x1^2/4, B = x0^2, C = x1^2 gives B^2 - 4AC = x0^4 + x1^4
    m = MultiForm(
        (2, 2),
        {
            (0, 2, 2, 0): Fraction(-1, 4),
            (2, 0, 1, 1): 1,
            (0, 2, 0, 2): 1,
        },
    )
    q = branch_quartic(m)
    assert (q.a, q.b, q.c, q.d, q.e) == (1, 0, 0, 0, 1)
    assert j_biquadratic(m) == 1728


def test_biquadratic_ghz4_projection_is_singular(ghz4):
    model = variety_from_state(ghz4)
    form = determinantal_projection(model, (0, 1))
    assert j_biquadratic(form) is None


def test_biquadratic_family_value_and_agreement(family_1235):
    model = variety_from_state(family_1235)
    values = []
    for axes in ((0, 1), (0, 2), (1, 2)):
        values.append(j_biquadratic(determinantal_projection(model, axes)))
    assert values == [FAMILY_1235_J] * 3


def test_biquadratic_rejects_wrong_degree():
    with pytest.raises(WrongDegreeError):
        j_biquadratic(MultiForm((2, 2), {(1, 0, 1, 0): 1}))
    with pytest.raises(WrongDegreeError):
        j_biquadratic(MultiForm((3, 3), {}))


def test_cayley_fixed_points():
    assert cayley_hyperdet(ghz(3, 2)) == GHZ3_QUBIT_CAYLEY
    assert cayley_hyperdet(w_state(3)) == 0
    assert cayley_hyperdet(basis_state(3, 2, (0, 0, 0))) == 0
    with pytest.raises(WrongFormatError):
        cayley_hyperdet(ghz(3, 3))


def test_cayley_covariance():
    rng = random.Random(31)
    for trial in range(6):
        t = random_state(3, 2, 5, seed=rng.randint(0, 10**6))
        g = SloccOperator.random(3, 2, 3, seed=rng.randint(0, 10**6))
        dets = [f.det() for f in g.factors]
        lhs = cayley_hyperdet(apply_slocc(t, g))
        assert lhs == cayley_hyperdet(t) * (dets[0] * dets[1] * dets[2]) ** 2


def test_cayley_vanishing_is_invariant():
    for seed in range(4):
        g = SloccOperator.random(3, 2, 4, seed=seed)
        assert cayley_hyperdet(apply_slocc(w_state(3), g)) == 0
        assert cayley_hyperdet(apply_slocc(ghz(3, 2), g)) != 0


def test_schlaefli_fixed_points(ghz4, family_1235):
    assert schlaefli_hyperdet(ghz4) == 0
    assert schlaefli_hyperdet(family_1235) == FAMILY_1235_SCHLAEFLI
    assert schlaefli_hyperdet(basis_state(4, 2, (0, 0, 0, 0))) == 0
    with pytest.raises(WrongFormatError):
        schlaefli_hyperdet(ghz(3, 2))


def test_schlaefli_vanishing_is_invariant(ghz4):
    for seed in range(4):
        g = SloccOperator.random(4, 2, 3, seed=100 + seed)
        assert schlaefli_hyperdet(apply_slocc(ghz4, g)) == 0


def test_moduli_dimension_paper_values():
    assert moduli_dimension(3, 3) == 2
    assert moduli_dimension(4, 2) == 3
    assert moduli_dimension(5, 2) == 16
    with pytest.raises(ValueError):
        moduli_dimension(2, 1)


#: d^n less the rank of the infinitesimal GL_d^n action at
#: random_state(n, d, 50, 7) modulo 2^31 - 1.
TANGENT_QUOTIENTS = {
    (2, 2): 0, (2, 3): 0, (2, 4): 0, (3, 2): 0, (3, 3): 2,
    (4, 2): 3, (5, 2): 16, (3, 4): 18, (4, 3): 48, (6, 2): 45,
}


@pytest.mark.parametrize("fmt", sorted(TANGENT_QUOTIENTS))
def test_moduli_dimension_is_the_tangent_quotient(fmt):
    # The orbit of t has the dimension of the span of E_ij acting on slot k
    # (over all k, i, j).  Its rank at one state mod p is at most the
    # generic rank over Q, which is at most n*d^2 - n + 1 (n - 1 scalings
    # act trivially), so the measured quotient is at least the orbit-space
    # dimension, and that is at least the formula: where they meet, or the
    # quotient is 0, the dimension is certified.
    n, d = fmt
    t = random_state(n, d, 50, 7)
    index = list(product(range(d), repeat=n))
    rows = [
        # E_ij on slot k carries the entries with slot-k index j to index i
        [t.nums[t.offset(x[:k] + (j,) + x[k + 1 :])] if x[k] == i else 0 for x in index]
        for k, i, j in product(range(n), range(d), range(d))
    ]
    rank = Matrix(rows, cols=d**n, p=2**31 - 1).rank()
    assert d**n - rank == TANGENT_QUOTIENTS[fmt] == moduli_dimension(n, d)


def test_format_formulas_are_bounded():
    # d**n is bounded by n*log2(d) before any power is formed
    from sloccgeo.geometry import MAX_FORMULA_BITS, section_count

    assert moduli_dimension(MAX_FORMULA_BITS, 2) == 2**MAX_FORMULA_BITS - 3 * MAX_FORMULA_BITS - 1
    wide = 2 ** (MAX_FORMULA_BITS // 3)
    assert section_count(3, wide) == wide * wide - wide
    for n, d in ((MAX_FORMULA_BITS + 1, 2), (10**7, 10), (10**400, 2), (2, 2**3000), (1100, 17),
                 (2, 10**5000)):
        for formula in (moduli_dimension, section_count):
            with pytest.raises(WorkLimitError):
                formula(n, d)
    with pytest.raises(ValueError):
        moduli_dimension(10**7, 1)


def test_classify_when_every_prime_is_bad():
    # 35 = 5 * 7 divides the denominator, so both primes are bad.  A curve
    # model is singular by its exact discriminants and keeps that verdict,
    # without a prime or a witness; a (5,2) verdict rests on the sweep alone
    curve = classify(ghz(3, 3).scale(Fraction(1, 35)), (5, 7))
    assert curve.status == SINGULAR_MODEL
    assert curve.primes_used == ()
    assert curve.singular_witness is None
    with pytest.raises(AllPrimesBadError):
        classify(ghz(5, 2).scale(Fraction(1, 35)), (5, 7))


def test_classify_separable():
    verdict = classify(basis_state(3, 3, (0, 0, 0)))
    assert verdict.status == RANK_DEFICIENT
    assert verdict.rank == 1
    assert verdict.projections == ()


def test_classify_ghz3(ghz3_qutrit):
    verdict = classify(ghz3_qutrit)
    assert verdict.status == SINGULAR_MODEL
    assert verdict.singular_witness is not None
    p, _, rank = verdict.singular_witness
    assert p <= 31 and rank < 3
    assert all(pr.invariants.discriminant == 0 for pr in verdict.projections)


def test_classify_family(family_1235):
    verdict = classify(family_1235)
    assert verdict.status == SMOOTH_GENERIC
    assert verdict.j == FAMILY_1235_J
    assert len(verdict.projections) == 3
    assert {pr.invariants.j for pr in verdict.projections} == {FAMILY_1235_J}
    assert verdict.hyperdeterminant == FAMILY_1235_SCHLAEFLI
    assert verdict.semistable_hint is True


def test_classify_33_projection_agreement():
    for seed in (42, 77, 1001):
        t = random_state(3, 3, 5, seed=seed)
        verdict = classify(t)
        if verdict.status != SMOOTH_GENERIC:
            continue
        j_values = [pr.invariants.j for pr in verdict.projections]
        assert j_values[0] == j_values[1] == verdict.j


def test_classify_five_qubits():
    verdict = classify(ghz(5, 2), primes=(5, 7))
    assert verdict.status == SINGULAR_MODEL
    assert verdict.projections == () and verdict.j is None


def test_five_qubit_vote_stops_once_settled(monkeypatch):
    # With primes 5, 7, 11, 13, two clean primes already rule out a strict
    # majority of witnesses, and three witnesses ensure one; the remaining
    # primes are filed but not swept, so primes_used and the witness stay.
    import sloccgeo.invariants as inv

    swept = []

    def counting(reduced, points):
        swept.append(reduced.p)
        return first_witness(reduced, points)

    first_witness = inv._first_witness
    monkeypatch.setattr(inv, "_first_witness", counting)
    # seed 1 has a witness at 7 only, so the vote needs p = 11 as well
    for seed, expected in ((0, [5, 7]), (1, [5, 7, 11]), (2, [5, 7]), (4, [5, 7])):
        swept.clear()
        verdict = classify(random_state(5, 2, 5, seed=seed))
        assert verdict.status == SMOOTH_GENERIC and verdict.singular_witness is None
        assert verdict.primes_used == (5, 7, 11, 13)
        assert swept == expected, seed
    swept.clear()
    verdict = classify(ghz(5, 2))
    assert verdict.status == SINGULAR_MODEL and verdict.primes_used == (5, 7, 11, 13)
    assert verdict.singular_witness[0] == 5
    assert swept == [5, 7, 11]


def test_verdict_json_shape(family_1235, ghz3_qutrit):
    doc = classify(family_1235).to_json_dict()
    assert list(doc) == [
        "status", "j", "projections", "hyperdeterminant",
        "semistable_hint", "primes_used", "singular_witness",
    ]
    assert doc["j"] == [str(FAMILY_1235_J.numerator), str(FAMILY_1235_J.denominator)]
    assert doc["projections"][0]["axes"] == [0, 1]
    assert classify(ghz3_qutrit).to_json_dict()["j"] == "singular"


def test_exact_projection_discriminants(family_1235):
    discs = exact_projection_discriminants(family_1235)
    assert discs is not None and len(discs) == 3
    assert all(d == Fraction(16411008796875, 4) for d in discs)
    assert exact_projection_discriminants(basis_state(3, 3, (0, 0, 0))) is None
    assert exact_projection_discriminants(random_state(5, 2, 5, seed=1)) is None


def test_curve_singular_mod_p_detects_bad_reduction(family_1235):
    model = variety_from_state(family_1235)
    assert curve_singular_mod_p(model_mod_p(model, 5)) is True
    assert curve_singular_mod_p(model_mod_p(model, 13)) is False


def test_compare_never_distinct_under_slocc(family_1235):
    for seed in range(3):
        g = SloccOperator.random(4, 2, 3, seed=400 + seed)
        result = slocc_compare(family_1235, apply_slocc(family_1235, g))
        assert result.outcome != DISTINCT_CERTIFIED
        assert result.outcome == CONSISTENT_UNKNOWN


def test_compare_distinct_j_values():
    a = four_qubit_generic_family(1, 2, 3, 5)
    b = four_qubit_generic_family(2, 3, 5, 7)
    va, vb = classify(a), classify(b)
    assert va.status == vb.status == SMOOTH_GENERIC and va.j != vb.j
    assert slocc_compare(a, b).outcome == DISTINCT_CERTIFIED


def test_compare_statuses_differ(ghz3_qutrit):
    result = slocc_compare(ghz3_qutrit, basis_state(3, 3, (0, 0, 0)))
    assert result.outcome == DISTINCT_CERTIFIED


def test_compare_both_degenerate(ghz3_qutrit):
    scaled = ghz3_qutrit.scale(2)
    result = slocc_compare(ghz3_qutrit, scaled)
    assert result.outcome == BOTH_DEGENERATE


def test_compare_format_mismatch(ghz3_qutrit, ghz4):
    with pytest.raises(FormatMismatchError):
        slocc_compare(ghz3_qutrit, ghz4)


# ---------------------------------------------------------------- reference
# Test-only copies of the dict-polynomial constructions that the integer
# core replaced: the permutation loop over reference_algebra.mul, the
# Fraction evaluation of the calibrated S/T polynomials, and the Schlaefli
# pencil interpolated from Cayley values at five points.


def _reference_perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def reference_projection(model, kept):
    dropped = next(g for g in range(model.groups) if g not in kept)
    entries = [[ref.partial(f, dropped, j) for j in range(model.d)] for f in model.forms]
    det = ref.zero(model.forms[0].group_dims, p=model.forms[0].p)
    for perm in permutations(range(model.d)):
        prod_form = entries[0][perm[0]]
        for k in range(1, model.d):
            prod_form = ref.mul(prod_form, entries[k][perm[k]])
        det = ref.add(det, ref.scale(prod_form, _reference_perm_sign(perm)))
    return ref.drop_groups(det, kept)


def _accumulate(poly, key, coeff):
    val = poly.get(key, 0) + coeff
    if val:
        poly[key] = val
    else:
        poly.pop(key, None)


def _contract_degree4():
    """Complete contraction of four copies of the cubic tensor with four
    epsilons; each tensor skips exactly one epsilon, which is the unique
    3-regular pairing at this degree."""
    poly = {}
    for (a, sa), (b, sb), (c, sc), (d, sd) in product(_PERMS3, repeat=4):
        ents = (
            _W[(b[0], c[0], d[0])],
            _W[(a[0], c[1], d[1])],
            _W[(a[1], b[1], d[2])],
            _W[(a[2], b[2], c[2])],
        )
        coeff = sa * sb * sc * sd
        exps = [0] * 10
        for fac, m in ents:
            coeff *= fac
            exps[m] += 1
        _accumulate(poly, tuple(exps), coeff)
    return poly


def _contract_degree6():
    """Cyclic contraction of six copies with six epsilons: tensor i feeds
    slot 0 of epsilon i, slot 1 of epsilon i+1, slot 2 of epsilon i+2."""
    poly = {}
    for perms in product(_PERMS3, repeat=6):
        coeff = 1
        for _, s in perms:
            coeff *= s
        exps = [0] * 10
        for i in range(6):
            fac, m = _W[
                (perms[i][0][0], perms[(i + 1) % 6][0][1], perms[(i + 2) % 6][0][2])
            ]
            coeff *= fac
            exps[m] += 1
        _accumulate(poly, tuple(exps), coeff)
    return poly


@functools.cache
def reference_contractions():
    """The full brute-force sums over every epsilon permutation, keyed by
    exponent vectors: (S contraction, T contraction)."""
    return _contract_degree4(), _contract_degree6()


def test_contraction_matches_full_sum():
    # the epsilon-at-a-time contraction against the 6^4 and 6^6 full sums
    for wiring, full in zip((_S_WIRING, _T_WIRING), reference_contractions()):
        contracted, exps = _contract(wiring), {}
        for idx, k in contracted.items():
            vec = [0] * 10
            for m in idx:
                vec[m] += 1
            exps[tuple(vec)] = k
        assert len(exps) == len(contracted) and exps == full


def reference_evaluate(poly, coeffs):
    total = Fraction(0)
    for exps, k in poly.items():
        term = Fraction(k)
        for m, e in enumerate(exps):
            if e:
                term *= coeffs[m] ** e
        total += term
    return total


@functools.cache
def reference_st_polys():
    s_raw, t_raw = reference_contractions()
    u = reference_evaluate(s_raw, TernaryCubic.weierstrass(1, 0).coeffs)
    v = reference_evaluate(t_raw, TernaryCubic.weierstrass(0, 1).coeffs)
    return (
        {e: Fraction(-3) / u * k for e, k in s_raw.items()},
        {e: Fraction(108) / v * k for e, k in t_raw.items()},
    )


def reference_invariants(form):
    """(pair, discriminant, j) of a projected curve, from its MultiForm."""
    if form.group_dims == (3,):
        s_poly, t_poly = reference_st_polys()
        coeffs = [form.coefficient(m) for m in CUBIC_MONOMIALS]
        s, t = reference_evaluate(s_poly, coeffs), reference_evaluate(t_poly, coeffs)
        disc = 64 * s**3 - t**2
        return (s, t), disc, None if disc == 0 else 110592 * s**3 / disc
    quad = {(2, 0): [0] * 3, (1, 1): [0] * 3, (0, 2): [0] * 3}
    for exps, c in form.terms.items():
        quad[exps[2:]][exps[1]] = c
    a_q, b_q, c_q = quad[(2, 0)], quad[(1, 1)], quad[(0, 2)]

    def conv(u, v):
        return [sum(u[i] * v[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]

    quartic = [x - 4 * y for x, y in zip(conv(b_q, b_q), conv(a_q, c_q))]
    i_val, j_val = quartic_invariants(BinaryQuartic.of(*quartic))
    disc = 4 * i_val**3 - j_val**2
    return (i_val, j_val), disc, None if disc == 0 else 6912 * i_val**3 / disc


def reference_curve_singular_mod_p(model_p):
    p = model_p.p
    axes = ((0,), (1,)) if model_p.d == 3 else ((0, 1), (0, 2), (1, 2))
    return any(
        ref.reduce_scalar(reference_invariants(reference_projection(model_p, kept))[1], p) == 0
        for kept in axes
    )


def reference_schlaefli(t):
    size = len(t.coeffs) // 2
    s0 = [t.coeffs[2 * m] for m in range(size)]
    s1 = [t.coeffs[2 * m + 1] for m in range(size)]

    def cayley(c):
        m0 = Matrix([[c[0], c[2]], [c[4], c[6]]])
        m1 = Matrix([[c[1], c[3]], [c[5], c[7]]])
        msum = Matrix([[c[0] + c[1], c[2] + c[3]], [c[4] + c[5], c[6] + c[7]]])
        a, e = m0.det(), m1.det()
        b = msum.det() - a - e
        return b * b - 4 * a * e

    def pencil(s, u):
        return cayley([s * x + u * y for x, y in zip(s0, s1)])

    a, e = pencil(1, 0), pencil(0, 1)
    f1, f2 = pencil(1, 1) - a - e, pencil(1, -1) - a - e
    f3 = pencil(1, 2) - a - 16 * e
    c = (f1 + f2) / 2
    d_coef = ((f3 - 4 * c) / 2 - (f1 - c)) / 3
    quartic = BinaryQuartic.of(a, f1 - c - d_coef, c, d_coef, e)
    return quartic_discriminant(quartic) / 27


def _drawn_state(draw, n, d):
    """Coefficients in [-2, 2], optionally times a rational and moved by a
    rational SLOCC operator."""
    from hypothesis import strategies as st

    t = Tensor(n, d, draw(st.lists(st.integers(-2, 2), min_size=d**n, max_size=d**n)))
    num = draw(st.integers(-6, 6).filter(bool))
    t = t.scale(Fraction(num, draw(st.integers(1, 9))))
    if draw(st.booleans()):
        g = SloccOperator.random(n, d, 2, seed=draw(st.integers(0, 10**6)))
        scale = Matrix([[Fraction(1, 3) if i == j else 0 for j in range(d)] for i in range(d)])
        t = apply_slocc(t, SloccOperator([f.mul(scale) for f in g.factors]))
    return t


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2)])
def test_integer_core_matches_reference(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    n, d = fmt
    axes = ((0,), (1,)) if fmt == (3, 3) else ((0, 1), (0, 2), (1, 2))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        t = _drawn_state(data.draw, n, d)
        if fmt == (4, 2):
            assert schlaefli_hyperdet(t) == reference_schlaefli(t)
        sub = flattening_image(t)
        if sub.rows < d:
            return
        model = variety_from_state(t)
        projections = _curve_projections(fmt, *clear_denominators(sub.entries))
        assert [pr.axes for pr in projections] == list(axes)
        assert exact_projection_discriminants(t) == tuple(
            pr.invariants.discriminant for pr in projections
        )
        for kept, pr in zip(axes, projections):
            form = determinantal_projection(model, kept)
            assert form == reference_projection(model, kept)
            inv = pr.invariants
            assert (inv.pair, inv.discriminant, inv.j) == reference_invariants(form)
        for p in (5, 7, 11):
            try:
                reduced = model_mod_p(model, p)
            except BadReductionError:
                continue
            for kept in axes:
                assert determinantal_projection(reduced, kept) == reference_projection(
                    reduced, kept
                )
            assert curve_singular_mod_p(reduced) == reference_curve_singular_mod_p(reduced)

    check()


def test_prime_exclusion_matches_reduced_curve_test(smooth_corpus_33, smooth_corpus_42):
    # smoothness_scan excludes p when p divides the numerator of a
    # discriminant of the state's own slices; the former test projected
    # the reduced model at every prime.  They agree on every good prime.
    pairs = excluded = 0
    for t in smooth_corpus_33 + smooth_corpus_42:
        discs = slice_discriminants(t)
        model = variety_from_state(t)
        for p in DEFAULT_PRIMES:
            try:
                reduced = model_mod_p(model, p)
            except BadReductionError:
                continue
            by_slices = any(disc.numerator % p == 0 for disc in discs)
            assert by_slices == reference_curve_singular_mod_p(reduced), (t, p)
            pairs += 1
            excluded += by_slices
    assert pairs > 800 and excluded > 0


def test_scan_excludes_primes_by_slice_discriminants(smooth_corpus_42):
    for t in smooth_corpus_42[:8]:
        discs = slice_discriminants(t)
        report = smoothness_scan(t, (5, 7, 11, 13))
        expected = tuple(
            p for p in (5, 7, 11, 13)
            if p not in report.bad_primes and any(disc.numerator % p == 0 for disc in discs)
        )
        assert report.excluded_primes == expected


def test_classify_status_and_j_are_slocc_invariant():
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        fmt=st.sampled_from([(3, 3), (4, 2)]),
        seed=st.integers(0, 10**6),
        op_seed=st.integers(0, 10**6),
    )
    def check(fmt, seed, op_seed):
        t = random_state(*fmt, 3, seed=seed)
        moved = apply_slocc(t, SloccOperator.random(*fmt, 3, seed=op_seed))
        a, b = classify(t, (5, 7)), classify(moved, (5, 7))
        assert (a.status, a.j) == (b.status, b.j)

    check()


def test_memoized_verdict_equals_fresh_one():
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        fmt=st.sampled_from([(3, 3), (4, 2), (5, 2)]),
        seed=st.integers(0, 10**6),
        op_seed=st.integers(0, 10**6),
    )
    def check(fmt, seed, op_seed):
        t = random_state(*fmt, 3, seed=seed)
        moved = apply_slocc(t, SloccOperator.random(*fmt, 3, seed=op_seed))
        classify(t), classify(moved)
        for s in (t, moved):
            memoized = classify(s)
            assert classify(s) is memoized
            classify.cache_clear()
            fresh = classify(s)
            assert fresh is not memoized
            assert fresh == memoized
            assert fresh.to_json_dict() == memoized.to_json_dict()

    check()


def test_equal_tensors_share_one_memo_entry():
    t = random_state(3, 3, 5, seed=7)
    first = classify(t)
    twins = (
        parse_state(state_to_json(t)),
        Tensor(3, 3, t.coeffs),
        Tensor.from_integers(3, 3, t.nums, t.den),
        t.scale(2).scale(Fraction(1, 2)),
    )
    for twin in twins:
        assert twin is not t and twin == t and hash(twin) == hash(t)
        assert classify(twin) is first
    info = classify.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 1, 1)


def test_memo_key_is_the_checked_prime_tuple():
    t = ghz(3, 3)
    verdict = classify(t, (5, 7, 11))
    assert classify(t, [11, 5, 7, 5, 11]) is verdict
    assert classify(t, (5, 7)) is not verdict
    info = classify.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_memoized_state_still_checks_its_primes():
    t = random_state(4, 2, 5, seed=7)
    classify(t, (5, 7))
    for bad in ([], [4], [5, 7, 9], [2, 5, 7], [True, 5], [5, 7, -7]):
        with pytest.raises(UnsupportedPrimeError):
            classify(t, bad)
    assert classify.cache_info().currsize == 1


def test_compare_after_classify_recomputes_nothing(monkeypatch):
    import sloccgeo.invariants as inv

    calls = []
    flattening_basis = inv.flattening_basis

    def counting(t):
        calls.append(t)
        return flattening_basis(t)

    monkeypatch.setattr(inv, "flattening_basis", counting)
    for fmt in ((3, 3), (4, 2)):
        s = random_state(*fmt, 5, seed=11)
        moved = apply_slocc(s, SloccOperator.random(*fmt, 3, seed=12))
        left, right = classify(s), classify(moved)
        calls.clear()
        result = slocc_compare(s, moved)
        assert calls == []
        assert result.left is left and result.right is right


def test_raising_classify_is_not_memoized(monkeypatch):
    import sloccgeo.invariants as inv

    t = random_state(3, 3, 5, seed=7)
    flattening_basis = inv.flattening_basis

    def refusing(s):
        raise WorkLimitError("refused")

    monkeypatch.setattr(inv, "flattening_basis", refusing)
    with pytest.raises(WorkLimitError):
        classify(t)
    assert classify.cache_info().currsize == 0
    monkeypatch.setattr(inv, "flattening_basis", flattening_basis)
    assert classify(t).status == SMOOTH_GENERIC
    info = classify.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_classify_memo_is_bounded():
    states = [random_state(4, 2, 5, seed=s) for s in range(CLASSIFY_MEMO_SIZE + 5)]
    for t in states:
        classify(t)
        assert classify.cache_info().currsize <= CLASSIFY_MEMO_SIZE
    info = classify.cache_info()
    assert (info.maxsize, info.currsize, info.hits) == (CLASSIFY_MEMO_SIZE,) * 2 + (0,)
    classify(states[-CLASSIFY_MEMO_SIZE])
    assert classify.cache_info().hits == 1
    classify(states[0])
    assert classify.cache_info().misses == info.misses + 1
