import functools
import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest

from sloccgeo.errors import (
    AllPrimesBadError,
    BadReductionError,
    FormatMismatchError,
    RankDeficientError,
    UnsupportedFormatError,
    UnsupportedPrimeError,
    WorkLimitError,
    WrongDegreeError,
    WrongFormatError,
)
from sloccgeo.linalg import (
    DEFAULT_PRIMES,
    MAX_PRIME,
    Matrix,
    clear_denominators,
    random_invertible,
)
from sloccgeo.geometry import (
    BIQUADRATIC_MONOMIALS,
    CUBIC_MONOMIALS,
    CURVE_AXES,
    PROJECTION_MONOMIALS,
    VarietyModel,
    _slice_pivot,
    determinantal_projection,
    model_mod_p,
    projection_coefficients,
    projective_points,
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
    TernaryCubic,
    aronhold_invariants,
    biquadratic_invariants,
    branch_quartic,
    cayley_hyperdet,
    classify,
    cubic_discriminant,
    curve_singular_mod_p,
    exact_projection_discriminants,
    moduli_dimension,
    plane_cubic_invariants,
    _PAIRS,
    _PERMS3,
    _S_WIRING,
    _T_WIRING,
    _W,
    _calibrated_invariants,
    _contract,
    _curve_projections,
    _jacobian_count,
    _pair_terms,
    _schlaefli_pencil,
    _squarefree,
    _vote,
    schlaefli_hyperdet,
    slice_discriminants,
    slocc_compare,
)
from sloccgeo.states import (
    SloccOperator,
    Tensor,
    apply_slocc,
    flattening_basis,
    flattening_image,
    basis_state,
    four_qubit_generic_family,
    ghz,
    parse_state,
    random_state,
    state_to_json,
    tensor_product,
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


def curve_of(coeffs):
    """CurveInvariants of a plane cubic (10 coefficients) or a (2,2)-curve
    (9), from rational coefficients with their denominators cleared."""
    (ints,), den = clear_denominators([coeffs])
    return (plane_cubic_invariants if len(ints) == 10 else biquadratic_invariants)(ints, den)


#: (2,2)-forms, as integer coefficients over 4, whose branch quartics
#: B^2 - 4AC are x0^4 + x1^4 (A = -x1^2/4, B = x0^2, C = x1^2),
#: x0^4 + x0*x1^3 (A = -x0*x1/4) and x0^4 - x0^2*x1^2 + 2*x1^4
#: (A = x0^2/4 - x1^2/2).
LEMNISCATIC = [0, 0, -1, 4, 0, 0, 0, 0, 4]
EQUIANHARMONIC = [0, -1, 0, 4, 0, 0, 0, 0, 4]
GENERIC_BRANCH = [1, 0, -2, 4, 0, 0, 0, 0, 4]


def test_fermat_invariants():
    s, t = aronhold_invariants(FERMAT)
    assert s == 0 and t != 0
    assert curve_of(FERMAT.coeffs).j == 0


def test_triangle_is_singular():
    s, t = aronhold_invariants(TRIANGLE)
    assert (s, t) == (Fraction(1, 16), Fraction(1, 8))  # regression
    assert cubic_discriminant(TRIANGLE) == 0
    assert curve_of(TRIANGLE.coeffs).j is None


@pytest.mark.parametrize(
    "alpha,beta", [(-1, 0), (0, 1), (1, 1), (2, 3), (-2, 5)]
)
def test_weierstrass_family_calibration(alpha, beta):
    cubic = TernaryCubic.weierstrass(alpha, beta)
    assert curve_of(cubic.coeffs).j == weierstrass_j(alpha, beta)
    s, t = aronhold_invariants(cubic)
    assert (s, t) == (-3 * Fraction(alpha), 108 * Fraction(beta))


def test_harmonic_weierstrass_is_1728():
    assert curve_of(TernaryCubic.weierstrass(-1, 0).coeffs).j == 1728


def _cubic_form(cubic):
    """The cubic as a term dict in one group of three variables."""
    return dict(zip(CUBIC_MONOMIALS, cubic.coeffs))


def test_aronhold_covariance_under_substitutions():
    # the calibration contract: S picks up det^4 and T det^6, exactly,
    # under 20 random invertible substitutions
    base = _cubic_form(TernaryCubic.weierstrass(2, 3))
    s0, t0 = aronhold_invariants(TernaryCubic.from_terms(base))
    for trial in range(20):
        g = random_invertible(3, 3, seed=5000 + trial)
        moved = TernaryCubic.from_terms(ref.substitute(base, 0, g))
        s1, t1 = aronhold_invariants(moved)
        det = ref.det(g.entries)
        assert s1 == det**4 * s0
        assert t1 == det**6 * t0


def test_j_is_projectively_invariant():
    cubic = TernaryCubic.from_terms(
        {(3, 0, 0): 2, (2, 1, 0): -1, (1, 1, 1): 3, (0, 0, 3): 5, (0, 2, 1): 7}
    )
    j0 = curve_of(cubic.coeffs).j
    assert j0 is not None
    for trial in range(5):
        g = random_invertible(3, 4, seed=900 + trial)
        moved = ref.substitute(_cubic_form(cubic), 0, g)
        assert curve_of([moved.get(m, 0) for m in CUBIC_MONOMIALS]).j == j0
        assert curve_of([7 * c for c in cubic.coeffs]).j == j0


def test_quartic_invariant_values():
    assert biquadratic_invariants(LEMNISCATIC, 4).pair == (12, 0)
    assert biquadratic_invariants(EQUIANHARMONIC, 4).pair == (0, -27)
    assert biquadratic_invariants([0] * 9).pair == (0, 0)
    assert biquadratic_invariants([0] * 9).j is None


def test_j_of_lemniscatic_quartic():
    # 6912 * 12^3 / (4 * 12^3) = 1728
    assert biquadratic_invariants(LEMNISCATIC, 4).j == 1728


def test_quartic_with_int_fields_gets_exact_j():
    # integer coefficients give an exact j, never a float quotient
    j = biquadratic_invariants(GENERIC_BRANCH, 4).j
    assert type(j) is Fraction and j == Fraction(125000, 49)
    assert j == biquadratic_invariants([3 * c for c in GENERIC_BRANCH], 12).j


def test_biquadratic_with_lemniscatic_branch_quartic():
    form = [Fraction(c, 4) for c in LEMNISCATIC]
    # the quartic is quadratic in the 9 int coefficients: the form's own,
    # (1, 0, 0, 0, 1), times 4**2
    assert branch_quartic(LEMNISCATIC) == (16, 0, 0, 0, 16)
    assert branch_quartic(EQUIANHARMONIC) == (16, 0, 0, 16, 0)
    assert curve_of(form).j == 1728


def test_biquadratic_ghz4_projection_is_singular(ghz4):
    model = variety_from_state(ghz4)
    assert curve_of(determinantal_projection(model, (0, 1))).j is None


def test_biquadratic_family_value_and_agreement(family_1235):
    model = variety_from_state(family_1235)
    values = [curve_of(determinantal_projection(model, axes)).j for axes in CURVE_AXES[(4, 2)]]
    assert values == [FAMILY_1235_J] * 3


def test_biquadratic_rejects_wrong_degree():
    with pytest.raises(WrongDegreeError, match="expected 9 coefficients, got 8"):
        branch_quartic(LEMNISCATIC[:8])
    with pytest.raises(WrongDegreeError, match="expected 9 coefficients, got 10"):
        biquadratic_invariants([0] * 10)
    with pytest.raises(WrongDegreeError, match="expected 10 coefficients, got 9"):
        plane_cubic_invariants([0] * 9)


_NOT_COEFFICIENTS = "is not a list or tuple of ints and Fractions"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: plane_cubic_invariants([1] * 10, 0), r"^den=0 is not a nonzero int$"),
        (lambda: biquadratic_invariants([1] * 9, 0), r"^den=0 is not a nonzero int$"),
        (lambda: plane_cubic_invariants([1.0] + [1] * 9), r"^coeffs=\[1\.0(, 1){9}\] " + _NOT_COEFFICIENTS + "$"),
        (lambda: plane_cubic_invariants([1] * 10, 2.0), r"^den=2\.0 is not a nonzero int$"),
        (lambda: biquadratic_invariants([1] * 9, Fraction(1, 2)), r"^den=Fraction\(1, 2\) is not a nonzero int$"),
        (lambda: biquadratic_invariants([1] * 9, True), r"^den=True is not a nonzero int$"),
        (lambda: plane_cubic_invariants(5), rf"^coeffs=5 {_NOT_COEFFICIENTS}$"),
        (lambda: biquadratic_invariants(5), rf"^coeffs=5 {_NOT_COEFFICIENTS}$"),
        (lambda: branch_quartic(5), rf"^coeffs=5 {_NOT_COEFFICIENTS}$"),
        (lambda: branch_quartic([1.0] * 9), r"^coeffs=\[1\.0(, 1\.0){8}\] " + _NOT_COEFFICIENTS + "$"),
        (lambda: branch_quartic(Fraction(1, 2)), rf"^coeffs=Fraction\(1, 2\) {_NOT_COEFFICIENTS}$"),
    ],
    ids=["cubic-zero-den", "biquadratic-zero-den", "cubic-float-coefficient", "cubic-float-den",
         "biquadratic-fraction", "biquadratic-bool-den", "cubic-int", "biquadratic-int",
         "branch-int", "branch-float", "branch-fraction"],
)
def test_curve_invariants_refuse_a_zero_or_non_int_input(call, message):
    # a zero den ended in a bare ZeroDivisionError, a float or Fraction in a
    # bare TypeError, and an int in place of the coefficients in a bare
    # TypeError from len; branch_quartic returned floats
    with pytest.raises(ValueError, match=message):
        call()


def test_curve_invariants_of_fraction_coefficients_are_exact():
    # ints and Fractions are one coefficient kind: coefficients c / 6 give
    # the invariants of the integers c over den 6
    for invariants, size in ((plane_cubic_invariants, 10), (biquadratic_invariants, 9)):
        ints = [random.Random(size).randint(-5, 5) for _ in range(size)]
        assert invariants([Fraction(c, 6) for c in ints]) == invariants(ints, 6)
    assert branch_quartic([Fraction(c, 2) for c in range(9)]) == tuple(
        Fraction(x, 4) for x in branch_quartic(list(range(9)))
    )


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2)])
def test_public_curve_invariants_match_classify(fmt):
    # determinantal_projection and the public invariants on its
    # coefficients give the projections that classify reports
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    n, d = fmt

    @settings(max_examples=20, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-3, 3), min_size=d**n, max_size=d**n),
        den=st.integers(1, 5),
    )
    def check(coeffs, den):
        t = Tensor(n, d, coeffs).scale(Fraction(1, den))
        try:
            model = variety_from_state(t)
        except RankDeficientError:
            assume(False)
        expected = [pr.invariants for pr in classify(t, (5, 7)).projections]
        assert [curve_of(determinantal_projection(model, axes)) for axes in CURVE_AXES[fmt]] == (
            expected
        )

    check()


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
        dets = [ref.det(f.entries) for f in g.factors]
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


@pytest.mark.parametrize("n, d", [(3.5, 3), (3.0, 3), (3, 3.0), (Fraction(3), 3), (True, 3),
                                  (3, True), ("3", 3)])
def test_format_formulas_refuse_non_ints(n, d):
    # 3.5 gave 17.765..., 3.0 gave the floats 2.0 and 6.0
    from sloccgeo.geometry import section_count

    for formula in (moduli_dimension, section_count):
        with pytest.raises(ValueError, match=r"^[nd]=.+ is not an int$"):
            formula(n, d)


def test_classify_when_every_prime_is_bad():
    # 35 = 5 * 7 divides the denominator, so both primes are bad.  A curve
    # model is singular by its exact discriminants and keeps that verdict,
    # without a prime or a witness; a (5,2) verdict rests on the sweep
    # alone, and a scan has no result without a usable prime.  Each error
    # names the checked primes: sorted, without repeats
    all_bad = r"^all primes \[5, 7\] hit bad reduction$"
    curve_state = ghz(3, 3).scale(Fraction(1, 35))
    curve = classify(curve_state, (5, 7))
    assert curve.status == SINGULAR_MODEL
    assert curve.primes_used == ()
    assert curve.singular_witness is None
    with pytest.raises(AllPrimesBadError, match=all_bad):
        smoothness_scan(curve_state, (5, 7))
    for call in (classify, smoothness_scan):
        with pytest.raises(AllPrimesBadError, match=all_bad):
            call(ghz(5, 2).scale(Fraction(1, 35)), (7, 5, 5))


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


@pytest.mark.parametrize(
    "state, hint",
    [
        # Schlaefli's hyperdeterminant vanishes on all three, but the
        # degree-2 invariant is 2 on GHZ(4,2), so a zero proves nothing
        (ghz(4, 2), None),
        (w_state(4), None),
        (basis_state(4, 2, (0, 0, 0, 0)), None),
        (random_state(4, 2, 5, 2), True),
        # Cayley's hyperdeterminant generates the (3,2) invariant ring
        (ghz(3, 2), True),
        (w_state(3), False),
        (basis_state(3, 2, (0, 0, 0)), False),
        (ghz(3, 3), None),
    ],
    ids=["ghz42", "w4", "basis42", "random42", "ghz32", "w3", "basis32", "ghz33"],
)
def test_semistable_hint_claims_only_what_the_hyperdeterminant_proves(state, hint):
    verdict = classify(state)
    assert verdict.semistable_hint is hint
    assert verdict.to_json_dict()["semistable_hint"] is hint
    if hint is None and state.d == 2:
        assert verdict.hyperdeterminant == 0


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


def _counting_sweeps(monkeypatch):
    """The list of primes at which classify's sweeps look for a witness."""
    import sloccgeo.invariants as inv

    swept = []
    first_witness = inv._first_witness

    def counting(reduced, points):
        swept.append(reduced.p)
        return first_witness(reduced, points)

    monkeypatch.setattr(inv, "_first_witness", counting)
    return swept


def _certified(verdict):
    return (
        verdict.status == SMOOTH_GENERIC
        and verdict.primes_used == ()
        and verdict.singular_witness is None
    )


def test_five_qubit_vote_stops_once_settled(monkeypatch):
    # With primes 5, 7, 11, 13, two clean primes already rule out a strict
    # majority of witnesses, and three witnesses ensure one; the remaining
    # primes are filed but not swept, so primes_used and the witness stay.
    # classify certifies these random states without a vote, so the vote
    # runs on its own (_vote); GHZ(5,2) and seed 50 still vote in classify.
    swept = _counting_sweeps(monkeypatch)
    # seed 1 has a witness at 7 only, so the vote needs p = 11 as well
    for seed, expected in ((0, [5, 7]), (1, [5, 7, 11]), (2, [5, 7]), (4, [5, 7])):
        t = random_state(5, 2, 5, seed=seed)
        swept.clear()
        vote = _vote(t, DEFAULT_PRIMES, False, _slice_pivot(t)[1])
        assert vote == ((5, 7, 11, 13), SMOOTH_GENERIC, None)
        assert swept == expected, seed
        swept.clear()
        assert _certified(classify(t)) and swept == [], seed
    swept.clear()
    verdict = classify(ghz(5, 2))
    assert verdict.status == SINGULAR_MODEL and verdict.primes_used == (5, 7, 11, 13)
    assert verdict.singular_witness[0] == 5
    assert swept == [5, 7, 11]
    # seed 50 has witnesses at 5 and 11: two of four is no strict majority
    swept.clear()
    verdict = classify(random_state(5, 2, 5, seed=50))
    assert verdict.status == SMOOTH_GENERIC and verdict.primes_used == (5, 7, 11, 13)
    assert verdict.singular_witness is None and swept == [5, 7, 11, 13]


def test_five_qubit_vote_settles_over_the_used_primes(monkeypatch):
    # 143 = 11 * 13 divides the denominator, so only 5 and 7 are used: one
    # clean prime of two already rules out a strict majority of witnesses,
    # and p = 7 is filed but not swept
    swept = _counting_sweeps(monkeypatch)
    for seed in (0, 1, 2, 4, 152):
        t = random_state(5, 2, 5, seed=seed).scale(Fraction(1, 143))
        swept.clear()
        vote = _vote(t, DEFAULT_PRIMES, False, _slice_pivot(t)[1])
        assert vote == ((5, 7), SMOOTH_GENERIC, None)
        assert swept == [5], seed
        swept.clear()
        verdict = classify(t)
        if seed == 152:
            assert verdict.status == SMOOTH_GENERIC and verdict.singular_witness is None
            assert verdict.primes_used == (5, 7) and swept == [5]
        else:
            assert _certified(verdict) and swept == [], seed


def test_vote_matches_the_full_sweep_with_bad_primes():
    # the vote stops once it is settled over the used primes; the
    # strict-majority rule on the full sweep must give the same
    # verdict wherever the bad primes fall in the list, and classify gives
    # the vote's verdict to every state that it does not certify
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    states = st.one_of(
        st.integers(0, 999).map(lambda seed: random_state(5, 2, 5, seed=seed)),
        st.integers(0, 999).map(lambda seed: random_state(3, 2, 5, seed=seed)),
        st.sampled_from([ghz(5, 2), w_state(5)] + [random_state(5, 2, 5, s) for s in (50, 152)]),
    )

    @settings(max_examples=30, deadline=None)
    @given(t=states, bad=st.sets(st.sampled_from(DEFAULT_PRIMES)))
    def check(t, bad):
        scan = (5, 7, 11, 13) if t.n == 5 else DEFAULT_PRIMES
        t = t.scale(Fraction(1, prod(p for p in bad if p in scan)))
        def outcome(call):
            try:
                return call()
            except AllPrimesBadError:
                return None

        report = outcome(lambda: smoothness_scan(t, scan))
        primes, witnesses = ref.full_sweep(t, scan)
        vote = outcome(lambda: _vote(t, scan, False, _slice_pivot(t)[1]))
        verdict = outcome(lambda: classify(t, scan))
        if report is None:
            assert vote is None and primes == ()
        else:
            singular = 2 * len(witnesses) > len(primes)
            assert vote == (
                primes,
                SINGULAR_MODEL if singular else SMOOTH_GENERIC,
                witnesses[0] if singular else None,
            )
        if verdict is not None and verdict.primes_used == ():
            assert t.n == 5 and _certified(verdict)
        else:
            assert vote == (
                None if verdict is None
                else (verdict.primes_used, verdict.status, verdict.singular_witness)
            )

    check()


def _pencil_squarefree(t):
    return _squarefree(_schlaefli_pencil(t, MAX_PRIME), MAX_PRIME)


def _singlet_ghz3():
    return tensor_product(Tensor.from_entries(2, 2, {(0, 1): 1, (1, 0): -1}), ghz(3, 2))


def test_five_qubit_certificate_regressions(monkeypatch):
    # the vote called seeds 19, 49 and 143 singular (a witness at p = 5 or
    # 7, where P is not squarefree); P is squarefree mod 2^31 - 1, so each
    # model is smooth, and no prime is swept
    swept = _counting_sweeps(monkeypatch)
    for seed in (19, 49, 143):
        assert _certified(classify(random_state(5, 2, 5, seed=seed))), seed
    assert swept == []
    # seeds 50 and 152 are not certified (disc P = 0 over Q) and keep the vote
    for seed in (50, 152):
        verdict = classify(random_state(5, 2, 5, seed=seed))
        assert verdict.status == SMOOTH_GENERIC and verdict.singular_witness is None
        assert verdict.primes_used == (5, 7, 11, 13), seed
    for t in (ghz(5, 2), w_state(5), _singlet_ghz3()):
        assert not _pencil_squarefree(t)
        verdict = classify(t)
        assert verdict.status == SINGULAR_MODEL and verdict.singular_witness is not None


def test_squarefree_binary_forms():
    q = MAX_PRIME

    def form(terms, p=q):  # {degree: coefficient} as f(lam) = P(lam, 1) mod p
        return [terms.get(k, 0) % p for k in range(25)]

    assert _squarefree(form({24: 1, 0: -1}), q)
    assert _squarefree(form({23: 1, 0: -1}), q)  # mu divides P once
    assert not _squarefree(form({22: 1, 0: -1}), q)  # mu^2 divides P
    assert not _squarefree(form({24: 1, 12: -2, 0: 1}), q)  # (lam^12 - 1)^2
    assert not _squarefree(form({}), q)
    # mod 23, lam^23 - 1 = (lam - 1)^23, and its derivative vanishes
    assert not _squarefree(form({23: 1, 0: -1}, 23), 23)
    assert _squarefree(form({24: 1, 0: -1}, 23), 23)


def test_certified_state_needs_no_usable_prime():
    t = random_state(5, 2, 5, seed=3).scale(Fraction(1, 35))
    with pytest.raises(AllPrimesBadError):
        smoothness_scan(t, (5, 7))
    assert _certified(classify(t, (5, 7)))
    with pytest.raises(UnsupportedPrimeError):
        classify(t, (4, 7))


def test_schlaefli_pencil_matches_the_exact_form():
    # the mod-q pencil is 27 * den^24 times the exact P over Q, reduced mod q
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        bound=st.integers(1, 9),
        scale=st.fractions().filter(lambda x: x != 0),
    )
    def check(seed, bound, scale):
        t = random_state(5, 2, bound, seed=seed).scale(scale)
        exact = ref.schlaefli_pencil(t)
        expected = [
            27 * t.den**24 * c.numerator * pow(c.denominator, -1, MAX_PRIME) % MAX_PRIME
            for c in exact
        ]
        assert _schlaefli_pencil(t, MAX_PRIME) == expected

    check()
    assert not any(ref.schlaefli_pencil(ghz(5, 2)))


def test_certification_is_slocc_invariant():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    states = st.one_of(
        st.integers(0, 999).map(lambda seed: random_state(5, 2, 5, seed=seed)),
        st.sampled_from(
            [ghz(5, 2), w_state(5), _singlet_ghz3()]
            + [random_state(5, 2, 5, seed=seed) for seed in (50, 152)]
        ),
    )

    @settings(max_examples=25, deadline=None)
    @given(t=states, op_seed=st.integers(0, 10**6))
    def check(t, op_seed):
        image = apply_slocc(t, SloccOperator.random(5, 2, 3, op_seed))
        assert _pencil_squarefree(image) == _pencil_squarefree(t)
        if _pencil_squarefree(image):
            assert _certified(classify(image))

    check()


def test_certified_states_show_no_witness_where_p_keeps_the_form_squarefree():
    # If P mod p is squarefree, then so is disc P mod p, and the model's
    # reduction at p is smooth: a witness there would refute the argument
    # behind the certificate.  This test must fail, never skip, on one.
    from hypothesis import given, settings, strategies as st

    states = st.builds(
        lambda seed, op: (
            random_state(5, 2, 5, seed=seed) if op is None
            else apply_slocc(random_state(5, 2, 5, seed=seed), SloccOperator.random(5, 2, 3, op))
        ),
        st.integers(0, 999),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    checked = []

    @settings(max_examples=20, deadline=None)
    @given(t=states)
    def check(t):
        if not _certified(classify(t)):
            return
        primes, witnesses = ref.full_sweep(t, (5, 7, 11, 13))
        if not primes:
            return
        # smoothness_scan excludes exactly the witness primes
        report = smoothness_scan(t, (5, 7, 11, 13))
        assert report.excluded_primes == tuple(w[0] for w in witnesses) and not report.witnesses
        exact = ref.schlaefli_pencil(t)
        for p in primes:
            if any(c.denominator % p == 0 for c in exact):
                continue
            if _squarefree([c.numerator * pow(c.denominator, -1, p) % p for c in exact], p):
                assert all(w[0] != p for w in witnesses), (t, p)
                checked.append(p)

    check()
    assert checked


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


def test_curve_singular_mod_p_refuses_a_model_over_q(family_1235):
    # it raised a bare TypeError ("unsupported operand type(s) for %")
    for t in (random_state(3, 3, 5, 1), family_1235):
        with pytest.raises(ValueError, match="needs a model over F_p"):
            curve_singular_mod_p(variety_from_state(t))


def _one_curve_states(n, d):
    """20 states whose integer entries are drawn uniformly from
    [-10^12, 10^12] (seed 45), then GHZ, a small random state, every basis
    state, for (4,2) W(4) and two family members, SLOCC images of four of
    these and rational scalings of four more."""
    rng = random.Random(45)
    drawn = [
        Tensor.from_integers(n, d, [rng.randint(-10**12, 10**12) for _ in range(d**n)])
        for _ in range(20)
    ]
    named = [ghz(n, d), random_state(n, d, 5, 1)]
    named += [basis_state(n, d, idx) for idx in product(range(d), repeat=n)]
    if (n, d) == (4, 2):
        named += [w_state(4), four_qubit_generic_family(1, 2, 3, 5),
                  four_qubit_generic_family(Fraction(1, 2), -3, 0, 7)]
    images = [
        apply_slocc(t, SloccOperator.random(n, d, 3, seed=400 + s))
        for s, t in enumerate(named[:2] + drawn[:2])
    ]
    scaled = [t.scale(Fraction(-7, 3)) for t in named[:2] + images[:2]]
    return drawn + named + images + scaled


@pytest.mark.parametrize("fmt", sorted(CURVE_AXES))
def test_projected_curves_share_their_invariants(fmt):
    """Every kept axis of CURVE_AXES projects a state's curve to a curve
    with the first axis's invariants, so the pipeline builds one
    projection per state.

    Each axis's projection is built here from the state's slices with
    ``projection_coefficients`` and its invariants compared with the first
    axis's: the pair, the discriminant and j, and for (4,2) the branch
    quartics of (0, 1) and (0, 2), which are one quartic.  Each compared
    quantity is a polynomial in the state's entries of degree at most 18:
    a projection's coefficients have degree d, S and T degrees 12 and 18,
    a branch quartic degree 4, I and J degrees 8 and 12.  By the
    Schwartz-Zippel lemma a nonzero polynomial of degree D vanishes at a
    point drawn uniformly from S^N, S finite, with probability at most
    D/|S|.  With S the integers in [-10^12, 10^12] that is at most
    18/(2*10^12 + 1) < 9*10^-12 per draw, and a false identity would have
    to vanish at all 20 draws (from one fixed seed).  The named states
    cover the special loci: GHZ, W(4), basis states, family members, SLOCC
    images and rational scalings."""
    n, d = fmt
    invariants = plane_cubic_invariants if fmt == (3, 3) else biquadratic_invariants
    first, *rest = CURVE_AXES[fmt]
    for t in _one_curve_states(n, d):
        rows = [t.nums[k::d] for k in range(d)]
        coeffs = {kept: projection_coefficients(rows, n, d, kept) for kept in CURVE_AXES[fmt]}
        curve = invariants(coeffs[first], t.den**d)
        for kept in rest:
            other = invariants(coeffs[kept], t.den**d)
            assert (other.pair, other.discriminant, other.j) == (
                curve.pair, curve.discriminant, curve.j
            ), (t, kept)
        if fmt == (4, 2):
            assert branch_quartic(coeffs[(0, 1)]) == branch_quartic(coeffs[(0, 2)]), t


@pytest.mark.parametrize("fmt", sorted(CURVE_AXES))
def test_j_is_unchanged_under_every_party_permutation(fmt):
    # the state's curve does not depend on which party is read as the
    # forms' axis or as which group: classify reports one j for the state
    # under every permutation of its factors (ref.permute_factors), on
    # seeds 0-14 of each curve format, 6 permutations of (3,3) and 24 of
    # (4,2)
    n, d = fmt
    seen = set()
    for seed in range(15):
        t = random_state(n, d, 5, seed)
        j = classify(t).j
        seen.add(j is None)
        for perm in permutations(range(n)):
            assert classify(ref.permute_factors(t, list(perm))).j == j, (seed, perm)
    assert False in seen


def test_each_curve_entry_point_builds_one_projection(monkeypatch):
    # the projected curves share their invariants, so each entry point
    # builds the projection of the first kept axes alone, where it built
    # one per kept axis (2 for (3,3), 3 for (4,2))
    import sloccgeo.invariants
    from sloccgeo.geometry import _refuse_singular_reduction

    calls = []

    def counted(rows, n, d, kept):
        calls.append(kept)
        return projection_coefficients(rows, n, d, kept)

    monkeypatch.setattr(sloccgeo.invariants, "projection_coefficients", counted)
    for t in (random_state(3, 3, 5, 42), random_state(4, 2, 5, 3)):
        reduced = model_mod_p(variety_from_state(t), 13)
        entries = {
            "classify": lambda: classify(t),
            "smoothness_scan": lambda: smoothness_scan(t, (5, 7)),
            "exact_projection_discriminants": lambda: exact_projection_discriminants(t),
            "slice_discriminants": lambda: slice_discriminants(t),
            "curve_singular_mod_p": lambda: curve_singular_mod_p(reduced),
            "_refuse_singular_reduction": lambda: _refuse_singular_reduction(t, 13),
        }
        for name, entry in entries.items():
            classify.cache_clear()
            calls.clear()
            entry()
            assert calls == [CURVE_AXES[(t.n, t.d)][0]], (t.n, name, calls)
    classify.cache_clear()


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


@pytest.mark.parametrize("fmt", [(2, 3), (3, 2), (5, 2)])
def test_compare_without_exact_j_says_so(fmt):
    # these formats have no curve projections, so two smooth states both
    # have j None: nothing separates them, and no j was found equal
    a, b = random_state(*fmt, 5, 0), random_state(*fmt, 5, 1)
    result = slocc_compare(a, b)
    assert result.left.status == result.right.status == SMOOTH_GENERIC
    assert result.left.j is None and result.right.j is None
    assert result.outcome == CONSISTENT_UNKNOWN
    assert result.detail == (
        f"format {fmt} has no exact j; line-bundle data not compared, "
        "equivalence not certified"
    )


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
    """det(df_k/dz_l), z the dropped group, by the permutation loop over
    the model's forms as term dicts, as coefficients in
    PROJECTION_MONOMIALS order; over F_p as residues."""
    d = model.d
    dropped = next(g for g in range(model.groups) if g not in kept)
    entries = [[ref.partial(f, dropped * d + j) for j in range(d)] for f in ref.model_forms(model)]
    det = {}
    for perm in permutations(range(d)):
        prod_form = entries[0][perm[0]]
        for k in range(1, d):
            prod_form = ref.mul(prod_form, entries[k][perm[k]])
        det = ref.add(det, ref.scale(prod_form, _reference_perm_sign(perm)))
    terms = ref.drop_groups(det, d, kept)
    coeffs = tuple(terms.get(m, 0) for m in PROJECTION_MONOMIALS[(model.n, d)])
    return coeffs if model.p is None else tuple(c % model.p for c in coeffs)


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


def test_contraction_matches_the_sorted_tuple_contraction():
    # the table-grown contraction with int monomials against the former
    # sorted-tuple one: equal terms in equal order.  The calibrated S/T
    # terms are grouped by their first pair product, one group per product,
    # and flattened they are the former contraction's terms over its
    # content, each pair of monomial indices read as its position in _PAIRS;
    # the scales are the former ones
    for wiring in (_S_WIRING, _T_WIRING):
        assert list(_contract(wiring).items()) == list(ref.contract(wiring).items())
    pair = {ij: a for a, ij in enumerate(_PAIRS)}
    calibrated = _calibrated_invariants()
    for grouped, scale, (terms, former_scale), wiring in zip(
        calibrated[:2], calibrated[2:], ref.st_terms(), (_S_WIRING, _T_WIRING)
    ):
        assert grouped == _pair_terms(ref.contract(wiring))
        assert len({a for a, _ in grouped}) == len(grouped)
        flat = sorted((k, a, *rest) for a, group in grouped for k, *rest in group)
        assert flat == sorted(
            (k, *(pair[ij] for ij in zip(idx[::2], idx[1::2]))) for k, idx in terms
        )
        assert scale == former_scale


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


def reference_invariants(coeffs):
    """(pair, discriminant, j) of a projected curve, from its coefficients
    in PROJECTION_MONOMIALS order."""
    if len(coeffs) == 10:
        s_poly, t_poly = reference_st_polys()
        s, t = reference_evaluate(s_poly, coeffs), reference_evaluate(t_poly, coeffs)
        disc = 64 * s**3 - t**2
        return (s, t), disc, None if disc == 0 else 110592 * s**3 / disc
    i_val, j_val = ref.quartic_ij(*ref.branch_quartic(coeffs))
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
        a = ref.det([[c[0], c[2]], [c[4], c[6]]])
        e = ref.det([[c[1], c[3]], [c[5], c[7]]])
        b = ref.det([[c[0] + c[1], c[2] + c[3]], [c[4] + c[5], c[6] + c[7]]]) - a - e
        return b * b - 4 * a * e

    def pencil(s, u):
        return cayley([s * x + u * y for x, y in zip(s0, s1)])

    a, e = pencil(1, 0), pencil(0, 1)
    f1, f2 = pencil(1, 1) - a - e, pencil(1, -1) - a - e
    f3 = pencil(1, 2) - a - 16 * e
    c = (f1 + f2) / 2
    d_coef = ((f3 - 4 * c) / 2 - (f1 - c)) / 3
    i_val, j_val = ref.quartic_ij(a, f1 - c - d_coef, c, d_coef, e)
    return Fraction(4 * i_val**3 - j_val**2) / 27


def _drawn_state(draw, n, d, t=None):
    """Coefficients in [-2, 2], or the state t when given, optionally times
    a rational and moved by a rational SLOCC operator."""
    from hypothesis import strategies as st

    if t is None:
        t = Tensor(n, d, draw(st.lists(st.integers(-2, 2), min_size=d**n, max_size=d**n)))
    num = draw(st.integers(-6, 6).filter(bool))
    t = t.scale(Fraction(num, draw(st.integers(1, 9))))
    if draw(st.booleans()):
        g = SloccOperator.random(n, d, 2, seed=draw(st.integers(0, 10**6)))
        scale = Matrix([[Fraction(1, 3) if i == j else 0 for j in range(d)] for i in range(d)])
        t = apply_slocc(t, SloccOperator([ref.matmul(f, scale) for f in g.factors]))
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
        rows, den = clear_denominators(sub.entries)
        projections = _curve_projections(fmt, rows, den**d)
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


def _verdict_state(draw, n, d):
    """A drawn state (``_drawn_state``), or GHZ, W (qubits) or a state of
    flattening rank below d, each moved as a drawn state is.  The deficient
    state's slices along the last axis are multiples of one or two drawn
    slices."""
    from hypothesis import strategies as st

    kind = draw(st.sampled_from(("drawn", "ghz", "w", "deficient")))
    if kind == "drawn":
        return _drawn_state(draw, n, d)
    if kind == "deficient":
        size, rank = d ** (n - 1), draw(st.integers(1, d - 1))
        entries = st.integers(-2, 2)
        slices = [draw(st.lists(entries, min_size=size, max_size=size)) for _ in range(rank)]
        weights = [draw(st.lists(entries, min_size=rank, max_size=rank)) for _ in range(d)]
        base = Tensor(n, d, [
            sum(w * u[i] for w, u in zip(weights[k], slices)) for i in range(size) for k in range(d)
        ])
    else:
        base = w_state(n) if kind == "w" and d == 2 else ghz(n, d)
    return _drawn_state(draw, n, d, base)


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2)])
def test_slice_verdict_matches_canonical_basis_route(fmt):
    # classify reads the curves off the state's slices over their last
    # fraction-free pivot, and the (4,2) hyperdeterminant off the first
    # projection; the former route built the canonical basis, projected it
    # over den^d and took the hyperdeterminant from its own Cayley pencil
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        t = _verdict_state(data.draw, *fmt)
        verdict = classify(t)
        rank, projections, j, hyperdet, hint = ref.canonical_verdict(t)
        assert verdict.rank == rank
        assert [
            (pr.axes, pr.invariants.pair, pr.invariants.discriminant, pr.invariants.j)
            for pr in verdict.projections
        ] == projections
        assert (verdict.j, verdict.hyperdeterminant, verdict.semistable_hint) == (j, hyperdet, hint)
        seen.add(verdict.status)

    check()
    assert {RANK_DEFICIENT, SMOOTH_GENERIC, SINGULAR_MODEL} <= seen, seen


def test_slice_branch_discriminants_are_the_schlaefli_hyperdeterminant():
    # each branch quartic of a (4,2) state's slice projection is the Cayley
    # quartic along a kept axis, so its 4*I^3 - J^2 is 27 * den^24 times
    # the Schlaefli hyperdeterminant, on every axis pair
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from sloccgeo.geometry import projection_coefficients
    from sloccgeo.invariants import _branch, _ij, _schlaefli

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        t = _verdict_state(data.draw, 4, 2)
        slices = [t.nums[0::2], t.nums[1::2]]
        expected = _schlaefli(t.nums)
        assert Fraction(expected, 27 * t.den**24) == schlaefli_hyperdet(t)
        for axes in CURVE_AXES[(4, 2)]:
            i_val, j_val = _ij(*_branch(projection_coefficients(slices, 4, 2, axes)))
            assert 4 * i_val**3 - j_val**2 == expected

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


def _brute_count(coeffs, p):
    """F_p-points of a plane cubic (10 coefficients) on P^2, or of a
    (2,2)-form (9) on P^1 x P^1, by evaluating it at every point."""
    if len(coeffs) == 10:
        monomials, points = CUBIC_MONOMIALS, list(projective_points(3, p))
    else:
        line = list(projective_points(2, p))
        monomials, points = BIQUADRATIC_MONOMIALS, [x + y for x in line for y in line]
    return sum(
        sum(c * prod(v**e for v, e in zip(pt, mono)) for c, mono in zip(coeffs, monomials)) % p == 0
        for pt in points
    )


def test_jacobian_count_matches_brute_force():
    # The count of the Jacobian y^2 = x^3 + a*x + b against the curve's own
    # points, on random plane cubics, Weierstrass cubics and (2,2)-forms at
    # every default prime where the curve is smooth.  Counts other than
    # p + 1 are most of them, so the quadratic twist (2p + 2 - N) of the
    # right Jacobian would fail here.
    rng = random.Random(3030)
    cubics = [[rng.randint(-5, 5) for _ in range(10)] for _ in range(8)]
    cubics += [
        [int(c) for c in TernaryCubic.weierstrass(a, b).coeffs]
        for a, b in ((1, 1), (-1, 0), (0, 1), (2, -3), (-7, 6))
    ]
    forms = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(10)]
    checked = twisted = 0
    for coeffs in cubics + forms:
        curve = (plane_cubic_invariants if len(coeffs) == 10 else biquadratic_invariants)(coeffs)
        for p in DEFAULT_PRIMES:
            if curve.discriminant.numerator % p == 0:
                continue  # singular modulo p
            count = _brute_count(coeffs, p)
            assert _jacobian_count(curve, p) == count, (coeffs, p)
            checked += 1
            twisted += count != p + 1
    assert checked > 150 and twisted > 0.8 * checked


def _rank_drop(state, q, shifts):
    """The state with its last slice moved onto its first modulo q, the
    first plus q times ``shifts``: the slices become dependent mod q, while
    over Q they stay independent for most shifts."""
    nums, d = list(state.nums), state.d
    for r, shift in enumerate(shifts):
        nums[r * d + d - 1] = nums[r * d] + q * shift
    return Tensor.from_integers(state.n, d, nums, state.den)


def _shifts(fmt, seed):
    rng = random.Random(seed)
    return [rng.randint(-2, 2) for _ in range(fmt[1] ** (fmt[0] - 1))]


def test_scan_filing_matches_a_reduction_at_every_prime():
    # The scan of a smooth curve state files its primes from the slice
    # discriminants, and reduces only at the primes that divide one of
    # their numerators.  Its primes, bad primes and excluded primes are
    # those of the former filing, which reduced at every prime, over
    # random states, rank drops mod q, rational SLOCC images and scaled
    # states, with denominators divisible by q.
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        fmt=st.sampled_from(((3, 3), (4, 2))),
        q=st.sampled_from((5, 7, 11, 13)),
        kind=st.sampled_from(("random", "rank drop", "slocc", "scaled")),
    )
    def check(data, fmt, q, kind):
        n, d = fmt
        nums = data.draw(st.lists(st.integers(-4, 4), min_size=d**n, max_size=d**n))
        t = Tensor.from_integers(n, d, nums, data.draw(st.sampled_from((1, 2, q))))
        if kind == "rank drop":
            shifts = st.lists(st.integers(-2, 2), min_size=d ** (n - 1), max_size=d ** (n - 1))
            t = _rank_drop(t, q, data.draw(shifts))
        elif kind == "slocc":
            seed, den = data.draw(st.integers(0, 10**6)), data.draw(st.sampled_from((1, 3, q)))
            factors = [random_invertible(d, 2, seed + k).entries for k in range(n)]
            rational = [Matrix([[Fraction(x, den) for x in row] for row in f]) for f in factors]
            t = apply_slocc(t, SloccOperator(rational))
        elif kind == "scaled":
            t = t.scale(Fraction(data.draw(st.sampled_from((1, 3, q))),
                                 data.draw(st.sampled_from((1, q, 6 * q)))))
        try:
            expected = ref.reduced_filing(t, DEFAULT_PRIMES)
        except RankDeficientError:
            with pytest.raises(RankDeficientError):
                smoothness_scan(t)
            return
        if not expected[0] and not expected[2]:
            with pytest.raises(AllPrimesBadError):
                smoothness_scan(t)
            return
        report = smoothness_scan(t)
        assert (report.primes, report.bad_primes, report.excluded_primes) == expected
        if all(slice_discriminants(t)):
            seen.update("den" if t.den % p == 0 else "rank drop" for p in report.bad_primes)
            seen.update(label for label, primes in (("used", report.primes),
                                                    ("excluded", report.excluded_primes)) if primes)

    check()
    assert {"used", "excluded", "den", "rank drop"} <= seen


def test_scan_filing_matches_the_reference_on_every_format():
    # Every prime of a scan goes through one reduction route.  On every
    # format the scan takes, its primes, bad primes and excluded primes are
    # those of the former filing, which built the model over Q and reduced
    # it at every prime, and where that filing raises, the scan raises the
    # same error.  Drawn: denominators divisible by a listed prime, rank
    # drops mod q, states whose flattening is rank-deficient over Q, and
    # prime lists whose primes all divide the denominator.
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    from sloccgeo.errors import SloccGeoError

    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        fmt=st.sampled_from(((2, 3), (3, 2), (3, 3), (4, 2), (5, 2))),
        kind=st.sampled_from(("random", "rank drop", "deficient", "all bad")),
    )
    def check(data, fmt, kind):
        n, d = fmt
        pool = (5, 7, 11) if fmt == (5, 2) else (5, 7, 11, 13)
        primes = tuple(sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1))))
        q = data.draw(st.sampled_from(primes))
        # small drawn entries make many singular curves; seeded ones are generic
        generic = st.integers(0, 10**6).map(lambda seed: random_state(n, d, 4, seed).nums)
        nums = data.draw(st.lists(st.integers(-4, 4), min_size=d**n, max_size=d**n) | generic)
        t = Tensor.from_integers(n, d, nums, data.draw(st.sampled_from((1, 2, q))))
        if kind in ("rank drop", "deficient"):
            size = d ** (n - 1)
            shifts = [0] * size if kind == "deficient" else data.draw(
                st.lists(st.integers(-2, 2), min_size=size, max_size=size))
            t = _rank_drop(t, q, shifts)
        elif kind == "all bad":
            t = t.scale(Fraction(1, prod(primes)))
        try:
            expected = ref.reduced_filing(t, primes)
        except SloccGeoError as exc:
            with pytest.raises(type(exc)) as info:
                smoothness_scan(t, primes)
            assert str(info.value) == str(exc)
            seen.add(type(exc).__name__)
            return
        seen.update("den" if t.den % p == 0 else "rank drop" for p in expected[1])
        if not expected[0] and not expected[2]:
            with pytest.raises(AllPrimesBadError) as info:
                smoothness_scan(t, primes)
            assert str(info.value) == f"all primes {list(expected[1])} hit bad reduction"
            seen.add("all bad")
            return
        report = smoothness_scan(t, primes)
        filed = (report.primes, report.bad_primes, report.excluded_primes)
        if fmt == (5, 2):
            # a certified (5,2) state's witness primes move to the excluded
            # primes after the sweep; its filing excludes none
            filed = (tuple(sorted(report.primes + report.excluded_primes)), filed[1], ())
        assert filed == expected
        seen.update(label for label, filed in (("used", expected[0]), ("bad", expected[1]),
                                               ("excluded", expected[2])) if filed)

    check()
    assert {"used", "bad", "excluded", "den", "rank drop", "all bad",
            "RankDeficientError"} <= seen, seen


def test_classify_and_scan_build_at_most_one_exact_flattening(monkeypatch):
    # classify builds no canonical basis: one fraction-free elimination of
    # the slices gives its rank and curves, and filing the vote's primes
    # reuses its last pivot.  A scan makes one elimination too, in its
    # filing, and a filing reads one, whatever its primes
    import sloccgeo.geometry
    import sloccgeo.states
    from sloccgeo.geometry import _file_primes

    calls = []

    def counting(t):
        calls.append(t)
        return sloccgeo.states.flattening_basis(t)

    monkeypatch.setattr(sloccgeo.geometry, "flattening_basis", counting)
    eliminations = []

    def counted(t):
        eliminations.append(t.d ** (t.n - 1))
        return sloccgeo.states._slice_elimination(t)

    monkeypatch.setattr(sloccgeo.geometry, "_slice_elimination", counted)
    uncertified = random_state(5, 2, 5, 50)
    for t, used in ((ghz(3, 3), DEFAULT_PRIMES), (uncertified, (5, 7, 11, 13)),
                    (random_state(3, 3, 5, 42), ()), (random_state(4, 2, 5, 3), ()),
                    (basis_state(4, 2, (0, 0, 0, 0)), ())):
        classify.cache_clear()
        eliminations.clear()
        verdict = classify(t)
        assert verdict.primes_used == used and eliminations == [t.d ** (t.n - 1)]
    classify.cache_clear()
    eliminations.clear()
    report = smoothness_scan(random_state(5, 2, 5, 0), (5, 7))
    assert report.primes == (5, 7) and eliminations == [16]
    for t in (ghz(3, 3), random_state(3, 3, 5, 42), random_state(5, 2, 5, 0),
              ghz(4, 2).scale(Fraction(1, 35))):
        for primes in ((5,), (7, 31), DEFAULT_PRIMES):
            eliminations.clear()
            discs = slice_discriminants(t)
            _file_primes(t, primes, discs and discs[0])
            assert eliminations == [t.d ** (t.n - 1)]
    assert calls == []


def test_vote_filing_matches_a_reduction_at_every_prime(singlet_times_bell):
    # classify files a vote's primes by the last fraction-free pivot M of
    # the state's slices and reduces only the primes it sweeps.  Its used
    # primes are those of the former filing, which reduced at every prime,
    # and its verdict and witness those of the full sweep: on singular
    # curve states and (5,2) states that vote, their SLOCC images, images
    # whose last factor is singular mod a listed prime q (a rank drop at q,
    # so q divides M), and images with denominators divisible by q.
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    from sloccgeo.linalg import _bareiss

    seen = set()
    voting = [ghz(3, 3), ghz(4, 2), singlet_times_bell, ghz(5, 2), w_state(5),
              random_state(5, 2, 5, 50)]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        base=st.sampled_from(voting),
        kind=st.sampled_from(("plain", "slocc", "drop", "den")),
        seed=st.integers(0, 10**6),
        pick=st.integers(0, 3),
    )
    def check(base, kind, seed, pick):
        n, d = base.n, base.d
        scan = (5, 7, 11, 13) if n == 5 else DEFAULT_PRIMES
        q = scan[pick]
        factors = [random_invertible(d, 2, seed + k) for k in range(n)]
        if kind == "drop":
            planted = ref.identity(d).entries[:-1] + ((0,) * (d - 1) + (q,),)
            factors[-1] = ref.matmul(factors[-1], Matrix(planted))
        elif kind == "den":
            factors[0] = Matrix([[Fraction(x, q) for x in row] for row in factors[0].entries])
        t = base if kind == "plain" else apply_slocc(base, SloccOperator(factors))
        classify.cache_clear()
        verdict = classify(t)
        if n == 5 and _certified(verdict):
            return
        used, bad, excluded = ref.reduced_filing(t, scan)
        primes, witnesses = ref.full_sweep(t, scan)
        assert primes == used and not excluded
        singular = n != 5 or 2 * len(witnesses) > len(used)
        assert verdict.primes_used == used
        assert verdict.status == (SINGULAR_MODEL if singular else SMOOTH_GENERIC)
        assert verdict.singular_witness == (witnesses[0] if singular and witnesses else None)
        minor = _bareiss([t.nums[k::d] for k in range(d)], d ** (n - 1))[2]
        if kind == "drop":
            assert q in bad and minor % q == 0
        if kind == "den":
            assert q in bad and t.den % q == 0
        seen.add((n == 5, kind))

    check()
    assert {(five, kind) for five in (False, True)
            for kind in ("plain", "slocc", "drop", "den")} <= seen, seen


def test_classify_of_a_singular_curve_reduces_only_the_swept_prime(reductions):
    # every prime of GHZ(3,3) is used by the last fraction-free pivot of
    # its slices alone, and the sweep stops at its first witness, at 5: one
    # reduction
    calls = reductions
    verdict = classify(ghz(3, 3))
    assert verdict.primes_used == DEFAULT_PRIMES and verdict.singular_witness[0] == 5
    assert calls == [5]


def test_scan_reduces_each_swept_prime_once(reductions):
    # the slices' last fraction-free pivot of these states has no prime
    # factor >= 5, so the filing reduces no prime and the sweep reduces
    # each prime once
    calls = reductions
    for t, primes in ((ghz(3, 3), DEFAULT_PRIMES), (ghz(4, 2), DEFAULT_PRIMES),
                      (random_state(5, 2, 5, 0), (5, 7, 11, 13)), (w_state(5), (5, 7, 11, 13))):
        calls.clear()
        report = smoothness_scan(t, primes)
        assert report.primes + report.excluded_primes == primes
        assert calls == list(primes)


def test_scan_files_rank_drops_and_denominators_as_bad():
    for fmt, seed in (((3, 3), 1), ((4, 2), 2)):
        t = _rank_drop(random_state(*fmt, 5, seed), 7, _shifts(fmt, seed))
        assert all(slice_discriminants(t))
        report = smoothness_scan(t)
        # 7 divides every discriminant numerator, and the reduced
        # flattening shows the rank drop: bad, not excluded
        assert 7 in report.bad_primes and 7 not in report.excluded_primes
        assert all(disc.numerator % 7 == 0 for disc in slice_discriminants(t))
        assert (report.primes, report.bad_primes, report.excluded_primes) == ref.reduced_filing(
            t, DEFAULT_PRIMES
        )
        smooth = random_state(*fmt, 5, seed)
        scaled = smoothness_scan(smooth.scale(Fraction(2, 5)))
        assert scaled.bad_primes == (5,)
        assert scaled.primes == tuple(p for p in smoothness_scan(smooth).primes if p != 5)


def test_smooth_curve_scan_reduces_only_where_a_reduction_can_fail(
    monkeypatch, reductions, family_1235
):
    # no exact flattening and no model: a reduced flattening only at the
    # primes that divide den * M, M the last fraction-free pivot of the
    # slices.  The bad primes are among them, and the excluded primes are
    # the primes that are not bad and divide a slice discriminant numerator
    # (31 divides M of random_state(3, 3, 5, 42) and no numerator)
    import sloccgeo.geometry
    from sloccgeo.linalg import _bareiss

    def refused(t):
        raise AssertionError("exact flattening built")

    monkeypatch.setattr(sloccgeo.geometry, "variety_from_state", refused)
    calls = reductions
    drop = _rank_drop(random_state(4, 2, 5, 2), 7, _shifts((4, 2), 2))
    for t in (random_state(3, 3, 5, 42), family_1235, drop):
        calls.clear()
        discs = slice_discriminants(t)
        minor = _bareiss([t.nums[k :: t.d] for k in range(t.d)], t.d ** (t.n - 1))[2]
        report = smoothness_scan(t)
        assert calls == [p for p in DEFAULT_PRIMES if t.den * minor % p == 0]
        assert set(report.bad_primes) <= set(calls)
        assert report.excluded_primes == tuple(
            p for p in DEFAULT_PRIMES
            if p not in report.bad_primes and any(d.numerator % p == 0 for d in discs)
        )
    assert calls  # the rank drop at 7


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
    import sloccgeo.geometry as geo

    calls = []
    eliminate = geo._slice_elimination

    def counting(t):
        calls.append(t)
        return eliminate(t)

    monkeypatch.setattr(geo, "_slice_elimination", counting)
    for fmt in ((3, 3), (4, 2)):
        s = random_state(*fmt, 5, seed=11)
        moved = apply_slocc(s, SloccOperator.random(*fmt, 3, seed=12))
        left, right = classify(s), classify(moved)
        calls.clear()
        result = slocc_compare(s, moved)
        assert calls == []
        assert result.left is left and result.right is right


def test_raising_classify_is_not_memoized(monkeypatch):
    import sloccgeo.states

    t = random_state(3, 3, 5, seed=7)
    check_flattening_cost = sloccgeo.states.check_flattening_cost

    def refusing(s):
        raise WorkLimitError("refused")

    monkeypatch.setattr(sloccgeo.states, "check_flattening_cost", refusing)
    with pytest.raises(WorkLimitError):
        classify(t)
    assert classify.cache_info().currsize == 0
    monkeypatch.setattr(sloccgeo.states, "check_flattening_cost", check_flattening_cost)
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


def test_perms3_signs_match_the_inversion_count():
    assert _PERMS3 == [(perm, _reference_perm_sign(perm)) for perm in permutations(range(3))]


def _slice_model(t, q):
    """A model built by hand over F_q from the state's slices."""
    rows = tuple(tuple(x % q for x in t.nums[k :: t.d]) for k in range(t.d))
    return VarietyModel(t.n, t.d, rows, 1, q)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TernaryCubic([1, 2, 3]), ValueError, "10 coefficients"),
        # keys that name no cubic monomial ended in a bare KeyError
        (
            lambda: TernaryCubic.from_terms({(3, 0, 0): 1, (4, 0, 0): 1}),
            WrongDegreeError,
            r"^\(4, 0, 0\) is not the exponent triple of a cubic monomial$",
        ),
        (
            lambda: TernaryCubic.from_terms({(1, 1): 1}),
            WrongDegreeError,
            r"^\(1, 1\) is not the exponent triple",
        ),
        (
            lambda: TernaryCubic.from_terms({(10**200, 0, 0): 1}),
            WrongDegreeError,
            r"^\(1000000000000.*\.\.\..*0, 0, 0\) is not the exponent triple",
        ),
        (
            lambda: plane_cubic_invariants([1, 0, 0]),
            WrongDegreeError,
            "expected 10 coefficients, got 3",
        ),
        (
            lambda: curve_singular_mod_p(
                model_mod_p(variety_from_state(random_state(5, 2, 5, 3)), 7)
            ),
            UnsupportedFormatError,
            r"format \(5, 2\)",
        ),
        # 2 and 3 divide the S/T scales and 1728, so a numerator divisible
        # by p decides nothing; hand-built models over F_2 and F_3 got an answer
        (
            lambda: curve_singular_mod_p(_slice_model(random_state(3, 3, 5, 1), 2)),
            UnsupportedPrimeError,
            "needs p >= 5, not 2",
        ),
        (
            lambda: curve_singular_mod_p(_slice_model(random_state(4, 2, 5, 1), 3)),
            UnsupportedPrimeError,
            "needs p >= 5, not 3",
        ),
    ],
    ids=[
        "cubic-of-3-coefficients",
        "cubic-of-a-quartic-monomial",
        "cubic-of-a-pair",
        "cubic-of-a-long-key",
        "cubic-from-linear-form",
        "curve-test-on-a-surface",
        "curve-test-over-f2",
        "curve-test-over-f3",
    ],
)
def test_malformed_invariant_calls_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
