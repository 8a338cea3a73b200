from fractions import Fraction

import pytest

from sloccgeo.errors import (
    BadReductionError,
    InsufficientPointsError,
    RankDeficientError,
    UnsupportedPrimeError,
    WorkLimitError,
    WrongFormatError,
)
from sloccgeo.linalg import Matrix
from sloccgeo.geometry import (
    ProjPoint,
    enumerate_points,
    hasse_window,
    jacobian_rank_at,
    model_mod_p,
    smoothness_scan,
    variety_from_state,
)
from sloccgeo.invariants import classify, slocc_compare
from sloccgeo.states import (
    SloccOperator,
    Tensor,
    apply_slocc,
    basis_state,
    flattening_image,
    ghz,
    permute_factors,
    random_state,
    reduced_flattening_image,
)
from sloccgeo.zalgebra import (
    check_hilbert_degree,
    cubic_expected_dims,
    cubic_hilbert,
    cyclic_relations,
    multiplication_surjectivity,
    quadratic_expected_dims,
    quadratic_hilbert,
    relations_from_points,
    roundtrip_check,
)


def test_quadratic_expected_dims_oracle():
    # resolution recurrence must reproduce the closed form (k+1)(k+2)/2
    dims = quadratic_expected_dims(6)
    assert dims == tuple((k + 1) * (k + 2) // 2 for k in range(7))
    assert dims[:5] == (1, 3, 6, 10, 15)


def test_cubic_expected_dims_oracle():
    # recurrence h_k = 2h_{k-1} - 2h_{k-3} + h_{k-4}, h_0 = 1
    dims = cubic_expected_dims(6)
    manual = [1]
    for k in range(1, 7):
        val = 2 * manual[k - 1]
        if k >= 3:
            val -= 2 * manual[k - 3]
        if k >= 4:
            val += manual[k - 4]
        manual.append(val)
    assert dims == tuple(manual)
    assert dims[:6] == (1, 2, 4, 6, 9, 12)


def test_relations_recover_flattening_image():
    t = random_state(3, 3, 5, seed=42)
    model = variety_from_state(t)
    rel = relations_from_points(model, 11, (0, 1))
    assert rel.dim == 3
    assert rel.basis == reduced_flattening_image(t, 11)


def test_relations_four_qubit(family_1235):
    model = variety_from_state(family_1235)
    rel = relations_from_points(model, 13, (0, 1, 2))
    assert rel.dim == 2
    assert rel.basis == reduced_flattening_image(family_1235, 13)


def test_opposite_pattern_relations_are_transposes():
    # slot monomials commute as functions, so the (y,x) kernel is exactly
    # the transposed (x,y) kernel; both are computed from points
    t = random_state(3, 3, 5, seed=42)
    model = variety_from_state(t)
    rel_xy = relations_from_points(model, 11, (0, 1))
    rel_yx = relations_from_points(model, 11, (1, 0))
    assert rel_yx.dim == 3
    transposed = Matrix(
        [[row[j * 3 + i] for i in range(3) for j in range(3)]
         for row in rel_xy.basis.entries],
        cols=9,
        p=11,
    ).row_space()
    assert rel_yx.basis == transposed


def test_relations_insufficient_points(family_1235):
    # 11 divides the family discriminant: only two points survive
    model = variety_from_state(family_1235)
    with pytest.raises(InsufficientPointsError):
        relations_from_points(model, 11, (0, 1, 2))


def test_relation_dimension_is_slocc_invariant():
    t = random_state(3, 3, 5, seed=42)
    g = SloccOperator.random(3, 3, 2, seed=7)
    moved = apply_slocc(t, g)
    for p in (11, 13):
        a = relations_from_points(variety_from_state(t), p, (0, 1))
        b = relations_from_points(variety_from_state(moved), p, (0, 1))
        assert a.dim == b.dim


def _insertion_rank(relation_spaces, arity, k, d, p):
    """Dimension of the span of all degree-k shifts of the relations:
    position j contributes V^(x)j (x) R_{j mod n} (x) V^(x)(k-arity-j)."""
    rows = []
    for j in range(k - arity + 1):
        rel = relation_spaces[j % len(relation_spaces)]
        left = d**j
        right = d ** (k - arity - j)
        block = d**arity
        for basis_row in rel:
            for li in range(left):
                for ri in range(right):
                    row = [0] * d**k
                    for m, c in enumerate(basis_row):
                        if c:
                            row[(li * block + m) * right + ri] = c
                    rows.append(row)
    if not rows:
        return 0
    return Matrix(rows, cols=d**k, p=p).rank()


def dense_profile_dims(state, p, k_max):
    """Brute-force reference: dim A_k = d**k minus the rank of every shift
    of the relations in the d**k-dimensional V^(x)k."""
    spaces = cyclic_relations(state, p)
    arity, d = state.n - 1, state.d
    return tuple(
        d**k if k < arity else d**k - _insertion_rank(spaces, arity, k, d, p)
        for k in range(k_max + 1)
    )


def test_quotient_recursion_matches_dense_rank(ghz3_qutrit):
    hilbert = {(3, 3): quadratic_hilbert, (4, 2): cubic_hilbert}
    cases = [
        (random_state(*fmt, 5, seed=seed), p, k_max)
        for fmt, k_max in (((3, 3), 4), ((4, 2), 6))
        for seed in range(12)
        for p in (5, 7, 11, 13)
    ]
    cases += [(random_state(3, 3, 5, seed=3), 11, 5), (random_state(4, 2, 5, seed=3), 11, 8)]
    # primes of bad geometric reduction: off target, but the same off target
    off_target = [(random_state(3, 3, 5, seed=30), 7, 4), (random_state(3, 3, 5, seed=13), 11, 4),
             (random_state(4, 2, 5, seed=33), 5, 6)]
    ghz_case = (ghz3_qutrit, 13, 5)
    drop_case = (Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11}), 13, 3)
    compared = 0
    for state, p, k_max in cases + off_target + [ghz_case, drop_case]:
        try:
            expected = dense_profile_dims(state, p, k_max)
        except BadReductionError:
            with pytest.raises(BadReductionError):
                hilbert[state.n, state.d](state, p, k_max)
            continue
        profile = hilbert[state.n, state.d](state, p, k_max)
        assert profile.dims == expected, (state.n, state.d, p, k_max)
        compared += 1
    assert compared > len(cases) // 2
    for state, p, k_max in off_target:
        assert not hilbert[state.n, state.d](state, p, k_max).matches()
    assert quadratic_hilbert(*ghz_case).dims == (1, 3, 6, 12, 24, 48)


def test_profile_is_slocc_invariant():
    # g acts on the word positions slot by slot, so it carries each I_k onto
    # the ideal of the image; with every factor invertible mod p the image
    # reduces exactly when the state does and has the same profile
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, given, settings, strategies as st

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), fmt=st.sampled_from(((3, 3), (4, 2))), p=st.sampled_from((5, 7, 11, 13)))
    def check(data, fmt, p):
        n, d = fmt
        hilbert, k_max = {3: (quadratic_hilbert, 5), 4: (cubic_hilbert, 8)}[n]
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=d**n, max_size=d**n))
        entry = st.integers(-3, 3)
        factors = [
            Matrix(data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                      min_size=d, max_size=d)))
            for _ in range(n)
        ]
        assume(all(f.det() % p for f in factors))
        state = Tensor(n, d, coeffs)
        moved = apply_slocc(state, SloccOperator(factors))
        try:
            dims = hilbert(state, p, k_max).dims
        except (RankDeficientError, BadReductionError) as exc:
            with pytest.raises(type(exc)):
                hilbert(moved, p, k_max)
            assume(False)
        assert hilbert(moved, p, k_max).dims == dims

    check()


def test_quadratic_profile_generic_state():
    # a generic state defines a 3-dimensional quadratic regular algebra,
    # whose dimensions are the plane counts (k+1)(k+2)/2
    t = random_state(3, 3, 5, seed=42)
    profile = quadratic_hilbert(t, 11, 4)
    assert profile.dims == (1, 3, 6, 10, 15)
    assert profile.expected == (1, 3, 6, 10, 15)
    assert profile.matches()


def test_quadratic_profile_is_prime_independent():
    # the state written by `sloccgeo sample --n 3 --d 3 --seed 7`: the
    # profile is a property of the state, the same at every good prime
    t = random_state(3, 3, 5, seed=7)
    for p in (7, 11, 13, 17, 19, 23):
        assert quadratic_hilbert(t, p, 4).dims == (1, 3, 6, 10, 15), f"p={p}"


def test_state_lies_in_relation_overlap():
    # the rotation by j lies in R_j (x) V and in V (x) R_{j+1}
    t = random_state(3, 3, 5, seed=42)
    p = 11
    spaces = cyclic_relations(t, p)
    assert [len(s) for s in spaces] == [3, 3, 3]

    def contains(rows, v):
        return Matrix(list(rows) + [v], p=p).rank() == len(rows)

    for j in range(3):
        rotated = permute_factors(t, [(k - j) % 3 for k in range(3)]).reduce_mod(p)
        left = [[rotated[(a * 3 + b) * 3 + c] for a in range(3) for b in range(3)]
                for c in range(3)]
        right = [[rotated[(a * 3 + b) * 3 + c] for b in range(3) for c in range(3)]
                 for a in range(3)]
        assert all(contains(spaces[j], v) for v in left)
        assert all(contains(spaces[(j + 1) % 3], v) for v in right)


def test_profile_rank_deficient_in_rotated_flattening():
    # e_0 (x) (sum_k e_k (x) e_k): full flattening against the last factor,
    # rank one against the first
    t = Tensor.from_entries(3, 3, {(0, k, k): 1 for k in range(3)})
    assert flattening_image(t).rows == 3
    with pytest.raises(RankDeficientError):
        quadratic_hilbert(t, 11, 4)
    with pytest.raises(RankDeficientError):
        quadratic_hilbert(basis_state(3, 3, (0, 0, 0)), 11, 4)


def test_profile_rank_deficiency_wins_over_bad_prime():
    # the denominator 7 makes p = 7 a bad prime, but the rank deficiency of
    # a rotation over Q is the verdict at every prime
    t = Tensor.from_entries(3, 3, {(0, k, k): Fraction(1, 7) for k in range(3)})
    for p in (7, 11):
        with pytest.raises(RankDeficientError):
            quadratic_hilbert(t, p, 4)
        with pytest.raises(RankDeficientError):
            cyclic_relations(t, p)


def test_profile_rank_drop_mod_p_is_bad_reduction():
    # the state has no denominator, so the error names the rank drop alone
    t = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11})
    for call in (
        lambda: quadratic_hilbert(t, 11, 4),
        lambda: model_mod_p(variety_from_state(t), 11),
    ):
        with pytest.raises(BadReductionError) as info:
            call()
        assert str(info.value) == "flattening rank drops modulo 11"
        assert info.value.p == 11
    assert quadratic_hilbert(t, 13, 3).dims == (1, 3, 6, 12)
    # a state denominator keeps its own message
    with pytest.raises(BadReductionError) as info:
        quadratic_hilbert(t.scale(Fraction(1, 5)), 5, 4)
    assert str(info.value) == "denominator divisible by 5 for 1/5"


def test_quadratic_profile_flags_ghz3(ghz3_qutrit):
    try:
        profile = quadratic_hilbert(ghz3_qutrit, 13, 3)
    except InsufficientPointsError:
        return
    assert profile.dims != profile.expected  # degenerate input flagged


def test_quadratic_profile_wrong_format(ghz4):
    with pytest.raises(WrongFormatError):
        quadratic_hilbert(ghz4, 13, 3)


def test_cubic_profile_generic_state(family_1235):
    profile = cubic_hilbert(family_1235, 13, 5)
    assert profile.dims == (1, 2, 4, 6, 9, 12)  # cubic regular algebra
    assert profile.expected == (1, 2, 4, 6, 9, 12)
    assert profile.matches()


def test_cubic_profile_flags_ghz4(ghz4):
    try:
        profile = cubic_hilbert(ghz4, 13, 5)
    except InsufficientPointsError:
        return
    assert profile.dims != profile.expected


def test_profile_json(family_1235):
    doc = cubic_hilbert(family_1235, 13, 4).to_json_dict()
    assert doc["kind"] == "cubic" and doc["prime"] == 13
    assert doc["computed"] == [1, 2, 4, 6, 9]
    assert doc["matches"] is True


def test_mu_surjective_on_generic_family(family_1235):
    for p in (13, 17):
        result = multiplication_surjectivity(family_1235, (0, 1), p)
        assert result.surjective and result.rank == 4


def test_mu_kernel_on_diagonal_factoring(singlet_times_bell):
    # the swapped pair factors through the diagonal, so the product map
    # must have a kernel (the antisymmetric form)
    for p in (11, 13):
        result = multiplication_surjectivity(singlet_times_bell, (0, 1), p)
        assert not result.surjective
        assert result.kernel_dim >= 1


def test_mu_kernel_survives_slocc(singlet_times_bell):
    g = SloccOperator.random(4, 2, 2, seed=11)
    moved = apply_slocc(singlet_times_bell, g)
    result = multiplication_surjectivity(moved, (0, 1), 13)
    assert result.kernel_dim >= 1


def test_mu_flags_ghz4(ghz4):
    with pytest.raises(InsufficientPointsError):
        multiplication_surjectivity(ghz4, (0, 1), 11)


def test_mu_wrong_format(ghz3_qutrit):
    with pytest.raises(WrongFormatError):
        multiplication_surjectivity(ghz3_qutrit, (0, 1), 11)


def test_mu_axis_pair_names_two_distinct_groups(family_1235):
    # a repeated axis would project onto one group only
    for pair in ((0, 0), (2, 2), (0, 3), (1, 1, 2), (True, 2), ("0", 1)):
        with pytest.raises(ValueError, match="two distinct groups"):
            multiplication_surjectivity(family_1235, pair, 13)
    assert multiplication_surjectivity(family_1235, (1, 0), 13).axis_pair == (0, 1)


def test_roundtrip_generic_33():
    t = random_state(3, 3, 5, seed=42)
    for p in (7, 11, 13):
        assert roundtrip_check(t, p) is True


def test_roundtrip_generic_42(family_1235):
    assert roundtrip_check(family_1235, 7) is True
    assert roundtrip_check(family_1235, 13) is True


def test_roundtrip_reduces_the_state_once(monkeypatch):
    # the reduced model's rows are the reduced flattening image, so the
    # comparison needs no second reduction; zalgebra reduces only through
    # geometry.model_mod_p
    import sloccgeo.geometry
    import sloccgeo.zalgebra

    assert not hasattr(sloccgeo.zalgebra, "reduced_flattening_image")
    seen = []

    def counting(t, p):
        seen.append(p)
        return reduced_flattening_image(t, p)

    monkeypatch.setattr(sloccgeo.geometry, "reduced_flattening_image", counting)
    assert roundtrip_check(random_state(3, 3, 5, 10), 11) is True
    assert seen == [11]


def test_relations_eliminate_the_evaluation_matrix_once(monkeypatch):
    # the rank check and the kernel come from one RREF, of the evaluation
    # matrix with its columns reversed (Matrix.kernel); no other matrix is
    # eliminated, neither the evaluation matrix itself nor the kernel basis
    from sloccgeo.zalgebra import _monomial_rows

    t = random_state(3, 3, 5, seed=42)
    model = model_mod_p(variety_from_state(t), 11)
    points = [pt.coords for pt in enumerate_points(model, 11)]
    evaluation = _monomial_rows(points, (0, 1), 3, 11)
    reversed_columns = Matrix([row[::-1] for row in evaluation.entries], cols=9, p=11)
    seen = []
    rref = Matrix.rref

    def counting(m):
        seen.append(m)
        return rref(m)

    monkeypatch.setattr(Matrix, "rref", counting)
    rel = relations_from_points(model, 11, (0, 1))
    assert seen == [reversed_columns]
    assert rel.basis == reduced_flattening_image(t, 11)


def test_roundtrip_separable_rank_deficient():
    with pytest.raises(RankDeficientError):
        roundtrip_check(basis_state(3, 3, (0, 0, 0)), 11)


def test_hilbert_degree_bounds():
    check_hilbert_degree(3, 5)  # 243 columns
    check_hilbert_degree(2, 8)  # 256 columns
    check_hilbert_degree(3, 0)
    for d, k_max in ((3, 6), (2, 9), (3, -1), (2, -1), (3, 10**9)):
        with pytest.raises(WorkLimitError):
            check_hilbert_degree(d, k_max)
    t = random_state(3, 3, 5, seed=7)
    with pytest.raises(WorkLimitError):
        quadratic_hilbert(t, 11, -1)  # was an empty profile that "matches"
    with pytest.raises(WorkLimitError):
        cubic_hilbert(random_state(4, 2, 5, seed=7), 11, 9)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 9, -5])
def test_single_prime_entry_points_refuse_non_primes(p):
    t, t42 = random_state(3, 3, 5, 1), random_state(4, 2, 5, 1)
    model = variety_from_state(t)
    entry_points = {
        "reduced_flattening_image": lambda: reduced_flattening_image(t, p),
        "model_mod_p": lambda: model_mod_p(model, p),
        "enumerate_points": lambda: enumerate_points(model, p),
        "jacobian_rank_at": lambda: jacobian_rank_at(model, ProjPoint(p, ((1, 0, 0),) * 2)),
        "relations_from_points": lambda: relations_from_points(model, p, (0, 1)),
        "cyclic_relations": lambda: cyclic_relations(t, p),
        "quadratic_hilbert": lambda: quadratic_hilbert(t, p, 3),
        "cubic_hilbert": lambda: cubic_hilbert(t42, p, 3),
        "roundtrip_check": lambda: roundtrip_check(t, p),
        "multiplication_surjectivity": lambda: multiplication_surjectivity(t42, (0, 1), p),
        "classify smooth": lambda: classify(t, [p]),
        "classify singular": lambda: classify(ghz(3, 3), [p]),
        "slocc_compare": lambda: slocc_compare(t, ghz(3, 3), [p]),
        "smoothness_scan": lambda: smoothness_scan(t, [p]),
        "hasse_window": lambda: hasse_window(p),
    }
    for name, call in entry_points.items():
        with pytest.raises(UnsupportedPrimeError):
            call()
            pytest.fail(f"{name} accepted p = {p}")
