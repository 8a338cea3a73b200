import re
from fractions import Fraction

import pytest

from sloccgeo.errors import (
    BadReductionError,
    InsufficientPointsError,
    RankDeficientError,
    SloccGeoError,
    UnsupportedPrimeError,
    WorkLimitError,
    WrongFormatError,
)
from sloccgeo.linalg import Matrix
from sloccgeo.geometry import (
    ProjPoint,
    VarietyModel,
    enumerate_points,
    hasse_window,
    jacobian_rank_at,
    model_mod_p,
    reduced_models,
    smoothness_scan,
    variety_from_state,
)
from sloccgeo.invariants import classify, slocc_compare
from sloccgeo.states import (
    SloccOperator,
    Tensor,
    _rotate,
    apply_slocc,
    basis_state,
    flattening_image,
    ghz,
    random_state,
    reduced_flattening_image,
)
from sloccgeo.zalgebra import (
    MAX_PROFILE_WIDTH,
    ProductMapResult,
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

import reference_algebra as ref


def test_quadratic_expected_dims_oracle():
    # the closed form must reproduce the resolution recurrence
    # h_k = 3h_{k-1} - 3h_{k-2} + h_{k-3}, h_0 = 1
    dims = quadratic_expected_dims(40)
    manual = [1]
    for k in range(1, 41):
        val = 3 * manual[k - 1]
        if k >= 2:
            val -= 3 * manual[k - 2]
        if k >= 3:
            val += manual[k - 3]
        manual.append(val)
    assert dims == tuple(manual)
    assert dims[:5] == (1, 3, 6, 10, 15)


def test_cubic_expected_dims_oracle():
    # the closed form must reproduce the resolution recurrence
    # h_k = 2h_{k-1} - 2h_{k-3} + h_{k-4}, h_0 = 1
    dims = cubic_expected_dims(40)
    manual = [1]
    for k in range(1, 41):
        val = 2 * manual[k - 1]
        if k >= 3:
            val -= 2 * manual[k - 3]
        if k >= 4:
            val += manual[k - 4]
        manual.append(val)
    assert dims == tuple(manual)
    assert dims[:6] == (1, 2, 4, 6, 9, 12)


@pytest.mark.parametrize("series", [quadratic_expected_dims, cubic_expected_dims])
def test_expected_dims_are_bounded(series):
    # 10**9 would have built a tuple of 10**9 + 1 ints; a series stops at
    # the widest profile's degree, MAX_PROFILE_WIDTH
    assert len(series(MAX_PROFILE_WIDTH)) == MAX_PROFILE_WIDTH + 1
    for k_max in (MAX_PROFILE_WIDTH + 1, 10**9, 10**5000, -1):
        with pytest.raises(WorkLimitError, match=r"^k_max=.* is not an int in \[0, 256\]$"):
            series(k_max)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify(5),
        lambda: classify([1, 2]),
        lambda: smoothness_scan("x"),
        lambda: slocc_compare(ghz(3, 3), 5),
        lambda: quadratic_hilbert(5, 7),
        lambda: cubic_hilbert(5, 7),
        lambda: roundtrip_check(5, 7),
        lambda: multiplication_surjectivity(5, (0, 1), 7),
    ],
    ids=["classify", "classify-list", "smoothness-scan", "slocc-compare", "quadratic-hilbert",
         "cubic-hilbert", "roundtrip", "surjectivity"],
)
def test_entry_points_refuse_a_state_that_is_not_a_tensor(call):
    # each ended in a bare AttributeError, and classify of a list in
    # TypeError: unhashable type from its memo
    with pytest.raises(ValueError, match=r"^(t|b|state)=(5|\[1, 2\]|'x') is not a Tensor$"):
        call()


def test_relations_recover_flattening_image():
    t = random_state(3, 3, 5, seed=42)
    model = variety_from_state(t)
    rel = relations_from_points(model, 11)
    assert isinstance(rel, Matrix)
    assert (rel.rows, rel.cols, rel.p) == (3, 9, 11)
    assert rel == reduced_flattening_image(t, 11)


def test_relations_four_qubit(family_1235):
    model = variety_from_state(family_1235)
    rel = relations_from_points(model, 13)
    assert rel.rows == 2
    assert rel == reduced_flattening_image(family_1235, 13)


def test_relations_insufficient_points(family_1235):
    # 11 divides the family discriminant: only two points survive
    model = variety_from_state(family_1235)
    with pytest.raises(InsufficientPointsError):
        relations_from_points(model, 11)


def test_relations_from_points_bounds_the_slot_count(monkeypatch):
    # the evaluation matrix is d**k wide, k = n - 1 the model's group count:
    # a (10,2) model is 512 wide, over the width rule of the Hilbert profiles
    import sloccgeo.zalgebra

    model = variety_from_state(random_state(10, 2, 5, 1))

    def refused(*args):
        raise AssertionError("points enumerated before the bound")

    monkeypatch.setattr(sloccgeo.zalgebra, "_walk", refused)
    with pytest.raises(WorkLimitError, match=r"^the evaluation rows of a model of format "
                       r"\(n=10, d=2\) are 512 wide, over the limit of 256$"):
        relations_from_points(model, 11)


def test_relation_dimension_is_slocc_invariant():
    t = random_state(3, 3, 5, seed=42)
    g = SloccOperator.random(3, 3, 2, seed=7)
    moved = apply_slocc(t, g)
    for p in (11, 13):
        a = relations_from_points(variety_from_state(t), p)
        b = relations_from_points(variety_from_state(moved), p)
        assert a.rows == b.rows


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


def test_quotient_recursion_matches_dense_rank_at_every_degree(ghz3_qutrit):
    # the top degree is ranked only and the pushes through mu_j below the
    # relation degree are skipped, so each k_max ends the recursion at a
    # different degree: every k_max from 0 to the width bound must give
    # the dense dimensions up to it, GHZ, the drop case and the three
    # off-target (state, prime) pairs included
    hilbert = {(3, 3): (quadratic_hilbert, 5), (4, 2): (cubic_hilbert, 8)}
    cases = [(random_state(3, 3, 5, seed=3), 11), (random_state(4, 2, 5, seed=3), 11),
             (random_state(3, 3, 5, seed=30), 7), (random_state(3, 3, 5, seed=13), 11),
             (random_state(4, 2, 5, seed=33), 5), (ghz3_qutrit, 13),
             (Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11}), 13)]
    for state, p in cases:
        profile, top = hilbert[state.n, state.d]
        dense = dense_profile_dims(state, p, top)
        for k_max in range(top + 1):
            assert profile(state, p, k_max).dims == dense[: k_max + 1], (state.n, p, k_max)


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
            data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
            for _ in range(n)
        ]
        assume(all(Matrix(f, p=p).det() for f in factors))
        state = Tensor(n, d, coeffs)
        moved = apply_slocc(state, SloccOperator([Matrix(f) for f in factors]))
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
        rotated = ref.permute_factors(t, [(k - j) % 3 for k in range(3)]).reduce_mod(p)
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
    # a rotation over Q is the verdict at every prime, even where rotation
    # 0, of full rank over Q, fails first: at a bad prime, a non-prime, or
    # a rank drop mod 11 (diag(1, 1, 11))
    t = Tensor.from_entries(3, 3, {(0, k, k): Fraction(1, 7) for k in range(3)})
    drop = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 11})
    for state, p in ((t, 7), (t, 11), (t, 4), (drop, 11)):
        with pytest.raises(RankDeficientError):
            quadratic_hilbert(state, p, 4)
        with pytest.raises(RankDeficientError):
            cyclic_relations(state, p)
    with pytest.raises(BadReductionError, match="^flattening rank drops modulo 11$"):
        reduced_models([drop], 11)


def test_reduced_models_keep_their_error_order_without_a_model_over_q(monkeypatch):
    # the rotations of t: rotation 0 has full rank over Q and fails first at
    # p = 7, which divides the denominator; rotation 1 is rank-deficient
    # over Q.  The errors come in one order, and no basis over Q is built:
    # WorkLimitError, then RankDeficientError of any rotation, then the
    # first failing reduction's own error
    import sloccgeo.geometry
    import sloccgeo.states

    def refused(t):
        raise AssertionError("built the flattening's basis over Q")

    monkeypatch.setattr(sloccgeo.geometry, "flattening_basis", refused)
    monkeypatch.setattr(sloccgeo.states, "flattening_basis", refused)
    t = Tensor.from_entries(3, 3, {(0, k, k): Fraction(1, 7) for k in range(3)})
    rotations = [t, Tensor.from_integers(3, 3, _rotate(t.nums, 3), t.den)]
    assert reduced_flattening_image(t, 11).rows == 3
    with pytest.raises(RankDeficientError) as info:
        reduced_models(rotations, 7)
    assert (info.value.dim, info.value.expected) == (1, 3)
    for p in (11, 4):  # rotation 1 fails its reduction at any p
        with pytest.raises(RankDeficientError):
            reduced_models(rotations, p)
    # of full-rank states, the first failing reduction names the error
    drop = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 7})
    for states, message in (
        ([drop, t], "flattening rank drops modulo 7"),
        ([t, drop], "denominator divisible by 7 for 1/7"),
    ):
        with pytest.raises(BadReductionError) as info:
            reduced_models(states, 7)
        assert str(info.value) == message
    with pytest.raises(UnsupportedPrimeError):
        reduced_models([drop, t], 4)
    # the cost check comes before either
    monkeypatch.setattr(sloccgeo.states, "MAX_FLATTENING_COST", 16)
    with pytest.raises(WorkLimitError):
        reduced_models(rotations, 7)


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


def _outcome(call):
    """("ok", value) or (error type, message, prime) of a call."""
    try:
        return "ok", call()
    except SloccGeoError as exc:
        return type(exc), str(exc), getattr(exc, "p", None)


def test_reduced_models_match_the_exact_route():
    # the models from the reduced flattenings against the exact models
    # reduced through their states: equal models, or the same error type,
    # message and prime; and cyclic_relations against the former loop, over
    # random states with denominators divisible by p, rank drops mod p
    # (the last slice congruent to the first) and a rank-deficient rotation
    # (e_0 (x) s, rotated)
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        fmt=st.sampled_from(((3, 3), (4, 2))),
        p=st.sampled_from((5, 7, 11, 13)),
        kind=st.sampled_from(("random", "rank drop", "rotated deficiency")),
    )
    def check(data, fmt, p, kind):
        n, d = fmt
        size, inner = d**n, d ** (n - 1)
        nums = data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        if kind == "rank drop":
            shifts = data.draw(st.lists(st.integers(-2, 2), min_size=inner, max_size=inner))
            for r, s in enumerate(shifts):
                nums[r * d + d - 1] = nums[r * d] + p * s
        elif kind == "rotated deficiency":
            nums = nums[:inner] + [0] * (size - inner)
            for _ in range(data.draw(st.integers(0, n - 1))):
                nums = _rotate(nums, d)
        den = data.draw(st.sampled_from((1, 2, p, 3 * p)))
        t = Tensor.from_integers(n, d, nums, den)
        fast = _outcome(lambda: reduced_models([t], p)[0])
        assert fast == _outcome(lambda: model_mod_p(variety_from_state(t), p))
        relations = _outcome(lambda: cyclic_relations(t, p))
        assert relations == _outcome(lambda: ref.cyclic_relations(t, p))
        seen.update((fast[0], relations[0]))

    check()
    assert {"ok", RankDeficientError, BadReductionError} <= seen


def test_cyclic_relations_match_each_rotation_reduced_on_its_own():
    # cyclic_relations reduces the state once and rotates its residues; the
    # reference builds each rotation by permuting the factors
    # (ref.permute_factors) and reduces it on its own: the same relation
    # spaces, or the error of reduced_models on those rotations, with the
    # same type and message.  The draws cover GHZ, scaled and rational
    # states, denominators divisible by p, rank drops mod p (the last slice
    # congruent to the first) and a rank-deficient rotation (e_0 (x) s,
    # rotated)
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        fmt=st.sampled_from(((3, 3), (4, 2), (5, 2))),
        p=st.sampled_from((5, 7, 11, 13, 17, 19, 23)),
        kind=st.sampled_from(("random", "ghz", "scaled", "rank drop", "rotated deficiency")),
    )
    def check(data, fmt, p, kind):
        n, d = fmt
        size, inner = d**n, d ** (n - 1)
        nums = data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        if kind == "ghz":
            nums = list(ghz(n, d).nums)
        elif kind == "rank drop":
            shifts = data.draw(st.lists(st.integers(-2, 2), min_size=inner, max_size=inner))
            for r, s in enumerate(shifts):
                nums[r * d + d - 1] = nums[r * d] + p * s
        elif kind == "rotated deficiency":
            nums = nums[:inner] + [0] * (size - inner)
            for _ in range(data.draw(st.integers(0, n - 1))):
                nums = _rotate(nums, d)
        den = data.draw(st.sampled_from((1, 2, p, 3 * p)))
        t = Tensor.from_integers(n, d, nums, den)
        if kind == "scaled":
            a, b = (data.draw(st.sampled_from(choices)) for choices in ((1, -3, p), (1, 4, p)))
            t = t.scale(Fraction(a, b))
        rotations = [ref.permute_factors(t, [(k - j) % n for k in range(n)]) for j in range(n)]
        expected = _outcome(lambda: reduced_models(rotations, p))
        if expected[0] == "ok":
            expected = "ok", [reduced_flattening_image(r, p).entries for r in rotations]
            # and the former route: the residue slices as a checked Matrix
            assert expected[1] == [
                Matrix([r.reduce_mod(p)[k::d] for k in range(d)], cols=inner, p=p).row_space().entries
                for r in rotations
            ]
        assert _outcome(lambda: cyclic_relations(t, p)) == expected
        seen.add((n, expected[0]) if expected[0] != BadReductionError else expected[1].split()[0])

    check()
    assert {(n, out) for n in (3, 4, 5) for out in ("ok", RankDeficientError)} <= seen, seen
    assert {"denominator", "flattening"} <= seen, seen


def test_section_products_match_the_listed_points(singlet_times_bell):
    # multiplication_surjectivity projects the walk's coordinate tuples and
    # ranks by forward elimination; the reference lists enumerate_points
    # and ranks a Matrix of the index-loop rows (ref.section_product): the
    # same result, or, when the projected count lies outside the plausible
    # window, a refusal naming that count; on drawn (4,2) states and on
    # SLOCC images of singlet (x) Bell
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        kind=st.sampled_from(("random", "singlet (x) Bell")),
        pair=st.sampled_from(((0, 1), (0, 2), (1, 2), (1, 0))),
        p=st.sampled_from((5, 7, 11, 13, 17, 19, 23)),
    )
    def check(data, kind, pair, p):
        if kind == "random":
            nums = data.draw(st.lists(st.integers(-4, 4), min_size=16, max_size=16))
            t = Tensor.from_integers(4, 2, nums, data.draw(st.sampled_from((1, 2, p))))
        else:
            g = SloccOperator.random(4, 2, 2, data.draw(st.integers(0, 10**6)))
            t = apply_slocc(singlet_times_bell, g)
        got = _outcome(lambda: multiplication_surjectivity(t, pair, p))
        try:
            rank, count = ref.section_product(t, pair, p)
        except SloccGeoError as exc:
            assert got == (type(exc), str(exc), getattr(exc, "p", None))
            seen.add(type(exc))
            return
        lo, hi = hasse_window(p)
        if max(5, lo) <= count <= hi:
            assert got == ("ok", ProductMapResult(p, tuple(sorted(pair)), rank, 4 - rank, count))
            seen.add((kind, rank == 4))
        else:
            assert got[0] in (InsufficientPointsError, BadReductionError), got
            assert got[0] is BadReductionError or f"{count} projected points at p={p}" in got[1]
            seen.add(got[0])

    check()
    assert {("random", True), ("singlet (x) Bell", False)} <= seen, seen
    assert {InsufficientPointsError, BadReductionError} <= seen, seen


def test_graded_checks_build_no_exact_flattening(monkeypatch, family_1235):
    # at a good prime every reduced flattening has rank d, which proves the
    # exact rank, and a failed reduction is named from the rank of the
    # state's slices, so no check builds the canonical basis over Q, at
    # good primes or bad, and neither do classify and smoothness_scan
    import sloccgeo.geometry
    import sloccgeo.states

    calls = []
    basis = sloccgeo.states.flattening_basis

    def counting(t):
        calls.append(t)
        return basis(t)

    monkeypatch.setattr(sloccgeo.geometry, "flattening_basis", counting)
    monkeypatch.setattr(sloccgeo.states, "flattening_basis", counting)
    t33 = random_state(3, 3, 5, 42)
    assert quadratic_hilbert(t33, 11, 4).matches()
    assert cubic_hilbert(family_1235, 13, 5).matches()
    assert roundtrip_check(t33, 11) is True
    assert roundtrip_check(family_1235, 13) is True
    assert multiplication_surjectivity(family_1235, (0, 1), 13).surjective
    assert calls == []
    # bad primes, a rank drop mod p and a state that is rank-deficient over Q
    bad33, bad42 = t33.scale(Fraction(1, 11)), family_1235.scale(Fraction(1, 13))
    drop = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11})
    flat = basis_state(3, 3, (0, 0, 0))
    for call, error in (
        (lambda: roundtrip_check(bad33, 11), BadReductionError),
        (lambda: quadratic_hilbert(bad33, 11, 4), BadReductionError),
        (lambda: quadratic_hilbert(drop, 11, 4), BadReductionError),
        (lambda: cubic_hilbert(bad42, 13, 5), BadReductionError),
        (lambda: roundtrip_check(bad42, 13), BadReductionError),
        (lambda: multiplication_surjectivity(bad42, (0, 1), 13), BadReductionError),
        (lambda: roundtrip_check(flat, 11), RankDeficientError),
        (lambda: quadratic_hilbert(flat, 11, 4), RankDeficientError),
        (lambda: smoothness_scan(flat, (5, 7)), RankDeficientError),
    ):
        with pytest.raises(error):
            call()
    classify.cache_clear()
    for t in (t33, bad33, drop, flat, family_1235, bad42, ghz(3, 3).scale(Fraction(1, 35))):
        classify(t, (5, 7, 11, 13))
    assert smoothness_scan(bad33, (7, 11, 13)).primes == (7, 13)
    assert calls == []


def test_graded_checks_refuse_a_missing_prime(family_1235):
    # the one reduction route checks p: these ended in a bare TypeError, and
    # cyclic_relations returned the relation rows over Q
    t33 = random_state(3, 3, 5, 1)
    for call in (
        lambda: cyclic_relations(t33, None),
        lambda: quadratic_hilbert(t33, None, 3),
        lambda: roundtrip_check(t33, None),
        lambda: multiplication_surjectivity(family_1235, (0, 1), None),
    ):
        with pytest.raises(UnsupportedPrimeError, match=r"^None is not a prime in "):
            call()


def test_flattening_cost_is_checked_before_any_elimination(monkeypatch, family_1235):
    import sloccgeo.cli
    import sloccgeo.geometry
    import sloccgeo.invariants
    import sloccgeo.linalg
    import sloccgeo.states
    import sloccgeo.zalgebra

    def refused(*args):
        raise AssertionError("eliminated before the cost check")

    # each module calls the two elimination loops by the names it imported,
    # so both are refused in every module that binds them; the leaf
    # (geometry._reduced_model) eliminates through states._flattening_rows
    modules = (sloccgeo.linalg, sloccgeo.states, sloccgeo.geometry, sloccgeo.invariants,
               sloccgeo.zalgebra, sloccgeo.cli)
    for name in ("_bareiss", "_eliminate"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert sloccgeo.states._eliminate is refused
    # (2,64) costs 64**3 = 262,144 cell updates, over the limit
    wide = random_state(2, 64, 5, 0)
    for call in (lambda: cyclic_relations(wide, 11), lambda: roundtrip_check(wide, 11)):
        with pytest.raises(WorkLimitError, match=r"costs 262144 cell updates"):
            call()
    # with the limit at 16, (3,3) (81) and (4,2) (32) are over it too
    monkeypatch.setattr(sloccgeo.states, "MAX_FLATTENING_COST", 16)
    t33 = random_state(3, 3, 5, 42)
    for call, cost in (
        (lambda: cyclic_relations(t33, 11), 81),
        (lambda: quadratic_hilbert(t33, 11, 4), 81),
        (lambda: roundtrip_check(t33, 11), 81),
        (lambda: multiplication_surjectivity(family_1235, (0, 1), 13), 32),
    ):
        with pytest.raises(WorkLimitError, match=rf"costs {cost} cell updates, over the limit of 16$"):
            call()


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


def test_mu_refusal_names_a_singular_reduction():
    # random_state(4, 2, 5, 1) is smooth, but 23 divides one of its slice
    # discriminants: the reduced curve is singular, and its 46 projected
    # points lie above the window [15, 33]
    t = random_state(4, 2, 5, seed=1)
    assert 23 in smoothness_scan(t, (23,)).excluded_primes
    with pytest.raises(BadReductionError, match="p=23 divides a slice discriminant") as info:
        multiplication_surjectivity(t, (0, 1), 23)
    assert info.value.p == 23
    # seed 0 has 4 projected points at p = 5, a good prime whose window
    # [2, 10] starts below the five points a kernel needs
    t = random_state(4, 2, 5, seed=0)
    assert smoothness_scan(t, (5,)).primes == (5,)
    with pytest.raises(InsufficientPointsError, match="only 4 projected points at p=5"):
        multiplication_surjectivity(t, (0, 1), 5)


def test_roundtrip_refusal_names_a_singular_reduction(family_1235):
    # 5 and 11 divide slice discriminants of the smooth family state, so
    # its reduced curves there are singular
    for p in (5, 11):
        assert p in smoothness_scan(family_1235, (p,)).excluded_primes
        with pytest.raises(BadReductionError, match=f"p={p} divides a slice discriminant") as info:
            roundtrip_check(family_1235, p)
        assert info.value.p == p
    # (3,3) seed 4 and (4,2) seed 16 have 4 F_p-points at the good prime 7,
    # too few for the evaluation rank 6
    for t in (random_state(3, 3, 5, seed=4), random_state(4, 2, 5, seed=16)):
        assert smoothness_scan(t, (7,)).primes == (7,)
        with pytest.raises(InsufficientPointsError, match="target 6 at p=7 from 4 F_p-points"):
            roundtrip_check(t, 7)


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


def test_roundtrip_reduces_the_state_once(reductions):
    # the reduced model's rows are the reduced flattening image, so the
    # comparison needs no second reduction; zalgebra reduces only through
    # the leaf, geometry._reduced_model
    import sloccgeo.zalgebra

    assert not hasattr(sloccgeo.zalgebra, "reduced_flattening_image")
    seen = reductions
    assert roundtrip_check(random_state(3, 3, 5, 10), 11) is True
    assert seen == [11]


def test_hilbert_profiles_reduce_the_state_once_per_prime(reductions, family_1235):
    # the leaf serves the relation spaces of all n rotations from one
    # reduction of the state
    t33 = random_state(3, 3, 5, 42)
    for call, p in ((lambda p: quadratic_hilbert(t33, p, 4), 11),
                    (lambda p: cubic_hilbert(family_1235, p, 5), 13)):
        reductions.clear()
        assert call(p).matches()
        assert reductions == [p]


def test_roundtrip_is_refused_before_any_point(monkeypatch):
    # its relation pattern has n - 1 slots: (10,2) is 512 wide, over the
    # width rule; (9,2) is 256 wide and passes it, but its sweep at p = 5
    # visits 6**7 = 279,936 prefixes, over PREFIX_BUDGET
    import sloccgeo.geometry

    def refused(*args):
        raise AssertionError("points enumerated before the bound")

    monkeypatch.setattr(sloccgeo.geometry, "_points", refused)
    with pytest.raises(WorkLimitError, match=r"^the evaluation rows of a model of format "
                       r"\(n=10, d=2\) are 512 wide, over the limit of 256$"):
        roundtrip_check(random_state(10, 2, 5, 0), 5)
    with pytest.raises(WorkLimitError, match=r"visits 279936 prefixes, over the budget of 200000"):
        roundtrip_check(random_state(9, 2, 5, 0), 5)


def test_monomial_rows_match_the_index_loop():
    # the Kronecker rows against the former product loop, on points of any
    # number of coordinate vectors, none included; the roundtrip pins only
    # n - 1 of them.  No point gives a 0 x d**k matrix, whose kernel is
    # everything: relations_from_points then names the 0 F_p-points
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from sloccgeo.zalgebra import _monomial_row

    def rows(points, width, p):
        return Matrix([_monomial_row(pt, p) for pt in points], cols=width, p=p)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.sampled_from((2, 3)),
        k=st.integers(0, 4),
        p=st.sampled_from((5, 7, 11)),
    )
    def check(data, d, k, p):
        coord = st.tuples(*[st.integers(0, p - 1)] * d)
        points = data.draw(st.lists(st.tuples(*[coord] * k), max_size=6))
        assert rows(points, d**k, p) == ref.monomial_rows(points, d, k, p)

    check()
    empty = rows([], 9, 11)
    assert (empty.rows, empty.cols, empty.p) == (0, 9, 11) and empty.kernel().rows == 9
    assert empty == ref.monomial_rows([], 3, 2, 11)


def test_relations_never_eliminate_the_full_evaluation_matrix(monkeypatch):
    # each point's row joins a row-echelon basis of the rows so far, and the
    # walk stops once the rank reaches width - rank(model rows) = 9 - 3: no
    # elimination sees more than that basis and one new row, and the walk
    # of a smooth state ends before its last point.  The kernel is taken of
    # the basis, so it is still the reduced flattening image
    import sloccgeo.linalg
    import sloccgeo.zalgebra

    t = random_state(3, 3, 5, seed=42)
    model = model_mod_p(variety_from_state(t), 11)
    total = len(enumerate_points(model, 11))
    heights, pulled = [], []
    eliminate, walk = sloccgeo.linalg._eliminate, sloccgeo.zalgebra._walk

    def counting(m, *args, **kwargs):
        heights.append(len(m))
        return eliminate(m, *args, **kwargs)

    def counted_walk(*args):
        reduced, pairs = walk(*args)
        return reduced, (pulled.append(pair) or pair for pair in pairs)

    monkeypatch.setattr(sloccgeo.linalg, "_eliminate", counting)
    monkeypatch.setattr(sloccgeo.zalgebra, "_eliminate", counting)
    monkeypatch.setattr(sloccgeo.zalgebra, "_walk", counted_walk)
    rel = relations_from_points(model, 11)
    assert rel == reduced_flattening_image(t, 11)
    assert total == 15 and 6 <= len(pulled) < total
    assert max(heights) <= 7 and total not in heights


def check_relations_against_reference(model, p):
    """relations_from_points against the reference kernel of the evaluation
    at every enumerated point: the same canonical basis, or, where the
    reference rank falls short of k*d, the same InsufficientPointsError
    message with the full point count.  True when a kernel was compared."""
    points = [pt.coords for pt in enumerate_points(model, p)]
    evaluation = ref.monomial_rows(points, model.d, model.groups, p)
    kernel = ref.kernel_mod_p(evaluation)
    rank, target = evaluation.cols - len(kernel), model.groups * model.d
    if rank < target:
        message = (f"evaluation rank {rank} below generic target {target} at p={p} "
                   f"from {len(points)} F_p-points")
        with pytest.raises(InsufficientPointsError, match=f"^{re.escape(message)}$"):
            relations_from_points(model, p)
        return False
    assert relations_from_points(model, p).entries == kernel, (model.rows, p)
    return True


def test_relations_stop_early_with_the_reference_kernel():
    # the walk stops once the evaluation rank reaches width - rank(model
    # rows); on drawn states and on hand-built F_p models whose rows repeat,
    # depend on each other or are one form (a ceiling above k*d, and with
    # four independent (3,3) rows one below it, which must still count
    # every point), the result is the kernel of all the points' rows
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, given, settings, strategies as st

    primes = st.sampled_from((5, 7, 11, 13, 17, 19, 23))
    compared = []

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), fmt=st.sampled_from(((3, 3), (4, 2), (5, 2))), p=primes)
    def drawn_states(data, fmt, p):
        n, d = fmt
        if n == 5:
            p = min(p, 11)  # (p + 1)**3 prefixes per (5,2) walk
        coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=d**n, max_size=d**n))
        try:
            model = model_mod_p(variety_from_state(Tensor(n, d, coeffs)), p)
        except (RankDeficientError, BadReductionError):
            assume(False)
        compared.append(check_relations_against_reference(model, p))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), fmt=st.sampled_from(((3, 3), (4, 2))), p=primes)
    def hand_built(data, fmt, p):
        n, d = fmt
        width = d ** (n - 1)
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        base = data.draw(st.lists(row, min_size=1, max_size=4))
        shape = data.draw(st.sampled_from(("single", "repeated", "dependent", "as drawn")))
        if shape == "single":
            rows = base[:1]
        elif shape == "repeated":
            rows = base + base[:1]
        elif shape == "dependent":
            a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
            rows = base + [[(a * x + b * y) % p for x, y in zip(base[0], base[-1])]]
        else:
            rows = base
        check_relations_against_reference(VarietyModel(n, d, rows, 1, p), p)

    drawn_states()
    hand_built()
    assert any(compared)
    # the forms x0*y0, x0*y1, x0*y2 and x1*y0: the points [0:0:1] x P^2 and
    # [0:*:*] x [0:*:*] soon reach the ceiling 9 - 4 = 5, below the target
    # 6, and the walk must run on to count every point for the message
    rows = [[1 if i == j else 0 for i in range(9)] for j in range(4)]
    model = VarietyModel(3, 3, rows, 1, 7)
    assert len(enumerate_points(model, 7)) == 113
    assert not check_relations_against_reference(model, 7)


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


@pytest.mark.parametrize("k_max", [True, False, 4.0, 2.5, Fraction(4), "4", None])
def test_hilbert_degree_refuses_non_ints(monkeypatch, k_max):
    # True gave the dims (1, 3); 4.0 ended in a bare TypeError.  The type is
    # refused before any reduction
    import sloccgeo.zalgebra

    def refused(*args):
        raise AssertionError("reduced before the degree was checked")

    monkeypatch.setattr(sloccgeo.zalgebra, "cyclic_relations", refused)
    message = rf"^k_max={re.escape(repr(k_max))} is not an int$"
    with pytest.raises(ValueError, match=message):
        check_hilbert_degree(3, k_max)
    with pytest.raises(ValueError, match=message):
        quadratic_hilbert(random_state(3, 3, 5, 1), 7, k_max)
    with pytest.raises(ValueError, match=message):
        cubic_hilbert(random_state(4, 2, 5, 1), 7, k_max)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 9, -5, None])
def test_single_prime_entry_points_refuse_non_primes(p):
    t, t42 = random_state(3, 3, 5, 1), random_state(4, 2, 5, 1)
    model = variety_from_state(t)
    entry_points = {
        "reduced_flattening_image": lambda: reduced_flattening_image(t, p),
        "model_mod_p": lambda: model_mod_p(model, p),
        "enumerate_points": lambda: enumerate_points(model, p),
        "jacobian_rank_at": lambda: jacobian_rank_at(model, ProjPoint(p, ((1, 0, 0),) * 2)),
        "relations_from_points": lambda: relations_from_points(model, p),
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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: cubic_hilbert(random_state(3, 3, 5, 1), 7, 4),
            WrongFormatError,
            r"format \(4,2\)",
        ),
        # an int where the pair belongs ended in a bare TypeError
        (
            lambda: multiplication_surjectivity(ghz(4, 2), 5, 13),
            ValueError,
            r"^axis_pair=5 is not a pair naming two distinct groups among 0, 1 and 2$",
        ),
        # 52 projected points at p = 13, above the genus-one bound of 21
        (
            lambda: multiplication_surjectivity(ghz(4, 2), (0, 1), 13),
            InsufficientPointsError,
            "52 projected points",
        ),
    ],
    ids=[
        "cubic-profile-of-a-33-state",
        "axis-pair-not-a-collection",
        "surjectivity-of-ghz4",
    ],
)
def test_malformed_algebra_calls_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
