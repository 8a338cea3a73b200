import re
from fractions import Fraction
from unittest import mock

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
    _rotation_models,
    model_mod_p,
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
    four_qubit_generic_family,
    ghz,
    random_state,
    reduced_flattening_image,
    w_state,
)
from sloccgeo.zalgebra import (
    MAX_PROFILE_WIDTH,
    ProductMapResult,
    _quotient_dims,
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
    hilbert = {(3, 3): (quadratic_hilbert, quadratic_expected_dims),
               (4, 2): (cubic_hilbert, cubic_expected_dims)}
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
                hilbert[state.n, state.d][0](state, p, k_max)
            continue
        assert _quotient_dims(state, p, k_max) == expected, (state.n, state.d, p, k_max)
        compared += 1
    assert compared > len(cases) // 2
    # the public profile refuses those primes: each divides a slice
    # discriminant of the smooth state, so the reduced curve is singular
    for state, p, k_max in off_target:
        profile, series = hilbert[state.n, state.d]
        assert _quotient_dims(state, p, k_max) != series(k_max)
        message = f"^p={p} divides a slice discriminant: the reduced curve is singular$"
        with pytest.raises(BadReductionError, match=message) as info:
            profile(state, p, k_max)
        assert info.value.p == p
    # GHZ's discriminants vanish, so its off-target profile is reported
    assert quadratic_hilbert(*ghz_case).dims == (1, 3, 6, 12, 24, 48)


def test_quotient_recursion_matches_dense_rank_at_every_degree(ghz3_qutrit):
    # the top degree is ranked only and the pushes through mu_j below the
    # relation degree are skipped, so each k_max ends the recursion at a
    # different degree: every k_max from 0 to the width bound must give
    # the dense dimensions up to it, GHZ, the drop case and the three
    # off-target (state, prime) pairs included
    tops = {(3, 3): 5, (4, 2): 8}
    cases = [(random_state(3, 3, 5, seed=3), 11), (random_state(4, 2, 5, seed=3), 11),
             (random_state(3, 3, 5, seed=30), 7), (random_state(3, 3, 5, seed=13), 11),
             (random_state(4, 2, 5, seed=33), 5), (ghz3_qutrit, 13),
             (Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11}), 13)]
    for state, p in cases:
        top = tops[state.n, state.d]
        dense = dense_profile_dims(state, p, top)
        for k_max in range(top + 1):
            assert _quotient_dims(state, p, k_max) == dense[: k_max + 1], (state.n, p, k_max)


def test_off_target_profiles_come_only_from_singular_reductions():
    # a prime is good for a state when it divides no numerator or
    # denominator of its slice discriminants and not its denominator; at a
    # good prime the profile must be on target (measured on seeds 0-59 of
    # each format at p = 5..23 to k_max 5 and 8: all 725 profiles at good
    # primes on target, 29 of the 115 at bad primes off target).  Every
    # command reads one filing of the prime: an off-target profile comes
    # only from a prime the scan excludes, a singular reduction, and is
    # refused as one.  The roundtrip and, for (4,2), the section product
    # either pass or are refused, naming the singular reduced curve exactly
    # when the scan excludes the prime
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

    from sloccgeo.invariants import slice_discriminants

    hilbert = {(3, 3): (quadratic_hilbert, quadratic_expected_dims, 5),
               (4, 2): (cubic_hilbert, cubic_expected_dims, 8)}
    seen = set()

    def refusal(call):
        """None when call() passes, else whether its refusal names the
        singular reduced curve."""
        try:
            call()
        except BadReductionError as exc:
            assert str(exc).endswith("divides a slice discriminant: the reduced curve is singular")
            return True
        except InsufficientPointsError:
            return False
        return None

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fmt=st.sampled_from(((3, 3), (4, 2))), seed=st.integers(0, 59),
           p=st.sampled_from((5, 7, 11, 13, 17, 19, 23)))
    @example(fmt=(3, 3), seed=30, p=7)
    @example(fmt=(3, 3), seed=13, p=11)
    @example(fmt=(4, 2), seed=33, p=5)
    def check(fmt, seed, p):
        profile, series, k_max = hilbert[fmt]
        t = random_state(*fmt, 5, seed)
        discs = slice_discriminants(t)
        assert all(discs)
        try:
            dims = _quotient_dims(t, p, k_max)
        except BadReductionError:
            assume(False)
        excluded = p in smoothness_scan(t, (p,)).excluded_primes
        good = t.den % p and all(x.numerator % p and x.denominator % p for x in discs)
        if dims == series(k_max):
            assert profile(t, p, k_max).dims == dims
        else:
            assert not good, f"off-target profile {dims} of seed {seed} at the good prime {p}"
            assert excluded, f"off-target profile {dims} of seed {seed} at the used prime {p}"
            assert refusal(lambda: profile(t, p, k_max)) is True
        checks = [lambda: roundtrip_check(t, p)]
        if fmt == (4, 2):
            checks.append(lambda: multiplication_surjectivity(t, (0, 1), p))
        for call in checks:
            refused = refusal(call)
            assert refused in (None, excluded), (fmt, seed, p, refused, excluded)
            seen.add(("refused", refused, excluded))
        seen.add((bool(good), dims == series(k_max)))

    check()
    assert {(True, True), (False, False), ("refused", True, True),
            ("refused", False, False)} <= seen, seen


def test_every_command_files_its_prime_through_one_filing(monkeypatch, family_1235):
    # geometry._file_primes is the one filing: the sweeps file their primes
    # through it (geometry._file_sweep, after their budget check), and a
    # graded check that fails files its one prime through it, once, before
    # its own error; a check that passes files none.  Only geometry binds
    # it, so counting there counts every call.
    # zalgebra reads the filing through geometry and imports nothing from
    # invariants
    import ast
    import inspect

    import sloccgeo.geometry
    import sloccgeo.invariants
    import sloccgeo.zalgebra

    filing, calls = sloccgeo.geometry._file_primes, []

    def counted(t, primes, *args, **kwargs):
        calls.append(tuple(primes))
        return filing(t, primes, *args, **kwargs)

    assert not hasattr(sloccgeo.invariants, "_file_primes")
    monkeypatch.setattr(sloccgeo.geometry, "_file_primes", counted)
    t30, t4, t42 = random_state(3, 3, 5, 30), random_state(3, 3, 5, 4), random_state(4, 2, 5, 1)
    filed_once = {
        "classify's vote": (lambda: classify(ghz(3, 3)), None),
        "smoothness_scan": (lambda: smoothness_scan(t30, (11, 7)), None),
        "off-target profile": (lambda: quadratic_hilbert(t30, 7, 5), BadReductionError),
        "refused roundtrip": (lambda: roundtrip_check(t4, 7), InsufficientPointsError),
        "refused section product": (
            lambda: multiplication_surjectivity(t42, (0, 1), 23), BadReductionError),
    }
    for name, (call, error) in filed_once.items():
        classify.cache_clear()
        calls.clear()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert len(calls) == 1, (name, calls)
    assert calls == [(23,)]
    passing = {
        "profile": lambda: quadratic_hilbert(t30, 11, 5).matches(),
        "roundtrip": lambda: roundtrip_check(t4, 11),
        "section product": lambda: multiplication_surjectivity(family_1235, (0, 1), 13).rank == 4,
    }
    for name, call in passing.items():
        calls.clear()
        assert call() is True and calls == [], (name, calls)
    # a state outside the curve formats has no slice discriminant, so its
    # refusal files nothing either
    calls.clear()
    with pytest.raises(InsufficientPointsError):
        roundtrip_check(w_state(5), 5)
    assert calls == []
    classify.cache_clear()
    tree = ast.parse(inspect.getsource(sloccgeo.zalgebra))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not any(name and name.split(".")[-1] == "invariants" for name in imported), imported


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
        roundtrip_check(drop, 11)


def test_reduced_models_keep_their_error_order_without_a_model_over_q(monkeypatch):
    # one state at a time (geometry._rotation_models, the one entry of
    # cyclic_relations, roundtrip_check and multiplication_surjectivity):
    # rotation 0 of t has full rank over Q and fails first at p = 7, which
    # divides the denominator; rotation 1 is rank-deficient over Q.  The
    # errors come in one order, and no basis over Q is built:
    # WorkLimitError, then RankDeficientError of any rotation, then the
    # reduction's own error
    import sloccgeo.geometry
    import sloccgeo.states

    def refused(t):
        raise AssertionError("built the flattening's basis over Q")

    monkeypatch.setattr(sloccgeo.geometry, "flattening_basis", refused)
    monkeypatch.setattr(sloccgeo.states, "flattening_basis", refused)
    t = Tensor.from_entries(3, 3, {(0, k, k): Fraction(1, 7) for k in range(3)})
    assert reduced_flattening_image(t, 11).rows == 3
    for p in (7, 11, 4):  # rotation 1 fails its reduction at any p
        for call in (lambda: _rotation_models(t, p, 3), lambda: cyclic_relations(t, p)):
            with pytest.raises(RankDeficientError) as info:
                call()
            assert (info.value.dim, info.value.expected) == (1, 3)
    # one turn ranks rotation 0 alone, of full rank: the reduction's error
    for call in (lambda: _rotation_models(t, 7, 1), lambda: roundtrip_check(t, 7)):
        with pytest.raises(BadReductionError, match="^denominator divisible by 7 for 1/7$"):
            call()
    # every rotation of drop has full rank over Q: the reduction names the
    # error, after one turn or all three
    drop = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 7})
    for state, message in (
        (drop, "flattening rank drops modulo 7"),
        (drop.scale(Fraction(1, 7)), "denominator divisible by 7 for 1/7"),
    ):
        for turns in (1, 3):
            with pytest.raises(BadReductionError) as info:
                _rotation_models(state, 7, turns)
            assert (str(info.value), info.value.p) == (message, 7)
    with pytest.raises(UnsupportedPrimeError):
        _rotation_models(drop, 4, 3)
    # the cost check comes before either
    monkeypatch.setattr(sloccgeo.states, "MAX_FLATTENING_COST", 16)
    for state, p in ((t, 7), (t, 11), (drop, 7)):
        with pytest.raises(WorkLimitError):
            _rotation_models(state, p, 3)


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
        fast = _outcome(lambda: _rotation_models(t, p, 1)[0])
        assert fast == _outcome(lambda: model_mod_p(variety_from_state(t), p))
        relations = _outcome(lambda: cyclic_relations(t, p))
        assert relations == _outcome(lambda: ref.cyclic_relations(t, p))
        seen.update((fast[0], relations[0]))

    check()
    assert {"ok", RankDeficientError, BadReductionError} <= seen


def _rotations_reduced_on_their_own(t, p):
    """The relation spaces of cyclic_relations, or its error as _outcome
    gives it, from each rotation built by permuting the factors
    (ref.permute_factors): a rotation whose flattening has rank below d over
    Q (ref.rref_rows) names the error first, and then, rotation by rotation,
    a reduction (reduced_flattening_image) that fails or drops rank."""
    n, d = t.n, t.d
    rotations = [ref.permute_factors(t, [(k - j) % n for k in range(n)]) for j in range(n)]
    for r in rotations:
        rank = len(ref.rref_rows([r.coeffs[k::d] for k in range(d)], d ** (n - 1)))
        if rank < d:
            return RankDeficientError, f"flattening image has dimension {rank}, expected {d}", None
    spaces = []
    for r in rotations:
        try:
            space = reduced_flattening_image(r, p)
        except BadReductionError as exc:
            return BadReductionError, str(exc), exc.p
        if space.rows < d:
            return BadReductionError, f"flattening rank drops modulo {p}", p
        spaces.append(space.entries)
    return "ok", spaces


def test_cyclic_relations_match_each_rotation_reduced_on_its_own():
    # cyclic_relations reduces the state once and rotates its residues; the
    # reference builds each rotation by permuting the factors
    # (ref.permute_factors), ranks it over Q and reduces it on its own
    # (_rotations_reduced_on_their_own): the same relation spaces, or the
    # same error type, message and prime.  The draws cover GHZ, scaled and
    # rational states, denominators divisible by p, rank drops mod p (the
    # last slice congruent to the first) and a rank-deficient rotation
    # (e_0 (x) s, rotated)
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
        expected = _rotations_reduced_on_their_own(t, p)
        if expected[0] == "ok":
            rotations = [ref.permute_factors(t, [(k - j) % n for k in range(n)]) for j in range(n)]
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


def test_section_products_match_the_listed_points(singlet_times_bell, family_1235):
    # multiplication_surjectivity lists the pair's determinantal curve and
    # ranks one row at a time; the reference walks every F_p-point, projects
    # it and ranks a Matrix of the index-loop rows (ref.section_product):
    # the same result, or the same refusal, type, message and prime, on
    # drawn (4,2) states, GHZ(4,2), W(4), family members and SLOCC images
    # of singlet (x) Bell, at p = 5..31, with pairs given in either order
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        kind=st.sampled_from(("random", "singlet (x) Bell", "GHZ", "W", "family")),
        pair=st.sampled_from(((0, 1), (0, 2), (1, 2), (1, 0), (2, 1))),
        p=st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31)),
    )
    def check(data, kind, pair, p):
        t = _drawn_42(data, kind, p, singlet_times_bell)
        got = _outcome(lambda: multiplication_surjectivity(t, pair, p))
        assert got == _outcome(lambda: ref.section_product(t, pair, p))
        seen.add(got[0] if got[0] != "ok" else (kind, got[1].rank == 4))

    check()
    assert {("random", True), ("singlet (x) Bell", False)} <= seen, seen
    assert {InsufficientPointsError, BadReductionError} <= seen, seen
    # the prefix budget refuses the same primes with the same message, and
    # the checks before it come in the same order
    for t, p in ((family_1235, 449), (family_1235.scale(Fraction(1, 449)), 449),
                 (family_1235, 1009), (basis_state(4, 2, (0, 0, 0, 0)), 449)):
        got = _outcome(lambda: multiplication_surjectivity(t, (1, 2), p))
        assert got[0] in (WorkLimitError, BadReductionError, RankDeficientError), got
        assert got == _outcome(lambda: ref.section_product(t, (1, 2), p))


def _drawn_42(data, kind, p, singlet_times_bell):
    """A (4,2) state of the given kind, drawn from ``data``: integer
    entries in [-4, 4] over a denominator of 1, 2 or p, GHZ(4,2), W(4) or
    singlet (x) Bell under a drawn SLOCC operator (the identity when the
    seed is 0), or a member of the generic family with small parameters."""
    from hypothesis import strategies as st

    if kind == "random":
        nums = data.draw(st.lists(st.integers(-4, 4), min_size=16, max_size=16))
        return Tensor.from_integers(4, 2, nums, data.draw(st.sampled_from((1, 2, p))))
    if kind == "family":
        params = data.draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
        return four_qubit_generic_family(*params)
    t = {"GHZ": ghz(4, 2), "W": w_state(4), "singlet (x) Bell": singlet_times_bell}[kind]
    seed = data.draw(st.integers(0, 10**6))
    return apply_slocc(t, SloccOperator.random(4, 2, 2, seed)) if seed else t


def test_projected_points_are_the_pair_curve_points(singlet_times_bell):
    # the projection of X(F_p) onto a pair (a, b) is the set of F_p-points
    # of the pair's determinantal curve: the 2 x 2 system in the third
    # group is singular over F_p exactly when it has an F_p kernel vector.
    # Checked at every pair against the walk, on the states of the section
    # products' reference test, at primes where the pair's form vanishes
    # identically (all of P^1 x P^1) and at singular reductions
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from sloccgeo.geometry import CURVE_AXES, projection_coefficients
    from sloccgeo.zalgebra import _projected_points

    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        kind=st.sampled_from(("random", "singlet (x) Bell", "GHZ", "W", "family")),
        p=st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31)),
    )
    def check(data, kind, p):
        t = _drawn_42(data, kind, p, singlet_times_bell)
        try:
            (model,) = _rotation_models(t, p, 1)
        except SloccGeoError:
            return
        points = enumerate_points(model, p)
        for a, b in CURVE_AXES[(4, 2)]:
            listed = _projected_points(model, (a, b), p)
            assert len(set(listed)) == len(listed)
            assert set(listed) == {(pt.coords[a], pt.coords[b]) for pt in points}
            if not any(c % p for c in projection_coefficients(model.rows, 4, 2, (a, b))):
                assert len(listed) == (p + 1) ** 2
                seen.add("vanishes")
        report = smoothness_scan(t, (p,))
        if report.witnesses or report.excluded_primes:
            seen.add("singular")
        seen.add(kind)

    check()
    assert {"vanishes", "singular", "random", "GHZ", "W", "singlet (x) Bell", "family"} <= seen, seen


def test_section_products_neither_walk_nor_re_eliminate(monkeypatch, family_1235):
    # the section product lists one determinantal curve and walks no
    # point; neither point check eliminates its basis again per point: the
    # section product runs no elimination, the relations one, of the forms,
    # and each check ranks its rows in one call of linalg._echelon_rank,
    # which reads each point's row once and stops at the check's ceiling
    import sloccgeo.zalgebra

    calls, read = [], []

    def counted(name):
        fn = getattr(sloccgeo.zalgebra, name)

        def counting(*args, **kwargs):
            calls.append(name)
            result = fn(*args, **kwargs)
            if name == "_echelon_rank":
                read.append((args[2], result[1]))
            return result

        monkeypatch.setattr(sloccgeo.zalgebra, name, counting)

    for name in ("_walk", "projection_coefficients", "_eliminate", "_echelon_rank"):
        counted(name)
    for pair in ((0, 1), (0, 2), (1, 2)):
        calls.clear(), read.clear()
        result = multiplication_surjectivity(family_1235, pair, 13)
        assert result.rank == 4
        assert calls.count("projection_coefficients") == 1
        assert "_walk" not in calls and "_eliminate" not in calls
        assert calls.count("_echelon_rank") == 1
        ((ceiling, rows),) = read
        assert ceiling == 4 and 4 <= rows <= result.points_used
    t = random_state(4, 2, 5, 1)
    model = model_mod_p(variety_from_state(t), 13)
    total = len(enumerate_points(model, 13))
    calls.clear(), read.clear()
    assert relations_from_points(model, 13) == reduced_flattening_image(t, 13)
    assert calls == ["_walk", "_eliminate", "_echelon_rank"]
    ((ceiling, rows),) = read
    assert ceiling == 8 - 2 and 6 <= rows < total


def test_section_products_follow_the_party_permutations(singlet_times_bell):
    # permuting the first three factors by sigma moves the model's group a
    # to group sigma[a] (ref.permute_factors; the fourth factor spans the
    # forms), so the product map on (a, b) is the one on
    # sorted((sigma[a], sigma[b])) of the permuted state: the same rank and
    # points, or the same refusal.  This ties the three pair layouts of the
    # determinantal curve together
    from itertools import permutations

    states = [random_state(4, 2, 5, s) for s in range(31)]
    states += [ghz(4, 2), w_state(4), singlet_times_bell,
               apply_slocc(singlet_times_bell, SloccOperator.random(4, 2, 2, 11))]
    outcomes = set()
    for t in states:
        for sigma in permutations(range(3)):
            moved = ref.permute_factors(t, [*sigma, 3])
            for p in (5, 7, 11, 13, 17, 19, 23):
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    image = tuple(sorted((sigma[a], sigma[b])))
                    got = _outcome(lambda: multiplication_surjectivity(t, (a, b), p))
                    want = _outcome(lambda: multiplication_surjectivity(moved, image, p))
                    if got[0] == "ok":
                        assert want[0] == "ok" and want[1].axis_pair == image
                        assert (got[1].rank, got[1].points_used) == (want[1].rank, want[1].points_used)
                        outcomes.add(got[1].rank)
                    else:
                        assert got == want
                        outcomes.add(got[0])
    assert {4, 3, InsufficientPointsError, BadReductionError} <= outcomes, outcomes


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
    # each point's row joins a row-echelon basis of the rows so far by one
    # reduction against it (linalg._echelon_rank), and the walk stops once
    # the rank reaches width - rank(model rows) = 9 - 3: the one elimination
    # is of the 3 model rows, and the walk of a smooth state ends before
    # its last point.  The result is still the reduced flattening image
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
    assert heights == [3]


def check_relations_against_reference(model, p):
    """relations_from_points against the reference evaluation at every
    enumerated point and the reference span of the model's rows: below the
    ceiling width - rank(rows) it refuses with the same
    InsufficientPointsError message, rank, ceiling and full point count;
    at the ceiling the reference kernel is the rows' canonical span, and
    relations_from_points returns that span.  True when a span was
    compared.  The reference lists every point, also past the points a
    walk may list (``geometry.PREFIX_BUDGET``): a zero (3,3) model at
    p = 23 has 553**2 = 305,809, while relations_from_points, under the
    budget, reaches its ceiling 9 within the first three fibres."""
    import sloccgeo.geometry

    with mock.patch.object(sloccgeo.geometry, "PREFIX_BUDGET", 553**2):
        points = [pt.coords for pt in enumerate_points(model, p)]
    evaluation = ref.monomial_rows(points, model.d, model.groups, p)
    kernel = ref.kernel_mod_p(evaluation)
    span, forms = ref.rref_mod_p(Matrix(model.rows, p=p))
    rank, ceiling = evaluation.cols - len(kernel), evaluation.cols - span
    if rank < ceiling:
        message = (f"evaluation rank {rank} below generic target {ceiling} at p={p} "
                   f"from {len(points)} F_p-points")
        with pytest.raises(InsufficientPointsError, match=f"^{re.escape(message)}$"):
            relations_from_points(model, p)
        return False
    assert kernel == forms.entries[:span], (model.rows, p)
    assert relations_from_points(model, p).entries == kernel, (model.rows, p)
    return True


def test_relations_stop_early_with_the_reference_kernel():
    # the walk stops once the evaluation rank reaches the ceiling
    # width - rank(model rows), and refuses below it; on drawn states and
    # on hand-built F_p models whose rows repeat, depend on each other or
    # are one form, the refusal and the result agree with the reference
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
    # [0:*:*] x [0:*:*] reach the ceiling 9 - 4 = 5, so the points give back
    # the four forms, although 5 is below the former target k*d = 6
    rows = [[1 if i == j else 0 for i in range(9)] for j in range(4)]
    model = VarietyModel(3, 3, rows, 1, 7)
    assert len(enumerate_points(model, 7)) == 113
    assert check_relations_against_reference(model, 7)
    assert relations_from_points(model, 7).entries == tuple(map(tuple, rows))
    # W(5) stays at rank 11 below the ceiling 16 - 2 = 14, and (3,2) seed 1
    # has no F_p-point at p = 7: both refuse, after the whole walk
    for t, p in ((w_state(5), 5), (random_state(3, 2, 5, 1), 7)):
        assert not check_relations_against_reference(model_mod_p(variety_from_state(t), p), p)


def test_roundtrip_is_true_exactly_at_the_ceiling():
    # W(5)'s points reach rank 11 at each prime, against the ceiling 14;
    # the former target k*d = 8 took the 5-dimensional kernel of that rank
    # for a reconstruction of the 2 forms and returned False
    for p in (5, 7, 11, 13):
        with pytest.raises(InsufficientPointsError,
                           match=rf"^evaluation rank 11 below generic target 14 at p={p} from "):
            roundtrip_check(w_state(5), p)
    # a (3,2) model's ceiling is 4 - 2 = 2, below the former target 4,
    # which refused every (3,2) state: two rational points of seed 1 give
    # back both forms at p = 5 and 11, and at 7 and 13 it has none
    t = random_state(3, 2, 5, seed=1)
    for p in (5, 11):
        assert roundtrip_check(t, p) is True
    for p in (7, 13):
        with pytest.raises(InsufficientPointsError,
                           match=rf"^evaluation rank 0 below generic target 2 at p={p} "
                                 r"from 0 F_p-points$"):
            roundtrip_check(t, p)


def test_roundtrip_returns_true_or_refuses():
    # a roundtrip that returns has reached the ceiling, where the points
    # give back exactly the forms, so it is True or a typed refusal
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    refusals = (InsufficientPointsError, BadReductionError, RankDeficientError)
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), fmt=st.sampled_from(((3, 3), (4, 2), (5, 2), (3, 4))),
           p=st.sampled_from((5, 7, 11, 13)))
    def check(data, fmt, p):
        n, d = fmt
        coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=d**n, max_size=d**n))
        try:
            outcome = roundtrip_check(Tensor(n, d, coeffs), p)
        except refusals as exc:
            outcome = type(exc).__name__
        assert outcome in (True, *(e.__name__ for e in refusals)), outcome
        seen.add((fmt, outcome))

    check()
    assert {fmt for fmt, outcome in seen if outcome is True} == {(3, 3), (4, 2), (5, 2), (3, 4)}


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
