import json
import random
from fractions import Fraction
from itertools import product

import pytest

from sloccgeo.errors import (
    BadReductionError,
    DuplicateIndexError,
    SchemaError,
    SingularOperatorError,
    UnsupportedPrimeError,
    WorkLimitError,
)
from sloccgeo.linalg import Matrix, random_invertible
from sloccgeo.states import (
    MAX_COEFFICIENT_DIGITS,
    MAX_FLATTENING_COST,
    SloccOperator,
    Tensor,
    apply_slocc,
    basis_state,
    flatten_last,
    flattening_image,
    ghz,
    parse_state,
    permute_factors,
    random_state,
    reduced_flattening_image,
    state_hash,
    state_to_json,
    tensor_product,
    w_state,
)

import reference_algebra as ref

GHZ3_DOC = (
    '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"1"},'
    '{"idx":[1,1,1],"c":"1"},{"idx":[2,2,2],"c":"1"}]}'
)


def test_parse_ghz3():
    t = parse_state(GHZ3_DOC)
    assert t == ghz(3, 3)


def test_parse_zero_state():
    t = parse_state('{"n":2,"d":2,"entries":[]}')
    assert all(c == 0 for c in t.coeffs)


def test_parse_out_of_range_index():
    doc = '{"n":3,"d":3,"entries":[{"idx":[0,3,0],"c":"1"}]}'
    with pytest.raises(IndexError):
        parse_state(doc)


def test_parse_duplicate_index():
    doc = '{"n":2,"d":2,"entries":[{"idx":[0,1],"c":"1"},{"idx":[0,1],"c":"2"}]}'
    with pytest.raises(DuplicateIndexError):
        parse_state(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        '{"n":3,"d":3}',
        '{"n":3,"d":3,"entries":[],"extra":1}',
        '{"n":true,"d":3,"entries":[]}',
        '{"n":1,"d":3,"entries":[]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0],"c":"1"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":1}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"1.5"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"1/0"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0]}]}',
    ],
)
def test_parse_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_state(doc)


def test_canonical_serialization_round_trip():
    t = Tensor.from_entries(
        3, 2, {(1, 0, 1): Fraction(-3, 7), (0, 0, 0): 2, (0, 1, 1): 0}
    )
    text = state_to_json(t)
    doc = json.loads(text)
    assert doc["entries"] == [
        {"idx": [0, 0, 0], "c": "2"},
        {"idx": [1, 0, 1], "c": "-3/7"},
    ]
    assert parse_state(text) == t
    assert state_hash(t) == state_hash(parse_state(text))


def test_serialization_round_trip_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coefficient = st.fractions(max_denominator=10**6) | st.just(Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (2, 5)]))
    def check(data, fmt):
        n, d = fmt
        coeffs = data.draw(st.lists(coefficient, min_size=d**n, max_size=d**n))
        t = Tensor(n, d, coeffs)
        assert parse_state(state_to_json(t)) == t

    check()


def test_flatten_ghz3_columns_are_unit_matrices():
    m = flatten_last(ghz(3, 3))
    expected = [[0] * 3 for _ in range(9)]
    for k in range(3):
        expected[k * 3 + k][k] = 1  # vectorized E_kk in column k
    assert m == Matrix(expected)


def test_flatten_separable_single_entry():
    m = flatten_last(basis_state(3, 3, (1, 2, 0)))
    nonzero = [(r, c) for r in range(9) for c in range(3) if m[r, c] != 0]
    assert nonzero == [(1 * 3 + 2, 0)]


def test_flatten_zero():
    z = Tensor(3, 2, [0] * 8)
    assert flatten_last(z) == Matrix.zero(4, 2)


def test_flattening_image_dims():
    assert flattening_image(ghz(3, 3)).rows == 3
    assert flattening_image(basis_state(3, 3, (0, 0, 0))).rows == 1
    assert flattening_image(Tensor(3, 3, [0] * 27)).rows == 0
    assert flattening_image(Tensor(3, 3, [0] * 27)).cols == 9


def test_flattening_image_ghz3_basis():
    sub = flattening_image(ghz(3, 3))
    rows = [[0] * 9 for _ in range(3)]
    for k in range(3):
        rows[k][k * 3 + k] = 1
    assert sub == Matrix(rows, cols=9).row_space()


def test_reduced_flattening_image_matches_entrywise_on_clean_primes():
    t = random_state(3, 3, 5, seed=71)
    sub = flattening_image(t)
    for p in (11, 13):
        try:
            rows = [[ref.reduce_scalar(x, p) for x in row] for row in sub.entries]
        except BadReductionError:
            continue
        entrywise = Matrix(rows, cols=sub.cols, p=p).row_space()
        assert reduced_flattening_image(t, p) == entrywise


def test_tensor_reduce_mod():
    t = Tensor.from_entries(2, 2, {(0, 0): Fraction(1, 2), (1, 1): -1})
    assert t.reduce_mod(5) == [3, 0, 0, 4]
    with pytest.raises(BadReductionError):
        t.scale(Fraction(1, 7)).reduce_mod(7)
    # the modulus is checked before the denominator: 2 divides it here
    for p in (0, 1, 2, 4, 9):
        with pytest.raises(UnsupportedPrimeError):
            t.reduce_mod(p)


def test_reduced_flattening_image_bad_state_denominator():
    t = ghz(3, 3).scale(Fraction(1, 5))
    with pytest.raises(BadReductionError):
        reduced_flattening_image(t, 5)
    assert reduced_flattening_image(t, 7).rows == 3


def test_apply_identity():
    t = random_state(3, 3, 5, seed=1)
    g = SloccOperator([Matrix.identity(3)] * 3)
    assert apply_slocc(t, g) == t


def test_apply_scaling_single_factor():
    t = random_state(3, 2, 5, seed=2)
    factors = [Matrix.identity(2)] * 3
    factors[1] = Matrix([[3, 0], [0, 3]])
    g = SloccOperator(factors)
    assert apply_slocc(t, g) == t.scale(3)


def test_apply_common_permutation_relabels_ghz():
    # the same basis permutation on every factor permutes the diagonal
    # terms among themselves, so the GHZ state is fixed
    perm = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = SloccOperator([perm] * 3)
    assert apply_slocc(ghz(3, 3), g) == ghz(3, 3)


def test_apply_respects_composition():
    rng = random.Random(4)
    for _ in range(5):
        t = random_state(3, 2, 4, seed=rng.randint(0, 10**6))
        g = SloccOperator.random(3, 2, 3, seed=rng.randint(0, 10**6))
        h = SloccOperator.random(3, 2, 3, seed=rng.randint(0, 10**6))
        assert apply_slocc(apply_slocc(t, h), g) == apply_slocc(t, g.compose(h))


def test_apply_singular_operator_rejected():
    # a singular or malformed factor is refused when the operator is built
    factors = [Matrix.identity(2)] * 2 + [Matrix([[1, 1], [1, 1]])]
    with pytest.raises(SingularOperatorError):
        SloccOperator(factors)
    with pytest.raises(ValueError, match="an operator needs at least one factor"):
        SloccOperator([])
    for bad in (
        [Matrix.identity(2), Matrix.identity(3)],
        [Matrix([[1, 0, 0], [0, 1, 0]])],
        [Matrix.identity(2, p=5)],
    ):
        with pytest.raises(ValueError, match="square rational matrices"):
            SloccOperator(bad)


def test_operator_eliminates_each_factor_once(monkeypatch):
    # invertibility is decided when the operator is built, so applying it
    # eliminates nothing
    import sloccgeo.states as states

    calls = []
    integer_rref = states.integer_rref

    def counting(rows, cols):
        calls.append(cols)
        return integer_rref(rows, cols)

    monkeypatch.setattr(states, "integer_rref", counting)
    for n, d in ((3, 3), (4, 2), (5, 2)):
        factors = [random_invertible(d, 3, seed=10 * n + k) for k in range(n)]
        g = SloccOperator(factors)
        assert calls == [d] * n
        calls.clear()
        for seed in (1, 2):
            apply_slocc(random_state(n, d, 5, seed=seed), g)
        assert calls == []


def test_operator_is_a_value():
    factors = [random_invertible(2, 3, seed=k) for k in range(3)]
    g = SloccOperator(factors)
    assert g == SloccOperator(tuple(factors)) and hash(g) == hash(SloccOperator(factors))
    assert g != SloccOperator(factors[::-1])
    assert g.factors == tuple(factors)
    assert repr(g) == f"SloccOperator(factors={tuple(factors)!r})"
    with pytest.raises(AttributeError):
        g.factors = factors[::-1]


def test_flatten_is_linear():
    rng = random.Random(6)
    for _ in range(5):
        s = random_state(3, 2, 5, seed=rng.randint(0, 10**6))
        t = random_state(3, 2, 5, seed=rng.randint(0, 10**6))
        combo = s.scale(3).add(t.scale(-2))
        expected = [
            [3 * a - 2 * b for a, b in zip(ra, rb)]
            for ra, rb in zip(flatten_last(s).entries, flatten_last(t).entries)
        ]
        assert flatten_last(combo) == Matrix(expected)


def test_image_transforms_by_first_factors():
    for seed in (3, 8, 15):
        t = random_state(3, 3, 5, seed=seed)
        g = SloccOperator.random(3, 3, 3, seed=seed + 100)
        k = ref.kron(g.factors[0], g.factors[1])
        moved = Matrix(
            [ref.apply(k, v) for v in flattening_image(t).entries], cols=9
        ).row_space()
        assert flattening_image(apply_slocc(t, g)) == moved


def test_image_dim_is_slocc_invariant():
    for seed in (1, 2, 3):
        t = random_state(4, 2, 5, seed=seed)
        g = SloccOperator.random(4, 2, 3, seed=seed + 50)
        assert flattening_image(apply_slocc(t, g)).rows == flattening_image(t).rows


def test_random_state_reproducible():
    a = random_state(3, 3, 5, seed=42)
    assert a == random_state(3, 3, 5, seed=42)
    assert a != random_state(3, 3, 5, seed=43)
    assert all(-5 <= c <= 5 for c in a.coeffs)


def test_random_state_bound_keeps_states_readable():
    # every coefficient must pass parse_state's digit bound
    widest = 10**MAX_COEFFICIENT_DIGITS - 1
    for bound in (0, -3, widest + 1, 10**105):
        with pytest.raises(ValueError):
            random_state(3, 3, bound, seed=0)
    t = random_state(3, 3, widest, seed=0)
    assert parse_state(state_to_json(t)) == t


def test_sampled_states_always_parse():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        fmt=st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (2, 5)]),
        bound=st.integers(1, 10**MAX_COEFFICIENT_DIGITS - 1),
        seed=st.integers(0, 10**6),
    )
    def check(fmt, bound, seed):
        t = random_state(*fmt, bound, seed)
        assert parse_state(state_to_json(t)) == t

    check()


def test_random_states_are_generic():
    # empirical genericity: the flattening image has full dimension for
    # at least 95% of seeds
    full = sum(
        1 for s in range(200) if flattening_image(random_state(3, 3, 5, seed=s)).rows == 3
    )
    assert full >= 190


def test_random_four_qubit_states_have_nonzero_hyperdet():
    from sloccgeo.invariants import schlaefli_hyperdet

    nonzero = sum(
        1 for s in range(200) if schlaefli_hyperdet(random_state(4, 2, 5, seed=s)) != 0
    )
    assert nonzero >= 180


def test_permute_factors():
    t = random_state(4, 2, 5, seed=9)
    assert permute_factors(permute_factors(t, [1, 0, 2, 3]), [1, 0, 2, 3]) == t
    assert permute_factors(ghz(4, 2), [3, 2, 1, 0]) == ghz(4, 2)
    with pytest.raises(ValueError):
        permute_factors(t, [0, 0, 1, 2])


def test_tensor_product_singlet_bell():
    singlet = Tensor.from_entries(2, 2, {(0, 1): 1, (1, 0): -1})
    prod = tensor_product(singlet, ghz(2, 2))
    assert prod == Tensor.from_entries(
        4, 2,
        {(0, 1, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 0, 0): -1, (1, 0, 1, 1): -1},
    )


def test_w_state_entries():
    t = w_state(3)
    assert t[(0, 0, 1)] == 1 and t[(0, 1, 0)] == 1 and t[(1, 0, 0)] == 1
    assert sum(1 for c in t.coeffs if c != 0) == 3


def test_oversized_format_is_refused_before_allocation():
    with pytest.raises(SchemaError):
        parse_state('{"n": 40, "d": 2, "entries": []}')
    with pytest.raises(SchemaError):
        Tensor.from_entries(40, 2, {})
    with pytest.raises(SchemaError):
        random_state(40, 2, 5, seed=0)
    with pytest.raises(SchemaError):
        random_state(11, 3, 5, seed=0)  # 3^11 = 177147 > 2^16
    with pytest.raises(SchemaError):
        parse_state('{"n": 3, "d": 41, "entries": []}')  # 68921 > 2^16


def test_huge_formats_are_refused_without_printing_them():
    # a message naming a d or n of over 4,300 digits raised ValueError from
    # int-to-string conversion; neither message prints them now
    huge = 10**5000
    for n, d in ((2, huge), (huge, 2), (huge, huge)):
        with pytest.raises(SchemaError, match=r"d\*\*n exceeds the limit"):
            random_state(n, d, 5, seed=0)
        with pytest.raises(SchemaError):
            Tensor.from_entries(n, d, {})
        for nums in ([], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match=rf"expected d\*\*n coefficients, got {len(nums)}"):
                Tensor.from_integers(n, d, nums)
    with pytest.raises(ValueError, match="got 5"):
        Tensor.from_integers(2, 2, [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="got 4"):
        Tensor.from_integers(3, 2, [1, 2, 3, 4])
    assert Tensor.from_integers(2, 2, [1, 2, 3, 4]).nums == (1, 2, 3, 4)


def test_exact_flattening_cost_is_bounded():
    from sloccgeo.invariants import RANK_DEFICIENT, classify

    # (2,64) passes the 2^16 coefficient cap, but its Fraction elimination
    # ran for seconds; it is refused before any elimination now
    with pytest.raises(WorkLimitError):
        classify(random_state(2, 64, 5, seed=1))
    assert flattening_image(ghz(2, 32)).rows == 32
    # every format of the tests, demos and benchmark is inside the bound
    for n, d in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3),
                 (2, 5), (3, 4)):
        assert d ** (n + 1) <= MAX_FLATTENING_COST
    # a rank-deficient state inside the bound keeps its verdict
    verdict = classify(basis_state(3, 3, (0, 0, 0)))
    assert verdict.status == RANK_DEFICIENT and verdict.rank == 1


# Reference copy of the Fraction state path that the integer core replaced
# (Fraction coefficients, Fraction parse, a Fraction RREF and the
# coefficient-by-coefficient SLOCC loop), kept only to check the integer
# core against.  A state here is a tuple of d**n Fractions.


def reference_parse(document):
    doc = json.loads(document)
    n, d = doc["n"], doc["d"]
    coeffs = [Fraction(0)] * d**n
    for entry in doc["entries"]:
        off = 0
        for i in entry["idx"]:
            off = off * d + i
        coeffs[off] = Fraction(entry["c"])
    return tuple(coeffs)


def reference_state_to_json(n, d, coeffs):
    entries = [
        {"idx": list(idx), "c": str(c)}
        for idx, c in zip(product(range(d), repeat=n), coeffs)
        if c != 0
    ]
    return json.dumps({"n": n, "d": d, "entries": entries}, separators=(",", ":"))


def reference_rref(rows, cols):
    """The nonzero rows of the RREF, by Fraction elimination."""
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


def reference_flattening_basis(n, d, coeffs):
    return reference_rref([coeffs[k::d] for k in range(d)], d ** (n - 1))


def reference_apply_slocc(n, d, coeffs, factors):
    """factors: one list of d Fraction rows per axis."""
    for f in factors:
        if len(reference_rref(f, d)) != d:
            raise SingularOperatorError("operator factor is singular")
    coeffs = list(coeffs)
    for axis in range(n):
        a = factors[axis]
        stride = d ** (n - 1 - axis)
        new = [Fraction(0)] * len(coeffs)
        for off in range(len(coeffs)):
            j = (off // stride) % d
            base = off - j * stride
            new[off] = sum(a[j][i] * coeffs[base + i * stride] for i in range(d))
        coeffs = new
    return tuple(coeffs)


REFERENCE_FORMATS = [(2, 2), (3, 2), (3, 3), (4, 2), (2, 3)]


def _rational_coeffs(draw, n, d):
    """Rational coefficients whose flattening has rank at most r, for a
    drawn r in 0..d: the slices beyond the first r are combinations of
    them, and the slices are then shuffled along the last axis."""
    from hypothesis import strategies as st

    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    rank = draw(st.integers(0, d))
    size = d ** (n - 1)
    slices = [draw(st.lists(small, min_size=size, max_size=size)) for _ in range(rank)]
    for _ in range(d - rank):
        weights = draw(st.lists(small, min_size=rank, max_size=rank))
        slices.append(
            [sum((w * s[m] for w, s in zip(weights, slices)), Fraction(0)) for m in range(size)]
        )
    order = draw(st.permutations(range(d)))
    return [slices[order[k]][m] for m in range(size) for k in range(d)]


def _rational_factors(draw, n, d, may_be_singular=True):
    """n rational d x d factors; if may_be_singular and drawn so, one
    factor gets a last row that is a combination of its other rows."""
    from hypothesis import strategies as st

    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    factors = [
        [draw(st.lists(small, min_size=d, max_size=d)) for _ in range(d)] for _ in range(n)
    ]
    if may_be_singular and draw(st.booleans()):
        f = factors[draw(st.integers(0, n - 1))]
        weights = draw(st.lists(small, min_size=d - 1, max_size=d - 1))
        f[-1] = [sum((w * row[c] for w, row in zip(weights, f)), Fraction(0)) for c in range(d)]
    return factors


@pytest.mark.parametrize("fmt", REFERENCE_FORMATS)
def test_integer_core_matches_fraction_reference(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from sloccgeo.linalg import clear_denominators
    from sloccgeo.states import flattening_basis

    n, d = fmt

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        coeffs = _rational_coeffs(data.draw, n, d)
        t = Tensor(n, d, coeffs)
        (nums,), den = clear_denominators([coeffs])
        assert t.coeffs == tuple(coeffs)
        assert (list(t.nums), t.den) == (nums, den)  # lowest terms, den > 0
        doc = reference_state_to_json(n, d, coeffs)
        assert state_to_json(t) == doc
        parsed = parse_state(doc)
        assert parsed == t and parsed.coeffs == reference_parse(doc)
        basis = reference_flattening_basis(n, d, coeffs)
        sub = flattening_image(t)
        assert sub.rows == len(basis)
        assert [list(row) for row in sub.entries] == basis
        rows, den = flattening_basis(t)
        assert (rows, den) == clear_denominators(basis)
        factors = _rational_factors(data.draw, n, d)
        try:
            expected = reference_apply_slocc(n, d, coeffs, factors)
        except SingularOperatorError:
            with pytest.raises(SingularOperatorError):
                SloccOperator([Matrix(f) for f in factors])
            return
        moved = apply_slocc(t, SloccOperator([Matrix(f) for f in factors]))
        (nums,), den = clear_denominators([expected])
        assert moved.coeffs == expected
        assert (list(moved.nums), moved.den) == (nums, den)

    check()


@pytest.mark.parametrize("fmt", [(3, 2), (3, 3), (4, 2)])
def test_apply_respects_composition_property(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    n, d = fmt

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def check(data):
        t = Tensor(n, d, _rational_coeffs(data.draw, n, d))
        drawn = [[Matrix(f) for f in _rational_factors(data.draw, n, d, False)] for _ in "gh"]
        assume(all(f.rank() == d for factors in drawn for f in factors))
        g, h = (SloccOperator(factors) for factors in drawn)
        assert apply_slocc(apply_slocc(t, h), g) == apply_slocc(t, g.compose(h))

    check()


def _doc(n, d, strings):
    entries = [
        {"idx": list(idx), "c": c} for idx, c in zip(product(range(d), repeat=n), strings)
    ]
    return json.dumps({"n": n, "d": d, "entries": entries})


def test_coefficient_digits_are_bounded():
    limit = MAX_COEFFICIENT_DIGITS
    rng = random.Random(3)
    widest = [str(rng.randrange(10 ** (limit - 1), 10**limit)) for _ in range(27)]
    assert parse_state(_doc(3, 3, widest)).nums[0] == int(widest[0])
    # as written: one digit too many, leading zeros not counted
    assert parse_state(_doc(3, 3, ["0" * 200 + "1"] + ["1"] * 26)).nums[0] == 1
    for c in ("1" * (limit + 1), "1/" + "1" * (limit + 1), "-" + "9" * (limit + 1)):
        with pytest.raises(SchemaError):
            parse_state(_doc(3, 3, [c] + ["1"] * 26))
    # over the common denominator: 27 five-digit denominators whose lcm has
    # more than 100 digits, and a 100-digit numerator times a denominator
    primes = [p for p in range(10007, 10500) if all(p % q for q in range(2, 102))][:27]
    with pytest.raises(SchemaError):
        parse_state(_doc(3, 3, [f"1/{p}" for p in primes]))
    with pytest.raises(SchemaError):
        parse_state(_doc(3, 3, ["9" * limit] + ["1/7"] * 26))
    # entries are reduced before the bound is applied: p/p is 1, although
    # the lcm of the written denominators has more than 100 digits
    assert parse_state(_doc(3, 3, [f"{p}/{p}" for p in primes])) == parse_state(
        _doc(3, 3, ["1"] * 27)
    )
