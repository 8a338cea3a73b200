import json
import random
from fractions import Fraction
from itertools import product

import pytest

from sloccgeo.errors import (
    BadReductionError,
    DuplicateIndexError,
    IndexRangeError,
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
    _rotate,
    apply_slocc,
    basis_state,
    flatten_last,
    flattening_image,
    ghz,
    parse_state,
    random_state,
    reduced_flattening_image,
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
        # the whole string must match, in ASCII digits: no trailing newline,
        # no Arabic-Indic or fullwidth digits
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"5\\n"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"\\u0663"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0],"c":"\\uff15"}]}',
        '{"n":3,"d":3,"entries":[{"idx":[0,0,0]}]}',
    ],
)
def test_parse_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_state(doc)


def test_parse_errors_echo_a_bounded_excerpt():
    # each of these malformed values used to be echoed whole: a message of
    # 1,000,052, 688,940, 777,830 and 64,059 characters
    cases = [
        ([0, 0], "c" * 1_000_000, SchemaError, "coefficient 'ccc"),
        ([0, 0], list(range(100_000)), SchemaError, "coefficient [0, 1, 2"),
        ([0, 0], {f"k{i}": i for i in range(50_000)}, SchemaError, "coefficient {'k0': 0"),
        ([int("9" * 4000)] * 16, "1", IndexRangeError, "index [999"),
    ]
    for idx, c, error, prefix in cases:
        doc = {"n": len(idx), "d": 2, "entries": [{"idx": idx, "c": c}]}
        with pytest.raises(error) as info:
            parse_state(json.dumps(doc))
        message = str(info.value)
        assert message.startswith(prefix) and len(message) <= 400
    # short values are still echoed whole
    with pytest.raises(SchemaError, match=r"^coefficient \['1'\] is not a decimal-free"):
        parse_state('{"n":2,"d":2,"entries":[{"idx":[0,0],"c":["1"]}]}')
    with pytest.raises(IndexRangeError, match=r"^index \[0, 2\] out of range for d=2$"):
        parse_state('{"n":2,"d":2,"entries":[{"idx":[0,2],"c":"1"}]}')


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
    nonzero = [(r, c) for r in range(9) for c in range(3) if m.entries[r][c] != 0]
    assert nonzero == [(1 * 3 + 2, 0)]


def test_flatten_zero():
    z = Tensor(3, 2, [0] * 8)
    assert flatten_last(z) == Matrix([[0, 0]] * 4)


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
    assert sub == Matrix(ref.rref_rows(rows, 9), cols=9)


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
    g = SloccOperator([ref.identity(3)] * 3)
    assert apply_slocc(t, g) == t


def test_apply_scaling_single_factor():
    t = random_state(3, 2, 5, seed=2)
    factors = [ref.identity(2)] * 3
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
        gh = SloccOperator(tuple(map(ref.matmul, g.factors, h.factors)))
        assert apply_slocc(apply_slocc(t, h), g) == apply_slocc(t, gh)


def test_apply_singular_operator_rejected():
    # a singular or malformed factor is refused when the operator is built
    factors = [ref.identity(2)] * 2 + [Matrix([[1, 1], [1, 1]])]
    with pytest.raises(SingularOperatorError):
        SloccOperator(factors)
    with pytest.raises(ValueError, match="an operator needs at least one factor"):
        SloccOperator([])
    for bad in (
        [ref.identity(2), ref.identity(3)],
        [Matrix([[1, 0, 0], [0, 1, 0]])],
        [ref.identity(2, p=5)],
    ):
        with pytest.raises(ValueError, match="square rational matrices"):
            SloccOperator(bad)


def test_operator_eliminates_each_factor_once(monkeypatch):
    # invertibility is decided when the operator is built, so applying it
    # eliminates nothing
    import sloccgeo.states as states

    calls = []
    bareiss = states._bareiss

    def counting(rows, cols):
        calls.append(cols)
        return bareiss(rows, cols)

    monkeypatch.setattr(states, "_bareiss", counting)
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
        combo = Tensor(3, 2, [3 * a - 2 * b for a, b in zip(s.coeffs, t.coeffs)])
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
        moved = ref.rref_rows([ref.apply(k, v) for v in flattening_image(t).entries], 9)
        assert flattening_image(apply_slocc(t, g)) == Matrix(moved, cols=9)


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


def _parse_outcome(parse, document):
    """What parse makes of the document: ("ok", Tensor), or the type and
    message of what it raised."""
    try:
        return "ok", parse(document)
    except Exception as exc:  # every outcome is compared, bare errors too
        return type(exc), str(exc)


#: Documents at the edges of the canonical form, each compared below as
#: str and as bytes: formats below 2 or over MAX_COEFFICIENTS, whitespace
#: that JSON does not allow, "-0", leading zeros, widths around
#: MAX_COEFFICIENT_DIGITS and indices that state_to_json never writes.
EDGE_DOCUMENTS = [
    '{"n":1,"d":2,"entries":[]}',
    '{"n":2,"d":1,"entries":[]}',
    '{"n":17,"d":2,"entries":[]}',
    '{"n":2,"d":300,"entries":[]}',
    '{"n":99,"d":999,"entries":[]}',
    '{"n":2,"d":2,"entries":[]}\f',
    '\v{"n":2,"d":2,"entries":[]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,0],"c":"-0"},{"idx":[1,1],"c":"007"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,0],"c":"' + "9" * 100 + '"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,0],"c":"-' + "9" * 100 + '"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,0],"c":"0' + "9" * 100 + '"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,0],"c":"' + "9" * 101 + '"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,1],"c":"1"},{"idx":[0,1],"c":"1"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,01],"c":"1"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,,1],"c":"1"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,2],"c":"1"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,1,0],"c":"1"}]}',
    '{"n":2,"d":2,"entries":[{"idx":[0,1],"c":"1"},]}',
]


def test_canonical_reader_agrees_with_the_checked_path():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    import sloccgeo.states as states

    def same_outcome(document):
        assert _parse_outcome(parse_state, document) == _parse_outcome(
            states._parse_checked, document
        )

    for text in EDGE_DOCUMENTS:
        same_outcome(text)
        same_outcome(text.encode())

    digits = MAX_COEFFICIENT_DIGITS
    small = st.integers(-(10**6), 10**6).map(str)
    # "-0", leading zeros, numerators of 100 and 101 digits, and num/den
    special = st.builds(
        lambda sign, zeros, num, den: f"{sign}{zeros}{num}{den}",
        st.sampled_from(["", "-"]),
        st.sampled_from(["", "0", "00", "0" * (digits + 1)]),
        st.sampled_from([0, 7, 10 ** (digits - 1), 10**digits - 1, 10**digits]),
        st.sampled_from(["", "", "/1", "/7", "/12", "/0", "/07", "/" + "9" * digits,
                         "/" + "1" * (digits + 1)]),
    )
    padding = st.text(" \t\n\r\f\v\u00a0", max_size=3)

    def malformed(doc):
        """The JSON-level mutations of test_malformed_documents_exit_2."""
        entry = doc["entries"][0] if doc["entries"] else {"idx": [], "c": "1"}
        return st.one_of(
            st.sampled_from(["n", "d", "entries"]).map(lambda k: ("drop", doc, k)),
            st.just(("set", doc, "extra", 1)),
            st.tuples(st.just("set"), st.just(doc), st.sampled_from(["n", "d"]),
                      st.sampled_from([True, 1.0, "3", None, [3], 0, 1, -3, 17, 300])),
            st.tuples(st.just("set"), st.just(doc), st.just("entries"),
                      st.sampled_from([{}, "x", 3])),
            st.sampled_from(["idx", "c"]).map(lambda k: ("drop", entry, k)),
            st.just(("set", entry, "extra", 0)),
            st.tuples(st.just("set"), st.just(entry), st.just("idx"),
                      st.sampled_from(["000", 0, {"0": 0}, [0, 0], [0] * 6, [0, True],
                                       [0, 0.0], [0, 9], [-1, 0], [1] * 5])),
            st.tuples(st.just("set"), st.just(entry), st.just("c"),
                      st.sampled_from([True, 1, 1.0, None, ["1"], "1.5", " 1", "+1", "1_0",
                                       "\u0663", "5\n", "", "-"])),
        )

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        fmt=st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (2, 5)]),
        form=st.sampled_from(["canonical", "canonical", "canonical", "spaced", "indented",
                              "reordered", "newline", "padded", "duplicate", "malformed",
                              "leading-zero index", "empty index slot", "huge n"]),
        encoding=st.sampled_from(["str", "str", "str", "bytes", "bytes", "bytearray",
                                  "bom-str", "bom-bytes", "bad-utf8"]),
    )
    def check(data, fmt, form, encoding):
        n, d = fmt
        indices = sorted(data.draw(
            st.lists(st.sampled_from(list(product(range(d), repeat=n))), unique=True)
        ))
        entries = [{"idx": list(idx), "c": data.draw(small)} for idx in indices]
        if entries and data.draw(st.booleans()):
            data.draw(st.sampled_from(entries))["c"] = data.draw(special)
        doc = {"n": n, "d": d, "entries": entries}
        if form == "reordered":
            doc["entries"] = data.draw(st.permutations(entries))
        elif form == "duplicate" and entries:
            entries.append(dict(data.draw(st.sampled_from(entries))))
        elif form == "malformed":
            op, target, key, *value = data.draw(malformed(doc))
            if op == "drop":
                del target[key]
            else:
                target[key] = value[0]
        compact = json.dumps(doc, separators=(",", ":"))
        text = {
            "spaced": lambda: json.dumps(doc),
            "indented": lambda: json.dumps(doc, indent=1),
            "newline": lambda: compact + "\n",
            "padded": lambda: data.draw(padding) + compact + data.draw(padding),
            "leading-zero index": lambda: compact.replace('"idx":[', '"idx":[0', 1),
            "empty index slot": lambda: compact.replace('"idx":[', '"idx":[,', 1),
            "huge n": lambda: compact.replace(f'"n":{n}', '"n":' + "1" * 5000, 1),
        }.get(form, lambda: compact)()
        same_outcome({
            "str": lambda: text,
            "bytes": lambda: text.encode(),
            "bytearray": lambda: bytearray(text.encode()),
            "bom-str": lambda: "\ufeff" + text,
            "bom-bytes": lambda: b"\xef\xbb\xbf" + text.encode(),
            "bad-utf8": lambda: text.encode()[:-1] + b"\xff" + text.encode()[-1:],
        }[encoding]())

    check()


def test_canonical_documents_are_read_in_one_pass(monkeypatch):
    import sloccgeo.states as states

    def refuse(document):
        raise AssertionError("a canonical document reached the checked path")

    monkeypatch.setattr(states, "_parse_checked", refuse)
    for fmt in [(2, 2), (3, 3), (4, 2), (5, 2), (2, 5)]:
        t = random_state(*fmt, 5, 1)
        text = state_to_json(t)
        assert parse_state(text) == t
        assert parse_state(" " + text + "\r\n") == t
        assert parse_state(text.encode()) == t
    assert parse_state('{"n":2,"d":2,"entries":[]}') == Tensor.from_integers(2, 2, [0] * 4)


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
    assert ref.permute_factors(ref.permute_factors(t, [1, 0, 2, 3]), [1, 0, 2, 3]) == t
    assert ref.permute_factors(ghz(4, 2), [3, 2, 1, 0]) == ghz(4, 2)
    with pytest.raises(ValueError):
        ref.permute_factors(t, [0, 0, 1, 2])


@pytest.mark.parametrize("fmt", [(2, 5), (3, 3), (3, 4), (4, 2), (5, 2)])
def test_rotate_moves_the_first_factor_last(fmt):
    n, d = fmt
    t = random_state(n, d, 5, seed=n * d)
    rotated = ref.permute_factors(t, [(k - 1) % n for k in range(n)])
    assert tuple(_rotate(t.nums, d)) == rotated.nums
    nums = t.nums
    for _ in range(n):
        nums = _rotate(nums, d)
    assert tuple(nums) == t.nums


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


@pytest.mark.parametrize(
    "call",
    [lambda: w_state(1000), lambda: ghz(2, 10**5), lambda: ghz(10**6, 2)],
    ids=["w-state", "ghz-wide", "ghz-long"],
)
def test_named_states_check_their_size_before_building(call):
    # w_state built its n index lists and ghz its d index tuples before
    # from_entries checked the size: w_state(1000) peaked at ~8 MB
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^d\*\*n exceeds the limit of 65536 coefficients$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_zero_denominator_is_refused():
    # it gave den 0 and nums (-1, 0, 0, -1), and classify then divided by 0
    with pytest.raises(ValueError, match=r"^den=0 is not a nonzero int$"):
        Tensor.from_integers(2, 2, [1, 0, 0, 1], 0)
    assert Tensor.from_integers(2, 2, [2, 0, 0, 2], -4).coeffs == (Fraction(-1, 2), 0, 0, Fraction(-1, 2))


@pytest.mark.parametrize(
    "n, nums, den, message",
    [
        (3, [1] * 27, 2.0, r"den=2\.0 is not a nonzero int"),
        (2, [1.0] * 4, 1, r"nums=\[1\.0, 1\.0, 1\.0, 1\.0\] is not a list or tuple of ints"),
        (2, [1] * 4, Fraction(1, 2), r"den=Fraction\(1, 2\) is not a nonzero int"),
    ],
    ids=["float-den", "float-numerator", "fraction-den"],
)
def test_non_int_numerators_or_den_are_refused(n, nums, den, message):
    # each ended in a bare TypeError from math.gcd
    with pytest.raises(ValueError, match=rf"^{message}$"):
        Tensor.from_integers(n, n, nums, den)


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


def reference_flattening_basis(n, d, coeffs):
    return ref.rref_rows([coeffs[k::d] for k in range(d)], d ** (n - 1))


def reference_apply_slocc(n, d, coeffs, factors):
    """factors: one list of d Fraction rows per axis."""
    for f in factors:
        if len(ref.rref_rows(f, d)) != d:
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


REFERENCE_FORMATS = [(2, 2), (3, 2), (3, 3), (4, 2), (2, 3), (5, 2), (3, 4)]


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
        assume(all(len(ref.rref_rows(f.entries, d)) == d for factors in drawn for f in factors))
        g, h = (SloccOperator(factors) for factors in drawn)
        gh = SloccOperator(tuple(map(ref.matmul, g.factors, h.factors)))
        assert apply_slocc(apply_slocc(t, h), g) == apply_slocc(t, gh)

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
    # leading zeros are dropped before int(), which refuses over 4,300 digits
    assert parse_state(_doc(3, 3, ["0" * 5000 + "1"] + ["1"] * 26)).nums[0] == 1
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: Tensor(3.0, 3, [1] * 27),
        lambda: Tensor(3, 3.0, [1] * 27),
        lambda: Tensor.from_integers(3, 3.0, [1] * 27),
        lambda: Tensor.from_entries(3.0, 3, {(0, 0, 0): 1}),
        lambda: random_state(3.0, 3, 5, 0),
        lambda: ghz(3.0, 3),
        lambda: basis_state(3, 3.0, (0, 0, 0)),
        lambda: w_state(3.0),
    ],
    ids=["tensor-n", "tensor-d", "from-integers", "from-entries", "random-state", "ghz",
         "basis-state", "w-state"],
)
def test_non_int_formats_are_refused(call):
    # 27.0 == 27 passed the size check, and the float failed later, in
    # classify or state_to_json, as a bare TypeError
    with pytest.raises(ValueError, match=r"^[nd]=3\.0 is not an int$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: random_invertible(2.0, 1, 0), r"^d=2\.0 is not an int$"),
        (lambda: random_invertible(2, True, 0), r"^bound=True is not an int$"),
        (lambda: SloccOperator.random(3, 3.0, 1, 0), r"^d=3\.0 is not an int$"),
        (lambda: SloccOperator.random(3, 3, 1.5, 0), r"^bound=1\.5 is not an int$"),
        (lambda: random_state(3, 3, "5", 0), r"^bound='5' is not an int$"),
        (lambda: random_state(3, 3, 5.0, 0), r"^bound=5\.0 is not an int$"),
    ],
    ids=["invertible-d", "invertible-bool-bound", "operator-d", "operator-bound",
         "state-str-bound", "state-float-bound"],
)
def test_non_int_dimensions_and_bounds_are_refused(call, message):
    # each ended in a bare TypeError
    with pytest.raises(ValueError, match=message):
        call()


def test_operators_refuse_a_local_dimension_above_256_before_any_work(monkeypatch):
    # 256 is the largest d of a state with n >= 2 under MAX_COEFFICIENTS;
    # an operator's invertibility check is cubic in d
    import sloccgeo.linalg
    import sloccgeo.states
    from sloccgeo.linalg import _check_local_dimension
    from sloccgeo.states import MAX_COEFFICIENTS

    assert 256**2 == MAX_COEFFICIENTS
    ghz(2, 256)
    with pytest.raises(SchemaError):
        ghz(2, 257)
    _check_local_dimension(256)

    def refused(*args):
        raise AssertionError("drew or eliminated")

    monkeypatch.setattr(sloccgeo.linalg.random, "Random", refused)
    monkeypatch.setattr(sloccgeo.linalg, "_bareiss", refused)
    monkeypatch.setattr(sloccgeo.states, "_bareiss", refused)
    for call in (lambda: random_invertible(257, 5, 0), lambda: random_invertible(10**6, 1, 0),
                 lambda: SloccOperator([ref.identity(257)] * 2)):
        with pytest.raises(SchemaError, match=r"^local dimension \d+ exceeds the limit of 256$"):
            call()
    # an operator's format is a state's: (2, 10**6) has no state
    with pytest.raises(SchemaError, match=r"^d\*\*n exceeds the limit of 65536 coefficients$"):
        SloccOperator.random(2, 10**6, 1, 0)


def test_random_operators_bound_their_work_before_the_first_draw(monkeypatch):
    # random_invertible(32, 10**99, 0) took 1.8 s and (256, 1, 0) 7.8 s, and
    # SloccOperator.random drew any number of factors
    import sloccgeo.linalg

    def refused(*args):
        raise AssertionError("drew")

    with monkeypatch.context() as patch:
        patch.setattr(sloccgeo.linalg.random, "Random", refused)
        # the cost is d**4 times the bound's bits
        for call, message in (
            (lambda: random_invertible(32, 10**99, 0), "a 32 x 32 draw costs 344981504"),
            (lambda: random_invertible(256, 1, 0), "a 256 x 256 draw costs 4294967296"),
            (lambda: random_invertible(30, 10**100 - 1, 0), "a 30 x 30 draw costs 269730000"),
            (lambda: random_invertible(129, 1, 0), "a 129 x 129 draw costs 276922881"),
            (lambda: SloccOperator.random(2, 64, 10**99, 0), "a 64 x 64 draw costs 5519704064"),
        ):
            with pytest.raises(WorkLimitError, match=rf"^{message}, over the limit of 268435456$"):
                call()
        # an operator's format is a state's
        for call in (lambda: SloccOperator.random(17, 2, 1, 0),
                     lambda: SloccOperator.random(10**6, 2, 1, 0)):
            with pytest.raises(SchemaError, match=r"^d\*\*n exceeds the limit of 65536"):
                call()
        with pytest.raises(ValueError, match=r"^n=1 is not an int >= 2$"):
            SloccOperator.random(1, 3, 1, 0)
        for call in (lambda: random_invertible(3, 10**100, 0),
                     lambda: SloccOperator.random(3, 3, 0, 0)):
            with pytest.raises(ValueError, match=r"^bound=[\d.]+ is not an int > 0 of at most 100"):
                call()
    # the draws at the limit are accepted (each draw taken as invertible)
    monkeypatch.setattr(sloccgeo.linalg, "_bareiss", lambda rows, d: (d,))
    assert 128**4 == sloccgeo.linalg.MAX_DRAW_COST
    assert random_invertible(128, 1, 0).rows == 128
    assert random_invertible(29, 10**100 - 1, 0).rows == 29
    assert SloccOperator.random(16, 2, 10**99, 0).n == 16


@pytest.mark.parametrize(
    "call",
    [
        lambda: ghz(-1, 2),
        lambda: w_state(-1),
        lambda: Tensor.from_entries(-1, 2, {}),
        lambda: basis_state(-1, 2, ()),
        lambda: random_state(-1, 2, 5, 0),
        lambda: ghz(1, 10**6),
        lambda: ghz(3, 1),
    ],
    ids=["ghz", "w-state", "from-entries", "basis-state", "random-state", "one-huge-factor",
         "unit-dimension"],
)
def test_formats_below_two_are_refused(call):
    # a negative n made d**n a float below the size limit, and the
    # constructors ended in a bare TypeError
    with pytest.raises(ValueError, match=r"^[nd]=-?\d+ is not an int >= 2$"):
        call()


def test_sample_refuses_a_negative_n(capsys):
    from sloccgeo.cli import run

    assert run(["sample", "--n", "-1", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert "n=-1 is not an int >= 2" in captured.err and not captured.out


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: apply_slocc(random_state(3, 3, 5, 1), SloccOperator.random(4, 2, 3, 1)),
            ValueError,
            "operator format mismatch",
        ),
        (lambda: tensor_product(ghz(2, 2), ghz(2, 3)), ValueError, "local dimensions differ"),
        (lambda: Tensor(1, 2, [1, 0]), ValueError, "n=1 is not an int >= 2"),
        (lambda: random_state(3, 3, 5, 1)[(0, 0)], ValueError, "index arity mismatch"),
        (lambda: random_state(3, 3, 5, 1)[(0, 0, 3)], IndexRangeError, "out of range"),
        # a float index entry ended in a bare TypeError, and True was read as 1
        (lambda: random_state(3, 3, 5, 1)[(0, 0, 0.5)], ValueError, "not an int"),
        (lambda: random_state(3, 3, 5, 1)[(0, 0, True)], ValueError, "not an int"),
        (lambda: Tensor.from_entries(2, 2, {(0, 1.0): 1}), ValueError, "not an int"),
        (lambda: basis_state(3, 3, (0, 0, 0.5)), ValueError, "not a list or tuple of ints"),
        (lambda: basis_state(3, 3, (0, 0, True)), ValueError, "not a list or tuple of ints"),
    ],
    ids=["operator-format", "tensor-product-dims", "one-factor", "index-arity", "index-range",
         "float-index", "bool-index", "float-entry-key", "float-basis-index", "bool-basis-index"],
)
def test_malformed_state_calls_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
