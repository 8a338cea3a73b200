import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import permutations

import pytest

from sloccgeo.errors import (
    BadReductionError,
    IndexRangeError,
    NotOnVarietyError,
    UnsupportedPrimeError,
    WorkLimitError,
)
from sloccgeo.geometry import ProjPoint, VarietyModel, jacobian_rank_at
from sloccgeo.invariants import TernaryCubic
from sloccgeo.linalg import Matrix, check_primes, random_invertible
from sloccgeo.states import Tensor, basis_state, random_state
from sloccgeo.zalgebra import quadratic_hilbert

import reference_algebra as ref


def det_oracle(entries):
    """Permutation-expansion determinant, independent of Matrix.det."""
    n = len(entries)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= entries[i][perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, rows, cols, p=None, bound=9):
    entries = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return Matrix(entries, cols=cols, p=p)


def test_rref_identity():
    m = Matrix.identity(3)
    rank, red = m.rref()
    assert rank == 3
    assert red == m


def test_rref_proportional_rows():
    rank, red = Matrix([[1, 2], [2, 4]]).rref()
    assert rank == 1
    assert red == Matrix([[1, 2], [0, 0]])


def test_rref_mod_2():
    # hand reduction: second row equals the first mod 2
    rank, red = Matrix([[1, 1], [1, 3]], p=2).rref()
    assert rank == 1
    assert red == Matrix([[1, 1], [0, 0]], p=2)


@pytest.mark.parametrize("p", [None, 5, 13])
def test_rref_idempotent(p):
    rng = random.Random(1234 if p is None else p)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), p=p)
        _, red = m.rref()
        assert red.rref()[1] == red


@pytest.mark.parametrize("p", [None, 7])
def test_rref_is_canonical(p):
    rng = random.Random(99)
    for _ in range(20):
        m = random_matrix(rng, 4, 5, p=p)
        rank, red = m.rref()
        pivots = []
        for r in range(rank):
            c = next(j for j in range(5) if red.entries[r][j] != 0)
            assert red.entries[r][c] == 1
            assert all(red.entries[i][c] == 0 for i in range(4) if i != r)
            pivots.append(c)
        assert pivots == sorted(pivots)
        assert all(all(x == 0 for x in red.entries[r]) for r in range(rank, 4))


def test_kernel_zero_matrix():
    assert Matrix.zero(2, 2).kernel().rows == 2


def test_kernel_invertible():
    assert Matrix([[2, 1], [1, 1]]).kernel().rows == 0


def test_kernel_row_of_ones():
    ker = Matrix([[1, 1, 1, 1]]).kernel()
    assert ker.rows == 3  # rank-nullity: 4 - 1


@pytest.mark.parametrize("p", [None, 5, 31])
def test_rank_nullity_and_membership(p):
    rng = random.Random(7 if p is None else 70 + p)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, p=p)
        rank, _ = m.rref()
        ker = m.kernel()
        assert rank + ker.rows == cols
        for v in ker.entries:
            prod = ref.apply(m, v)
            assert all(x == 0 or (p is not None and x % p == 0) for x in prod)


def test_kernel_basis_is_canonical():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 3, 6)
        basis = m.kernel()
        assert basis.row_space() == basis


def test_reduce_scalar_examples():
    assert ref.reduce_scalar(Fraction(1, 2), 5) == 3  # 2*3 = 1 mod 5
    with pytest.raises(BadReductionError):
        ref.reduce_scalar(Fraction(1, 2), 2)


def test_random_invertible_reproducible():
    a = random_invertible(4, 6, seed=123)
    b = random_invertible(4, 6, seed=123)
    assert a == b and a.entries == b.entries
    assert random_invertible(4, 6, seed=124) != a


def test_random_invertible_d1():
    for seed in range(10):
        m = random_invertible(1, 3, seed=seed)
        assert m.entries[0][0] != 0


def test_random_invertible_runs_no_matrix_elimination(monkeypatch):
    # each draw is decided on its integer rows, and only the draw returned
    # becomes a Matrix; at bound 1 many singular draws are rejected first
    def refuse(m):
        raise AssertionError("random_invertible ran Matrix.rref")

    monkeypatch.setattr(Matrix, "rref", refuse)
    for seed in range(20):
        m = random_invertible(3, 1, seed=seed)
        assert all(-1 <= x <= 1 for row in m.entries for x in row)
        assert det_oracle(m.entries) != 0


def test_random_invertible_d3_has_nonzero_det():
    m = random_invertible(3, 2, seed=7)
    assert all(-2 <= x <= 2 for row in m.entries for x in row)
    assert det_oracle(m.entries) != 0


@pytest.mark.parametrize("p", [None, 11])
def test_det_matches_oracle(p):
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = random_matrix(rng, n, n, p=p)
            expected = det_oracle(m.entries)
            if p is not None:
                expected %= p
            assert m.det() == expected
    # anti-triangular rows need one row swap at n = 2, 3 and the 4-cycle
    # three, so the sign of an odd number of swaps is checked
    odd = [
        [[0] * (n - 1 - i) + [rng.randint(1, 9) for _ in range(i + 1)] for i in range(n)]
        for n in (2, 3)
    ]
    odd.append([[int(j == (i + 1) % 4) * rng.randint(1, 9) for j in range(4)] for i in range(4)])
    for entries in odd:
        m = Matrix(entries, p=p)
        expected = det_oracle(m.entries)
        assert expected != 0
        assert m.det() == (expected if p is None else expected % p)
    if p is not None:
        # rank-deficient mod p: the last row is c times the first plus the
        # row before it, so the integer determinant of the residues is 0
        # (c = 0) or a nonzero multiple of p, which the elimination over Z
        # sees at full rank
        for n in (2, 3, 4):
            for c in range(3):
                rows = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(n - 1)]
                rows.append([(c * a + b) % p for a, b in zip(rows[0], rows[-1])])
                m = Matrix(rows, p=p)
                assert m.rank() < n and det_oracle(m.entries) % p == 0
                assert m.det() == 0


@pytest.mark.parametrize("p", [None, 11, 2**31 - 1])
def test_det_is_multiplicative_at_n_12(p):
    # 12! permutations rule the oracle out; det(AB) = det(A) det(B) and a
    # repeated row checks the elimination at this size instead
    rng = random.Random(12 if p is None else p)
    a, b = random_matrix(rng, 12, 12, p=p), random_matrix(rng, 12, 12, p=p)
    expected = a.det() * b.det()
    assert ref.matmul(a, b).det() == (expected if p is None else expected % p)
    assert expected != 0
    singular = Matrix(a.entries[:11] + a.entries[:1], p=p)
    assert singular.det() == 0


def test_det_of_rational_and_permuted_matrices():
    m = Matrix([[0, Fraction(1, 2)], [Fraction(2, 3), 5]])
    assert m.det() == Fraction(-1, 3) == det_oracle(m.entries)
    assert Matrix([[0, 1], [1, 0]], p=7).det() == 6
    assert Matrix.zero(0, 0).det() == 1


@pytest.mark.parametrize("p", [0, 1, -7, True, 7.0, "7", Fraction(7)])
def test_matrix_modulus_must_be_an_int_of_at_least_two(p):
    with pytest.raises(UnsupportedPrimeError, match=re.escape(repr(p))):
        Matrix([[2, 1], [1, 1]], p=p)


def test_composite_modulus_refused_at_a_non_invertible_pivot():
    assert Matrix([[1, 1], [1, 3]], p=2).rank() == 1
    assert Matrix([[3, 1], [1, 0]], p=4).rank() == 2  # both pivots are units mod 4
    with pytest.raises(UnsupportedPrimeError, match="not invertible modulo 4"):
        Matrix([[2, 1], [1, 1]], p=4).rref()


def test_explicit_cols_must_match_the_rows():
    with pytest.raises(ValueError, match="cols=5"):
        Matrix([[1, 2]], cols=5)
    assert Matrix([[1, 2]], cols=2).cols == 2
    assert Matrix([], cols=5).cols == 5


def test_kron_mixed_product():
    rng = random.Random(3)
    a, b = random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
    c, d = random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
    mixed = ref.kron(ref.matmul(a, c), ref.matmul(b, d))
    assert ref.matmul(ref.kron(a, b), ref.kron(c, d)) == mixed


def test_subspace_canonical_representative():
    s1 = Matrix([[1, 2, 3], [0, 1, 1]]).row_space()
    s2 = Matrix([[1, 3, 4], [2, 5, 7], [3, 8, 11]]).row_space()
    assert s1 == s2
    assert (s1.rows, s1.cols) == (2, 3)

    def contains(space, v):
        return Matrix(space.entries + (v,)).rank() == space.rows

    assert contains(s1, (1, 3, 4))
    assert not contains(s1, (0, 0, 1))


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3), 2.7, "1", None])
def test_fp_matrix_rejects_non_integer_entries(entry):
    # 1/2 is 4 mod 7: truncating it to 0 would give a wrong matrix
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        Matrix([[1, entry]], p=7)


def test_fp_matrix_takes_ints_and_bools():
    m = Matrix([[True, False, -1, 15]], p=7)
    assert m.entries == ((1, 0, 6, 1),)
    assert all(type(x) is int for x in m.entries[0])


FP_PRIMES = (5, 7, 11, 13, 2**31 - 1)


def _fp_matrix(draw):
    """An F_p matrix of 0-6 rows and 0-6 columns whose rows are random
    combinations of at most min(rows, cols) base rows, with repeats: zero,
    duplicate and rank-deficient rows are common, and entries come
    unreduced, in [-2p, 2p]."""
    from hypothesis import strategies as st

    p = draw(st.sampled_from(FP_PRIMES))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-2, 2), st.integers(-2 * p, 2 * p))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         max_size=min(rows, cols)))
    entries = []
    for _ in range(rows):
        if entries and draw(st.booleans()):
            entries.append(list(draw(st.sampled_from(entries))))
            continue
        coeffs = [draw(entry) for _ in base]
        entries.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)])
    return Matrix(entries, cols=cols, p=p)


def test_fp_elimination_matches_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        m = _fp_matrix(data.draw)
        p = m.p
        rank, red = ref.rref_mod_p(m)
        assert m.rref() == (rank, red)
        assert m.rank() == rank
        kernel = m.kernel()
        assert kernel.entries == ref.kernel_mod_p(m)
        assert kernel.rows == m.cols - rank
        for v in kernel.entries:
            assert all(x % p == 0 for x in ref.apply(m, v))
        assert kernel.row_space() == kernel
        assert m.row_space() == Matrix(red.entries[:rank], cols=m.cols, p=p)

    check()


def _q_matrix(draw):
    """A Q matrix of 0-6 rows and 0-6 columns whose rows are random
    combinations of at most min(rows, cols) base rows with small rational
    entries, with repeats, so rank-deficient matrices are common."""
    from hypothesis import strategies as st

    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         max_size=min(rows, cols)))
    coeff = st.integers(-3, 3)
    entries = []
    for _ in range(rows):
        coeffs = [draw(coeff) for _ in base]
        entries.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0))
                        for j in range(cols)])
    return Matrix(entries, cols=cols)


def test_kernel_matches_two_elimination_reference():
    # Matrix.kernel eliminates once, the column-reversed matrix; the
    # reference eliminates the matrix and then its free-column basis
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), over_q=st.booleans())
    def check(data, over_q):
        m = _q_matrix(data.draw) if over_q else _fp_matrix(data.draw)
        kernel = m.kernel()
        assert kernel == ref.kernel_two_eliminations(m)
        assert kernel.rows == m.cols - m.rank()
        for v in kernel.entries:
            assert all(x == 0 or (m.p is not None and x % m.p == 0) for x in ref.apply(m, v))

    check()


def test_matrix_immutable():
    m = Matrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 5


def check_value_fields(make, changed):
    """make() builds a fresh value; changed maps each declared field to
    another value for it.  Every build is equal and hash-equal to the
    first, refuses assignment to each field, and becomes unequal once any
    one field is changed."""
    value = make()
    assert set(changed) == {f.name for f in fields(value)}
    for name, other in changed.items():
        twin = make()
        assert twin is not value and twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, name, other)
        object.__setattr__(twin, name, other)
        assert twin != value


def test_matrix_is_a_value():
    entries = [[2, 4, 1], [1, 3, 0]]
    check_value_fields(
        lambda: Matrix(entries, p=7),
        {"rows": 1, "cols": 2, "p": 11, "entries": ((2, 4, 1), (1, 3, 1))},
    )
    # the same values reached through rref, row_space and kernel, whose
    # F_p results skip the public constructor (Matrix._trusted)
    for p in (None, 7):
        m = Matrix(entries, p=p)
        reduced = m.rref()[1]
        for trusted in (reduced, m.row_space(), m.kernel()):
            public = Matrix(trusted.entries, cols=m.cols, p=p)
            assert trusted == public and hash(trusted) == hash(public)


def test_tensor_and_form_are_values():
    t = random_state(3, 2, 5, seed=4)
    check_value_fields(
        lambda: Tensor.from_integers(3, 2, t.nums, t.den),
        {"n": 2, "d": 3, "nums": t.nums[::-1], "den": 2 * t.den},
    )
    # a form is kept as its coefficients, as a ternary cubic is
    terms = {(3, 0, 0): 3, (1, 1, 1): Fraction(-1, 2)}
    check_value_fields(lambda: TernaryCubic.from_terms(terms), {"coeffs": (0,) * 10})
    # reordered terms, zero terms and int coefficients name the same form
    same = TernaryCubic.from_terms(
        {(1, 1, 1): Fraction(-1, 2), (0, 3, 0): 0, (3, 0, 0): Fraction(6, 2)}
    )
    assert same == TernaryCubic.from_terms(terms)
    assert hash(same) == hash(TernaryCubic.from_terms(terms))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Matrix([[1, 2], [3]]), "ragged rows"),
        (lambda: Matrix([]), "explicit column count"),
        (lambda: Matrix([[1, 2, 3], [4, 5, 6]]).det(), "square matrix"),
        (lambda: random_invertible(0, 3, 1), "need d >= 1"),
    ],
    ids=["ragged", "empty-without-cols", "det-of-2x3", "random-invertible-d0"],
)
def test_malformed_matrix_calls_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_prime_check_echoes_a_bounded_excerpt():
    # a 4,000-digit entry used to be echoed whole; one past the int-to-string
    # limit ended in a bare ValueError from repr
    with pytest.raises(UnsupportedPrimeError) as info:
        check_primes([int("9" * 4000)])
    assert str(info.value).startswith("999") and len(str(info.value)) <= 140
    with pytest.raises(UnsupportedPrimeError, match=r"^<int of 16610 bits> is not a prime"):
        check_primes([10**5000])
    with pytest.raises(UnsupportedPrimeError, match=r"^4 is not a prime in \[5, 2147483647\]$"):
        check_primes([7, 4])


_HUGE = 10**5000  # over the 4,300-digit limit of int-to-string conversion


def _off_variety_rank(coefficient):
    """jacobian_rank_at at a point where form 0 of a hand-built model over
    F_7, with an unreduced coefficient, does not vanish."""
    rows = ((7 * coefficient + 1,) + (0,) * 8, (0,) * 9, (0,) * 9)
    return jacobian_rank_at(VarietyModel(3, 3, rows, 1, 7), ProjPoint(7, ((1, 0, 0), (1, 0, 0))))


@pytest.mark.parametrize(
    "call, error, start",
    [
        (lambda: basis_state(3, 3, (_HUGE, 0, 0)), IndexRangeError, "index <list "),
        (lambda: quadratic_hilbert(random_state(3, 3, 5, 1), 11, _HUGE), WorkLimitError,
         "k_max=<int of 16610 bits> "),
        (lambda: quadratic_hilbert(random_state(3, 3, 5, 1), 11, -_HUGE), WorkLimitError,
         "k_max=<int of 16610 bits> "),
        (lambda: Matrix([[1]], p=-_HUGE), UnsupportedPrimeError, "modulus <int of 16610 bits> "),
        (lambda: Matrix([[Fraction(_HUGE, 3)]], p=5), TypeError, "F_5 matrix entry <Fraction "),
        (lambda: _off_variety_rank(_HUGE), NotOnVarietyError,
         "form 0 (row <tuple too long to print>) does not vanish"),
        (lambda: Matrix([[1]], cols=_HUGE), ValueError,
         "rows of length 1 disagree with cols=<int of 16610 bits>"),
        (lambda: Tensor(2, 2, [Fraction(_HUGE + 1, 5), 1, 1, 1]).reduce_mod(5),
         BadReductionError, "denominator divisible by 5 for <Fraction too long to print>"),
        (lambda: Tensor(2, 2, [Fraction(10**300 + 1, 5), 1, 1, 1]).reduce_mod(5),
         BadReductionError, "denominator divisible by 5 for 1000000000"),
    ],
    ids=[
        "index", "k-max", "negative-k-max", "modulus", "matrix-entry", "form-coefficient",
        "cols", "state-coefficient", "long-state-coefficient",
    ],
)
def test_messages_echo_long_values_as_excerpts(call, error, start):
    # formatting the value itself would raise a bare ValueError from repr
    # in place of the intended error
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(start) and len(str(info.value)) <= 200
