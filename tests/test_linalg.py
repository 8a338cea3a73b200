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
from sloccgeo.linalg import Matrix, _echelon_rank, check_primes, random_invertible
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
    m = ref.identity(3, p=7)
    rank, red = m.rref()
    assert rank == 3
    assert red == m


def test_rref_proportional_rows():
    rank, red = Matrix([[1, 2], [2, 4]], p=7).rref()
    assert rank == 1
    assert red == Matrix([[1, 2], [0, 0]], p=7)


def test_rref_mod_2():
    # hand reduction: second row equals the first mod 2
    rank, red = Matrix([[1, 1], [1, 3]], p=2).rref()
    assert rank == 1
    assert red == Matrix([[1, 1], [0, 0]], p=2)


@pytest.mark.parametrize("p", [5, 13])
def test_rref_idempotent(p):
    rng = random.Random(p)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), p=p)
        _, red = m.rref()
        assert red.rref()[1] == red


@pytest.mark.parametrize("p", [7])
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
    assert Matrix([[0, 0], [0, 0]], p=5).kernel().rows == 2


def test_kernel_invertible():
    assert Matrix([[2, 1], [1, 1]], p=5).kernel().rows == 0


def test_kernel_row_of_ones():
    ker = Matrix([[1, 1, 1, 1]], p=5).kernel()
    assert ker.rows == 3  # rank-nullity: 4 - 1


@pytest.mark.parametrize("p", [5, 31])
def test_rank_nullity_and_membership(p):
    rng = random.Random(70 + p)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, p=p)
        rank, _ = m.rref()
        ker = m.kernel()
        assert rank + ker.rows == cols
        for v in ker.entries:
            prod = ref.apply(m, v)
            assert all(x % p == 0 for x in prod)


def test_kernel_basis_is_canonical():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 3, 6, p=11)
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
    # becomes a Matrix; at bound 1 many singular draws are rejected first.
    # Every Matrix, checked or trusted, is stored by Matrix._set, so the
    # count covers both constructors
    built, store = [], Matrix._set

    def counting(m, *args):
        built.append(args)
        return store(m, *args)

    monkeypatch.setattr(Matrix, "_set", counting)
    for seed in range(20):
        built.clear()
        m = random_invertible(3, 1, seed=seed)
        assert len(built) == 1
        assert all(-1 <= x <= 1 for row in m.entries for x in row)
        assert det_oracle(m.entries) != 0


def test_random_invertible_d3_has_nonzero_det():
    m = random_invertible(3, 2, seed=7)
    assert all(-2 <= x <= 2 for row in m.entries for x in row)
    assert det_oracle(m.entries) != 0


@pytest.mark.parametrize("p", [11])
def test_det_matches_oracle(p):
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = random_matrix(rng, n, n, p=p)
            assert m.det() == det_oracle(m.entries) % p
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
        assert expected % p != 0
        assert m.det() == expected % p
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


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_det_is_multiplicative_at_n_12(p):
    # 12! permutations rule the oracle out; det(AB) = det(A) det(B) and a
    # repeated row checks the elimination at this size instead
    rng = random.Random(p)
    a, b = random_matrix(rng, 12, 12, p=p), random_matrix(rng, 12, 12, p=p)
    expected = a.det() * b.det() % p
    assert ref.matmul(a, b).det() == expected
    assert expected != 0
    singular = Matrix(a.entries[:11] + a.entries[:1], p=p)
    assert singular.det() == 0


def test_det_of_rational_and_permuted_matrices():
    # the determinant of a rational matrix, -1/3, reduces to that of its
    # entrywise residues at a prime that divides no denominator
    rational = [[0, Fraction(1, 2)], [Fraction(2, 3), 5]]
    assert det_oracle(rational) == Fraction(-1, 3)
    for p in (5, 7, 11):
        residues = [[ref.reduce_scalar(x, p) for x in row] for row in rational]
        assert Matrix(residues, p=p).det() == ref.reduce_scalar(Fraction(-1, 3), p)
    assert Matrix([[0, 1], [1, 0]], p=7).det() == 6
    assert Matrix([], cols=0, p=7).det() == 1


@pytest.mark.parametrize("p", [0, 1, -7, True, 7.0, "7", Fraction(7)])
def test_matrix_modulus_must_be_an_int_of_at_least_two(p):
    with pytest.raises(UnsupportedPrimeError, match=re.escape(repr(p))):
        Matrix([[2, 1], [1, 1]], p=p)


def test_composite_modulus_refused_when_the_matrix_is_built():
    # Z/p is no field, and above MAX_PRIME no prime is accepted: the matrix
    # is refused when it is built, where a composite p used to answer or
    # refuse by the elimination order (rows mod 9 below: rank 2 by the
    # column-pivot loop, a refused leading entry 3 by the row join)
    rows = [[0, 0, 3], [0, 0, 0], [0, 0, 7], [0, 0, 0], [2, 0, 0]]
    for p in (4, 6, 8, 9, 15, 25, 2**31 + 11, 2**61 - 1):
        for entries in (rows, [[3, 1], [1, 0]], [[1]]):
            with pytest.raises(UnsupportedPrimeError, match=f"^p={p} is not a prime up to "):
                Matrix(entries, p=p)
    # 2 and 3 are fields, below check_primes' range, and still eliminate
    assert Matrix([[1, 1], [1, 3]], p=2).rank() == 1
    assert Matrix([[1, 1], [1, 3]], p=2).kernel().entries == ((1, 1),)
    assert Matrix(rows, p=3).rref()[1].entries[:2] == ((1, 0, 0), (0, 0, 1))
    assert Matrix(rows, p=3).kernel().entries == ((0, 1, 0),)
    assert Matrix([[2, 1], [1, 1]], p=3).det() == 1


def test_no_elimination_refuses_a_pivot():
    # over a field every nonzero pivot is a unit: linalg inverts pivots with
    # pow(x, -1, p) directly, and keeps no modulus kind or pivot refusal
    import sloccgeo.linalg

    for name in ("MODULUS", "_inverse"):
        assert not hasattr(sloccgeo.linalg, name), name


def test_kernel_basis_matches_the_reference_kernel():
    # the one kernel routine, on integer rows in any range: unreduced and
    # negative entries, zero and dependent rows, no rows or no columns;
    # its rows are canonical, in [0, p), and equal Matrix.kernel's
    from sloccgeo.linalg import _kernel_basis

    rng = random.Random(5050)
    for p in (2, 3, 5, 7, 31, 443, 2**31 - 1):
        for _ in range(60):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            base = [[rng.randint(-3 * p, 3 * p) for _ in range(cols)] for _ in range(2)]
            entries = []
            for _ in range(rows):
                kind = rng.randrange(4)
                if kind == 0:
                    entries.append([0] * cols)
                elif kind == 1:
                    a, b = rng.randint(-p, p), rng.randint(-p, p)
                    entries.append([a * x + b * y for x, y in zip(*base)])
                else:
                    entries.append([rng.choice((0, -1, rng.randint(-5 * p, 5 * p)))
                                    for _ in range(cols)])
            expected = ref.kernel_mod_p(Matrix(entries, cols=cols, p=p))
            got = _kernel_basis(entries, cols, p)
            assert tuple(got) == expected, (entries, cols, p)
            assert all(type(v) is tuple and all(0 <= x < p for x in v) for v in got)
            assert Matrix(entries, cols=cols, p=p).kernel().entries == expected
    assert _kernel_basis([], 3, 5) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _kernel_basis([[]] * 3, 0, 5) == _kernel_basis([], 0, 5) == []


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
    s1 = Matrix([[1, 2, 3], [0, 1, 1]], p=7).row_space()
    s2 = Matrix([[1, 3, 4], [2, 5, 7], [3, 8, 11]], p=7).row_space()
    assert s1 == s2
    assert (s1.rows, s1.cols) == (2, 3)

    def contains(space, v):
        return Matrix(space.entries + (v,), p=7).rank() == space.rows

    assert contains(s1, (1, 3, 4))
    assert not contains(s1, (0, 0, 1))


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3), 2.7, "1", None])
def test_fp_matrix_rejects_non_integer_entries(entry):
    # 1/2 is 4 mod 7: truncating it to 0 would give a wrong matrix
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
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


def test_echelon_rank_stops_at_its_ceiling_with_the_reference_rank():
    # linalg._echelon_rank draws rows one at a time and stops once its rank
    # reaches the ceiling: its rank is the reference rank of the rows it
    # read, it reads a row only while the rows before it rank below the
    # ceiling, and it stops early only at the ceiling.  Zero, repeated and
    # dependent rows are common in the draws (``_fp_matrix``)
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        m = _fp_matrix(data.draw)
        ceiling = data.draw(st.integers(0, m.cols + 1))
        drawn = []
        rows = (drawn.append(row) or list(row) for row in m.entries)
        rank, read = _echelon_rank(rows, m.p, ceiling)
        assert read == len(drawn)

        def ref_rank(k):
            return ref.rref_mod_p(Matrix(m.entries[:k], cols=m.cols, p=m.p))[0]

        assert rank == ref_rank(read) == min(ref_rank(m.rows), ceiling)
        assert read == m.rows or rank == ceiling
        assert read == 0 or ref_rank(read - 1) < ceiling

    check()
    # every row zero, or repeated, or a combination of the rows before it:
    # the rank stays below the ceiling and every row is read
    assert _echelon_rank([[0, 0, 0] for _ in range(4)], 7, 3) == (0, 4)
    assert _echelon_rank([[1, 2, 3], [1, 2, 3], [2, 4, 6]], 7, 3) == (1, 3)
    assert _echelon_rank([[1, 0, 2], [0, 1, 1], [3, 4, 0]], 5, 3) == (2, 3)
    assert _echelon_rank([[1, 0, 2], [0, 1, 1], [0, 0, 1], [1, 1, 1]], 5, 3) == (3, 3)
    assert _echelon_rank([[1, 0]], 5, 0) == (0, 0)


def test_kernel_matches_two_elimination_reference():
    # Matrix.kernel eliminates once, the column-reversed matrix; the
    # reference eliminates the matrix and then its free-column basis
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        m = _fp_matrix(data.draw)
        kernel = m.kernel()
        assert kernel == ref.kernel_two_eliminations(m)
        assert kernel.rows == m.cols - m.rank()
        for v in kernel.entries:
            assert all(x % m.p == 0 for x in ref.apply(m, v))

    check()


def test_last_fraction_free_pivot_is_the_minor_at_the_pivot_columns():
    # Bareiss 1968: for integer rows of full row rank d, the last pivot of
    # the fraction-free elimination is the sign of its row swaps times the
    # d x d minor of the rows at the pivot columns, so it is nonzero
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    from sloccgeo.linalg import _bareiss

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), extra=st.integers(0, 4))
    def check(data, d, extra):
        cols = d + extra
        entry = st.integers(-3, 3)
        rows = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                  min_size=d, max_size=d))
        rank, reduced, last, sign = _bareiss(rows, cols)
        assume(rank == d)
        pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
        minor = det_oracle([[row[c] for c in pivots] for row in rows])
        assert last == sign * minor != 0

    check()


def test_matrix_immutable():
    m = Matrix([[1, 0], [0, 1]])
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
    # results skip the public constructor (Matrix._trusted)
    m = Matrix(entries, p=7)
    for trusted in (m.rref()[1], m.row_space(), m.kernel()):
        public = Matrix(trusted.entries, cols=m.cols, p=7)
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
        (lambda: Matrix([[1, 2, 3], [4, 5, 6]], p=7).det(), "square matrix"),
        (lambda: random_invertible(0, 3, 1), "^d=0 is not an int >= 1$"),
    ],
    ids=["ragged", "empty-without-cols", "det-of-2x3", "random-invertible-d0"],
)
def test_malformed_matrix_calls_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_matrix_sizes_are_bounded_before_allocation():
    # Matrix([], cols=-1) built a 0 x -1 matrix; a kernel, whose basis can be
    # cols x cols, is the one Matrix operation that allocates beyond its input
    assert Matrix([], cols=0).cols == 0 and Matrix([], cols=0, p=5).kernel().rows == 0
    for cols, message in ((-1, "cols=-1 is not an int >= 0"), (2.0, "cols=2.0 is not an int")):
        with pytest.raises(ValueError) as info:
            Matrix([], cols=cols)
        assert str(info.value) == message
    with pytest.raises(WorkLimitError) as info:
        Matrix([], cols=10**5000, p=5).kernel()
    size = "<int of 16610 bits> x <int of 16610 bits>"
    assert str(info.value) == f"a {size} matrix has more than 131072 entries"
    from sloccgeo.linalg import MAX_MATRIX_ENTRIES

    assert MAX_MATRIX_ENTRIES == 2**17


def test_kernel_width_is_bounded_before_any_allocation(monkeypatch):
    # a kernel basis can be cols x cols: Matrix([], cols=2000).kernel() took
    # 6.1 s and 375 MB before its width was bounded
    assert Matrix([], cols=256, p=5).kernel().rows == 256
    assert Matrix([[1] * 362], p=7).kernel().rows == 361

    def refused(*args, **kwargs):
        raise AssertionError("eliminated before the width check")

    monkeypatch.setattr("sloccgeo.linalg._eliminate", refused)
    for cols, p in ((363, 5), (2000, None), (10**6, 7)):
        with pytest.raises(WorkLimitError) as info:
            Matrix([], cols=cols, p=p).kernel()
        assert str(info.value) == f"a {cols} x {cols} matrix has more than 131072 entries"


@pytest.mark.parametrize("entry", [None, 1.5, "1", Fraction(1, 2) + 0.5, [1]])
def test_rational_matrix_entries_are_ints_and_fractions(entry):
    # None ended in a bare TypeError and 1.5 was read as 3/2
    with pytest.raises(ValueError, match=r"^entries=.* is not a list or tuple of rows of ints and"):
        Matrix([[1, entry]])
    assert Matrix([[True, Fraction(1, 2)]]).entries == ((1, Fraction(1, 2)),)


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


@pytest.mark.parametrize(
    "primes, message",
    [
        (7, "7 is not a collection of primes"),
        ([5, "7"], "[5, '7'] is not a collection of primes"),
        ([5, None], "[5, None] is not a collection of primes"),
        ([5, 7.0], "7.0 is not a prime in [5, 2147483647]"),
    ],
    ids=["int", "str-entry", "none-entry", "float-entry"],
)
def test_prime_lists_that_do_not_sort_are_refused(primes, message):
    # the first three ended in a bare TypeError from set() or sorted(), in
    # every entry point that takes a prime list; a float still sorts among
    # ints and keeps its message
    from sloccgeo import classify, ghz, random_state, slocc_compare, smoothness_scan

    t = random_state(3, 3, 5, 1)
    for call in (
        lambda: check_primes(primes),
        lambda: classify(t, primes),
        lambda: smoothness_scan(t, primes),
        lambda: slocc_compare(t, ghz(3, 3), primes),
    ):
        with pytest.raises(UnsupportedPrimeError) as info:
            call()
        assert str(info.value) == message


def test_prime_iterators_are_refused():
    # checking an iterator used it up: classify(ghz(3, 3), iter([5, 7]))
    # returned no witness and no used prime, and smoothness_scan raised
    # AllPrimesBadError naming no prime
    from sloccgeo import classify, ghz, random_state, slocc_compare, smoothness_scan

    t = random_state(3, 3, 5, 1)
    for call in (
        lambda primes: classify(ghz(3, 3), primes),
        lambda primes: slocc_compare(t, ghz(3, 3), primes),
        lambda primes: smoothness_scan(t, primes),
    ):
        for primes in (iter([5, 7]), (p for p in (5, 7)), map(int, "57")):
            with pytest.raises(UnsupportedPrimeError, match="is not a collection of primes$"):
                call(primes)
    classify.cache_clear()
    assert classify(ghz(3, 3), [5, 7]).primes_used == (5, 7)
    assert classify(ghz(3, 3), range(5, 8, 2)).primes_used == (5, 7)


def test_rational_matrices_are_values_only():
    # a Matrix over Q is an operator's factor or a flattening image: it is
    # built, compared and hashed, and its eliminations raise ValueError
    m = Matrix([[1, Fraction(1, 2)], [2, 1]])
    assert m == Matrix([[1, Fraction(1, 2)], [2, 1]]) and m.p is None
    for call in (m.rref, m.rank, m.row_space, m.kernel, m.det):
        with pytest.raises(ValueError, match="^a Matrix over Q is not eliminated"):
            call()
    residues = Matrix([[1, 4], [2, 1]], p=7)  # 1/2 is 4 mod 7
    assert residues.rank() == 1 and residues.det() == 0


def test_prime_check_matches_trial_division():
    # Miller-Rabin with bases 2, 3, 5, 7 replaced trial division up to
    # sqrt(p), which took ~6 ms per prime near 2^31
    from math import isqrt

    from sloccgeo.linalg import MAX_PRIME, _is_prime

    for n in range(5, 10**5):
        assert _is_prime(n) == all(n % q for q in range(2, isqrt(n) + 1)), n
    assert check_primes([MAX_PRIME, 7, 5]) == (5, 7, MAX_PRIME)
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 561, 41041):
        message = rf"^{n} is not a prime in \[5, {MAX_PRIME}\]$"
        with pytest.raises(UnsupportedPrimeError, match=message):
            check_primes([5, n])


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
        (lambda: Matrix([[1]], p=-_HUGE), UnsupportedPrimeError, "p=<int of 16610 bits> "),
        (lambda: Matrix([[Fraction(_HUGE, 3)]], p=5), ValueError, "F_5 matrix entry <Fraction "),
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
