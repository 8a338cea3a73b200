import random
from fractions import Fraction
from itertools import islice, product
from math import prod

import pytest

from sloccgeo.errors import (
    AllPrimesBadError,
    BadReductionError,
    NotOnVarietyError,
    RankDeficientError,
    UnsupportedFormatError,
    UnsupportedPrimeError,
    WorkLimitError,
)
from sloccgeo.invariants import (
    curve_singular_mod_p,
    SINGULAR_MODEL,
    SMOOTH_GENERIC,
    _branch,
    _vote,
    classify,
    slice_discriminants,
)
from sloccgeo.linalg import DEFAULT_PRIMES, Matrix, clear_denominators
from sloccgeo.geometry import (
    BIQUADRATIC_MONOMIALS,
    CUBIC_MONOMIALS,
    CURVE_AXES,
    PREFIX_BUDGET,
    ProjPoint,
    VarietyModel,
    _coefficient_tensor,
    _first_witness,
    _jacobian_rows,
    _kernel_points,
    _pencil_roots,
    _points,
    _slice_pivot,
    _subspace_points,
    determinantal_projection,
    enumerate_points,
    hasse_window,
    jacobian_rank_at,
    model_mod_p,
    projection_coefficients,
    projective_points,
    section_count,
    smoothness_scan,
    variety_from_state,
)
from sloccgeo.states import (
    SloccOperator,
    Tensor,
    apply_slocc,
    basis_state,
    ghz,
    random_state,
    w_state,
)
from sloccgeo.zalgebra import relations_from_points

import reference_algebra as ref


def bilinear(i, j):
    """The (3,3)-group monomial x_i * y_j as an exponent vector."""
    exps = [0] * 6
    exps[i] = 1
    exps[3 + j] = 1
    return tuple(exps)


def nonzero_terms(coeffs, monomials):
    """A coefficient tuple as {monomial: coefficient}, zeros left out."""
    return {m: c for m, c in zip(monomials, coeffs, strict=True) if c}


def test_ghz3_model_forms(ghz3_qutrit):
    model = variety_from_state(ghz3_qutrit)
    forms = ref.model_forms(model)
    assert model.d == 3 and len(forms) == 3
    assert forms == [{bilinear(k, k): Fraction(1)} for k in range(3)]


def test_ghz4_model_forms(ghz4):
    model = variety_from_state(ghz4)
    expected = []
    for k in range(2):
        exps = [0] * 6
        exps[k] = exps[2 + k] = exps[4 + k] = 1
        expected.append({tuple(exps): Fraction(1)})
    assert ref.model_forms(model) == expected


def test_model_rows_are_canonical_basis():
    t = random_state(3, 3, 5, seed=12)
    model = variety_from_state(t)
    rows = []
    for f in ref.model_forms(model):
        row = [Fraction(0)] * 9
        for exps, c in f.items():
            i = next(v for v in range(3) if exps[v])
            j = next(v - 3 for v in range(3, 6) if exps[v])
            row[i * 3 + j] = c
        rows.append(row)
    assert ref.rref_rows(rows, 9) == rows  # coefficient matrix already in RREF


def test_separable_state_is_rank_deficient():
    with pytest.raises(RankDeficientError) as err:
        variety_from_state(basis_state(3, 3, (0, 0, 0)))
    assert err.value.dim == 1


def test_triangle_projection(ghz3_qutrit):
    model = variety_from_state(ghz3_qutrit)
    cubic = determinantal_projection(model, (0,))
    assert nonzero_terms(cubic, CUBIC_MONOMIALS) == {(1, 1, 1): Fraction(1)}
    other = determinantal_projection(model, (1,))
    assert nonzero_terms(other, CUBIC_MONOMIALS) == {(1, 1, 1): Fraction(1)}


def test_ghz4_projection(ghz4):
    model = variety_from_state(ghz4)
    form = determinantal_projection(model, (0, 1))
    # x0*x1*y0*y1
    assert nonzero_terms(form, BIQUADRATIC_MONOMIALS) == {(1, 1, 1, 1): Fraction(1)}


def test_family_projection_is_nondegenerate(family_1235):
    from sloccgeo.invariants import biquadratic_invariants

    model = variety_from_state(family_1235)
    for axes in ((0, 1), (0, 2), (1, 2)):
        (coeffs,), den = clear_denominators([determinantal_projection(model, axes)])
        assert biquadratic_invariants(coeffs, den).discriminant != 0


def test_projection_rejects_bad_axes(ghz3_qutrit, ghz4):
    m33 = variety_from_state(ghz3_qutrit)
    m42 = variety_from_state(ghz4)
    with pytest.raises(UnsupportedFormatError):
        determinantal_projection(m33, (0, 1))
    with pytest.raises(UnsupportedFormatError):
        determinantal_projection(m42, (0,))
    with pytest.raises(UnsupportedFormatError):
        determinantal_projection(variety_from_state(random_state(5, 2, 5, seed=3)), (0, 1))


def test_multiform_algebra():
    f = {(1, 0, 1, 0): 2, (0, 1, 0, 1): 3}
    g = {(1, 0, 0, 1): 1}
    prod = ref.mul(f, g)
    assert prod == {(2, 0, 1, 1): 2, (1, 1, 0, 2): 3}
    # Leibniz rule on one variable
    left = ref.partial(prod, 0)
    rule = ref.add(ref.mul(ref.partial(f, 0), g), ref.mul(f, ref.partial(g, 0)))
    assert left == rule
    assert ref.evaluate(f, ((1, 2), (3, 4))) == 2 * 1 * 3 + 3 * 2 * 4
    assert ref.add(f, ref.scale(f, -1)) == {}


def test_multiform_substitute_matches_evaluation():
    rng = random.Random(17)
    cubic = {(3, 0, 0): 1, (1, 1, 1): -2, (0, 2, 1): 5}
    a = Matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    sub = ref.substitute(cubic, 0, a)
    for _ in range(6):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        assert ref.evaluate(sub, (x,)) == ref.evaluate(cubic, (ref.apply(a, x),))


def test_multiform_drop_groups():
    assert ref.drop_groups({(1, 1, 0, 0): 4}, 2, (0,)) == {(1, 1): 4}
    with pytest.raises(ValueError):
        ref.drop_groups({(1, 0, 1, 0): 1}, 2, (0,))


def test_span_points_match_reference():
    # the contraction of the flattened basis against the entry-by-entry
    # loop, over kernels of every dimension from 0 (no point) to cols
    rng = random.Random(17)
    for p in (5, 7):
        for _ in range(30):
            rows, cols = rng.randint(0, 4), rng.randint(1, 4)
            entries = [[rng.choice((0, 0, rng.randrange(p))) for _ in range(cols)] for _ in range(rows)]
            basis = Matrix(entries, cols=cols, p=p).kernel().entries
            assert list(_subspace_points(basis, p)) == list(ref.subspace_points(basis, cols, p))
    assert list(_subspace_points((), 5)) == []


def test_projective_points_count():
    for d, p in ((2, 5), (3, 3)):
        pts = list(projective_points(d, p))
        assert len(pts) == (p**d - 1) // (p - 1)
        assert len(set(pts)) == len(pts)


def test_enumerate_ghz3_points(ghz3_qutrit):
    model = variety_from_state(ghz3_qutrit)
    pts = enumerate_points(model, 5)
    coords = {pt.coords for pt in pts}
    assert len(coords) == len(pts)  # duplicate-free
    assert ((1, 0, 0), (0, 1, 0)) in coords
    reduced = model_mod_p(model, 5)
    for pt in pts:  # membership recheck
        assert all(ref.evaluate(f, pt.coords, 5) == 0 for f in ref.model_forms(reduced))


def test_enumerate_zero_forms_full_space():
    p = 3
    model = VarietyModel(3, 3, ((0,) * 9,), 1, p)  # one zero form over F_3
    pts = enumerate_points(model, p)
    count = (p * p + p + 1) ** 2
    assert len(pts) == count == 169


@pytest.mark.parametrize("p", [4, 9, 15, 25])
def test_hand_built_models_refuse_composite_moduli(p):
    # Z/p is no field: a model over it is refused when it is built, where
    # p = 9 ended in a bare ValueError and p = 15 and 25 answered as if
    # Z/p were a field (no point, or 2 points and a 2-row span at p = 25)
    rows = ((1, 0, 0, 3), (0, 1, 3, 0))
    with pytest.raises(UnsupportedPrimeError, match=f"^p={p} is not a prime up to "):
        VarietyModel(3, 2, rows, 1, p)
    for q in (2, 3, 5, 2**31 - 1):
        assert VarietyModel(3, 2, rows, 1, q).p == q
    for q in (True, 2**31 + 11, 1):
        with pytest.raises(UnsupportedPrimeError):
            VarietyModel(3, 2, rows, 1, q)


def test_an_n2_fibre_is_charged_per_point_taken(monkeypatch):
    # a model with no prefix group is one system, whose kernel's projective
    # space is its one fibre, charged per point taken like any other: a
    # zero (2,2) form at p = 1,000,003 has 1,000,004 points, and a zero
    # (2,3) form at p = 1009 has 1,019,091.  A list of either forms
    # PREFIX_BUDGET + 1 of them, the last to tell that the walk goes on, and
    # is refused (it used to be refused before its first point);
    # relations_from_points stops at its ceiling and answers
    import sloccgeo.geometry

    subspace_points, formed = sloccgeo.geometry._subspace_points, 0

    def counted(basis, p):
        nonlocal formed
        for point in subspace_points(basis, p):
            formed += 1
            yield point

    monkeypatch.setattr(sloccgeo.geometry, "_subspace_points", counted)
    for model, p, d in (
        (VarietyModel(2, 2, ((0, 0),), 1, 1000003), 1000003, 2),
        (VarietyModel(2, 3, ((0, 0, 0),), 1, 1009), 1009, 3),
    ):
        formed = 0
        message = rf"^a model of format \(n=2, d={d}\) has more than 200000 points at p={p}, "
        with pytest.raises(WorkLimitError, match=message):
            enumerate_points(model, p)
        assert formed == PREFIX_BUDGET + 1
        span = relations_from_points(model, p)
        assert (span.rows, span.cols) == (0, d)
    # the bound is on the points taken: 8 at p = 7 are within a budget of
    # 8, and the ninth of the 12 at p = 11 is refused
    monkeypatch.setattr(sloccgeo.geometry, "PREFIX_BUDGET", 8)
    assert len(enumerate_points(VarietyModel(2, 2, ((0, 0),), 1, 7), 7)) == 8
    formed = 0
    message = r"^a model of format \(n=2, d=2\) has more than 8 points at p=11, the budget "
    with pytest.raises(WorkLimitError, match=message):
        enumerate_points(VarietyModel(2, 2, ((0, 0),), 1, 11), 11)
    assert formed == 9
    # a model built from a (2, d) state is regular: no point, at any prime
    for d in (2, 3):
        assert enumerate_points(variety_from_state(random_state(2, d, 5, 1)), 1009) == []


#: run in a child whose address space is capped at 1 GiB, so that a walk
#: which stored a range of residues fails there instead of taking tens of GB
_LARGEST_PRIME_WALK = """
import json, resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
import sloccgeo.geometry as geometry
from sloccgeo.errors import WorkLimitError
from sloccgeo.zalgebra import relations_from_points

p, formed, subspace_points = 2**31 - 1, 0, geometry._subspace_points

def counted(basis, p):
    global formed
    for point in subspace_points(basis, p):
        formed += 1
        yield point

geometry._subspace_points = counted
model = geometry.VarietyModel(2, 2, ((0, 0),), 1, p)
tracemalloc.start()
span = relations_from_points(model, p)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
formed, read = 0, formed
try:
    geometry.enumerate_points(model, p)
    message = None
except WorkLimitError as exc:
    message = str(exc)
print(json.dumps({"rows": span.rows, "read": read, "peak": peak, "formed": formed,
                  "message": message}))
"""


def test_an_n2_walk_at_the_largest_prime_is_bounded_by_the_points_taken():
    # the zero (2,2) form at p = 2^31 - 1 has p + 1 points, and its points
    # are formed one at a time (projective_points stores no range(p), which
    # itertools.product copied into a tuple, tens of GB, before its first
    # point): relations_from_points reads two points and answers in a few
    # kB, and a list forms PREFIX_BUDGET + 1 points and is refused
    pytest.importorskip("resource")
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _LARGEST_PRIME_WALK],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert (result["rows"], result["read"]) == (0, 2)
    assert result["peak"] < 2**16
    assert result["formed"] == PREFIX_BUDGET + 1
    assert result["message"] == (
        f"a model of format (n=2, d=2) has more than {PREFIX_BUDGET} points at "
        f"p={2**31 - 1}, the budget of a walk"
    )


#: t[i][j][k] = [i = 0] * A[j][k]: full flattening rank, and a model that
#: contains {x0 = 0} x P^2, so (p + 1)(p^2 + p + 1) points at p
_PLANE_A = ((4, -1, 0), (5, 3, -5), (2, -2, 5))
PLANE_STATE = Tensor.from_entries(
    3, 3, {(0, j, k): _PLANE_A[j][k] for j in range(3) for k in range(3) if _PLANE_A[j][k]}
)


def test_a_walk_lists_at_most_the_budget_of_points(monkeypatch):
    # p = 443 has 196,693 prefixes, within the prefix budget, but 87.3
    # million points: a list of the walk is refused once it holds
    # PREFIX_BUDGET points and the walk has another, where it used to list
    # them all (1,050,906 points and 158 MB at p = 101).  A reader that
    # stops sooner is not refused: relations_from_points reaches its
    # ceiling after 197,137 points and answers, where it was refused while
    # the bound counted whole fibres
    import sloccgeo.geometry

    model = variety_from_state(PLANE_STATE)

    def refusal(p, budget):
        return (rf"^a model of format \(n=3, d=3\) has more than {budget} points at p={p}, "
                "the budget of a walk$")

    def taken(p, budget):
        count = 0
        with pytest.raises(WorkLimitError, match=refusal(p, budget)):
            for _ in _points(model_mod_p(model, p), p):
                count += 1
        return count

    def scan(model, p):
        return smoothness_scan(model.source, (p,))

    with pytest.raises(WorkLimitError, match=refusal(443, PREFIX_BUDGET)):
        scan(model, 443)
    assert relations_from_points(model, 443).rows == 3
    # at p = 31 every walk lists all 31,776 points.  With a budget of
    # 5,000, exactly 5,000 are taken before the refusal, where the bound
    # used to allow up to one fibre (993 points) less; every list is
    # refused, and the roundtrip's reader, which takes 1,025, answers
    assert len(enumerate_points(model, 31)) == 32 * 993 == 31776
    assert scan(model, 31).point_counts == ((31, 31776),)
    monkeypatch.setattr(sloccgeo.geometry, "PREFIX_BUDGET", 5000)
    assert taken(31, 5000) == 5000
    for call in (enumerate_points, scan):
        with pytest.raises(WorkLimitError, match=refusal(31, 5000)):
            call(model, 31)
    assert relations_from_points(model, 31).rows == 3


def test_a_lazy_reader_is_never_refused():
    # the bound charges the points a reader takes: PREFIX_BUDGET points of
    # the plane model at p = 443 are taken with no refusal, though the last
    # of them lie inside a fibre of 196,693 points, and only the next point
    # asked for is refused
    reduced = model_mod_p(variety_from_state(PLANE_STATE), 443)
    walk = _points(reduced, 443)
    assert sum(1 for _ in islice(walk, PREFIX_BUDGET)) == PREFIX_BUDGET
    with pytest.raises(WorkLimitError, match="has more than 200000 points at p=443, "):
        next(walk)


def test_the_walk_builds_no_matrix(monkeypatch):
    # the walk's kernels come from the one kernel routine
    # (linalg._kernel_basis), with no Matrix: the one system of an n = 2
    # model and the non-square systems of a (3,3) model of two forms
    # answer with Matrix refused, and match the reference enumeration
    cases = [
        (VarietyModel(2, 3, ((1, 2, 3),), 1, 7), 7),
        (VarietyModel(2, 2, ((3, 0), (6, 0)), 1, 5), 5),
        (VarietyModel(3, 3, ((1, 0, 2, 0, 1, 0, 3, 0, 0), (0, 1, 0, 4, 0, 0, 0, 0, 1)), 1, 5), 5),
    ]
    expected = [reference_points(model, p) for model, p in cases]

    def refused(*args, **kwargs):
        raise AssertionError("a Matrix was built")

    monkeypatch.setattr(Matrix, "__init__", refused)
    for (model, p), points in zip(cases, expected):
        assert enumerate_points(model, p) == points
    assert [len(points) for points in expected[:2]] == [8, 1]


def test_ranks_take_the_one_rank_routine(monkeypatch, ghz3_qutrit):
    # every F_p rank that needs no RREF is linalg._echelon_rank, up to its
    # ceiling: _eliminate takes no mode, and the Jacobian ranks of
    # jacobian_rank_at and of a witness-finding scan build no Matrix to rank
    import inspect

    import sloccgeo.geometry
    import sloccgeo.linalg

    assert list(inspect.signature(sloccgeo.linalg._eliminate).parameters) == ["m", "cols", "p"]
    ceilings, echelon = [], sloccgeo.geometry._echelon_rank

    def counting(rows, p, ceiling):
        ceilings.append(ceiling)
        return echelon(rows, p, ceiling)

    def refused(self):
        raise AssertionError("Matrix.rank was called")

    monkeypatch.setattr(Matrix, "rank", refused)
    monkeypatch.setattr(sloccgeo.geometry, "_echelon_rank", counting)
    model = variety_from_state(ghz3_qutrit)
    assert jacobian_rank_at(model, ProjPoint(5, ((1, 0, 0), (0, 1, 0)))) == 2
    assert ceilings == [3]
    ceilings.clear()
    report = smoothness_scan(ghz3_qutrit, (5, 7))
    assert report.verdict == "SingularFound" and report.witnesses[0][2] < 3
    assert ceilings and set(ceilings) == {3}


def test_hasse_window_example():
    # exact integer window; sits inside the loose ceiling-based [3, 14]
    assert hasse_window(7) == (3, 13)


def test_smooth_curve_count_in_window():
    t = random_state(3, 3, 5, seed=42)  # smooth, good reduction at 7
    model = variety_from_state(t)
    count = len(enumerate_points(model, 7))
    lo, hi = hasse_window(7)
    assert lo <= count <= hi


def test_jacobian_rank_at_singular_point(ghz3_qutrit):
    model = variety_from_state(ghz3_qutrit)
    pt = ProjPoint(5, ((1, 0, 0), (0, 1, 0)))
    assert jacobian_rank_at(model, pt) == 2  # drops below d = 3


def test_jacobian_rank_on_smooth_state():
    t = random_state(3, 3, 5, seed=42)
    model = variety_from_state(t)
    for pt in enumerate_points(model, 11):
        assert jacobian_rank_at(model, pt) == 3


def test_jacobian_rejects_non_point(ghz3_qutrit):
    model = variety_from_state(ghz3_qutrit)
    with pytest.raises(NotOnVarietyError):
        jacobian_rank_at(model, ProjPoint(5, ((1, 1, 0), (1, 0, 0))))


def test_scan_ghz3_finds_witness(ghz3_qutrit):
    report = smoothness_scan(ghz3_qutrit, (5, 7))
    assert report.verdict == "SingularFound"
    p, pt, rank = report.witnesses[0]
    assert rank < 3
    model = variety_from_state(ghz3_qutrit)
    assert jacobian_rank_at(model, pt) == rank  # witness re-verifiable


def test_scan_family_excludes_bad_geometric_primes(family_1235):
    report = smoothness_scan(family_1235, (5, 7, 11))
    assert report.verdict == "NoSingularPointFound"
    assert report.excluded_primes == (5, 7, 11)
    assert report.point_counts == ()


def test_scan_family_good_primes_counts(family_1235):
    report = smoothness_scan(family_1235, (13, 17, 19))
    assert report.verdict == "NoSingularPointFound"
    assert report.excluded_primes == () and report.bad_primes == ()
    for p, count in report.point_counts:
        lo, hi = hasse_window(p)
        assert lo <= count <= hi


def test_scan_all_primes_bad(ghz3_qutrit):
    fifth = ghz3_qutrit.scale(Fraction(1, 5))
    with pytest.raises(AllPrimesBadError):
        smoothness_scan(fifth, (5,))
    # other primes unaffected by the denominator
    assert smoothness_scan(fifth, (5, 7)).verdict == "SingularFound"


def test_scan_refuses_non_primes_and_small_primes(family_1235):
    for primes in ((0,), (1,), (-5,), (2,), (3,), (4,), (5, 6), (), (2**31 + 11,)):
        with pytest.raises(UnsupportedPrimeError):
            smoothness_scan(family_1235, primes)


def test_scan_report_is_deterministic(family_1235):
    a = smoothness_scan(family_1235, (17, 13))
    b = smoothness_scan(family_1235, (13, 17))
    assert a == b
    assert a.to_json_dict()["point_counts"] == [[13, 16], [17, 24]]


def test_scan_excludes_witness_primes_of_certified_five_qubit_states():
    # the scan reported SingularFound for these states, which classify
    # proves smooth; each witness prime is a prime of singular reduction
    primes = (5, 7, 11, 13)
    for seed, excluded in ((3, (5,)), (19, (5, 7, 11)), (49, (5, 7, 11)), (143, (5, 7, 11))):
        t = random_state(5, 2, 5, seed=seed)
        report = smoothness_scan(t, primes)
        assert report.verdict == "NoSingularPointFound" and not report.witnesses, seed
        assert report.excluded_primes == excluded and report.bad_primes == (), seed
        assert report.primes == tuple(p for p in primes if p not in excluded), seed
        assert [p for p, _ in report.point_counts] == list(report.primes), seed
        assert classify(t, primes).status == SMOOTH_GENERIC
    # seed 50 is not certified and GHZ(5,2) is singular: their reports stay
    for t, counts, found in (
        (random_state(5, 2, 5, seed=50), (52, 87, 159, 231), [5, 11]),
        (ghz(5, 2), (302, 590, 1454, 2030), [5, 7, 11, 13]),
    ):
        report = smoothness_scan(t, primes)
        assert report.verdict == "SingularFound" and report.excluded_primes == ()
        assert report.point_counts == tuple(zip(primes, counts))
        assert [w[0] for w in report.witnesses] == found


def test_model_mod_p_handles_rational_basis():
    # a state whose canonical basis has denominators at p, but whose
    # saturated reduction is still fine
    t = random_state(3, 3, 5, seed=0)
    model = variety_from_state(t)
    for p in (7, 11, 13):
        reduced = model_mod_p(model, p)
        assert reduced.p == p and all(0 <= x < p for row in reduced.rows for x in row)
        assert len(enumerate_points(reduced, p)) > 0


def test_section_count_values():
    assert section_count(3, 3) == 6
    assert section_count(4, 2) == 6
    assert section_count(5, 2) == 14
    with pytest.raises(ValueError):
        section_count(1, 3)


def reference_points(model, p):
    """The dict-polynomial enumeration: evaluate every form at each prefix
    and each unit vector of the last group, then one kernel per prefix."""
    reduced = model_mod_p(model, p)
    d = reduced.d
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    points = []
    forms = ref.model_forms(reduced)
    for prefix in product(*[list(projective_points(d, p))] * (reduced.groups - 1)):
        rows = [[ref.evaluate(f, prefix + (u,), p) for u in units] for f in forms]
        kernel = Matrix(rows, cols=d, p=p).kernel()
        for tail in ref.subspace_points(kernel.entries, d, p):
            points.append(ProjPoint(p, prefix + (tail,)))
    return points


def _small_state_model(draw, n, d):
    """A model from a state with coefficients in [-2, 2]: many zeros, so
    rank-deficient prefix systems (several kernel points) occur too."""
    from hypothesis import assume, strategies as st

    coeffs = draw(st.lists(st.integers(-2, 2), min_size=d**n, max_size=d**n))
    try:
        return variety_from_state(Tensor(n, d, coeffs))
    except RankDeficientError:
        assume(False)


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2), (5, 2), (3, 2), (2, 3), (3, 4)])
def test_enumeration_matches_reference(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, given, settings, strategies as st

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), p=st.sampled_from((5, 7, 11)))
    def check(data, p):
        model = _small_state_model(data.draw, *fmt)
        try:
            expected = reference_points(model, p)
        except BadReductionError:
            assume(False)
        assert enumerate_points(model, p) == expected

    check()


@pytest.mark.parametrize("fmt", [(2, 3), (3, 2), (3, 3), (3, 4)])
def test_enumeration_matches_reference_on_hand_built_models(fmt):
    # m != d forms: no closed-form pencil applies, so the walk solves
    # every t of every line; zero-biased entries give degenerate systems
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    n, d = fmt

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), p=st.sampled_from((5, 7)), m=st.sampled_from((1, d - 1, d + 1)))
    def check(data, p, m):
        entry = st.one_of(st.just(0), st.integers(0, p - 1))
        row = st.tuples(*[entry] * d ** (n - 1))
        model = VarietyModel(n, d, data.draw(st.tuples(*[row] * m)), 1, p)
        assert enumerate_points(model, p) == reference_points(model, p)

    check()


def test_model_without_source_is_not_reduced():
    # the canonical rows of this state have den = 22; reduced through the
    # state they give 9 points at p = 11, and without the state there is
    # no reduction at all
    model = variety_from_state(random_state(3, 3, 5, seed=0))
    assert model.den == 22
    assert len(enumerate_points(model, 11)) == 9
    bare = VarietyModel(model.n, model.d, model.rows, model.den, None)
    with pytest.raises(ValueError):
        model_mod_p(bare, 11)


def _with_slocc_images(states):
    """The states and one image of each under a fixed random SLOCC operator."""
    return states + [
        apply_slocc(t, SloccOperator.random(t.n, t.d, 3, seed=k)) for k, t in enumerate(states)
    ]


def test_line_sweep_matches_reference_on_singular_models(singlet_times_bell):
    # GHZ(3,3) along x = (1, 0, t): the system diag(1, 0, t) has det 0 for
    # every t, and rank 1 = d - 2 at t = 0; singlet (x) Bell and GHZ(4,2)
    # have prefixes whose system vanishes.  The SLOCC images move these
    # lines off the coordinate axes.
    at_u = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]  # the system at u = (1, 0, 0)
    at_e_last = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    # det vanishes identically: every t is a root, and none is simple
    assert list(_pencil_roots(at_u, at_e_last, 3, 5)) == [(t, False) for t in range(5)]
    # det(A + tB) = t^2 (t - 1): a double root at 0, a simple one at 1
    diag = lambda *v: [[x if i == j else 0 for j in range(len(v))] for i, x in enumerate(v)]
    assert _pencil_roots(diag(0, 0, -1), diag(1, 1, 1), 3, 5) == [(0, False), (1, True)]
    assert _pencil_roots(diag(0, 0), diag(1, 1), 2, 7) == [(0, False)]  # t^2
    # t (t - 1) (t - 2) and t (t - 3): simple roots only
    assert _pencil_roots(diag(0, -1, -2), diag(1, 1, 1), 3, 5) == [(0, True), (1, True), (2, True)]
    assert _pencil_roots(diag(0, -3), diag(1, 1), 2, 7) == [(0, True), (3, True)]
    # GHZ(5,2) and W(4) have prefixes with whole P^1 fibres too; they run
    # at p <= 13 only, where the reference is still fast
    runs = [
        (t, DEFAULT_PRIMES) for t in _with_slocc_images([ghz(3, 3), ghz(4, 2), singlet_times_bell])
    ]
    runs += [(t, (5, 7, 11, 13)) for t in _with_slocc_images([ghz(5, 2), w_state(4)])]
    for t, primes in runs:
        model = variety_from_state(t)
        for p in primes:
            try:
                expected = reference_points(model, p)
            except BadReductionError:
                with pytest.raises(BadReductionError):
                    enumerate_points(model, p)
                continue
            assert enumerate_points(model, p) == expected, (t, p)


@pytest.mark.parametrize("p", [5, 7])
def test_kernel_points_read_the_rank(p):
    # (rows, d, point count): every square system is singular mod p, as the
    # walk and the left-kernel test hand them over; unreduced multiples of p
    # count as zero
    cases = [
        # zero: all of P^(d-1), with m = d and m != d
        ([[0, 0], [p, -p]], 2, p + 1),
        ([[0, p]], 2, p + 1),
        ([[0, 0, 0], [0, p, 0], [0, 0, 0]], 3, p * p + p + 1),
        ([[0, 0, 0]] * 4, 3, p * p + p + 1),
        # rank d-1 whose first candidate vanishes mod p: the row (0, p),
        # then r1 x r2 (r1 and r2 parallel), then r1 x r2 and r0 x r2 (r2
        # zero mod p)
        ([[0, p], [2, 3]], 2, 1),
        ([[p, 0], [0, 4]], 2, 1),
        ([[0, 0], [3, 0]], 2, 1),
        ([[1, 0, 0], [0, 1, 0], [0, 2, 0]], 3, 1),
        ([[1, 2, 0], [0, 1, 1], [p, 0, -p]], 3, 1),
        ([[2, 0, 1], [0, 0, 0], [1, 3, 0]], 3, 1),
        # d = 3 of rank 1: a line of p + 1 points
        ([[1, 2, 3], [2, 4, 6], [0, 0, p]], 3, p + 1),
        ([[0, 0, 1], [0, 0, 0], [0, 0, 2 + p]], 3, p + 1),
        # non-square and nonzero
        ([[1, 1]], 2, 1),
        ([[1, 2, 3], [3, 2, 1]], 3, 1),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3, 0),
    ]
    for rows, d, count in cases:
        expected = tuple(ref.subspace_points(ref.kernel_mod_p(Matrix(rows, cols=d, p=p)), d, p))
        assert len(expected) == count, rows
        assert _kernel_points(rows, d, p) == expected, rows


def _reference_witness(reduced, walk):
    """(p, point, rank) for the first point of a walk (``_points`` pairs of
    coordinate tuples and marks) whose full Jacobian rank drops below d, or
    None.  On the way, every point the walk certifies must have rank d
    (``jacobian_rank_at``): a certified point with a rank drop fails here,
    naming the point."""
    d, p = reduced.d, reduced.p
    tensor = _coefficient_tensor(reduced)
    found = None
    for coords, certified in walk:
        pt = ProjPoint(p, coords)
        if certified:
            rank = jacobian_rank_at(reduced, pt)
            assert rank == d, f"certified point {pt} has Jacobian rank {rank} < {d}"
        elif found is None:
            jac = _jacobian_rows(tensor, coords, d, p)
            rank = Matrix(jac, cols=len(jac[0]), p=p).rank()
            found = (p, pt, rank) if rank < d else None
    return found


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2), (5, 2), (3, 2)])
def test_jacobian_shortcut_matches_rank(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, given, settings, strategies as st

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), p=st.sampled_from((5, 7, 11)))
    def check(data, p):
        model = _small_state_model(data.draw, *fmt)
        try:
            reduced = model_mod_p(model, p)
        except BadReductionError:
            assume(False)
        walk = list(_points(reduced, p))
        assert [ProjPoint(p, coords) for coords, _ in walk] == enumerate_points(reduced, p)
        tensor = _coefficient_tensor(reduced)
        for coords, _ in walk:
            jac = _jacobian_rows(tensor, coords, reduced.d, p)
            rank = Matrix(jac, cols=len(jac[0]), p=p).rank()
            expected = (p, ProjPoint(p, coords), rank) if rank < reduced.d else None
            assert _first_witness(reduced, [(coords, False)]) == expected
        assert _first_witness(reduced, walk) == _reference_witness(reduced, walk)

    check()


def test_certified_points_are_smooth_on_fixed_models(singlet_times_bell):
    # singular models (every GHZ and singlet (x) Bell), their SLOCC images
    # and three random (5,2) states, at every default prime
    states = _with_slocc_images([ghz(3, 3), ghz(4, 2), ghz(5, 2), singlet_times_bell])
    states += [random_state(5, 2, 5, seed=seed) for seed in (19, 49, 143)]
    certified = 0
    for t in states:
        model = variety_from_state(t)
        for p in DEFAULT_PRIMES:
            try:
                reduced = model_mod_p(model, p)
            except BadReductionError:
                continue
            walk = list(_points(reduced, p))
            assert _first_witness(reduced, walk) == _reference_witness(reduced, walk), (t, p)
            certified += sum(c for _, c in walk)
    assert certified > 0


def test_classify_sweep_matches_full_scan(singlet_times_bell):
    # classify stops its sweep at the first witness (curve formats) or at
    # each prime's first witness ((5,2)); the full scan counts every point
    for t in _with_slocc_images([ghz(3, 3), ghz(4, 2), singlet_times_bell]):
        report = smoothness_scan(t)
        verdict = classify(t)
        assert verdict.status == SINGULAR_MODEL
        assert verdict.primes_used == report.primes
        assert verdict.singular_witness == report.witnesses[0]
    # (5,2): the vote (_vote) on every state; classify votes on the states
    # that it does not certify, GHZ(5,2) and seeds 50 and 152 among them
    voted = 0
    for t in [ghz(5, 2)] + [random_state(5, 2, 5, seed=seed) for seed in (*range(20), 50, 152)]:
        primes, witnesses = ref.full_sweep(t, (5, 7, 11, 13))
        singular = 2 * len(witnesses) > len(primes)
        vote = _vote(t, DEFAULT_PRIMES, False, _slice_pivot(t)[1])
        assert vote == (
            primes,
            SINGULAR_MODEL if singular else SMOOTH_GENERIC,
            witnesses[0] if singular else None,
        )
        verdict = classify(t)
        report = smoothness_scan(t, (5, 7, 11, 13))
        if verdict.primes_used:
            assert (verdict.primes_used, verdict.status, verdict.singular_witness) == vote
            assert (report.primes, report.witnesses) == (primes, tuple(witnesses))
            voted += 1
        else:
            # certified: the scan excludes its witness primes
            assert verdict.status == SMOOTH_GENERIC and verdict.singular_witness is None
            excluded = tuple(w[0] for w in witnesses)
            assert report.excluded_primes == excluded and not report.witnesses
            assert report.primes == tuple(p for p in primes if p not in excluded)
    assert voted == 3


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2), (5, 2), (3, 2), (3, 4)])
def test_jacobian_rows_match_partials(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    n, d = fmt

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), p=st.sampled_from((5, 7, 11)))
    def check(data, p):
        model = _small_state_model(data.draw, n, d)
        try:
            reduced = model_mod_p(model, p)
        except BadReductionError:
            assume(False)
        vec = st.tuples(*[st.integers(0, p - 1)] * d)
        coords = data.draw(st.tuples(*[vec] * (n - 1)))
        expected = [
            [
                ref.evaluate(ref.partial(f, g * d + i), coords, p)
                for g in range(n - 1)
                for i in range(d)
            ]
            for f in ref.model_forms(reduced)
        ]
        assert _jacobian_rows(_coefficient_tensor(reduced), coords, d, p) == expected

    check()


def test_default_prime_first_witnesses(singlet_times_bell):
    cases = [
        (ghz(3, 3), (5, ((1, 0, 0), (0, 1, 0)), 2)),
        (ghz(4, 2), (5, ((1, 0), (1, 0), (0, 1)), 1)),
        (singlet_times_bell, (5, ((1, 0), (1, 0), (1, 0)), 1)),
    ]
    for state, expected in cases:
        p, pt, rank = smoothness_scan(state).witnesses[0]
        assert (p, pt.coords, rank) == expected


def _check_curve_count(t, primes=DEFAULT_PRIMES):
    """smoothness_scan of a (3,3) or (4,2) state whose slice discriminants
    all are nonzero, which counts its projected curve instead of walking,
    against the walk: at every used prime the count is the walk's, and the
    Jacobian sweep of the walk finds no witness.  Returns the reports'
    used primes."""
    discs = slice_discriminants(t)
    assert discs and all(discs)
    report = smoothness_scan(t, primes)
    assert report.verdict == "NoSingularPointFound" and report.witnesses == ()
    model = variety_from_state(t)
    for p, count in report.point_counts:
        reduced = model_mod_p(model, p)
        assert count == len(enumerate_points(reduced, p)), (t, p)
        assert _first_witness(reduced, _points(reduced, p)) is None, (t, p)
    return report.primes


@pytest.mark.parametrize("fmt", [(3, 3), (4, 2)])
def test_curve_count_matches_the_walk(fmt):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, assume, given, settings, strategies as st

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10**6),
        bound=st.sampled_from((1, 5)),
        op_seed=st.none() | st.integers(0, 10**6),
    )
    def check(seed, bound, op_seed):
        t = random_state(*fmt, bound, seed)
        if op_seed is not None:
            t = apply_slocc(t, SloccOperator.random(*fmt, 2, op_seed))
        assume(all(slice_discriminants(t)))
        _check_curve_count(t)

    check()


def test_curve_count_matches_the_walk_on_fixed_states():
    states = []
    for fmt in ((3, 3), (4, 2)):
        for seed in range(8):
            t = random_state(*fmt, 5, seed)
            if all(slice_discriminants(t)):
                states.append(t)
    used = [_check_curve_count(t) for t in _with_slocc_images(states)]
    assert len(states) >= 12 and sum(map(len, used)) > 150


@pytest.mark.parametrize("fmt, seed, p", [((4, 2), 4, 11), ((3, 3), 3, 19)])
def test_curve_count_at_the_chart_edge(fmt, seed, p):
    # The last chart point lies on the curve: x = (0, 1) is a root of the
    # (4,2) branch quartic (its x1^4 coefficient vanishes mod p), and
    # (0, 0, 1) a zero of the (3,3) plane cubic (its x2^3 coefficient).
    t = random_state(*fmt, 5, seed)
    reduced = model_mod_p(variety_from_state(t), p)
    coeffs = projection_coefficients(reduced.rows, *fmt, CURVE_AXES[fmt][0])
    last = _branch(coeffs)[4] if fmt == (4, 2) else coeffs[9]
    assert last % p == 0
    assert _check_curve_count(t, (p,)) == (p,)
    edge = (0,) * (fmt[1] - 1) + (1,)
    assert sum(pt.coords[0] == edge for pt in enumerate_points(reduced, p)) == 1


def test_sweep_without_prefix_groups_solves_one_system():
    # n = 2: the model is d linear forms on P^(d-1), so each prime costs one
    # d x d system, not a pass over the (p^d - 1)/(p - 1) points of P^(d-1)
    report = smoothness_scan(random_state(2, 5, 5, seed=1))
    assert report.verdict == "NoSingularPointFound"
    assert report.primes == (5, 7, 11, 13, 17, 23, 29, 31)  # 19 divides the det
    assert [count for _, count in report.point_counts] == [0] * 8


def test_sweep_over_prefix_budget_is_refused():
    t43 = random_state(4, 3, 5, seed=1)
    with pytest.raises(WorkLimitError):
        classify(t43)  # ~2.3 * 10^6 prefixes over the default primes
    with pytest.raises(WorkLimitError):
        smoothness_scan(random_state(5, 3, 5, seed=1))
    model = variety_from_state(t43)
    with pytest.raises(WorkLimitError):
        enumerate_points(model, 31)  # 993^2 prefixes in one call
    assert (5**2 + 5 + 1) ** 2 <= PREFIX_BUDGET
    assert smoothness_scan(t43, (5,)).primes == (5,)


def test_prime_lists_in_errors_are_bounded_excerpts():
    # each list used to be echoed whole: the 428 primes in [5, 3000) gave a
    # WorkLimitError of 2,466 characters, and the message grew with the list
    primes = [p for p in range(5, 3000) if all(p % q for q in range(2, p))]
    assert len(primes) == 428
    with pytest.raises(WorkLimitError) as info:
        smoothness_scan(random_state(3, 3, 5, 1), primes)
    assert str(info.value).startswith("a point sweep of (P^2)^2 at primes [5, 7, 11, ")
    assert len(str(info.value)) <= 220, len(str(info.value))
    many = primes[:40]
    state = ghz(3, 2).scale(Fraction(1, prod(many)))
    for call in (lambda: smoothness_scan(state, many), lambda: classify(state, many)):
        with pytest.raises(AllPrimesBadError) as info:
            call()
        message = str(info.value)
        assert message.startswith("all primes [5, 7, 11, ") and message.endswith(
            "] hit bad reduction"
        )
        assert len(message) <= 130, len(message)
    # a short list keeps its bytes
    for call in (smoothness_scan, classify):
        with pytest.raises(AllPrimesBadError, match=r"^all primes \[5, 7\] hit bad reduction$"):
            call(ghz(3, 2).scale(Fraction(1, 35)), (7, 5))


def _rank_at(coords):
    model = variety_from_state(random_state(3, 3, 5, 1))
    return jacobian_rank_at(model, ProjPoint(7, coords))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _rank_at(((1, 0, 0),)), "coordinate arity mismatch"),
        # not projective points, and Euler's check passes on a zero group:
        # the first two returned ranks 0 and 3
        (lambda: _rank_at(((0, 0, 0), (0, 0, 0))), "zero coordinate vector"),
        (lambda: _rank_at(((0, 0, 0), (1, 2, 3))), "zero coordinate vector"),
        (lambda: _rank_at(((1, 0, 0), (7, 14, 0))), "zero coordinate vector"),
        # hand-built models over F_7 of the wrong shape: rows of 2 entries
        # where 9 are needed returned rank 0, read as a singular point
        (
            lambda: jacobian_rank_at(
                VarietyModel(3, 3, ((1, 2), (0, 1), (1, 1)), 1, 7),
                ProjPoint(7, ((1, 0, 0), (1, 0, 0))),
            ),
            r"needs rows of d\*\*\(n-1\) coefficients",
        ),
        (
            lambda: jacobian_rank_at(
                VarietyModel(3, 3, ((0,) * 9,) * 2, 1, 7),
                ProjPoint(7, ((1, 0, 0), (1, 0, 0))),
            ),
            r"needs 3 rows of 9 coefficients",
        ),
        # short rows ended in a bare IndexError in the point walk, the
        # relations and both determinant-based entry points; they are now
        # refused where the model is built
        (lambda: VarietyModel(3, 3, ((1, 2), (0, 1), (1, 1)), 1, 7), r"needs rows of d\*\*\(n-1\)"),
        (lambda: VarietyModel(3, 3, ((1,) * 9, (1,) * 8), 1, 7), r"needs rows of d\*\*\(n-1\)"),
        (lambda: VarietyModel(3, 3, (), 1, 7), r"needs rows of d\*\*\(n-1\)"),
        (lambda: VarietyModel(10**5000, 2, ((1,),), 1, 7), r"needs rows of d\*\*\(n-1\)"),
        # two full rows gave 18 coefficients where a cubic has 10, and a
        # fourth row was ignored
        (lambda: determinantal_projection(VarietyModel(3, 3, ((1,) * 9,) * 2, 1, 7), (0,)),
         r"needs 3 rows of 9 coefficients"),
        (lambda: determinantal_projection(VarietyModel(3, 3, ((1,) * 9,) * 4, 1, 7), (0,)),
         r"needs 3 rows of 9 coefficients"),
        (lambda: curve_singular_mod_p(VarietyModel(4, 2, ((1,) * 8,) * 3, 1, 7)),
         r"needs 2 rows of 8 coefficients"),
    ],
    ids=[
        "point-arity",
        "zero-point",
        "zero-first-group",
        "zero-mod-p-group",
        "model-row-length",
        "model-row-count",
        "built-short-rows",
        "built-ragged-rows",
        "built-no-rows",
        "built-huge-n",
        "projection-two-rows",
        "projection-four-rows",
        "discriminants-three-rows",
    ],
)
def test_malformed_geometry_calls_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
