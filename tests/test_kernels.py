"""The integer kernels of the exact curve path against their former
versions (``reference_algebra``) and, where sympy is installed, against
symbolic algebra.

The kernels are the row-by-row expansion of the determinantal projection
(``projection_coefficients``), the pair-product evaluation of S and T
(``invariants._cubic_st``) and the integer discriminant and j rule
(``invariants._curve``).  Their references are the sum of numeric
determinants, the term-by-term evaluation and the ``Fraction`` rule.
"""

import random
from fractions import Fraction

import pytest

from sloccgeo.geometry import (
    BIQUADRATIC_MONOMIALS,
    CUBIC_MONOMIALS,
    CURVE_AXES,
    PROJECTION_MONOMIALS,
    VarietyModel,
    projection_coefficients,
)
from sloccgeo.invariants import (
    BIQUADRATIC,
    PLANE_CUBIC,
    TernaryCubic,
    _branch,
    _cubic_st,
    _ij,
    aronhold_invariants,
    biquadratic_invariants,
    curve_singular_mod_p,
    plane_cubic_invariants,
)
from sloccgeo.linalg import clear_denominators

import reference_algebra as ref

BIG = 10**30
CURVE_FORMATS = sorted(CURVE_AXES)


def _reference_invariants(kind, coeffs, den):
    """(pair, discriminant, j) of a projected curve with integer
    coefficients coeffs / den, from the former kernels."""
    if kind == PLANE_CUBIC:
        return ref.curve(kind, ref.cubic_st(coeffs, den))
    i_int, j_int = _ij(*_branch(coeffs))
    return ref.curve(kind, (Fraction(i_int, den**4), Fraction(j_int, den**6)))


def _invariants(kind, coeffs, den):
    inv = (plane_cubic_invariants if kind == PLANE_CUBIC else biquadratic_invariants)(coeffs, den)
    return inv.pair, inv.discriminant, inv.j


def _singular_cubic(rng, bound):
    """A cubic singular at [0:0:1]: no monomial has x2-degree 2 or 3."""
    return [0 if m[2] >= 2 else rng.randint(-bound, bound) for m in CUBIC_MONOMIALS]


def _singular_biquadratic(rng, bound):
    """A (2,2)-form singular at ([1:0], [1:0]): no x0^2*y0^2, x0^2*y0*y1 or
    x0*x1*y0^2 term."""
    return [
        0 if m[0] + m[2] >= 3 else rng.randint(-bound, bound) for m in BIQUADRATIC_MONOMIALS
    ]


def test_projection_matches_determinant_sum():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(CURVE_FORMATS), bound=st.sampled_from((2, BIG)))
    def check(data, fmt, bound):
        n, d = fmt
        entries = st.integers(-bound, bound)
        rows = data.draw(st.lists(
            st.lists(entries, min_size=d ** (n - 1), max_size=d ** (n - 1)),
            min_size=d, max_size=d,
        ))
        for kept in CURVE_AXES[fmt]:
            coeffs = projection_coefficients(rows, n, d, kept)
            assert coeffs == ref.projection_coefficients(rows, n, d, kept)
            assert len(coeffs) == len(PROJECTION_MONOMIALS[fmt])

    check()


def test_curve_invariants_match_fraction_rule():
    # S/T by pair products and the integer discriminant/j rule against
    # the term-by-term evaluation and the Fraction rule, on coefficients
    # up to 10^30 over a denominator, smooth and singular
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from((PLANE_CUBIC, BIQUADRATIC)),
        seed=st.integers(0, 10**6),
        bound=st.sampled_from((1, 5, BIG)),
        singular=st.booleans(),
        den=st.sampled_from((1, 7, 3**40)),
    )
    def check(kind, seed, bound, singular, den):
        rng = random.Random(seed)
        if kind == PLANE_CUBIC:
            coeffs = _singular_cubic(rng, bound) if singular else [
                rng.randint(-bound, bound) for _ in range(10)
            ]
            s, t = ref.cubic_st(coeffs, den)
            assert [Fraction(*x) for x in _cubic_st(coeffs, den)] == [s, t]
        else:
            coeffs = _singular_biquadratic(rng, bound) if singular else [
                rng.randint(-bound, bound) for _ in range(9)
            ]
        expected = _reference_invariants(kind, coeffs, den)
        assert _invariants(kind, coeffs, den) == expected
        if singular:
            assert expected[1] == 0 and expected[2] is None

    check()


@pytest.mark.parametrize("kind,size", [(PLANE_CUBIC, 10), (BIQUADRATIC, 9)])
def test_zero_curve_is_singular(kind, size):
    pair, disc, j = _invariants(kind, [0] * size, 1)
    assert pair == (0, 0) and disc == 0 and j is None
    assert (pair, disc, j) == _reference_invariants(kind, [0] * size, 1)


def test_known_cubics_through_public_invariants():
    # the public entry points run the same kernels on Fraction coefficients
    for coeffs in ([1, 0, 0, 0, 0, 0, 1, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
                   [Fraction(1, 3), 2, 0, -1, 0, Fraction(5, 7), 1, 0, 0, 4]):
        cubic = TernaryCubic(coeffs)
        (nums,), den = clear_denominators([cubic.coeffs])
        assert aronhold_invariants(cubic) == ref.cubic_st(nums, den)


def test_curve_singular_mod_p_matches_reference():
    # F_p residue rows, as curve_singular_mod_p reads a reduced model
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        fmt=st.sampled_from(CURVE_FORMATS),
        p=st.sampled_from((5, 7, 11, 2**31 - 1)),
        seed=st.integers(0, 10**6),
    )
    def check(fmt, p, seed):
        n, d = fmt
        rng = random.Random(seed)
        rows = tuple(tuple(rng.randrange(p) for _ in range(d ** (n - 1))) for _ in range(d))
        kind = PLANE_CUBIC if fmt == (3, 3) else BIQUADRATIC
        discs = []
        for kept in CURVE_AXES[fmt]:
            coeffs = ref.projection_coefficients(rows, n, d, kept)
            assert projection_coefficients(rows, n, d, kept) == coeffs
            discs.append(_reference_invariants(kind, coeffs, 1)[1])
        expected = any(Fraction(disc).numerator % p == 0 for disc in discs)
        assert curve_singular_mod_p(VarietyModel(n, d, rows, 1, p)) == expected

    check()


# ---------------------------------------------------------------- sympy
# Optional oracle: symbolic determinants and the Hessian syzygy of plane
# cubics.  Skipped where sympy is not installed.


def _form(sp, row, groups, d):
    """The multilinear form with coefficient row ``row`` (row-major over
    the groups) and its variables, one tuple per group."""
    names = "xyzw"
    variables = [sp.symbols(f"{names[g]}0:{d}") for g in range(groups)]
    form = 0
    for flat, c in enumerate(row):
        term, rest = c, flat
        for g in reversed(range(groups)):
            rest, v = divmod(rest, d)
            term *= variables[g][v]
        form += term
    return form, variables


@pytest.mark.parametrize("fmt", CURVE_FORMATS)
def test_projection_matches_sympy_determinant(fmt):
    sp = pytest.importorskip("sympy")
    n, d = fmt
    rng = random.Random(17)
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(d ** (n - 1))] for _ in range(d)]
        for kept in CURVE_AXES[fmt]:
            forms = [_form(sp, row, n - 1, d) for row in rows]
            variables = forms[0][1]
            dropped = next(g for g in range(n - 1) if g not in kept)
            matrix = sp.Matrix(d, d, lambda k, l: sp.diff(forms[k][0], variables[dropped][l]))
            kept_vars = [x for g in kept for x in variables[g]]
            poly = sp.Poly(sp.expand(matrix.det()), *kept_vars)
            expected = [int(poly.coeff_monomial(m)) for m in PROJECTION_MONOMIALS[fmt]]
            assert projection_coefficients(rows, n, d, kept) == expected


def test_st_satisfy_hessian_syzygy():
    # H(H(f)) = 12288*S^2*f - 128*T*H(f), H the Hessian determinant
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x0:3")

    def hessian(f):
        return sp.expand(sp.Matrix(3, 3, lambda i, j: sp.diff(f, x[i], x[j])).det())

    rng = random.Random(23)
    for _ in range(5):
        coeffs = [rng.randint(-5, 5) for _ in range(10)]
        f = sum(c * x[0] ** a * x[1] ** b * x[2] ** e for c, (a, b, e) in zip(coeffs, CUBIC_MONOMIALS))
        s, t = (sp.Rational(v.numerator, v.denominator) for v in aronhold_invariants(TernaryCubic(coeffs)))
        h = hessian(f)
        assert sp.expand(hessian(h) - 12288 * s**2 * f + 128 * t * h) == 0
