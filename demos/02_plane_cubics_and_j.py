"""Three qutrits: determinantal plane cubics and their j-invariants.

Eliminating one projective factor of a (3,3) model through the determinant
of its matrix of linear forms yields a ternary cubic.  Its classical
invariants S (degree 4) and T (degree 6) are generated here as full
epsilon contractions and calibrated on the Weierstrass family, so that
j = 110592 * S^3 / (64 S^3 - T^2) and the denominator vanishes exactly on
singular cubics.
"""

from fractions import Fraction

from sloccgeo import (
    classify,
    determinantal_projection,
    ghz,
    plane_cubic_invariants,
    random_state,
    variety_from_state,
)
from sloccgeo.linalg import clear_denominators

# GHZ projects to the triangle x0*x1*x2: three lines, a singular cubic.
# The projection is 10 rational coefficients in CUBIC_MONOMIALS order
# (x0^3, x0^2*x1, x0^2*x2, x0*x1^2, x0*x1*x2, ..., x2^3); the invariants
# take them as integers over one denominator.
projection = determinantal_projection(variety_from_state(ghz(3, 3)), (0,))
(triangle,), den = clear_denominators([projection])
print("GHZ cubic coefficients:", triangle, "over", den)
inv = plane_cubic_invariants(triangle, den)
print("GHZ cubic invariants:", inv.pair)
print("GHZ cubic discriminant:", inv.discriminant)
print("GHZ cubic j:", inv.j)

# The Weierstrass calibration: j matches the textbook closed form.
for alpha, beta in [(-1, 0), (0, 1), (2, 3)]:
    cubic = [-1, 0, 0, 0, 0, -alpha, 0, 1, 0, -beta]  # x1^2*x2 - x0^3 - a*x0*x2^2 - b*x2^3
    j = plane_cubic_invariants(cubic).j
    closed = 1728 * Fraction(4 * alpha**3, 4 * alpha**3 + 27 * beta**2)
    print(f"weierstrass({alpha},{beta}): j = {j} (closed form {closed})")

# The Fermat cubic has extra symmetry: S = 0 forces j = 0.
fermat = plane_cubic_invariants([1, 0, 0, 0, 0, 0, 1, 0, 0, 1])
print("fermat:", fermat.pair, "j =", fermat.j)

# For a generic state the two possible projections give the same curve
# up to isomorphism, so classification attaches a single exact j.
t = random_state(3, 3, 5, seed=42)
verdict = classify(t)
print("random state status:", verdict.status)
for proj in verdict.projections:
    print("  axes", proj.axes, "j =", proj.invariants.j)
