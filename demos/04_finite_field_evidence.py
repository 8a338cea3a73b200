"""Finite-field point enumeration and smoothness evidence.

Every F_p-point of a model is found by sweeping all but the last variable
group and solving the remaining square linear system exactly.  Jacobian
ranks at those points witness singularity; for curve formats the exact
discriminant tells which primes degenerate the reduction and must be
excluded, and the surviving point counts obey the genus-one window.
"""

from sloccgeo import (
    enumerate_points,
    four_qubit_generic_family,
    ghz,
    hasse_window,
    jacobian_rank_at,
    random_state,
    smoothness_scan,
    variety_from_state,
)

# The GHZ model is a union of lines; its singular points are visible to
# every prime, and the first witness re-verifies by Jacobian rank.
report = smoothness_scan(ghz(3, 3), (5, 7))
print("GHZ verdict:", report.verdict)
prime, point, rank = report.witnesses[0]
print(f"  witness at p={prime}: {point}, jacobian rank {rank}")
print("  re-verified rank:", jacobian_rank_at(variety_from_state(ghz(3, 3)), point))

# The (1,2,3,5) family is smooth, but its discriminant is divisible by
# 5, 7 and 11: those primes are excluded, the rest obey the window.
fam = four_qubit_generic_family(1, 2, 3, 5)
report = smoothness_scan(fam, (5, 7, 11, 13, 17, 19))
print("family verdict:", report.verdict)
print("  excluded (bad geometric reduction):", report.excluded_primes)
for p, count in report.point_counts:
    lo, hi = hasse_window(p)
    print(f"  p={p}: {count} points, window [{lo},{hi}]")

# Point enumeration itself is exhaustive and duplicate-free.
model = variety_from_state(random_state(3, 3, 5, seed=42))
pts = enumerate_points(model, 11)
print("random (3,3) state at p=11:", len(pts), "points, window", hasse_window(11))

# A five-qubit state cuts out a K3 surface.  Its sweep finds a singular
# point at p = 5, but the Schlaefli pencil form of the state is squarefree
# modulo 2^31 - 1, which proves the surface smooth over Q-bar: 5 is a
# prime of singular reduction, excluded like a curve's, and classification
# reads the same certificate.
from sloccgeo import classify

five = random_state(5, 2, 5, seed=77)
surface = smoothness_scan(five, (5, 7, 11, 13))
print("five-qubit counts:", surface.point_counts, "->", surface.verdict)
print("  excluded (singular reduction):", surface.excluded_primes)
print("  classification verdict:", classify(five, primes=(5, 7, 11, 13)).status)
