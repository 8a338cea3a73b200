"""Relation spaces, reconstruction, and graded dimension profiles.

Evaluating monomials at a model's F_p-points recovers the defining
relation space exactly (the reconstruction roundtrip) and measures whether
two section spaces multiply surjectively (the embedding test).  Graded
dimension profiles take their relations from the flattening images of the
state's cyclic rotations instead: a generic state meets the regular-algebra
targets from the minimal resolutions, and a degenerate one misses them.
"""

from sloccgeo import (
    cubic_hilbert,
    four_qubit_generic_family,
    ghz,
    multiplication_surjectivity,
    quadratic_hilbert,
    random_state,
    relations_from_points,
    roundtrip_check,
    variety_from_state,
)
from sloccgeo.states import Tensor, tensor_product

# Reconstruction: the kernel of the monomial evaluation at the model's
# F_p-points is exactly the reduced flattening image.
t = random_state(3, 3, 5, seed=42)
for p in (7, 11, 13):
    print(f"roundtrip at p={p}:", roundtrip_check(t, p))
rel = relations_from_points(variety_from_state(t), 11)
print("relation space at p=11: dim", rel.rows)

# Graded profiles: computed values vs regular-algebra targets, which a
# generic state meets at every good prime.
profile = quadratic_hilbert(t, 11, 4)
print("quadratic profile:", profile.dims, "targets:", profile.expected)
fam = four_qubit_generic_family(1, 2, 3, 5)
profile = cubic_hilbert(fam, 13, 5)
print("cubic profile:", profile.dims, "targets:", profile.expected)

# A degenerate input misses the targets: GHZ(3,3) gives 12, not 10, in
# degree 3.
bad = quadratic_hilbert(ghz(3, 3), 13, 3)
print("GHZ profile:", bad.dims, "matches targets:", bad.matches())

# The embedding test: generic states multiply surjectively; a state whose
# first two factors carry the same projective map has a forced kernel.
print("family product map:", multiplication_surjectivity(fam, (0, 1), 13).to_json_dict())
singlet = Tensor.from_entries(2, 2, {(0, 1): 1, (1, 0): -1})
diagonal = tensor_product(singlet, ghz(2, 2))
print("diagonal product map:", multiplication_surjectivity(diagonal, (0, 1), 13).to_json_dict())
