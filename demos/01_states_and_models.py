"""States, flattenings, and the multilinear models they cut out.

A state of n qudits is a dense tensor of exact rationals.  Reading it as a
linear map out of the dual of the last factor gives a d**(n-1) x d matrix;
the column span of that matrix, written as multilinear forms, cuts out a
subvariety of a product of projective spaces.  Generic states give smooth
models; special states degenerate visibly.
"""

from sloccgeo import (
    basis_state,
    flatten_last,
    flattening_image,
    ghz,
    parse_state,
    random_state,
    state_to_json,
    variety_from_state,
)
from sloccgeo.errors import RankDeficientError

# The three-qutrit GHZ state |000> + |111> + |222>, via the file format.
doc = """{"n":3,"d":3,"entries":[
  {"idx":[0,0,0],"c":"1"},
  {"idx":[1,1,1],"c":"1"},
  {"idx":[2,2,2],"c":"1"}]}"""
ghz3 = parse_state(doc)
assert ghz3 == ghz(3, 3)
print("canonical serialization:", state_to_json(ghz3))

# Its flattening has one unit column per diagonal entry, so the image is
# three-dimensional and the defining forms are x_k * y_k.  A model keeps
# each form as one integer row of coefficients of x_i * y_j (i slowest),
# over one common denominator.
print("flattening:", flatten_last(ghz3))
print("image dimension:", flattening_image(ghz3).rows)
model = variety_from_state(ghz3)
for row in model.rows:
    print("  defining form row:", row, "over", model.den)

# A separable state flattens to rank one: no model of codimension d exists.
try:
    variety_from_state(basis_state(3, 3, (0, 0, 0)))
except RankDeficientError as err:
    print("separable state:", err)

# Random integer states are generic: full-dimensional image, smooth model.
t = random_state(3, 3, 5, seed=42)
print("random state image dimension:", flattening_image(t).rows)
model = variety_from_state(t)
print("first defining form row:", model.rows[0], "over", model.den)
