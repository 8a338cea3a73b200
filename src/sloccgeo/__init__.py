"""Exact-arithmetic SLOCC classification of n-qudit states through the
complete-intersection curve and surface models they cut out.

The pipeline: a state is a dense rational tensor, kept as integer
numerators over one common denominator; its flattening against the last
factor spans a subspace whose multilinear forms cut out a model
in a product of projective spaces; classical invariants of the projected
curves (j-invariants, hyperdeterminants) separate generic orbits, and
finite-field point counts supply smoothness evidence where exact
discriminants are unavailable.
"""

__version__ = "0.1.0"

from .errors import (
    AllPrimesBadError,
    BadReductionError,
    DegenerateInputError,
    DuplicateIndexError,
    IndexRangeError,
    FormatMismatchError,
    InputFileError,
    InsufficientPointsError,
    NotOnVarietyError,
    RankDeficientError,
    SchemaError,
    SingularOperatorError,
    SloccGeoError,
    UnsupportedFormatError,
    UnsupportedPrimeError,
    WorkLimitError,
    WrongDegreeError,
    WrongFormatError,
)
from .linalg import DEFAULT_PRIMES, Matrix, random_invertible
from .states import (
    SloccOperator,
    Tensor,
    apply_slocc,
    basis_state,
    flatten_last,
    flattening_image,
    four_qubit_generic_family,
    ghz,
    parse_state,
    random_state,
    reduced_flattening_image,
    state_to_json,
    tensor_product,
    w_state,
)
from .geometry import (
    MultiForm,
    ProjPoint,
    SmoothnessReport,
    VarietyModel,
    determinantal_projection,
    enumerate_points,
    hasse_window,
    jacobian_rank_at,
    model_mod_p,
    section_count,
    smoothness_scan,
    variety_from_state,
)
from .invariants import (
    BinaryQuartic,
    ComparisonResult,
    CurveInvariants,
    TernaryCubic,
    Verdict,
    aronhold_invariants,
    branch_quartic,
    cayley_hyperdet,
    classify,
    cubic_discriminant,
    curve_singular_mod_p,
    exact_projection_discriminants,
    j_binary_quartic,
    j_biquadratic,
    j_plane_cubic,
    moduli_dimension,
    quartic_discriminant,
    quartic_invariants,
    schlaefli_hyperdet,
    slocc_compare,
)
from .zalgebra import (
    HilbertProfile,
    ProductMapResult,
    cubic_expected_dims,
    cubic_hilbert,
    multiplication_surjectivity,
    quadratic_expected_dims,
    quadratic_hilbert,
    relations_from_points,
    roundtrip_check,
)
