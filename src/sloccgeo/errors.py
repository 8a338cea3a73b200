"""Exception types shared across the package.

Every package error derives from ``SloccGeoError``, so callers can tell
input degeneracy apart from bad prime choices and malformed data.

The contract of every public call: a malformed argument raises a
``SloccGeoError`` or a ``ValueError`` within bounded work, and the command
line maps both to exit 2.  The kind of each argument is stated once, as
its annotation in the signature, and checked in one place (``_guard``): a
value of the wrong kind raises ValueError naming the parameter, and a
bound on one argument alone, such as a Hilbert degree's range, belongs to
its kind.  The result records (``HilbertProfile``, ``Verdict``,
``SmoothnessReport``, ...) are outputs, not arguments: the package builds
them, and their constructors check nothing.
Out-of-range state-file indices raise ``IndexRangeError``, which is also the
builtin ``IndexError``.  A message that echoes an input value echoes it
through ``_excerpt``, so its length does not grow with the input's.
"""


def _excerpt(value, show=repr):
    """show(value), repr by default, for an error message: whole up to 100
    characters, else its first 60 and last 37 around "...", so a message
    stays short however large the input it echoes.  A value that show
    cannot print is named instead: an int too long for int-to-string
    conversion by its bit length, anything else (a Fraction or a list
    holding such an int) by its type."""
    try:
        text = show(value)
    except Exception:
        if type(value) is int:
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 100 else f"{text[:60]}...{text[-37:]}"


class SloccGeoError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(SloccGeoError):
    """The input state is outside the generic locus an operation requires."""


class RankDeficientError(DegenerateInputError):
    """The flattening image has dimension below the local dimension d."""

    def __init__(self, dim, expected):
        super().__init__(f"flattening image has dimension {dim}, expected {expected}")
        self.dim = dim
        self.expected = expected


class InsufficientPointsError(DegenerateInputError):
    """Too few, or too degenerate, finite-field points at one prime to
    determine what a check needs: an evaluation rank below width -
    rank(forms), the rank at which the points give back exactly the
    model's forms, or too few projected points for a section product.  It
    speaks for that prime only: a smooth curve can have too few points at a
    small good prime (4 at p = 7, against a rank of 6), so the per-prime
    reports of the command line refuse that prime alone, as they refuse a
    bad reduction."""


class AllPrimesBadError(DegenerateInputError):
    """Every candidate prime hit bad reduction."""


class BadReductionError(SloccGeoError):
    """The chosen prime is bad for a reduction: it divides a denominator,
    the reduced flattening loses rank, or (in the section-product test, the
    roundtrip and an off-target Hilbert profile) the reduced curve of a
    smooth curve model is singular.  ``message`` says which."""

    def __init__(self, p, message):
        super().__init__(message)
        self.p = p


class InputFileError(SloccGeoError):
    """A state file cannot be opened or read, or an ``--out`` file cannot be
    written."""


class SchemaError(SloccGeoError):
    """A state document does not match the expected JSON schema."""


class DuplicateIndexError(SchemaError):
    """A state document lists the same coefficient index twice."""


class IndexRangeError(SchemaError, IndexError):
    """A state document lists an index outside range(d)."""


class WorkLimitError(SloccGeoError):
    """A request lies outside the bounded-work envelope: an exact flattening
    over its cost bound, a point sweep over the prefix budget, a Hilbert
    degree out of range, a matrix over its entry cap or a random draw over
    its cost bound."""


class UnsupportedPrimeError(SloccGeoError):
    """A requested prime is not a prime in the supported range (at least 5)."""


class SingularOperatorError(SloccGeoError):
    """A local operator factor is not invertible."""


class UnsupportedFormatError(SloccGeoError):
    """The (n, d) format is outside the supported range for this operation."""


class NotOnVarietyError(SloccGeoError):
    """A point fails the defining equations it was claimed to satisfy."""


class WrongDegreeError(SloccGeoError):
    """A polynomial argument has the wrong (multi)degree."""


class WrongFormatError(SloccGeoError):
    """A tensor argument has the wrong (n, d) format."""


class FormatMismatchError(SloccGeoError):
    """Two tensors that should share a format do not."""
