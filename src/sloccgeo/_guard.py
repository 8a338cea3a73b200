"""The argument contract of the public API, decided in one place.

Each module ends with one call of ``guard``, which wraps its public
functions, and the constructors and public classmethods of the classes it
names, in the checks of their parameters.  A parameter's kind is the entry
of ``KINDS`` for its name, or the kind it is annotated with where the name
means another kind there (the ``p`` of ``Matrix`` is a modulus, the ``a``
and ``b`` of ``four_qubit_generic_family`` are coefficients).  A parameter
without a kind stops the module's import.

A value of the wrong kind raises ValueError naming the parameter, except
that a prime that is not an int raises UnsupportedPrimeError, and a prime
list is checked in full (``check_primes``).  None passes where it is the
default.  A single prime is tested in full where its state is reduced
(``Tensor.reduce_mod``), and a model built by hand over F_p keeps its own
modulus, so the guard tests only that the prime is an int.

The checks run where a call enters the package.  While a checked call
runs in a thread, the calls that the package's own functions make there
pass values the package built, and go straight through: no check sits in
an inner loop, and a prime list is checked once per call.  Each check is a
type test of the value, or of each entry of a collection.
"""

import sys
import threading
from fractions import Fraction
from functools import cache, wraps
from inspect import isfunction

from .errors import UnsupportedPrimeError, _excerpt


def power_exceeds(d, k, limit):
    """Whether d**k > limit, for ints d >= 2, k >= 0 and limit >= 0,
    without forming a power of more than twice limit's bits: when
    k*(bits(d) - 1) >= bits(limit), d**k >= 2**bits(limit) > limit, and
    otherwise d**k < 2**(k*bits(d)) <= 2**(2*bits(limit))."""
    return k * (d.bit_length() - 1) >= limit.bit_length() or d**k > limit


@cache
def _package(name):
    """The package's ``module.attribute``, looked up when a check first
    needs it: the modules that define the kinds' classes import this one."""
    module, attribute = name.split(".")
    return getattr(sys.modules[f"{__package__}.{module}"], attribute)


class Kind:
    """A kind of argument: ``test(value)`` holds for a value of the kind,
    or raises its own refusal.  Any other value raises ``error`` with
    "<name>=<value> is not <what>", or with ``what`` itself when it marks
    the value's place, "{}"."""

    def __init__(self, test, what, error=ValueError):
        self.test, self.what, self.error = test, what, error

    def check(self, name, value):
        if not self.test(value):
            shown, what = _excerpt(value), self.what
            message = what.format(shown) if "{}" in what else f"{name}={shown} is not {what}"
            raise self.error(message)


def _each(test, what):
    """Lists and tuples whose entries all pass test."""
    what = f"a list or tuple of {what}"
    return Kind(lambda v: type(v) in (list, tuple) and all(map(test, v)), what)


def _instance(cls):
    return Kind(lambda v: isinstance(v, _package(cls)), f"a {cls.split('.')[1]}")


INT = Kind(lambda v: type(v) is int, "an int")  # so a bool is not an int
COEFFICIENT = Kind(lambda v: type(v) in (int, Fraction), "an int or a Fraction")
#: every int passes, and check_primes refuses anything else with its message
PRIME = Kind(lambda v: type(v) is int or _package("linalg.check_primes")((v,)), "a prime")
MODULUS = Kind(
    lambda v: type(v) is int and v >= 2, "modulus {} is not an int >= 2", UnsupportedPrimeError
)
INTS, COEFFICIENTS = _each(INT.test, "ints"), _each(COEFFICIENT.test, "ints and Fractions")
ROWS = _each(INTS.test, "rows of ints")
RATIONAL_ROWS = _each(COEFFICIENTS.test, "rows of ints and Fractions")
#: the rows of a Matrix, whose entries its field checks (``Matrix``)
MATRIX_ROWS = _each(lambda row: type(row) in (list, tuple), "rows")
MAPPING = Kind(
    lambda v: type(v) is dict and COEFFICIENTS.test([*v.values()]), "a dict of ints and Fractions"
)
#: a parameter that its callee checks itself, or one left unchecked by design
UNCHECKED = Kind(None, "")
STATE = _instance("states.Tensor")


def _point(v):
    """A ProjPoint whose p is an int and whose coordinates are rows of ints."""
    return isinstance(v, _package("geometry.ProjPoint")) and PRIME.test(v.p) and ROWS.test(v.coords)


#: The kind of every parameter name of the public API.
KINDS = {
    **dict.fromkeys(("t", "s", "a", "b", "state", "source"), STATE),
    "states": _each(STATE.test, "Tensors"),
    "model": _instance("geometry.VarietyModel"),
    "pt": Kind(_point, "a ProjPoint of ints"),
    "g": _instance("states.SloccOperator"),
    "f": _instance("invariants.TernaryCubic"),
    "factors": _each(_instance("linalg.Matrix").test, "Matrices"),
    "p": PRIME,
    "primes": Kind(lambda v: _package("linalg.check_primes")(v), "a prime list"),
    **dict.fromkeys(("n", "d", "bound", "seed", "k_max", "cols"), INT),
    "den": Kind(lambda v: type(v) is int and v != 0, "a nonzero int"),
    "document": Kind(lambda v: isinstance(v, (str, bytes, bytearray)), "a str or bytes"),
    **dict.fromkeys(("idx", "kept", "kept_axes", "nums"), INTS),
    "axis_pair": UNCHECKED,  # multiplication_surjectivity names the pairs it takes
    "coeffs": COEFFICIENTS,
    **dict.fromkeys(("c", "e", "alpha", "beta"), COEFFICIENT),
    "rows": ROWS,
    **dict.fromkeys(("entries", "terms"), MAPPING),
}


class _Entered(threading.local):
    """Whether this thread is inside a checked call."""

    inside = False


_ENTERED, _ABSENT = _Entered(), object()


def _guarded(fn):
    """fn, checking the kind of each argument it is given by position or
    name when the call enters the package (``_ENTERED``); fn itself when it
    has no checked parameter.  The parameters are read off fn's code object,
    which costs far less at import than ``inspect.signature``."""
    names, notes = fn.__code__.co_varnames[: fn.__code__.co_argcount], fn.__annotations__
    nullable = {n for n, x in zip(names[::-1], (fn.__defaults__ or ())[::-1]) if x is None}
    plan = [
        (i, name, kind.check, name in nullable)
        for i, name in enumerate(names)
        if name not in ("self", "cls")
        and (kind := notes[name] if isinstance(notes.get(name), Kind) else KINDS[name])
        is not UNCHECKED
    ]
    if not plan:
        return fn

    @wraps(fn)
    def guarded(*args, **kwargs):
        if _ENTERED.inside:
            return fn(*args, **kwargs)
        for i, name, check, optional in plan:
            value = args[i] if i < len(args) else kwargs.get(name, _ABSENT)
            if value is not _ABSENT and not (optional and value is None):
                check(name, value)
        _ENTERED.inside = True
        try:
            return fn(*args, **kwargs)
        finally:
            _ENTERED.inside = False

    return guarded


def guard(namespace, *classes):
    """Wrap the public functions that a module's namespace defines, and the
    constructors and public classmethods of the given classes, in the kind
    checks of their parameters (``_guarded``)."""
    for name, value in list(namespace.items()):
        if isfunction(value) and value.__module__ == namespace["__name__"] and name[0] != "_":
            namespace[name] = _guarded(value)
    for cls in classes:
        cls.__init__ = _guarded(cls.__init__)
        for name, value in list(vars(cls).items()):
            if isinstance(value, classmethod) and name[0] != "_":
                setattr(cls, name, classmethod(_guarded(value.__func__)))
