"""The argument contract of the public API, decided in one place.

Each module ends with one call of ``guard``, which wraps its public
functions, and the constructors, public methods and public classmethods of
the classes it names, in the checks of their parameters.  A parameter's
kind is its annotation, stated once, in the signature: a class means an
instance of it (``int`` an int that is not a bool), and every other kind
is a ``Kind``, defined beside the class or function it names (``ints``
makes the kinds of bounded ints).  A bound on one argument alone belongs
to its kind; a check that relates two arguments stays in the callee.  A
guarded parameter without a kind stops the module's import.

A value of the wrong kind raises ValueError naming the parameter, except
that an int out of its bounds raises its kind's error (WorkLimitError for
a Hilbert degree), a prime that is not an int raises
UnsupportedPrimeError, and a prime list is checked in full
(``check_primes``).  None passes where it is the default.  A single prime
is tested in full where its state is reduced (``Tensor.reduce_mod``) or
its matrix or model is built (``linalg.FIELD``), so the guard tests only
that a prime argument is an int.

The annotations are read when a module is imported, so each call's checks
are planned once, and they run where a call enters the package.  While a
checked call runs in a thread, the calls that the package's own functions
make there pass values the package built, and go straight through: no
check sits in an inner loop, and a prime list is checked once per call.
Each check is a type test of the value, or of each entry of a collection,
and the comparisons of a bounded int.
"""

import threading
from fractions import Fraction
from functools import wraps
from inspect import isfunction

from .errors import _excerpt


def power_exceeds(d, k, limit):
    """Whether d**k > limit, for ints d >= 2, k >= 0 and limit >= 0,
    without forming a power of more than twice limit's bits: when
    k*(bits(d) - 1) >= bits(limit), d**k >= 2**bits(limit) > limit, and
    otherwise d**k < 2**(k*bits(d)) <= 2**(2*bits(limit))."""
    return k * (d.bit_length() - 1) >= limit.bit_length() or d**k > limit


class Kind:
    """A kind of argument: a value of the kind passes ``base``, a kind
    checked first when one is given, and ``test(value)`` holds for it, or
    the test raises its own refusal.  Any other value raises ``error``
    with "<name>=<value> is not <what>"."""

    def __init__(self, test, what, error=ValueError, base=None):
        self.test, self.what, self.error, self.base = test, what, error, base

    def check(self, name, value):
        if self.base:
            self.base.check(name, value)
        if not self.test(value):
            raise self.error(f"{name}={_excerpt(value)} is not {self.what}")


def ints(lo, hi=None, error=ValueError, what=None):
    """The kind of the ints from lo to hi, or from lo up when hi is None:
    any other value is not an int (ValueError), and an int outside raises
    error, naming ``what`` or the bounds."""
    what = what or (f"an int >= {lo}" if hi is None else f"an int in [{lo}, {hi}]")
    return Kind(lambda v: lo <= v and (hi is None or v <= hi), what, error, INT)


def each(test, what):
    """Lists and tuples whose entries all pass test."""
    what = f"a list or tuple of {what}"
    return Kind(lambda v: type(v) in (list, tuple) and all(map(test, v)), what)


INT = Kind(lambda v: type(v) is int, "an int")  # so a bool is not an int
NONZERO = Kind(lambda v: type(v) is int and v != 0, "a nonzero int")
COEFFICIENT = Kind(lambda v: type(v) in (int, Fraction), "an int or a Fraction")
INTS, COEFFICIENTS = each(INT.test, "ints"), each(COEFFICIENT.test, "ints and Fractions")
ROWS = each(INTS.test, "rows of ints")
RATIONAL_ROWS = each(COEFFICIENTS.test, "rows of ints and Fractions")
MAPPING = Kind(
    lambda v: type(v) is dict and COEFFICIENTS.test([*v.values()]), "a dict of ints and Fractions"
)
#: a parameter that its callee checks itself, or one left unchecked by design
UNCHECKED = Kind(None, "")


def _kind(fn, name, note):
    """The kind that the annotation ``note`` of fn's parameter ``name``
    states: a Kind as it is, int as INT, another class as its instances.
    Anything else, a missing annotation included, raises TypeError."""
    if note is int:
        return INT
    if isinstance(note, type):
        return Kind(lambda v: isinstance(v, note), f"a {note.__name__}")
    if not isinstance(note, Kind):
        raise TypeError(f"parameter {name} of {fn.__module__}.{fn.__qualname__} has no kind")
    return note


class _Entered(threading.local):
    """Whether this thread is inside a checked call."""

    inside = False


_ENTERED, _ABSENT = _Entered(), object()


def _guarded(fn):
    """fn, checking the kind of each argument it is given by position or
    name when the call enters the package (``_ENTERED``); fn itself when it
    has no checked parameter.  The parameters are read off fn's code object,
    which costs far less at import than ``inspect.signature``, and their
    kinds off its annotations (``_kind``)."""
    names, notes = fn.__code__.co_varnames[: fn.__code__.co_argcount], fn.__annotations__
    nullable = {n for n, x in zip(names[::-1], (fn.__defaults__ or ())[::-1]) if x is None}
    plan = [
        (i, name, kind.check, name in nullable)
        for i, name in enumerate(names)
        if name not in ("self", "cls")
        and (kind := _kind(fn, name, notes.get(name))) is not UNCHECKED
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
    constructors, public methods and public classmethods of the given
    classes, in the kind checks of their parameters (``_guarded``)."""
    for name, value in list(namespace.items()):
        if isfunction(value) and value.__module__ == namespace["__name__"] and name[0] != "_":
            namespace[name] = _guarded(value)
    for cls in classes:
        for name, value in list(vars(cls).items()):
            if name[0] != "_" or name == "__init__":
                if isfunction(value):
                    setattr(cls, name, _guarded(value))
                elif isinstance(value, classmethod):
                    setattr(cls, name, classmethod(_guarded(value.__func__)))
