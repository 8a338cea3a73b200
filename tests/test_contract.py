"""The argument contract: every public callable of the package, found from
the package itself, refuses an argument of the wrong kind with a
SloccGeoError or a ValueError, within bounded work."""

import inspect
from fractions import Fraction

import pytest

import sloccgeo
from sloccgeo import _guard, cli, geometry, invariants, linalg, states, zalgebra
from sloccgeo.errors import SloccGeoError

MODULES = (linalg, states, geometry, invariants, zalgebra, cli)

#: Callables the test leaves out, each with the reason.
SKIPPED = {
    "sloccgeo.cli.run": "takes the command line, a list of str that argparse reads (exit 2)",
    "sloccgeo.cli.main": "reads sys.argv and exits the process",
    "sloccgeo.geometry.projective_points": "a generator of the point walk, unchecked by design",
}

#: The five values that replace one argument at a time.
JUNK = (5, None, "x", [1, 2], 2.5)


#: A valid instance of each exported class with a public method that takes
#: parameters, which the enumeration binds those methods to.
INSTANCES = {states.Tensor: states.random_state(3, 3, 5, 1)}


def public_callables():
    """{dotted name: callable} for the callables of ``dir(sloccgeo)`` but
    the exception types, each module's public functions, and the exported
    classes' public classmethods and their public methods that take
    parameters, bound to an instance of ``INSTANCES``; a callable bound
    under two names is kept once."""
    found, seen = {}, set()

    def add(name, obj):
        if id(obj) not in seen:
            seen.add(id(obj))
            found[name] = obj

    exported = [getattr(sloccgeo, name) for name in dir(sloccgeo) if not name.startswith("_")]
    for obj in exported:
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            add(f"{obj.__module__}.{obj.__qualname__}", obj)
    for module in MODULES:
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                add(f"{module.__name__}.{name}", obj)
    for cls in exported:
        if isinstance(cls, type) and not issubclass(cls, BaseException):
            for name, obj in vars(cls).items():
                dotted = f"{cls.__module__}.{cls.__qualname__}.{name}"
                if isinstance(obj, classmethod) and not name.startswith("_"):
                    add(dotted, getattr(cls, name))
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    if len(inspect.signature(obj).parameters) > 1:  # more than self
                        add(dotted, getattr(INSTANCES[cls], name))
    return found


CALLABLES = public_callables()


def valid_arguments(name):
    """Well-formed values for the parameters of the callable ``name``, by
    parameter name: the other arguments of a call that gives one parameter
    a value of the wrong kind."""
    t = states.random_state(3, 3, 5, 1)
    model = geometry.variety_from_state(t)
    values = {
        "t": t, "s": t, "a": t, "b": t, "state": t, "source": t,
        "model": model, "pt": geometry.ProjPoint(7, ((1, 0, 0), (1, 0, 0))),
        "g": states.SloccOperator.random(3, 3, 2, 0),
        "f": invariants.TernaryCubic.weierstrass(1, 1),
        "factors": [linalg.random_invertible(3, 2, 0)] * 3,
        "p": 7, "primes": (5, 7), "n": 3, "d": 3, "bound": 2, "seed": 0, "k_max": 2,
        "cols": 3, "den": 1, "document": states.state_to_json(t), "factor": 2,
        "idx": (0, 0, 0), "kept": (0,), "kept_axes": (0,), "axis_pair": (0, 1),
        "coeffs": [1] * 27, "nums": [1] * 27, "c": 1, "e": 2, "alpha": 1, "beta": 1,
        "rows": model.rows, "entries": {(0, 0, 0): 1}, "terms": {(3, 0, 0): 1},
    }
    overrides = {
        "sloccgeo.linalg.Matrix": {"entries": [[1, 0], [0, 1]], "cols": 2},
        "sloccgeo.states.four_qubit_generic_family": {"a": 1, "b": 2},
        "sloccgeo.linalg.clear_denominators": {"rows": [[Fraction(1, 2), 1]]},
    }
    return {**values, **overrides.get(name, {})}


def refusals(name, obj, junk_values):
    """The calls of ``obj`` that end in anything but a return, a
    SloccGeoError or a ValueError, one parameter at a time taking each junk
    value while the others stay well formed."""
    valid = valid_arguments(name)
    params = list(inspect.signature(obj).parameters)
    bad = []
    for i, param in enumerate(params):
        for junk in junk_values:
            args = [valid.get(p) for p in params]
            args[i] = junk
            try:
                obj(*args)
            except (SloccGeoError, ValueError):
                pass
            except Exception as exc:  # the contract allows no other type
                bad.append(f"{param}={junk!r}: {type(exc).__name__}: {exc}")
    return bad


@pytest.mark.parametrize("name", sorted(set(CALLABLES) - set(SKIPPED)))
def test_wrong_kinds_are_refused_with_typed_errors(name):
    assert refusals(name, CALLABLES[name], JUNK) == []


def test_the_enumeration_covers_the_package():
    # every exported callable but the exception types, module functions
    # that no name of the package exports, and classmethods
    found = {id(obj) for obj in CALLABLES.values()}
    for name in dir(sloccgeo):
        obj = getattr(sloccgeo, name)
        if not name.startswith("_") and callable(obj):
            assert id(obj) in found or issubclass(obj, BaseException), name
    for name in ("invariants.slice_discriminants",
                 "zalgebra.cyclic_relations", "states.flattening_basis",
                 "states.Tensor.from_integers",
                 "states.Tensor.scale", "states.Tensor.reduce_mod", "states.Tensor.offset"):
        assert f"sloccgeo.{name}" in CALLABLES, name
    assert set(SKIPPED) <= set(CALLABLES)


def test_wrong_kinds_drawn_by_hypothesis_are_refused():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    junk = st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.binary(max_size=3),
        st.fractions(max_denominator=5),
        st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=2)), max_size=3),
        st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
    )
    names = sorted(set(CALLABLES) - set(SKIPPED))

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(names), value=junk)
    def check(name, value):
        assert refusals(name, CALLABLES[name], (value,)) == []

    check()


def test_guard_refuses_a_public_function_with_an_unannotated_parameter():
    # a parameter's kind is its annotation, so a public function whose
    # parameter has none stops the import of its module
    def scale(t: states.Tensor, factor):
        return t.scale(factor)

    def _private(t, factor):
        return t

    namespace = {"__name__": __name__, "scale": scale, "_private": _private}
    with pytest.raises(TypeError, match=r"^parameter factor of .*scale has no kind$"):
        _guard.guard(namespace)

    class Record:
        def method(self, value):
            return value

    with pytest.raises(TypeError, match=r"^parameter value of .*Record\.method has no kind$"):
        _guard.guard({"__name__": __name__}, Record)


def test_annotations_are_the_kinds():
    # a class means its instances (int an int that is not a bool), and a
    # Kind is itself
    def draw(t: states.Tensor, n: int, k_max: zalgebra.DEGREE, p: linalg.PRIME = None):
        return t, n, k_max, p

    namespace = {"__name__": __name__, "draw": draw}
    _guard.guard(namespace)
    t = INSTANCES[states.Tensor]
    assert namespace["draw"](t, 3, 2) == (t, 3, 2, None)
    for args, error, message in (
        ((5, 3, 2), ValueError, "t=5 is not a Tensor"),
        ((t, True, 2), ValueError, "n=True is not an int"),
        ((t, 3, 2.0), ValueError, "k_max=2.0 is not an int"),
        ((t, 3, 257), sloccgeo.WorkLimitError, "k_max=257 is not an int in [0, 256]"),
        ((t, 3, 2, 7.0), sloccgeo.UnsupportedPrimeError, "7.0 is not a prime"),
    ):
        with pytest.raises(error) as info:
            namespace["draw"](*args)
        assert str(info.value).startswith(message)
