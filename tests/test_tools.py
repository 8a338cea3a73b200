"""The code-size count that tools/code_lines.py prints for src/sloccgeo,
the names the benchmark's tracer binds, and the names and calls the
benchmark reads."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK_READERS = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "worker.py"]

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class Point:
    """Class docstring."""

    x = 1


def join(a,
         b):
    """Function docstring
    over two lines."""
    # another comment-only line
    label = "a string literal, not a docstring"
    return os.path.join(
        a,
        b,
    )


def later():
    pass
    """A string that does not open the body is code."""
'''


def load_tool(name="code_lines", path=TOOL):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    # import, class, x = 1, the two lines of the def, label, the four lines
    # of the call, def later, pass and the string after it: 13
    code_lines = load_tool().code_lines
    assert code_lines(FIXTURE) == 13
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_tracer_names_exist():
    # a traced benchmark run wraps these by name, so deleting or renaming
    # one breaks it; this fails in the tier-1 run instead
    from sloccgeo.linalg import Matrix

    functions = load_tool("tracer", TRACER).FUNCTIONS
    assert functions
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(f"sloccgeo.{module}"), attr, None)), (
            f"sloccgeo.{module}.{attr}"
        )
    assert callable(Matrix.rref) and callable(Matrix.det)


def _walk(tree):
    """Every node of a parsed module, also of the string constants that
    parse as code (a snippet run in a fresh interpreter)."""
    for node in ast.walk(tree):
        yield node
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _walk(ast.parse(node.value))
            except SyntaxError:
                pass


def _sg_chain(node):
    """The dotted chain (<name>, <attr>, ...) of an expression
    sg.<name>[.<attr>...], else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if names and isinstance(node, ast.Name) and node.id == "sg":
        return tuple(reversed(names))
    return None


def test_benchmark_reads_resolve():
    """The benchmark reads these sloccgeo names and makes these calls
    directly, so deleting a name or changing a signature so that a call no
    longer binds breaks it; this fails in the tier-1 run instead.  Each
    call is bound by its count of positional arguments and its keyword
    names.  Calls through a name looked up at run time, such as
    getattr(sg, runner)(...), are out of its reach."""
    import sloccgeo

    nodes = []
    for path in BENCHMARK_READERS:
        nodes += _walk(ast.parse(path.read_text(encoding="utf-8")))
    chains = {chain for node in nodes if (chain := _sg_chain(node))}
    assert ("TernaryCubic", "from_terms") in chains and ("cubic_discriminant",) in chains
    assert ("TernaryCubic", "weierstrass") in chains and ("aronhold_invariants",) in chains
    for chain in sorted(chains):
        value = sloccgeo
        for name in chain:
            assert hasattr(value, name), "sg." + ".".join(chain)
            value = getattr(value, name)

    calls = set()
    for node in nodes:
        if isinstance(node, ast.Call) and (chain := _sg_chain(node.func)):
            keywords = tuple(k.arg for k in node.keywords)
            # a *args or **kwargs argument has no count to bind
            if not any(isinstance(a, ast.Starred) for a in node.args) and all(keywords):
                calls.add((chain, len(node.args), keywords))
    assert (("multiplication_surjectivity",), 3, ()) in calls
    assert (("aronhold_invariants",), 1, ()) in calls  # inside a snippet
    for chain, positional, keywords in sorted(calls):
        value = sloccgeo
        for name in chain:
            value = getattr(value, name)
        try:
            inspect.signature(value).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as error:
            pytest.fail(f"sg.{'.'.join(chain)}: {positional} positional, {keywords}: {error}")
