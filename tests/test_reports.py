"""Pinned CLI report bytes.

``tests/reports.json`` maps each invocation below to its exit code and the
SHA-256 of its stdout and stderr, from in-process ``cli.run`` calls on state
files built here.  A change to any report byte, to an error message or to an
exit code names the invocations it changed.  When a report is meant to
change, regenerate the table from the repository root with

    PYTHONPATH=src python tests/test_reports.py

and say in the change which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from sloccgeo.cli import run
from sloccgeo.invariants import classify
from sloccgeo.states import (
    SloccOperator,
    apply_slocc,
    basis_state,
    four_qubit_generic_family,
    ghz,
    random_state,
    state_to_json,
    w_state,
)

TABLE = Path(__file__).with_name("reports.json")

STATES = {
    "random33": random_state(3, 3, 5, 1),
    "random33-30": random_state(3, 3, 5, 30),  # its curve is singular modulo 7: hilbert refuses 7
    "random33-4": random_state(3, 3, 5, 4),  # too few points at 7: roundtrip refuses 7 only
    "random42": random_state(4, 2, 5, 2),
    "random52": random_state(5, 2, 5, 3),
    "ghz33": ghz(3, 3),
    "ghz42": ghz(4, 2),
    "w4": w_state(4),
    "separable33": basis_state(3, 3, (0, 0, 0)),
    "separable42": basis_state(4, 2, (0, 0, 0, 0)),
    "image33": apply_slocc(random_state(3, 3, 5, 1), SloccOperator.random(3, 3, 3, 5)),
    "image42": apply_slocc(random_state(4, 2, 5, 2), SloccOperator.random(4, 2, 3, 6)),
    "family1235": four_qubit_generic_family(1, 2, 3, 5),
    "allbad52": ghz(5, 2).scale(Fraction(1, 35)),  # every prime of --primes 5,7 is bad
    "vote52": random_state(5, 2, 5, 50).scale(Fraction(1, 143)),  # uncertified; 11, 13 bad
    "ghz52-143": ghz(5, 2).scale(Fraction(1, 143)),
    "random32": random_state(3, 2, 5, 1),  # classify votes over all nine default primes
}

#: States whose classify verdict is a vote of prime sweeps, run at the
#: default primes only: the (5,2) pair has bad primes among its scan primes.
VOTE_STATES = ("vote52", "ghz52-143", "random32")

STATE_COMMANDS = ("classify", "jinv", "hyperdet", "smoothness", "hilbert", "roundtrip")
STRICT = ("--pretty", "--strict")


def invocations():
    """The argument lists of the table, with state names for file paths."""
    out = [
        [command, name, "--primes", "5,7,11"]
        for command in STATE_COMMANDS
        for name in STATES
        if name not in ("allbad52", *VOTE_STATES)
    ]
    out += [
        [command, name, *STRICT]
        for command in ("classify", "smoothness", "hilbert")
        for name in ("ghz33", "separable33", "random42", "w4")
    ]
    out += [
        ["classify", "random52"],
        ["classify", "image33"],
        ["classify", "family1235"],
        ["roundtrip", "random33-30"],
        ["hilbert", "random33-30", "--primes", "7"],
        ["hilbert", "random33-30", "--primes", "7", "--strict"],
        ["roundtrip", "random33-4", "--strict"],
    ]
    for degenerate in (
        ["smoothness", "separable33"],
        ["classify", "allbad52", "--primes", "5,7"],
        ["equiv", "allbad52", "allbad52", "--primes", "5,7"],
    ):
        out += [degenerate, degenerate + list(STRICT)]
    out += [
        ["equiv", "random33", "image33"],
        ["equiv", "random33", "random33-30", "--primes", "5,7,11"],
        ["equiv", "random42", "image42", "--primes", "5,7,11"],
        ["equiv", "ghz33", "separable33", *STRICT],
        ["equiv", "random33", "random42"],
        ["equiv", "family1235", "w4", "--pretty"],
    ]
    for n, d in ((3, 3), (4, 2), (5, 2), (2, 3)):
        out.append(["moduli-dim", "--n", str(n), "--d", str(d)])
    out += [
        ["moduli-dim", "--n", "3", "--d", "3", "--pretty"],
        ["classify", "random33", "--primes", "a,b"],
        ["classify", "random33", "--primes", "4,7"],
    ]
    out += [[command, name] for name in VOTE_STATES for command in ("classify", "smoothness")]
    return out


def write_states(directory):
    """Write every state of STATES to directory; returns {name: path}."""
    paths = {}
    for name, t in STATES.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(state_to_json(t) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reports(directory):
    """{invocation: [exit code, stdout SHA-256, stderr SHA-256]} for every
    invocation, run in order on state files written to directory."""
    paths = write_states(directory)
    table = {}
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([paths.get(arg, arg) for arg in argv])
        table[" ".join(argv)] = [code, _digest(out.getvalue()), _digest(err.getvalue())]
    return table


def test_reports_match_the_pinned_table(tmp_path):
    classify.cache_clear()
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    table = reports(tmp_path)
    assert sorted(table) == sorted(pinned), "the invocation list differs from the table"
    changed = [name for name in table if table[name] != pinned[name]]
    assert not changed, "report bytes changed for: " + "; ".join(changed)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = reports(tmp)
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {TABLE}", file=sys.stderr)
