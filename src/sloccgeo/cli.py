"""Batch command-line front end.

Every command emits a single JSON report with a fixed key order, embedding
the tool version and the SHA-256 of the raw input bytes, so identical
invocations produce byte-identical output.  ``--pretty`` switches to a
plain-text table (no color is ever emitted, so NO_COLOR is honored
trivially).  Exit codes: 0 success, 1 degenerate-input verdict under
``--strict``, 2 usage or input errors (an unwritable ``--out`` included).
"""

import argparse
import hashlib
import json
import re
import sys

from . import __version__
from .errors import (
    DegenerateInputError,
    InputFileError,
    SloccGeoError,
    UnsupportedPrimeError,
    WorkLimitError,
    _excerpt,
)
from .linalg import DEFAULT_PRIMES, check_primes
from .states import _frac_str, parse_state, random_state, state_to_json
from .geometry import smoothness_scan, section_count
from .invariants import (
    HYPERDETERMINANTS,
    SMOOTH_GENERIC,
    BOTH_DEGENERATE,
    classify,
    moduli_dimension,
    slocc_compare,
)
from .zalgebra import cubic_hilbert, quadratic_hilbert, roundtrip_check

TOOL = "sloccgeo"


def _read_input(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc.strerror}")


def _write(path, text):
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc.strerror}")


def _hash(data):
    return hashlib.sha256(data).hexdigest()


#: The one integer rule of the command line, for the --primes entries and
#: the integer options: an optional minus sign and ASCII digits, as a
#: coefficient of ``parse_state``.  ``int`` alone would also take 1_1, +5,
#: surrounding whitespace and non-ASCII digits.
_INTEGER_RE = re.compile(r"-?[0-9]+\Z")


def _integer(text):
    """An integer option (--n, --d, --seed, --bound, --k-max) by
    ``_INTEGER_RE``; anything else, or an integer past Python's
    int-to-string digit limit, is a usage error (exit 2) that echoes the
    value through ``_excerpt``."""
    try:
        if _INTEGER_RE.match(text):
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid integer {_excerpt(text)}")


def _parse_primes(text):
    """--primes as a checked tuple; a bad entry raises UnsupportedPrimeError,
    which run() reports with exit 2, echoing the list or the entry through
    ``_excerpt``.  Each comma-separated entry, less surrounding whitespace,
    must pass ``_INTEGER_RE``.  Empty entries are skipped."""
    entries = [x.strip() for x in text.split(",") if x.strip()]
    try:
        if not all(_INTEGER_RE.match(x) for x in entries):
            raise ValueError
        primes = [int(x) for x in entries]
    except ValueError:
        raise UnsupportedPrimeError(f"bad prime list {_excerpt(text)}")
    return check_primes(primes)


def _per_prime(primes, check):
    """(entries, degenerate) over the primes, where check(p) returns one
    prime's (entry, degenerate).  A SloccGeoError at one prime becomes that
    prime's {"prime", "error"} entry and counts as degenerate; a
    WorkLimitError ends the command."""
    entries, degenerate = [], False
    for p in primes:
        try:
            entry, bad = check(p)
        except WorkLimitError:
            raise
        except SloccGeoError as exc:
            entry, bad = {"prime": p, "error": str(exc)}, True
        entries.append(entry)
        degenerate = degenerate or bad
    return entries, degenerate


def _verdict(body, *args):
    """body(*args), a (payload, degenerate) pair; a DegenerateInputError
    becomes the degenerate payload {"error", "detail"}, so the report still
    carries the input's format and hash."""
    try:
        return body(*args)
    except DegenerateInputError as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}, True


def _state_command(body):
    """The handler of a command on one state file: it reads, parses and
    hashes the file, and ``body(t, args)`` returns (payload, degenerate) for
    the parsed state t (through ``_verdict``); the report puts the state's
    format first."""

    def handler(args):
        data = _read_input(args.state)
        t = parse_state(data)
        payload, degenerate = _verdict(body, t, args)
        return {"format": [t.n, t.d], **payload}, _hash(data), degenerate

    return handler


@_state_command
def _cmd_classify(t, args):
    verdict = classify(t, args.primes)
    return verdict.to_json_dict(), verdict.status != SMOOTH_GENERIC


@_state_command
def _cmd_jinv(t, args):
    doc = classify(t, args.primes).to_json_dict()
    payload = {key: doc[key] for key in ("status", "j", "projections")}
    return payload, doc["status"] != SMOOTH_GENERIC


def _compare(a, b, primes):
    result = slocc_compare(a, b, primes)
    return result.to_json_dict(), result.outcome == BOTH_DEGENERATE


def _cmd_equiv(args):
    data_a = _read_input(args.state_a)
    data_b = _read_input(args.state_b)
    payload, degenerate = _verdict(_compare, parse_state(data_a), parse_state(data_b), args.primes)
    return payload, [_hash(data_a), _hash(data_b)], degenerate


@_state_command
def _cmd_hyperdet(t, args):
    if (t.n, t.d) not in HYPERDETERMINANTS:
        raise SloccGeoError(f"no hyperdeterminant for format {(t.n, t.d)}")
    kind, hyperdet = HYPERDETERMINANTS[(t.n, t.d)]
    value = hyperdet(t)
    return {"kind": kind, "value": _frac_str(value), "vanishes": value == 0}, value == 0


@_state_command
def _cmd_smoothness(t, args):
    report = smoothness_scan(t, args.primes)
    return report.to_json_dict(), report.verdict == "SingularFound"


@_state_command
def _cmd_hilbert(t, args):
    if (t.n, t.d) == (3, 3):
        runner, default_k = quadratic_hilbert, 4
    elif (t.n, t.d) == (4, 2):
        runner, default_k = cubic_hilbert, 5
    else:
        raise SloccGeoError(f"no Hilbert profile for format {(t.n, t.d)}")
    k_max = args.k_max if args.k_max is not None else default_k

    def check(p):
        profile = runner(t, p, k_max)
        return profile.to_json_dict(), not profile.matches()

    profiles, degenerate = _per_prime(args.primes, check)
    return {"k_max": k_max, "profiles": profiles}, degenerate


@_state_command
def _cmd_roundtrip(t, args):
    def check(p):
        ok = roundtrip_check(t, p)
        return {"prime": p, "ok": ok}, not ok

    results, degenerate = _per_prime(args.primes, check)
    return {"results": results}, degenerate


def _cmd_sample(args):
    t = random_state(args.n, args.d, args.bound, args.seed)
    _write(args.out, state_to_json(t) + "\n")
    return None, None, False


def _cmd_moduli_dim(args):
    payload = {
        "format": [args.n, args.d],
        "dimension": moduli_dimension(args.n, args.d),
        "sections": section_count(args.n, args.d),
    }
    return payload, None, False


def _pretty(payload):
    """Flatten the report into `dotted.key: value` lines (never colored)."""
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            for i, v in enumerate(value):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="exact SLOCC classification through curve and surface models",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, state=True, primes=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if state:
            p.add_argument("state", help="state file (JSON)")
        if primes:
            p.add_argument(
                "--primes",
                type=_parse_primes,
                default=DEFAULT_PRIMES,
                help="comma-separated primes (default %(default)s)",
            )
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--pretty", action="store_true", help="text output instead of JSON")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 when the verdict signals degenerate input",
        )
        return p

    command("classify", _cmd_classify, "full verdict for a state")
    command("jinv", _cmd_jinv, "projection j-invariants")
    p_equiv = command("equiv", _cmd_equiv, "compare two states", state=False)
    p_equiv.add_argument("state_a")
    p_equiv.add_argument("state_b")
    command("hyperdet", _cmd_hyperdet, "Cayley or Schlaefli hyperdeterminant")
    command("smoothness", _cmd_smoothness, "finite-field smoothness sweep")
    p_hil = command("hilbert", _cmd_hilbert, "graded dimension profile")
    p_hil.add_argument("--k-max", type=_integer, default=None, help="top degree (format default)")
    command("roundtrip", _cmd_roundtrip, "reconstruct the flattening image from points")

    p_sample = sub.add_parser("sample", help="write a deterministic random state file")
    p_sample.set_defaults(handler=_cmd_sample)
    p_sample.add_argument("--n", type=_integer, required=True)
    p_sample.add_argument("--d", type=_integer, required=True)
    p_sample.add_argument("--seed", type=_integer, default=0)
    p_sample.add_argument("--bound", type=_integer, default=5)
    p_sample.add_argument("--out", help="write the state to this path")

    p_dim = command(
        "moduli-dim", _cmd_moduli_dim, "orbit-space dimension for a format",
        state=False, primes=False,
    )
    p_dim.add_argument("--n", type=_integer, required=True)
    p_dim.add_argument("--d", type=_integer, required=True)

    return parser


def run(argv):
    """Parse arguments, run one command, print its report; returns the
    exit code instead of raising SystemExit (except for usage errors)."""
    try:
        args = build_parser().parse_args(argv)
        payload, input_hash, degenerate = args.handler(args)
        if payload is not None:  # sample writes the state file itself
            report = {"tool": TOOL, "version": __version__, "command": args.command}
            report["input_hash"] = input_hash
            report.update(payload)
            pretty = getattr(args, "pretty", False)
            text = _pretty(report) if pretty else json.dumps(report, indent=2) + "\n"
            _write(getattr(args, "out", None), text)
    except (SloccGeoError, IndexError, ValueError) as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2
    if degenerate and getattr(args, "strict", False):
        return 1
    return 0


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
