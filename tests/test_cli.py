import argparse
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

from sloccgeo import __version__
from sloccgeo.cli import build_parser, main, run
from sloccgeo.linalg import DEFAULT_PRIMES
from sloccgeo.zalgebra import roundtrip_check
from sloccgeo.states import (
    MAX_COEFFICIENT_DIGITS,
    SloccOperator,
    Tensor,
    apply_slocc,
    basis_state,
    four_qubit_generic_family,
    ghz,
    random_state,
    state_to_json,
    w_state,
)


def write_state(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(state_to_json(t) + "\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_ghz3(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    code, doc = run_json(capsys, ["classify", path, "--primes", "5,7,11"])
    assert code == 0
    assert doc["tool"] == "sloccgeo" and doc["version"] == __version__
    assert doc["command"] == "classify"
    assert len(doc["input_hash"]) == 64
    assert doc["status"] == "SingularModel"
    assert doc["j"] == "singular"


def test_classify_strict_exit(tmp_path, capsys):
    path = write_state(tmp_path, "sep.json", basis_state(3, 3, (0, 0, 0)))
    code = run(["classify", path, "--strict"])
    capsys.readouterr()
    assert code == 1
    code = run(["classify", path])
    capsys.readouterr()
    assert code == 0


def test_moduli_dim(capsys):
    code, doc = run_json(capsys, ["moduli-dim", "--n", "5", "--d", "2"])
    assert code == 0
    assert doc["dimension"] == 16
    assert doc["sections"] == 14
    code, doc = run_json(capsys, ["moduli-dim", "--n", "3", "--d", "3"])
    assert doc["dimension"] == 2


def test_installed_command_entry_point_exits_0(monkeypatch, capsys):
    # main is what the installed sloccgeo script calls
    monkeypatch.setattr("sys.argv", ["sloccgeo", "moduli-dim", "--n", "3", "--d", "3"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


def test_moduli_dim_dense_orbit_formats(capsys):
    # two parties and three qubits have a dense generic orbit
    for n, d in ((2, 2), (2, 3), (3, 2)):
        code, doc = run_json(capsys, ["moduli-dim", "--n", str(n), "--d", str(d)])
        assert code == 0
        assert doc["dimension"] == 0


def test_moduli_dim_pretty_out_file(tmp_path, capsys):
    argv = ["moduli-dim", "--n", "3", "--d", "3", "--pretty"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert "dimension: 2" in printed.splitlines()
    out = tmp_path / "dim.txt"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


STATE_OPTIONS = ["--out", "--pretty", "--primes", "--strict"]
CLI_SURFACE = {
    "classify": (["state"], STATE_OPTIONS),
    "jinv": (["state"], STATE_OPTIONS),
    "equiv": (["state_a", "state_b"], STATE_OPTIONS),
    "hyperdet": (["state"], STATE_OPTIONS),
    "smoothness": (["state"], STATE_OPTIONS),
    "hilbert": (["state"], ["--k-max"] + STATE_OPTIONS),
    "roundtrip": (["state"], STATE_OPTIONS),
    "sample": ([], ["--bound", "--d", "--n", "--out", "--seed"]),
    "moduli-dim": ([], ["--d", "--n", "--out", "--pretty", "--strict"]),
}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_commands_are_fixed():
    assert sorted(_subcommands()) == sorted(CLI_SURFACE)


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_command_arguments_are_fixed(command):
    positionals, options = CLI_SURFACE[command]
    actions = _subcommands()[command]._actions
    assert [a.dest for a in actions if not a.option_strings] == positionals
    found = [o for a in actions for o in a.option_strings if o not in ("-h", "--help")]
    assert sorted(found) == sorted(options)


def test_equiv_never_distinct_on_orbit(tmp_path, capsys):
    fam = four_qubit_generic_family(1, 2, 3, 5)
    moved = apply_slocc(fam, SloccOperator.random(4, 2, 3, seed=5))
    a = write_state(tmp_path, "a.json", fam)
    b = write_state(tmp_path, "b.json", moved)
    code, doc = run_json(capsys, ["equiv", a, b])
    assert code == 0
    assert doc["outcome"] != "DistinctCertified"
    assert isinstance(doc["input_hash"], list) and len(doc["input_hash"]) == 2


def test_jinv_family(tmp_path, capsys):
    path = write_state(tmp_path, "fam.json", four_qubit_generic_family(1, 2, 3, 5))
    code, doc = run_json(capsys, ["jinv", path])
    assert code == 0
    assert doc["j"] == ["498677257", "213444"]
    assert [proj["axes"] for proj in doc["projections"]] == [[0, 1], [0, 2], [1, 2]]


def test_hyperdet_ghz4(tmp_path, capsys):
    path = write_state(tmp_path, "ghz4.json", ghz(4, 2))
    code, doc = run_json(capsys, ["hyperdet", path])
    assert code == 0
    assert doc["kind"] == "schlaefli" and doc["value"] == "0" and doc["vanishes"]
    assert run(["hyperdet", path, "--strict"]) == 1
    capsys.readouterr()


def test_hyperdet_rejects_unsupported_format(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    code = run(["hyperdet", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "hyperdet" in captured.err or "format" in captured.err


def test_smoothness_report(tmp_path, capsys):
    path = write_state(tmp_path, "fam.json", four_qubit_generic_family(1, 2, 3, 5))
    code, doc = run_json(capsys, ["smoothness", path, "--primes", "5,13"])
    assert code == 0
    assert doc["verdict"] == "NoSingularPointFound"
    assert doc["excluded_primes"] == [5]
    assert doc["point_counts"] == [[13, 16]]


def test_hilbert_profiles(tmp_path, capsys):
    path = write_state(tmp_path, "fam.json", four_qubit_generic_family(1, 2, 3, 5))
    code, doc = run_json(capsys, ["hilbert", path, "--primes", "13", "--k-max", "4"])
    assert code == 0
    assert doc["profiles"][0]["computed"] == [1, 2, 4, 6, 9]


def test_hilbert_strict_on_generic_state(tmp_path, capsys):
    # the state of `sample --n 3 --d 3 --seed 7` is on target at every
    # default prime, so --strict has nothing to flag
    path = str(tmp_path / "s7.json")
    assert run(["sample", "--n", "3", "--d", "3", "--seed", "7", "--out", path]) == 0
    code, doc = run_json(capsys, ["hilbert", path, "--strict"])
    assert code == 0
    assert all(profile["matches"] for profile in doc["profiles"])


def test_hilbert_strict_ignores_a_refused_prime(tmp_path, capsys):
    # seed 30's curve is singular modulo 7, so that prime is refused as a
    # bad reduction and the eight others are on target: --strict passes.
    # A command whose every prime is refused has no verdict, and fails
    path = str(tmp_path / "s30.json")
    assert run(["sample", "--n", "3", "--d", "3", "--seed", "30", "--out", path]) == 0
    code, doc = run_json(capsys, ["hilbert", path, "--strict"])
    assert code == 0
    refused = [entry for entry in doc["profiles"] if "error" in entry]
    assert refused == [{"prime": 7, "error": "p=7 divides a slice discriminant: "
                                             "the reduced curve is singular"}]
    assert all(entry["matches"] for entry in doc["profiles"] if entry["prime"] != 7)
    code, doc = run_json(capsys, ["hilbert", path, "--primes", "7", "--strict"])
    assert code == 1 and "error" in doc["profiles"][0]


def test_roundtrip_command(tmp_path, capsys):
    path = write_state(tmp_path, "fam.json", four_qubit_generic_family(1, 2, 3, 5))
    code, doc = run_json(capsys, ["roundtrip", path, "--primes", "7,13"])
    assert code == 0
    assert doc["results"] == [{"prime": 7, "ok": True}, {"prime": 13, "ok": True}]


def test_roundtrip_degenerate_is_reported(tmp_path, capsys):
    path = write_state(tmp_path, "sep.json", basis_state(3, 3, (0, 0, 0)))
    code, doc = run_json(capsys, ["roundtrip", path, "--primes", "7"])
    assert code == 0
    assert "error" in doc["results"][0]
    # every requested prime is refused, so --strict finds no verdict
    code, strict_doc = run_json(capsys, ["roundtrip", path, "--primes", "7", "--strict"])
    assert code == 1 and strict_doc == doc


def test_roundtrip_checks_every_prefix_budget_before_the_first_prime(
    tmp_path, capsys, monkeypatch
):
    # a (4,3) walk visits (1 + p + p^2)^2 prefixes: 145,161 at p = 19 and
    # 305,809 at 23, over the budget.  At the default primes the command
    # used to roundtrip 5..19, then exit 2 at 23 and discard those six
    # entries; now it exits 2 before any roundtrip.  The count grows with
    # p, so one check at the largest prime covers every prime, and the
    # message names that prime, 31
    import sloccgeo.cli

    calls = []

    def counted(t, p):
        calls.append(p)
        return roundtrip_check(t, p)

    monkeypatch.setattr(sloccgeo.cli, "roundtrip_check", counted)
    path = write_state(tmp_path, "s43.json", random_state(4, 3, 5, seed=1))
    code = run(["roundtrip", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out and calls == []
    assert captured.err == (
        "sloccgeo: a point sweep of (P^2)^3 at primes [31] visits 986049 prefixes, "
        "over the budget of 200000\n"
    )
    code, doc = run_json(capsys, ["roundtrip", path, "--primes", "5,7,11", "--strict"])
    assert code == 0 and calls == [5, 7, 11]
    assert doc["results"] == [{"prime": p, "ok": True} for p in (5, 7, 11)]


#: t[i][j][k] = [i = 0] * A[j][k]: a model that contains {x0 = 0} x P^2, so
#: (p + 1)(p^2 + p + 1) points at p; its flattening rank drops at 5 and 11
_PLANE_A = ((4, -1, 0), (5, 3, -5), (2, -2, 5))
PLANE_STATE = Tensor.from_entries(
    3, 3, {(0, j, k): _PLANE_A[j][k] for j in range(3) for k in range(3) if _PLANE_A[j][k]}
)


def test_roundtrip_keeps_its_entries_when_a_later_walk_lists_too_many_points(
    tmp_path, capsys, monkeypatch
):
    # at p = 443 the plane state's walk holds 87.3 million points, but the
    # roundtrip reaches its ceiling after 197,137 of them, within
    # PREFIX_BUDGET: 443 is ok alone, where the command used to exit 2, and
    # after 31, where it used to be an error entry.  With the budget patched
    # to 1,000, 31's walk (993 prefixes, 1,025 points to the ceiling) is
    # refused instead.  Its error entry is the same alone, written first or
    # last in the request, and beside a bad prime; the exit code follows the
    # entries (1 under --strict only when every prime is refused), never 2
    import sloccgeo.geometry

    path = write_state(tmp_path, "plane.json", PLANE_STATE)
    for primes in ("443", "31,443"):
        code, doc = run_json(capsys, ["roundtrip", path, "--primes", primes, "--strict"])
        assert code == 0 and doc["results"][-1] == {"prime": 443, "ok": True}, primes
    assert doc["results"][0] == {"prime": 31, "ok": True}
    monkeypatch.setattr(sloccgeo.geometry, "PREFIX_BUDGET", 1000)
    refused = {"prime": 31, "error": "a model of format (n=3, d=3) has more than 1000 points "
                                     "at p=31, the budget of a walk"}
    bad = {"prime": 5, "error": "flattening rank drops modulo 5"}
    for primes, strict, entries in (
        ("31", 1, [refused]),
        ("31,7", 0, [{"prime": 7, "ok": True}, refused]),
        ("7,31", 0, [{"prime": 7, "ok": True}, refused]),
        ("5,31", 1, [bad, refused]),
    ):
        code, doc = run_json(capsys, ["roundtrip", path, "--primes", primes])
        assert code == 0 and doc["results"] == entries, primes
        code, strict_doc = run_json(capsys, ["roundtrip", path, "--primes", primes, "--strict"])
        assert code == strict and strict_doc == doc, primes


def test_a_primes_outcome_does_not_depend_on_the_other_primes(tmp_path, capsys):
    # one outcome per prime: for each command that takes --primes and runs
    # them one at a time, what a prime gives alone it gives beside any other
    # primes.  roundtrip and hilbert report it in that prime's entry.  A
    # sweep reports its count, witness and filing; smoothness and classify
    # end the request on a bound at any prime, so a request is refused
    # exactly as one of its primes is alone, and classify's witness is that
    # of its first prime with one.  The plane state's walk at 443 is over
    # PREFIX_BUDGET, its flattening rank drops at 5, and it is singular; the
    # drawn states are smooth curve states
    rng = random.Random(2727)
    formats = ((3, 3), (3, 3), (4, 2))
    states = [("plane", PLANE_STATE)] + [
        (f"s{n}{d}", random_state(n, d, 5, rng.randrange(1000))) for n, d in formats
    ]
    primes = (5, 7, 31, 443)

    def report(command, path, request):
        code = run([command, path, "--primes", ",".join(map(str, request))])
        captured = capsys.readouterr()
        assert code in (0, 2), (command, request)
        return captured.err if code == 2 else json.loads(captured.out)

    def outcome(command, doc, p):
        if command in ("roundtrip", "hilbert"):
            key = "results" if command == "roundtrip" else "profiles"
            return next(entry for entry in doc[key] if entry["prime"] == p)
        if "error" in doc or p in doc["bad_primes"]:  # smoothness
            return "bad"
        if p in doc["excluded_primes"]:
            return "excluded"
        witnesses = [w for w in doc["witnesses"] if w["prime"] == p]
        return dict(doc["point_counts"])[p], witnesses

    for name, t in states:
        path = write_state(tmp_path, f"{name}.json", t)
        for command in ("smoothness", "roundtrip", "hilbert", "classify"):
            alone = {p: report(command, path, (p,)) for p in primes}
            for request in ((7, 31), primes):
                doc = report(command, path, request)
                refusals = [alone[p] for p in request if isinstance(alone[p], str)]
                if refusals:
                    assert doc == refusals[0], (name, command, request)
                    continue
                assert isinstance(doc, dict), (name, command, request, doc)
                if command != "classify":
                    for p in request:
                        assert outcome(command, doc, p) == outcome(command, alone[p], p)
                    continue
                found = [p for p in request if alone[p]["singular_witness"]]
                expected = dict(alone[found[0] if found else request[0]])
                expected["primes_used"] = [p for p in request if alone[p]["primes_used"]]
                assert doc == expected, (name, request)


def test_no_request_past_the_roundtrip_checks_has_too_wide_rows():
    # the argument of cli._per_prime: once the roundtrip's request checks
    # pass (the prefix budget at a prime >= 5, the flattening cost), the
    # width bound of relations_from_points cannot fire, so no bound on the
    # request is left to fire inside the per-prime loop
    from sloccgeo.errors import WorkLimitError
    from sloccgeo.geometry import _check_prefix_budget
    from sloccgeo.states import MAX_COEFFICIENTS, MAX_FLATTENING_COST
    from sloccgeo.zalgebra import MAX_PROFILE_WIDTH

    widest = {}
    for n in range(2, MAX_COEFFICIENTS.bit_length()):
        for d in range(2, MAX_COEFFICIENTS):
            if d**n > MAX_COEFFICIENTS:
                break
            try:
                _check_prefix_budget(d, n - 1, (5,))
            except WorkLimitError:
                continue
            if d ** (n + 1) <= MAX_FLATTENING_COST:
                widest[min(n, 3)] = max(widest.get(min(n, 3), 0), d ** (n - 1))
    # n = 2, and n >= 3
    assert widest == {2: 40, 3: 128} and max(widest.values()) <= MAX_PROFILE_WIDTH


def test_roundtrip_budget_check_refuses_exactly_the_over_budget_requests(
    tmp_path, capsys, monkeypatch
):
    # one check at the largest requested prime stands for a check at every
    # prime, since a prime's per-call prefix count grows with p: the command
    # exits 2 with no roundtrip exactly when some requested prime is over
    # PREFIX_BUDGET, and otherwise makes one call per prime.  The stub
    # walks no point, so only the budget check runs
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    import sloccgeo.cli
    from sloccgeo.geometry import PREFIX_BUDGET

    calls = []

    def counted(t, p):
        calls.append(p)
        return True

    monkeypatch.setattr(sloccgeo.cli, "roundtrip_check", counted)
    formats = ((3, 3), (4, 2), (5, 2), (3, 4), (4, 3))
    paths = {(n, d): write_state(tmp_path, f"s{n}{d}.json", random_state(n, d, 5, seed=1))
             for n, d in formats}
    primes = [p for p in range(5, 444) if all(p % q for q in range(2, p))]
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fmt=st.sampled_from(formats),
           requested=st.sets(st.sampled_from(primes), min_size=1, max_size=6))
    @example(fmt=(4, 3), requested={19, 23})
    @example(fmt=(3, 4), requested={53, 59})
    @example(fmt=(3, 3), requested={443})
    def check(fmt, requested):
        n, d = fmt
        over = any(sum(p**i for i in range(d)) ** (n - 2) > PREFIX_BUDGET for p in requested)
        calls.clear()
        code = run(["roundtrip", paths[fmt], "--primes", ",".join(map(str, requested))])
        captured = capsys.readouterr()
        if over:
            assert code == 2 and not captured.out and calls == []
            assert f"at primes [{max(requested)}] visits" in captured.err
        else:
            assert code == 0 and calls == sorted(requested)
        seen.add(over)

    check()
    assert seen == {False, True}


def test_strict_fails_exactly_on_an_off_target_entry_or_no_verdict(tmp_path, capsys):
    # the one --strict rule of hilbert and roundtrip: exit 1 exactly when
    # an entry is off target or every requested prime has an "error" entry;
    # an error entry refuses its own prime only, whatever its type.  The
    # draws: random, GHZ, W(4) and basis states, each over a denominator
    # whose primes are bad
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    named = [ghz(3, 3), ghz(4, 2), w_state(4), basis_state(3, 3, (0, 0, 0)),
             basis_state(4, 2, (0, 0, 0, 0))]
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        fmt=st.sampled_from(((3, 3), (4, 2))),
        named_state=st.booleans(),
        seed=st.integers(0, 99),
        pick=st.integers(0, len(named) - 1),
        den=st.sampled_from((1, 1, 7, 35, 143, 5 * 7 * 11 * 13)),
        command=st.sampled_from(("hilbert", "roundtrip")),
        primes=st.lists(st.sampled_from(DEFAULT_PRIMES), min_size=1, max_size=9, unique=True),
    )
    # seed 4's curve has too few points at p = 7 alone
    @example(fmt=(3, 3), named_state=False, seed=4, pick=0, den=1, command="roundtrip",
             primes=[7, 11])
    def check(fmt, named_state, seed, pick, den, command, primes):
        t = (named[pick] if named_state else random_state(*fmt, 5, seed)).scale(Fraction(1, den))
        path = write_state(tmp_path, "s.json", t)
        argv = [command, path, "--primes", ",".join(map(str, sorted(primes))), "--strict"]
        code, doc = run_json(capsys, argv)
        entries = doc["profiles" if command == "hilbert" else "results"]
        off = any(entry.get("matches") is False for entry in entries)
        refused = all("error" in entry for entry in entries)
        assert code == (1 if off or refused else 0), doc
        errors = [entry["error"] for entry in entries if "error" in entry]
        out = "off" if off else "refused" if refused else "error" if errors else "clean"
        if out == "error" and any(e.startswith("evaluation rank") for e in errors):
            out = "too few points"  # an InsufficientPointsError beside verdicts
        seen.add((command, out))

    check()
    outs = ("refused", "error", "clean")
    expected = {(command, out) for command in ("hilbert", "roundtrip") for out in outs}
    assert expected | {("hilbert", "off"), ("roundtrip", "too few points")} <= seen, seen


def test_rank_drop_mod_p_error_entry(tmp_path, capsys):
    # no denominator: p = 11 only drops the flattening's rank
    t = Tensor.from_entries(3, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 11})
    path = write_state(tmp_path, "drop.json", t)
    for command, key in (("hilbert", "profiles"), ("roundtrip", "results")):
        code, doc = run_json(capsys, [command, path, "--primes", "11,13"])
        assert code == 0
        assert doc[key][0] == {"prime": 11, "error": "flattening rank drops modulo 11"}


def test_sample_writes_canonical_state(tmp_path, capsys):
    out = tmp_path / "state.json"
    code = run(["sample", "--n", "3", "--d", "3", "--seed", "9", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    from sloccgeo.states import parse_state, random_state

    text = out.read_text(encoding="utf-8")
    assert parse_state(text) == random_state(3, 3, 5, seed=9)
    assert text == state_to_json(random_state(3, 3, 5, seed=9)) + "\n"


def test_moduli_dim_work_is_bounded(capsys):
    # d**n was computed with no bound: n = 10^7, d = 10 ran for ~27 s and
    # only failed on printing the 10-million-digit number
    import time

    start = time.perf_counter()
    code = run(["moduli-dim", "--n", "10000000", "--d", "10"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and "2**4096" in captured.err and not captured.out
    assert elapsed < 1.0
    code, doc = run_json(capsys, ["moduli-dim", "--n", "4096", "--d", "2"])
    assert code == 0 and doc["sections"] == 2**4095 - 2


def test_sample_writes_only_readable_states(tmp_path, capsys):
    # a 106-digit bound wrote a state that classify refused to read
    out = tmp_path / "state.json"
    bound = 10**105
    code = run(["sample", "--n", "3", "--d", "3", "--bound", str(bound), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and "at most 100 digits" in captured.err and not out.exists()
    widest = str(10**MAX_COEFFICIENT_DIGITS - 1)
    assert run(["sample", "--n", "3", "--d", "3", "--bound", widest, "--out", str(out)]) == 0
    code, doc = run_json(capsys, ["classify", str(out), "--primes", "5"])
    assert code == 0 and doc["status"]


def test_sample_stdout_deterministic(capsys):
    run(["sample", "--n", "4", "--d", "2", "--seed", "3"])
    first = capsys.readouterr().out
    run(["sample", "--n", "4", "--d", "2", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second and first.strip()


def test_report_determinism(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    run(["classify", path])
    first = capsys.readouterr().out
    run(["classify", path])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exits_2(tmp_path, capsys):
    for path in ("/nonexistent/state.json", str(tmp_path)):  # missing; a directory
        code = run(["classify", path])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert f"cannot read {path}" in captured.err


def test_unwritable_out_exits_2(tmp_path, capsys):
    state = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    out = str(tmp_path / "missing" / "x.json")
    for argv in (["classify", state], ["moduli-dim", "--n", "3", "--d", "3"],
                 ["sample", "--n", "3", "--d", "3"]):
        code = run(argv + ["--out", out])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, argv
        assert f"cannot write {out}" in captured.err


def test_bad_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3}', encoding="utf-8")
    code = run(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err


def test_out_of_envelope_requests_exit_2(tmp_path, capsys):
    from sloccgeo.states import random_state

    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 40, "d": 2, "entries": []}', encoding="utf-8")
    s33 = write_state(tmp_path, "s33.json", random_state(3, 3, 5, seed=7))
    s42 = write_state(tmp_path, "s42.json", random_state(4, 2, 5, seed=7))
    s43 = write_state(tmp_path, "s43.json", random_state(4, 3, 5, seed=1))
    s53 = write_state(tmp_path, "s53.json", random_state(5, 3, 5, seed=1))
    wide = write_state(tmp_path, "wide.json", random_state(2, 64, 5, seed=1))
    for argv in (
        ["classify", str(huge)],
        ["sample", "--n", "40", "--d", "2"],
        ["smoothness", s53],
        ["classify", s43],
        ["roundtrip", s43, "--primes", "31"],
        ["hilbert", s33, "--k-max", "-1", "--strict"],
        ["hilbert", s33, "--k-max", "6"],
        ["hilbert", s42, "--k-max", "9"],
        ["classify", str(wide)],
        ["roundtrip", wide],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err and not captured.out, argv


def test_bad_primes_exit_2(tmp_path, capsys):
    # --primes 0 used to end in a ZeroDivisionError; 1, 3 and -5 exited 0
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    commands = ("classify", "smoothness", "roundtrip", "hilbert")
    for command in commands:
        for primes in ("0", "1", "-5", "2", "3", "4", "5,6"):
            code = run([command, path, "--primes", primes])
            captured = capsys.readouterr()
            assert code == 2 and "not a prime" in captured.err, (command, primes)
            assert not captured.out
        assert run([command, path, "--primes", "5"]) == 0
        capsys.readouterr()


def test_bad_primes_echo_a_bounded_excerpt(tmp_path, capsys):
    # both used to be echoed whole: messages of 100,028 and 4,045 characters
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    cases = [("x" * 100_000, "sloccgeo: bad prime list 'xxx"), ("9" * 4000, "sloccgeo: 999")]
    for primes, prefix in cases:
        code = run(["classify", path, "--primes", primes])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith(prefix) and len(captured.err) <= 150, len(captured.err)
    # short lists are still echoed whole
    assert run(["classify", path, "--primes", "a,b"]) == 2
    assert capsys.readouterr().err == "sloccgeo: bad prime list 'a,b'\n"
    assert run(["classify", path, "--primes", "4,7"]) == 2
    assert capsys.readouterr().err == "sloccgeo: 4 is not a prime in [5, 2147483647]\n"


def test_errors_echo_prime_lists_as_bounded_excerpts(tmp_path, capsys):
    # the 428 primes in [5, 3000) used to be echoed whole, in 2,466 characters
    primes = [p for p in range(5, 3000) if all(p % q for q in range(2, p))]
    s33 = write_state(tmp_path, "s33.json", random_state(3, 3, 5, 1))
    code = run(["smoothness", s33, "--primes", ",".join(map(str, primes))])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("sloccgeo: a point sweep of (P^2)^2 at primes [5, 7, 11, ")
    assert len(captured.err) <= 240, len(captured.err)
    bad = write_state(tmp_path, "bad.json", ghz(3, 2).scale(Fraction(1, prod(primes[:40]))))
    listed = ",".join(map(str, primes[:40]))
    for command in ("classify", "smoothness"):
        code, report = run_json(capsys, [command, bad, "--primes", listed])
        assert code == 0 and report["error"] == "AllPrimesBadError"
        assert report["detail"].startswith("all primes [5, 7, 11, ")
        assert len(report["detail"]) <= 130, len(report["detail"])


def test_primes_are_ascii_digits(tmp_path, capsys):
    # int() alone ran "1_1" at p = 11 and took "+5" and an Arabic-Indic 5
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    for primes in ("1_1", "\u0665,7", "+5", "5,--7", "7,\uff11\uff11"):
        code = run(["classify", path, "--primes", primes])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, primes
        assert captured.err.startswith("sloccgeo: bad prime list"), primes
    # whitespace around an entry and empty entries are still skipped
    code, doc = run_json(capsys, ["classify", path, "--primes", " 7, 5,,"])
    assert code == 0 and doc["primes_used"] == [5, 7]


def test_integer_options_are_ascii_digits(tmp_path, capsys):
    # int() alone took an Arabic-Indic 3, "1_0" and "+3" in every option
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    cases = [
        ["sample", "--n", "\u0663", "--d", "3"],
        ["sample", "--n", "3", "--d", "3", "--seed", "\u0661_0"],
        ["sample", "--n", "3", "--d", "3", "--bound", "+3"],
        ["sample", "--n", " 3", "--d", "3"],
        ["moduli-dim", "--n", "\u0665", "--d", "2"],
        ["moduli-dim", "--n", "5", "--d", "2_0"],
        ["hilbert", path, "--k-max", "\u0663"],
        ["moduli-dim", "--n", "9" * 5000, "--d", "2"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as err:
            run(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2 and not captured.out, argv
        assert "invalid integer" in captured.err and len(captured.err) < 400, argv
    code, doc = run_json(capsys, ["moduli-dim", "--n", "5", "--d", "2"])
    assert code == 0 and doc["dimension"] == 16
    assert run(["sample", "--n", "3", "--d", "3", "--seed", "-1", "--bound", "3"]) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_pretty_output_has_no_ansi(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 3))
    code = run(["classify", path, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\x1b" not in out
    assert "status: SingularModel" in out


def test_out_file(tmp_path, capsys):
    path = write_state(tmp_path, "ghz4.json", ghz(4, 2))
    dest = tmp_path / "report.json"
    code = run(["classify", path, "--out", str(dest)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(dest.read_text(encoding="utf-8"))
    assert doc["status"] == "SingularModel"


def _entries_doc(n, d, strings):
    entries = [
        {"idx": list(idx), "c": c} for idx, c in zip(product(range(d), repeat=n), strings)
    ]
    return json.dumps({"n": n, "d": d, "entries": entries})


def test_oversized_coefficients_exit_2(tmp_path, capsys):
    # Both states used to parse; classify and jinv then ended in Python's
    # 4,300-digit limit on printing an int (a ValueError raised while the
    # report was printed).  The parser refuses them.
    rng = random.Random(4)
    big = [str(rng.randint(1, 9)) for _ in range(27)]
    big[13] = str(rng.randrange(10**3999, 10**4000))
    rng = random.Random(5)
    rational = []
    for _ in range(27):
        num = rng.randrange(10**15, 10**16)
        rational.append(f"{num}/{rng.randrange(10**15, 10**16)}")
    paths = []
    for name, strings in (("big.json", big), ("rational.json", rational)):
        path = tmp_path / name
        path.write_text(_entries_doc(3, 3, strings), encoding="utf-8")
        paths.append(str(path))
    for path in paths:
        for argv in (["classify", path], ["jinv", path], ["equiv", path, path]):
            code = run(argv)
            captured = capsys.readouterr()
            assert code == 2 and not captured.out, argv
            assert f"more than {MAX_COEFFICIENT_DIGITS} digits" in captured.err


def test_reports_print_at_the_coefficient_bound(tmp_path, capsys):
    # the widest accepted states: every numerator with MAX_COEFFICIENT_DIGITS
    # digits; the largest (3,3) report number has ~36 digits per digit
    digits = MAX_COEFFICIENT_DIGITS
    rng = random.Random(11)
    for n, d in ((3, 3), (4, 2), (3, 2)):
        paths = []
        for name in ("a", "b"):
            strings = [
                str(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits))
                for _ in range(d**n)
            ]
            path = tmp_path / f"{name}{n}{d}.json"
            path.write_text(_entries_doc(n, d, strings), encoding="utf-8")
            paths.append(str(path))
        for argv in (["classify", paths[0]], ["jinv", paths[0]], ["equiv", *paths]):
            code, doc = run_json(capsys, argv)
            assert code == 0 and doc["command"] == argv[0], argv


def test_undecodable_documents_exit_2(tmp_path, capsys):
    # bad UTF-8 used to raise UnicodeDecodeError in parse_state, and deep
    # nesting a RecursionError traceback with exit 1
    from sloccgeo.errors import SchemaError
    from sloccgeo.states import parse_state

    path = tmp_path / "state.json"
    for data in (b'{"n": 3, "d": 2, "entries": [\xff]}', b"[" * 100_000 + b"]" * 100_000):
        with pytest.raises(SchemaError):
            parse_state(data)
        path.write_bytes(data)
        code = run(["classify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith("sloccgeo: not valid JSON")


MALFORMED_COEFFICIENTS = ("1.5", "1/0", "", "abc", " 1", "1/-2", "+1", "1e3", "0x10", "1/2/3")


def test_malformed_documents_exit_2(tmp_path, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings, strategies as st

    from sloccgeo.errors import SloccGeoError
    from sloccgeo.states import _RATIONAL_RE, parse_state

    valid = {
        "n": 3, "d": 2, "entries": [{"idx": [0, 0, 0], "c": "1"}, {"idx": [1, 1, 1], "c": "-2/3"}]
    }
    path = tmp_path / "state.json"
    not_int = st.sampled_from([True, False, 1.0, "1", None, [1]])
    not_str = st.sampled_from([True, 1, 1.0, None, ["1"]])
    bad_rational = st.sampled_from(MALFORMED_COEFFICIENTS) | st.text(max_size=8).filter(
        lambda s: not _RATIONAL_RE.match(s)
    )

    def mutations(doc):
        entry = doc["entries"][0]
        return st.one_of(
            st.sampled_from(["n", "d", "entries"]).map(lambda k: ("drop", doc, k)),
            st.just(("set", doc, "extra", 1)),
            st.tuples(st.just("set"), st.just(doc), st.sampled_from(["n", "d"]), not_int),
            st.tuples(
                st.just("set"), st.just(doc), st.just("entries"), st.sampled_from([{}, "x", 3])
            ),
            st.sampled_from(["idx", "c"]).map(lambda k: ("drop", entry, k)),
            st.just(("set", entry, "extra", 0)),
            st.tuples(
                st.just("set"), st.just(entry), st.just("idx"),
                st.sampled_from(
                    ["000", 0, {"0": 0}, [0, 0], [0, 0, 0, 0], [0, True, 0], [0, 0.0, 0]]
                ),
            ),
            st.tuples(st.just("set"), st.just(entry), st.just("c"), bad_rational | not_str),
            st.tuples(
                st.just("set"), st.just(entry), st.just("idx"),
                st.sampled_from([[0, 2, 0], [-1, 0, 0], [0, 0, 5]]),
            ),
            st.just(("set", entry, "idx", [1, 1, 1])),  # duplicates the second entry
        )

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def check(data):
        doc = json.loads(json.dumps(valid))
        op, target, key, *value = data.draw(mutations(doc))
        if op == "drop":
            del target[key]
        else:
            target[key] = value[0]
        text = json.dumps(doc)
        with pytest.raises(SloccGeoError):
            parse_state(text)
        path.write_text(text, encoding="utf-8")
        code = run(["classify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith("sloccgeo: ") and captured.err.count("\n") == 1

    check()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "state.json", "--primes", "a,b"], "bad prime list"),
        (["hilbert", "state.json"], "no Hilbert profile"),
    ],
    ids=["unparsable-primes", "hilbert-of-a-52-state"],
)
def test_refused_commands_exit_2(tmp_path, capsys, argv, message):
    path = write_state(tmp_path, "state.json", ghz(5, 2))
    code = run([path if arg == "state.json" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


ALL_BAD = ghz(5, 2).scale(Fraction(1, 35))  # 5 and 7 divide the denominator


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "pretty-strict"])
@pytest.mark.parametrize(
    "command, states, options, error",
    [
        ("smoothness", [basis_state(3, 3, (0, 0, 0))], [], "RankDeficientError"),
        ("classify", [ALL_BAD], ["--primes", "5,7"], "AllPrimesBadError"),
        ("equiv", [ALL_BAD, ALL_BAD], ["--primes", "5,7"], "AllPrimesBadError"),
    ],
    ids=["smoothness-separable", "classify-all-primes-bad", "equiv-all-primes-bad"],
)
def test_degenerate_reports_keep_format_and_input_hash(
    tmp_path, capsys, command, states, options, error, strict
):
    paths = [write_state(tmp_path, f"s{i}.json", t) for i, t in enumerate(states)]
    hashes = [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths]
    input_hash = hashes if command == "equiv" else hashes[0]
    fmt = None if command == "equiv" else [states[0].n, states[0].d]
    code = run([command, *paths, *options, *(["--pretty", "--strict"] if strict else [])])
    out = capsys.readouterr().out
    assert code == (1 if strict else 0)
    if strict:
        lines = out.splitlines()
        assert f"input_hash: {input_hash}" in lines and f"error: {error}" in lines
        assert fmt is None or f"format: {fmt}" in lines
    else:
        doc = json.loads(out)
        assert doc["input_hash"] == input_hash and doc["error"] == error
        assert doc.get("format") == fmt
