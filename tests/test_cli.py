import json

import pytest

from sloccgeo import __version__
from sloccgeo.cli import run
from sloccgeo.states import (
    SloccOperator,
    apply_slocc,
    basis_state,
    four_qubit_generic_family,
    ghz,
    state_to_json,
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


def test_sample_writes_canonical_state(tmp_path, capsys):
    out = tmp_path / "state.json"
    code = run(["sample", "--n", "3", "--d", "3", "--seed", "9", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    from sloccgeo.states import parse_state, random_state

    text = out.read_text(encoding="utf-8")
    assert parse_state(text) == random_state(3, 3, 5, seed=9)
    assert text == state_to_json(random_state(3, 3, 5, seed=9)) + "\n"


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
