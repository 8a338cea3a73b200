"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 6 compares the graded dimension profiles with the dimensions of
3-dimensional quadratic and cubic regular algebras, taken from their
minimal resolutions.
"""

import time

from sloccgeo.cli import run
from sloccgeo.errors import BadReductionError, InsufficientPointsError
from sloccgeo.geometry import hasse_window, section_count, smoothness_scan
from sloccgeo.invariants import (
    RANK_DEFICIENT,
    SINGULAR_MODEL,
    SMOOTH_GENERIC,
    biquadratic_invariants,
    cayley_hyperdet,
    classify,
    moduli_dimension,
    schlaefli_hyperdet,
)
from sloccgeo.geometry import determinantal_projection, variety_from_state
from sloccgeo.linalg import clear_denominators
from sloccgeo.states import (
    SloccOperator,
    apply_slocc,
    basis_state,
    flattening_image,
    four_qubit_generic_family,
    ghz,
    random_state,
    state_to_json,
    w_state,
)
from sloccgeo.zalgebra import (
    cubic_hilbert,
    multiplication_surjectivity,
    quadratic_hilbert,
    roundtrip_check,
)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_moduli_dimension():
    values = (moduli_dimension(3, 3), moduli_dimension(4, 2), moduli_dimension(5, 2))
    start = time.perf_counter()
    for _ in range(300):
        moduli_dimension(5, 2)
    per_call = (time.perf_counter() - start) / 300
    ok = values == (2, 3, 16) and per_call < 1e-3
    assert report(1, ok, f"dimension formula gives {values}, {per_call * 1e6:.1f} us/call")


def test_criterion_2_section_counts():
    values = (section_count(3, 3), section_count(4, 2), section_count(5, 2))
    ok = values == (6, 6, 14)
    assert report(2, ok, f"section-count formula gives {values}")


def test_criterion_3_slocc_invariance(smooth_corpus_33, smooth_corpus_42):
    start = time.perf_counter()
    checked = 0
    for fmt, corpus in ((3, smooth_corpus_33), (4, smooth_corpus_42)):
        n, d = (3, 3) if fmt == 3 else (4, 2)
        for i, state in enumerate(corpus):
            base = classify(state)
            assert base.status == SMOOTH_GENERIC
            for k in range(5):
                g = SloccOperator.random(n, d, 3, seed=100_000 + 1000 * fmt + 10 * i + k)
                moved = classify(apply_slocc(state, g))
                assert moved.status == SMOOTH_GENERIC
                assert moved.j == base.j, f"j drifted for state {i} op {k}"
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 500 and elapsed < 60
    assert report(3, ok, f"{checked} exact j comparisons in {elapsed:.1f}s")


def test_criterion_4_projection_agreement(smooth_corpus_33, smooth_corpus_42):
    for state in smooth_corpus_33:
        verdict = classify(state)
        js = [pr.invariants.j for pr in verdict.projections]
        assert js[0] == js[1]
    for state in smooth_corpus_42:
        verdict = classify(state)
        js = [pr.invariants.j for pr in verdict.projections]
        assert js[0] == js[1] == js[2]
    assert report(4, True, "axis projections agree exactly on both corpora")


def test_criterion_5_roundtrip(smooth_corpus_33, smooth_corpus_42):
    states = smooth_corpus_33[:25] + smooth_corpus_42[:25]
    true_count = 0
    failures = []
    total = 0
    for state in states:
        for p in (7, 11, 13):
            total += 1
            try:
                outcome = roundtrip_check(state, p)
            except (BadReductionError, InsufficientPointsError) as exc:
                failures.append(type(exc).__name__)
                continue
            assert outcome is True, "a reconstructed kernel disagreed"
            true_count += 1
    rate = true_count / total
    ok = rate >= 0.95
    assert report(
        5, ok, f"{true_count}/{total} roundtrips true ({rate:.1%}), "
        f"failures all flagged: {sorted(set(failures))}"
    )


def profiles_at_two_good_primes(state, runner, k_max):
    """Profiles at the first two primes that are good for the state and
    carry enough points for the evaluation rank."""
    out = []
    for p in (7, 11, 13, 17, 19, 23):
        try:
            out.append(runner(state, p, k_max))
        except (BadReductionError, InsufficientPointsError):
            continue
        if len(out) == 2:
            break
    return out


def test_criterion_6_hilbert_profiles(smooth_corpus_33, smooth_corpus_42):
    quad_expected = (1, 3, 6, 10, 15)
    cubic_expected = (1, 2, 4, 6, 9, 12)
    quad_results = {}
    for state in smooth_corpus_33[:20]:
        profiles = profiles_at_two_good_primes(state, quadratic_hilbert, 4)
        assert len(profiles) == 2
        for profile in profiles:
            quad_results[profile.dims] = quad_results.get(profile.dims, 0) + 1
    cubic_results = {}
    for state in smooth_corpus_42[:20]:
        profiles = profiles_at_two_good_primes(state, cubic_hilbert, 5)
        assert len(profiles) == 2
        for profile in profiles:
            cubic_results[profile.dims] = cubic_results.get(profile.dims, 0) + 1
    ok = set(quad_results) == {quad_expected} and set(cubic_results) == {cubic_expected}
    report(
        6, ok,
        f"quadratic dims seen {dict(quad_results)} vs {quad_expected}; "
        f"cubic dims seen {dict(cubic_results)} vs {cubic_expected}",
    )
    assert ok, (
        "profiles off the regular-algebra resolution values: "
        f"quadratic {sorted(quad_results)}, cubic {sorted(cubic_results)}"
    )


def test_criterion_7_hyperdeterminant_fixed_points():
    fam = four_qubit_generic_family(1, 2, 3, 5)
    fixed = (
        cayley_hyperdet(w_state(3)) == 0
        and cayley_hyperdet(ghz(3, 2)) != 0
        and schlaefli_hyperdet(ghz(4, 2)) == 0
        and schlaefli_hyperdet(fam) != 0
    )
    consistent = 0
    for seed in range(100):
        t = random_state(4, 2, 5, seed=seed)
        hyperdet = schlaefli_hyperdet(t)
        if flattening_image(t).rows < 2:
            assert hyperdet == 0
            consistent += 1
            continue
        model = variety_from_state(t)
        cleared = (
            clear_denominators([determinantal_projection(model, axes)])
            for axes in ((0, 1), (0, 2), (1, 2))
        )
        all_singular = all(biquadratic_invariants(rows[0], den).j is None for rows, den in cleared)
        assert (hyperdet == 0) == all_singular, f"seed {seed}"
        consistent += 1
    ok = fixed and consistent == 100
    assert report(7, ok, f"fixed points hold; vanishing consistency on {consistent} states")


def test_criterion_8_degeneracy_and_hasse(smooth_corpus_33, smooth_corpus_42):
    assert classify(basis_state(3, 3, (0, 0, 0))).status == RANK_DEFICIENT
    ghz3_verdict = classify(ghz(3, 3))
    assert ghz3_verdict.status == SINGULAR_MODEL
    assert ghz3_verdict.singular_witness is not None
    assert ghz3_verdict.singular_witness[0] <= 31
    window_checks = 0
    for state in smooth_corpus_33 + smooth_corpus_42:
        rep = smoothness_scan(state)
        assert rep.verdict == "NoSingularPointFound"
        for p, count in rep.point_counts:
            lo, hi = hasse_window(p)
            assert lo <= count <= hi, f"count {count} outside window at p={p}"
            window_checks += 1
    assert report(
        8, True,
        f"separable/GHZ fixed points hold; {window_checks} point counts inside windows"
    )


def test_criterion_9_section_product_tests(smooth_corpus_42, singlet_times_bell):
    for state in smooth_corpus_42[:10]:
        verdicts = []
        for p in (13, 17, 19, 23):
            try:
                verdicts.append(multiplication_surjectivity(state, (0, 1), p))
            except (BadReductionError, InsufficientPointsError):
                continue
            if len(verdicts) == 2:
                break
        assert len(verdicts) == 2
        assert all(v.surjective for v in verdicts)
    kernel_states = [singlet_times_bell] + [
        apply_slocc(singlet_times_bell, SloccOperator.random(4, 2, 2, seed=s))
        for s in (1, 2)
    ]
    for state in kernel_states:
        hits = 0
        for p in (11, 13, 17):
            try:
                result = multiplication_surjectivity(state, (0, 1), p)
            except (BadReductionError, InsufficientPointsError):
                continue
            assert result.kernel_dim >= 1
            hits += 1
        assert hits >= 2
    assert report(9, True, "surjective on generic states, kernel on diagonal-factoring ones")


def test_criterion_10_cli_determinism(tmp_path, smooth_corpus_33, smooth_corpus_42):
    states = {
        "ghz3.json": ghz(3, 3),
        "ghz4.json": ghz(4, 2),
        "w3.json": w_state(3),
        "separable.json": basis_state(3, 3, (0, 0, 0)),
        "family.json": four_qubit_generic_family(1, 2, 3, 5),
        "random33.json": smooth_corpus_33[0],
        "random42.json": smooth_corpus_42[0],
    }
    paths = {}
    for name, state in states.items():
        path = tmp_path / name
        path.write_text(state_to_json(state) + "\n", encoding="utf-8")
        paths[name] = str(path)

    commands = [["moduli-dim", "--n", "5", "--d", "2"]]
    for name in states:
        commands.append(["classify", paths[name], "--primes", "5,7,11,13"])
    for name in ("ghz3.json", "family.json", "random33.json", "random42.json"):
        commands.append(["jinv", paths[name]])
        commands.append(["roundtrip", paths[name], "--primes", "7,13"])
        commands.append(["hilbert", paths[name], "--primes", "13"])
        commands.append(["smoothness", paths[name], "--primes", "5,7,13"])
    for name in ("w3.json", "ghz4.json", "family.json"):
        commands.append(["hyperdet", paths[name]])
    commands.append(["equiv", paths["family.json"], paths["random42.json"]])

    mismatches = 0
    for i, argv in enumerate(commands):
        first = tmp_path / f"out_{i}_a.json"
        second = tmp_path / f"out_{i}_b.json"
        assert run(argv + ["--out", str(first)]) in (0, 1)
        assert run(argv + ["--out", str(second)]) in (0, 1)
        if first.read_bytes() != second.read_bytes():
            mismatches += 1
    ok = mismatches == 0
    assert report(10, ok, f"{len(commands)} commands byte-identical across two runs")
