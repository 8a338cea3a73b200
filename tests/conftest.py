"""Shared fixtures: named states and deterministic generic-state corpora."""

import pytest

from sloccgeo import classify
from sloccgeo.invariants import SMOOTH_GENERIC
from sloccgeo.states import (
    Tensor,
    four_qubit_generic_family,
    ghz,
    random_state,
    tensor_product,
)


@pytest.fixture(autouse=True)
def empty_classify_memo():
    """Each test starts with an empty classify memo, so no test reads a
    verdict that an earlier test computed, or skips work it counts."""
    classify.cache_clear()


@pytest.fixture(scope="session")
def ghz3_qutrit():
    return ghz(3, 3)


@pytest.fixture(scope="session")
def ghz4():
    return ghz(4, 2)


@pytest.fixture(scope="session")
def family_1235():
    return four_qubit_generic_family(1, 2, 3, 5)


@pytest.fixture(scope="session")
def singlet_times_bell():
    # the first two factors carry the same projective map on the model,
    # so the product map on the swapped pair must have a kernel
    singlet = Tensor.from_entries(2, 2, {(0, 1): 1, (1, 0): -1})
    return tensor_product(singlet, ghz(2, 2))


def build_smooth_corpus(n, d, count, base_seed):
    """First `count` seeds from base_seed whose states classify smooth."""
    out = []
    seed = base_seed
    while len(out) < count:
        t = random_state(n, d, 5, seed=seed)
        seed += 1
        try:
            verdict = classify(t)
        except Exception:
            continue
        if verdict.status == SMOOTH_GENERIC:
            out.append(t)
    return out


@pytest.fixture(scope="session")
def smooth_corpus_33():
    return build_smooth_corpus(3, 3, 50, 10_000)


@pytest.fixture(scope="session")
def smooth_corpus_42():
    return build_smooth_corpus(4, 2, 50, 20_000)
