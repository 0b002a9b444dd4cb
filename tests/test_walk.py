import tracemalloc

import numpy as np
import pytest

from linksim.channels import NotUnitaryError
from linksim.linalg import DimMismatchError, LinalgError, LinksimError
from linksim.walk import (
    HADAMARD,
    WalkSpec,
    position_distribution,
    shift_operator,
    simulate,
    verify_embedding,
)


def symmetric_initial(n, start):
    # |start> (x) (|0> + i|1>)/sqrt(2): the standard symmetric coin state
    init = np.zeros(2 * n, dtype=complex)
    init[2 * start] = 1.0 / np.sqrt(2.0)
    init[2 * start + 1] = 1.0j / np.sqrt(2.0)
    return init


def test_shift_operator_unitary_and_moves():
    n = 5
    t = shift_operator(n)
    assert np.allclose(t.conj().T @ t, np.eye(2 * n), atol=1e-12)
    state = np.zeros(2 * n, dtype=complex)
    state[2 * 2] = 1.0  # position 2, coin |0>
    out = t @ state
    assert abs(out[2 * 3]) == pytest.approx(1.0)  # moved up one site
    state[:] = 0.0
    state[2 * 2 + 1] = 1.0  # coin |1>
    out = t @ state
    assert abs(out[2 * 1 + 1]) == pytest.approx(1.0)  # moved down


def dense_step(n, coin):
    # the literal one-step unitary U = T (I (x) C)
    return shift_operator(n) @ np.kron(np.eye(n), coin)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def test_simulate_matches_the_dense_step_operator():
    rng = np.random.default_rng(24)
    for n in range(1, 41):
        coin = random_unitary(rng, 2)
        init = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        steps = int(rng.integers(0, 31))
        spec = WalkSpec(n, coin, steps, init)
        u, state = dense_step(n, coin), spec.initial
        dists = list(simulate(spec))
        assert len(dists) == steps + 1
        for dist in dists:
            assert np.max(np.abs(dist - position_distribution(state, n))) <= 1e-12
            state = u @ state


def test_simulate_forms_no_dense_operator():
    # one dense 4000 x 4000 complex operator is 256 MB
    spec = WalkSpec(2000, HADAMARD, 10, symmetric_initial(2000, 1000))
    tracemalloc.start()
    try:
        for _ in simulate(spec):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coin_must_be_unitary():
    with pytest.raises(NotUnitaryError):
        WalkSpec(4, np.array([[1, 0], [0, 2]]), 1, symmetric_initial(4, 2))


def test_nan_coin_is_not_unitary():
    with pytest.raises(NotUnitaryError):
        WalkSpec(4, np.array([[np.nan, 0], [0, 1]]), 1, symmetric_initial(4, 2))


def test_walk_spec_validation():
    with pytest.raises(DimMismatchError):
        WalkSpec(4, np.eye(3), 1, symmetric_initial(4, 2))
    with pytest.raises(DimMismatchError):
        WalkSpec(4, HADAMARD, 1, np.ones(6))
    for steps in (-1, 1.5, True):
        with pytest.raises(LinksimError, match="steps"):
            WalkSpec(4, HADAMARD, steps, symmetric_initial(4, 2))


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_initial_state_needs_a_finite_non_zero_norm(value):
    init = np.zeros(8, dtype=complex)
    init[0] = value
    with pytest.raises(LinalgError, match="norm"):
        WalkSpec(4, HADAMARD, 1, init)


def test_distributions_are_normalized():
    spec = WalkSpec(32, HADAMARD, 10, symmetric_initial(32, 16))
    for dist in simulate(spec):
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= -1e-15)


def test_hadamard_symmetric_coin_gives_symmetric_distribution():
    n, start, steps = 64, 32, 20
    spec = WalkSpec(n, HADAMARD, steps, symmetric_initial(n, start))
    *_, final = simulate(spec)
    asym = max(abs(final[(start + k) % n] - final[(start - k) % n])
               for k in range(1, n // 2))
    assert asym < 1e-12


def test_identity_coin_is_ballistic():
    n, start, steps = 16, 8, 5
    init = np.zeros(2 * n, dtype=complex)
    init[2 * start] = 1.0  # coin |0> only
    spec = WalkSpec(n, np.eye(2), steps, init)
    *_, final = simulate(spec)
    assert final[start + steps] == pytest.approx(1.0)


def test_position_distribution_marginalizes_coin():
    state = np.array([0.6, 0.8j, 0, 0], dtype=complex)
    dist = position_distribution(state, 2)
    assert dist[0] == pytest.approx(1.0)
    assert dist[1] == pytest.approx(0.0)


def test_verify_embedding_shift_pair():
    n = 6
    up = np.roll(np.eye(n), 1, axis=0)
    down = np.roll(np.eye(n), -1, axis=0)
    assert verify_embedding(up, down)
    assert verify_embedding(np.eye(n), np.eye(n))
    assert not verify_embedding(down, up)
    assert not verify_embedding(up, np.eye(n))


def test_verify_embedding_rejects_bad_input():
    with pytest.raises(NotUnitaryError):
        verify_embedding(np.diag([1.0, 2.0]), np.eye(2))
    with pytest.raises(NotUnitaryError):
        verify_embedding(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(DimMismatchError):
        verify_embedding(np.eye(2), np.eye(3))
