from itertools import combinations

import numpy as np
import pytest

from linksim.channels import BadProbabilityError
from linksim.linalg import DensityMatrix, DimMismatchError, partial_trace
from linksim.metrics import (
    DivisionByZeroError,
    VacuumConfig,
    avg_one_vs_rest_concurrence,
    avg_pairwise_concurrence,
    bell_state,
    concurrence,
    fid_closed_bitphase,
    fid_closed_depolarizing,
    fid_closed_w3,
    fidelities_pure,
    fidelity_pure,
    fidelity_up_to_phase,
    w_state,
)
from linksim.scenarios import PROP5_P05, ScenarioSpec, build_scenario
from linksim.superposition import run
from reference import ghz_state, uhlmann_fidelity

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)
S6 = 1.0 / np.sqrt(6.0)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# target states


def test_bell_state():
    assert np.allclose(bell_state(+1), np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.allclose(bell_state(-1), np.array([1, 0, 0, -1]) / np.sqrt(2))


def test_ghz_state():
    g = ghz_state(3)
    assert g.shape == (8,)
    assert g[0] == pytest.approx(S2)
    assert g[7] == pytest.approx(S2)
    assert np.allclose(g[1:7], 0)
    phased = ghz_state(3, phase=np.pi / 3)
    assert phased[7] == pytest.approx(S2 * np.exp(1j * np.pi / 3))


def test_w_state():
    w = w_state(3)
    # one excitation per term: indices 4, 2, 1 in the 8-dim basis
    assert w[4] == pytest.approx(S3)
    assert w[2] == pytest.approx(S3)
    assert w[1] == pytest.approx(S3)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    # a nonzero Fourier outcome dephases the terms but stays normalized
    w1 = w_state(3, outcome=1)
    assert np.linalg.norm(w1) == pytest.approx(1.0)
    assert abs(w1[4]) == pytest.approx(S3)
    assert w1[2] / w1[4] == pytest.approx(np.exp(-2j * np.pi / 3))


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_pure_matches_uhlmann():
    rng = np.random.default_rng(20)
    for _ in range(20):
        rho = DensityMatrix((2, 2), random_density(rng, 4))
        psi = random_pure(rng, 4)
        sigma = DensityMatrix.pure((2, 2), psi)
        # the general route takes square roots of near-zero eigenvalues,
        # so its noise floor is sqrt(machine eps) ~ 1e-8
        assert fidelity_pure(rho, psi) == pytest.approx(
            uhlmann_fidelity(rho, sigma), abs=1e-6)


def test_fidelities_pure_of_an_empty_stack_is_empty():
    """The optimizer's objective scores a stack with no live row."""
    for support in (np.array([0, 3]), np.arange(4)):
        blocks = np.zeros((0, len(support), len(support)), dtype=complex)
        assert fidelities_pure((2, 2), support, blocks, bell_state(+1)) == []


def test_uhlmann_symmetric_and_reflexive():
    rng = np.random.default_rng(21)
    rho = DensityMatrix((2,), random_density(rng, 2))
    sigma = DensityMatrix((2,), random_density(rng, 2))
    assert uhlmann_fidelity(rho, sigma) == pytest.approx(
        uhlmann_fidelity(sigma, rho), abs=1e-10)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_baseline_mixed_vs_bell():
    # maximally mixed two-qubit state against a Bell state: sqrt convention
    mixed = DensityMatrix((2, 2), np.eye(4) / 4)
    assert fidelity_pure(mixed, bell_state()) == pytest.approx(0.5)
    # |00> against a Bell state gives the separable baseline 1/sqrt(2)
    zz = DensityMatrix.pure((2, 2), np.array([1.0, 0, 0, 0]))
    assert fidelity_pure(zz, bell_state()) == pytest.approx(S2)


def test_fidelity_up_to_phase_recovers_phase():
    for phi in (0.0, 0.7, -1.9, np.pi):
        rho = DensityMatrix.pure((2, 2, 2), ghz_state(3, phase=phi))
        assert fidelity_up_to_phase(rho, 3) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_up_to_phase_mixed_extremes():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    assert fidelity_up_to_phase(rho, 2) == pytest.approx(S2)


# ---------------------------------------------------------------------------
# concurrence


def test_concurrence_bell_and_product():
    bell = DensityMatrix.pure((2, 2), bell_state())
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-10)
    prod = DensityMatrix.pure((2, 2), np.array([1.0, 0, 0, 0]))
    assert concurrence(prod) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_werner_closed_form():
    bell = np.outer(bell_state(), bell_state())
    for lam in (0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0):
        rho = DensityMatrix((2, 2), lam * bell + (1 - lam) * np.eye(4) / 4)
        expected = max(0.0, (3 * lam - 1) / 2)
        assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


def test_concurrence_local_unitary_invariant():
    rng = np.random.default_rng(22)
    rho = random_density(rng, 4)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    uv = np.kron(u, v)
    a = concurrence(DensityMatrix((2, 2), rho))
    b = concurrence(DensityMatrix((2, 2), uv @ rho @ uv.conj().T))
    assert a == pytest.approx(b, abs=1e-9)


def test_avg_pairwise_ghz_and_w():
    ghz = DensityMatrix.pure((2, 2, 2), ghz_state(3))
    assert avg_pairwise_concurrence(ghz) == pytest.approx(0.0, abs=1e-10)
    w = DensityMatrix.pure((2, 2, 2), w_state(3))
    assert avg_pairwise_concurrence(w) == pytest.approx(2 / 3, abs=1e-10)


def test_avg_one_vs_rest_ghz_and_w():
    ghz = DensityMatrix.pure((2, 2, 2), ghz_state(3))
    assert avg_one_vs_rest_concurrence(ghz) == pytest.approx(1.0, abs=1e-10)
    w = DensityMatrix.pure((2, 2, 2), w_state(3))
    assert avg_one_vs_rest_concurrence(w) == pytest.approx(
        2 * np.sqrt(2) / 3, abs=1e-10)


def test_one_vs_rest_needs_qubits():
    with pytest.raises(DimMismatchError):
        avg_one_vs_rest_concurrence(DensityMatrix((3, 2), np.eye(6) / 6))
    with pytest.raises(DimMismatchError):
        avg_one_vs_rest_concurrence(DensityMatrix((3, 3), np.eye(9) / 9))


def test_concurrence_needs_two_qubits():
    # a four-level system has no two-qubit structure; its 4 x 4 state once
    # read a concurrence of 0.9999999999999996
    for rho in (DensityMatrix.pure((4,), [1, 0, 0, 1]),
                DensityMatrix((4, 1), np.eye(4) / 4),
                DensityMatrix((2, 2, 2), np.eye(8) / 8)):
        with pytest.raises(DimMismatchError):
            concurrence(rho)
    with pytest.raises(DimMismatchError):
        avg_pairwise_concurrence(DensityMatrix((1, 4), np.eye(4) / 4))


@pytest.mark.parametrize("family, n, amps, target", [
    ("ghz_depolarizing", 8, PROP5_P05.vectors, ghz_state),
    ("w_memoryless", 3, ((S2, S2),) * 3, w_state),
    ("w_memoryless", 4, ((S2, S2), (0.6, 0.8), (1.0, 0.0), (0.0, 1.0)), w_state),
])
def test_avg_pairwise_equals_per_pair_sum(family, n, amps, target):
    # one stacked call for all pairs, added in pair order, must give the
    # bits of one concurrence call per pair
    spec = ScenarioSpec(f"{family}{n}", family, n, VacuumConfig(amps),
                        outcome_policy="all_outcomes")
    states = [o.post_state for p in (0.0, 0.3, 0.6, 1.0)
              for o in run(build_scenario(spec, p)) if o.post_state is not None]
    states.append(DensityMatrix.pure((2,) * n, target(n)))
    pairs = list(combinations(range(n), 2))
    for rho in states:
        expected = sum(concurrence(partial_trace(rho, pair)) for pair in pairs) / len(pairs)
        got = avg_pairwise_concurrence(rho)
        assert (got, np.signbit(got)) == (expected, np.signbit(expected))


def test_multipartite_metrics_build_no_density_matrix(monkeypatch):
    spec = ScenarioSpec("ghz_depolarizing8", "ghz_depolarizing", 8, PROP5_P05)
    rho = run(build_scenario(spec, 0.3))[0].post_state

    def refuse(self):
        raise AssertionError("a metric built a DensityMatrix")

    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
    assert 0.0 <= avg_pairwise_concurrence(rho) <= 1.0
    assert 0.0 <= avg_one_vs_rest_concurrence(rho) <= 1.0


def test_avg_pairwise_two_qubits_is_plain_concurrence():
    rng = np.random.default_rng(23)
    rho = DensityMatrix((2, 2), random_density(rng, 4))
    assert avg_pairwise_concurrence(rho) == pytest.approx(concurrence(rho))


# ---------------------------------------------------------------------------
# closed-form fidelities


def test_vacuum_config_normalization():
    with pytest.raises(ValueError):
        VacuumConfig(((1.0, 1.0, 0, 0), (1.0, 0, 0, 0)))
    with pytest.raises(ValueError):
        VacuumConfig(((np.nan, 0, 0, 0), (1.0, 0, 0, 0)))


def test_depolarizing_closed_form_published_points():
    p1 = VacuumConfig(((0, S3, -S3, -S3), (0, -S3, S3, S3)))
    assert fid_closed_depolarizing(1.0, 1.0, p1) == pytest.approx(1.0, abs=1e-12)
    p05 = VacuumConfig(((-S2, S6, -S6, -S6), (S2, -S6, S6, S6)))
    assert fid_closed_depolarizing(0.5, 0.5, p05) == pytest.approx(1.0, abs=1e-12)
    # trivial amplitudes leave the separable baseline at full noise
    # identical trivial amplitudes never entangle: the |00> input stays at
    # the separable baseline regardless of noise
    triv = VacuumConfig(((1, 0, 0, 0), (1, 0, 0, 0)))
    assert fid_closed_depolarizing(1.0, 1.0, triv) == pytest.approx(S2)
    assert fid_closed_depolarizing(0.0, 0.0, triv) == pytest.approx(S2)


def test_bitphase_closed_form_published_points():
    p1 = VacuumConfig(((0, 1, 0, 0), (0, 0, 0, 1)))
    assert fid_closed_bitphase(1.0, 1.0, p1) == pytest.approx(1.0, abs=1e-12)
    p05 = VacuumConfig(((-S2, S2, 0, 0), (S2, 0, 0, S2)))
    assert fid_closed_bitphase(0.5, 0.5, p05) == pytest.approx(1.0, abs=1e-12)


def test_w3_closed_form_published_points():
    full = VacuumConfig(((0, 1), (0, 1), (0, 1)))
    assert fid_closed_w3((1, 1, 1), full) == pytest.approx(1.0, abs=1e-12)
    balanced = VacuumConfig(((S2, S2),) * 3)
    assert fid_closed_w3((1, 1, 1), balanced) == pytest.approx(
        np.sqrt(6) / 3, abs=1e-12)
    # fully correlated identical small noise: fidelity sqrt(p) at p -> 0
    assert fid_closed_w3((0.6, 0.6, 0.6), full) == pytest.approx(np.sqrt(0.6))


def test_closed_forms_reject_bad_probability():
    cfg = VacuumConfig(((1, 0, 0, 0), (1, 0, 0, 0)))
    with pytest.raises(BadProbabilityError):
        fid_closed_depolarizing(1.5, 0.5, cfg)
    with pytest.raises(BadProbabilityError):
        fid_closed_bitphase(-0.1, 0.5, cfg)


_ONE_PAULI = VacuumConfig(((1, 0, 0, 0),))
_TWO_PAIRS = VacuumConfig(((S2, S2), (S2, S2)))
_THREE_PAULI = VacuumConfig(((1, 0, 0, 0),) * 3)
_PAULI_PAIR = VacuumConfig(((0.5, 0.5, 0.5, 0.5),) * 2)


@pytest.mark.parametrize("cfg", [_ONE_PAULI, _TWO_PAIRS, _THREE_PAULI])
def test_depolarizing_closed_form_refuses_a_config_of_the_wrong_shape(cfg):
    with pytest.raises(DimMismatchError, match="2 amplitude vectors of length 4"):
        fid_closed_depolarizing(0.5, 0.5, cfg)


@pytest.mark.parametrize("cfg", [_ONE_PAULI, _TWO_PAIRS, _THREE_PAULI])
def test_bitphase_closed_form_refuses_a_config_of_the_wrong_shape(cfg):
    with pytest.raises(DimMismatchError, match="2 amplitude vectors of length 4"):
        fid_closed_bitphase(0.5, 0.5, cfg)


@pytest.mark.parametrize("cfg", [_TWO_PAIRS, _THREE_PAULI, _PAULI_PAIR])
def test_w3_closed_form_refuses_a_config_of_the_wrong_shape(cfg):
    with pytest.raises(DimMismatchError, match="3 amplitude vectors of length 2"):
        fid_closed_w3((0.5, 0.5, 0.5), cfg)


def test_closed_form_vanishing_probability():
    cfg = VacuumConfig(((1, 0, 0, 0), (-1, 0, 0, 0)))
    with pytest.raises(DivisionByZeroError):
        fid_closed_depolarizing(0.0, 0.0, cfg)


def test_closed_forms_are_elementwise_over_arrays():
    # an array of points gives each point's float, bitwise; a float gives
    # a float
    rng = np.random.default_rng(4)
    p, q = rng.uniform(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 9)
    p[:3], q[:3] = (0.0, 1.0, 0.5), (1.0, 0.0, 0.5)
    depol = VacuumConfig(((-S2, S6, -S6, -S6), (S2, -S6, S6, S6)))
    bitphase = VacuumConfig(((-S2, S2, 0, 0), (S2, 0, 0, S2)))
    for closed, cfg in ((fid_closed_depolarizing, depol),
                        (fid_closed_bitphase, bitphase)):
        column = closed(p, q, cfg)
        assert [x.hex() for x in column] == [
            closed(a, b, cfg).hex() for a, b in zip(p.tolist(), q.tolist())]
        assert type(closed(0.25, 0.75, cfg)) is float
    w = VacuumConfig(((S3, np.sqrt(2 / 3)), (S2, S2), (0.6, 0.8)))
    rows = rng.uniform(0.0, 1.0, (5, 3))
    assert [x.hex() for x in fid_closed_w3(rows, w)] == [
        fid_closed_w3(row, w).hex() for row in rows.tolist()]
    with pytest.raises(DimMismatchError):
        fid_closed_w3(rows[:, :2], w)


def test_closed_form_columns_raise_at_the_first_bad_point():
    cfg = VacuumConfig(((1, 0, 0, 0), (-1, 0, 0, 0)))
    # checked point by point, p before q
    with pytest.raises(BadProbabilityError, match=r"^probability=1\.5 "):
        fid_closed_depolarizing([0.2, -0.1], [1.5, 0.3], cfg)
    with pytest.raises(BadProbabilityError, match=r"^probability=-0\.1 "):
        fid_closed_bitphase([0.2, -0.1], [0.5, 1.5], cfg)
    # a vanishing denominator at any point raises
    assert fid_closed_depolarizing([0.5], [0.5], cfg)[0] > 0.0
    with pytest.raises(DivisionByZeroError, match="^vanishing outcome probability$"):
        fid_closed_depolarizing([0.5, 0.0], [0.5, 0.0], cfg)


def test_closed_form_complex_amplitudes_fold():
    # a global phase on one amplitude vector only enters through the
    # symmetrized products, so the result stays real and bounded
    phase = np.exp(0.3j)
    cfg = VacuumConfig(((0, phase * S3, -phase * S3, -phase * S3),
                        (0, -S3, S3, S3)))
    val = fid_closed_depolarizing(1.0, 1.0, cfg)
    assert 0.0 <= val <= 1.0
    # folding only the real part of the cross products: conjugating the
    # phase must give the same value
    conj_cfg = VacuumConfig(((0, S3 / phase, -S3 / phase, -S3 / phase),
                             (0, -S3, S3, S3)))
    assert val == pytest.approx(fid_closed_depolarizing(1.0, 1.0, conj_cfg),
                                abs=1e-12)
