from dataclasses import replace
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linksim.channels import (
    VacuumExtendedChannel,
    depolarizing_correlated,
    memoryless_bitflip,
    pauli_channel_correlated,
    scale_row,
    unitary_channel,
)
from linksim import superposition
from linksim.linalg import (
    DensityMatrix,
    DimMismatchError,
    NonHermitianError,
    partial_trace,
)
from linksim.scenarios import (
    PROP5_P05,
    ScenarioSpec,
    build_scenario,
    builtin,
    builtin_names,
)
from linksim.superposition import (
    ControlState,
    SuperpositionError,
    SuperpositionScenario,
    apply,
    fourier_basis,
    global_kraus,
    measure_control,
    pm_basis,
    run,
    run_stack,
    uniform_control,
)
from reference import assert_run_stack_matches_interference_form, channel_apply

S2 = 1.0 / np.sqrt(2.0)


def random_channel(rng, d=2, m=3):
    """Random CPTP Kraus set with random vacuum amplitudes."""
    g = rng.normal(size=(m * d, d)) + 1j * rng.normal(size=(m * d, d))
    q, _ = np.linalg.qr(g)
    kraus = tuple(q[i * d:(i + 1) * d, :].copy() for i in range(m))
    amps = rng.normal(size=m) + 1j * rng.normal(size=m)
    amps /= np.linalg.norm(amps)
    return VacuumExtendedChannel(kraus, amps)


def _unit_vector(draw, size):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                               max_size=size)))
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


@st.composite
def pauli_and_bitflip_channels(draw):
    """Two or three random correlated-Pauli or memoryless bit-flip channels
    on the same one or two qubits."""
    n = draw(st.integers(1, 2))
    channels = []
    for _ in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4,
                                       max_size=4)))
            assume(w.sum() > 1e-3)
            channels.append(pauli_channel_correlated(w / w.sum(), n,
                                                     _unit_vector(draw, 4)))
        else:
            channels.append(memoryless_bitflip(
                draw(st.integers(0, n - 1)), n, draw(st.floats(0.0, 1.0)),
                _unit_vector(draw, 2)))
    return tuple(channels)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_control_state_normalization():
    with pytest.raises(SuperpositionError):
        ControlState(np.array([1.0, 1.0]))
    with pytest.raises(SuperpositionError):
        ControlState(np.array([np.nan, 0.0]))
    # |+>, the control of every two-branch family
    assert uniform_control(2).amplitudes.tobytes() == np.full(2, S2, complex).tobytes()
    assert np.allclose(uniform_control(3).amplitudes, np.full(3, 1 / np.sqrt(3)))


def test_nan_basis_is_not_orthonormal():
    # a NaN basis vector is refused here, not later as a non-Hermitian state
    scen = build_scenario(builtin("fig4a_red"), 0.3)
    with pytest.raises(SuperpositionError):
        SuperpositionScenario(scen.channels, scen.input, scen.control,
                              (np.array([np.nan, 0.0]), np.array([0.0, 1.0])))


def test_fourier_basis_orthonormal():
    for n in (2, 3, 4, 5):
        basis = fourier_basis(n)
        gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
        assert np.allclose(gram, np.eye(n), atol=1e-12)
        # the k=0 Fourier state is the uniform control state
        assert np.allclose(basis[0], uniform_control(n).amplitudes)


def test_pm_basis_matches_fourier_n2():
    plus, minus = pm_basis()
    f0, f1 = fourier_basis(2)
    assert np.allclose(plus, f0)
    assert np.allclose(minus, f1)


def test_global_kraus_two_branch_formula():
    # for two channels the joint operators must equal
    # b_j F_i (x) |0><0| + a_i N_j (x) |1><1|, enumerated lexicographically
    _assert_two_branch_formula()


def test_global_kraus_does_not_use_the_fast_path(monkeypatch):
    # the reference must not share the code it is the reference for
    def fast_path(*args, **kwargs):
        raise AssertionError("global_kraus called apply's column builder")

    monkeypatch.setattr(superposition, "_joint_columns", fast_path)
    _assert_two_branch_formula()


def _assert_two_branch_formula():
    rng = np.random.default_rng(10)
    f = random_channel(rng, m=2)
    n = random_channel(rng, m=3)
    a, b = f.vacuum_amplitudes, n.vacuum_amplitudes
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    ops = global_kraus((f, n))
    assert len(ops) == 6
    k = 0
    for i in range(2):
        for j in range(3):
            expected = (np.kron(b[j] * f.kraus[i], p0)
                        + np.kron(a[i] * n.kraus[j], p1))
            assert np.allclose(ops[k], expected, atol=1e-12)
            k += 1


def test_global_kraus_completeness_pairs_and_triples():
    rng = np.random.default_rng(11)
    for count in (2, 3):
        channels = tuple(random_channel(rng) for _ in range(count))
        ops = global_kraus(channels)
        acc = sum(s.conj().T @ s for s in ops)
        assert np.max(np.abs(acc - np.eye(2 * count))) < 1e-12


def test_apply_preserves_trace_and_dims():
    rng = np.random.default_rng(12)
    channels = (random_channel(rng), random_channel(rng))
    inp = DensityMatrix((2,), random_density(rng, 2))
    scen = SuperpositionScenario(channels, inp, uniform_control(2), pm_basis())
    joint = apply(scen)
    assert joint.dims == (2, 2)
    assert np.trace(joint.mat).real == pytest.approx(1.0, abs=1e-12)


def test_branch_control_reduces_to_single_channel():
    # control in basis state |l> makes the joint output factor through
    # channel l alone
    rng = np.random.default_rng(13)
    channels = (random_channel(rng), random_channel(rng))
    rho = random_density(rng, 2)
    inp = DensityMatrix((2,), rho)
    for l in range(2):
        e = np.zeros(2)
        e[l] = 1.0
        scen = SuperpositionScenario(channels, inp, ControlState(e), pm_basis())
        reduced = partial_trace(apply(scen), [0])
        assert np.allclose(reduced.mat, channel_apply(channels[l], rho), atol=1e-12)


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(14)
    channels = tuple(random_channel(rng) for _ in range(3))
    inp = DensityMatrix((2,), random_density(rng, 2))
    scen = SuperpositionScenario(channels, inp, uniform_control(3),
                                 fourier_basis(3))
    outs = run(scen)
    assert len(outs) == 3
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
    for o in outs:
        if o.post_state is not None:
            assert np.trace(o.post_state.mat).real == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_outcome_sentinel():
    # two identical identity channels with trivial amplitudes: the minus
    # outcome never fires
    ident = unitary_channel(np.eye(2))
    inp = DensityMatrix.pure((2,), np.array([1.0, 0.0]))
    scen = SuperpositionScenario((ident, ident), inp, uniform_control(2), pm_basis())
    outs = run(scen)
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)
    assert outs[1].probability == 0.0
    assert outs[1].post_state is None


def test_scenario_validation():
    rng = np.random.default_rng(15)
    ch = random_channel(rng)
    inp = DensityMatrix((2,), random_density(rng, 2))
    with pytest.raises(SuperpositionError):
        SuperpositionScenario((ch,), inp, uniform_control(2), pm_basis())
    bad_basis = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(SuperpositionError):
        SuperpositionScenario((ch, ch), inp, uniform_control(2), bad_basis)


def test_scenario_measures_one_to_n_orthonormal_vectors_of_length_n():
    # the basis is the set of outcomes computed, outcome k on vector k: a
    # count outside 1..n or a vector not of length n is a dimension error
    # (ragged and too-long vectors once escaped as numpy errors), a set
    # that is not orthonormal a superposition error
    rng = np.random.default_rng(17)
    ch = random_channel(rng)
    inp = DensityMatrix((2,), random_density(rng, 2))
    plus, minus = pm_basis()
    every = run(SuperpositionScenario((ch, ch), inp, uniform_control(2), (plus, minus)))
    for k, b in enumerate((plus, minus)):
        (out,) = run(SuperpositionScenario((ch, ch), inp, uniform_control(2), (b,)))
        assert (out.outcome_index, out.probability) == (0, every[k].probability)
    for basis in ((), (plus, minus, plus), ([1, 0], [0, 1, 0]),
                  ([1, 0, 0], [0, 1, 0]), ([[1, 0]],)):
        with pytest.raises(DimMismatchError):
            SuperpositionScenario((ch, ch), inp, uniform_control(2), basis)
    for basis in (([1, 0], [1, 0]), ([2, 0],), ([np.nan, 0],),
                  (plus, [np.nan, 1])):
        with pytest.raises(SuperpositionError):
            SuperpositionScenario((ch, ch), inp, uniform_control(2), basis)


def test_measure_control_holds_the_basis_to_the_scenario_rule():
    # the rule the scenario states, through the one check both share: a
    # single vector and a ragged basis once escaped as numpy errors, and a
    # basis that is not orthonormal returned two outcomes
    joint = apply(build_scenario(builtin("fig4a_red"), 0.3))
    plus, minus = pm_basis()
    (out,) = measure_control(joint, (plus,))
    assert out.probability == measure_control(joint, (plus, minus))[0].probability
    for basis in (plus, (), (plus, minus, plus), ([1, 0], [0, 1, 0]),
                  ([1, 0, 0], [0, 1, 0]), ([[1, 0]],)):
        with pytest.raises(DimMismatchError):
            measure_control(joint, basis)
    for basis in (([1, 0], [1, 0]), ([2, 0],), ([np.nan, 0],),
                  (plus, [np.nan, 1])):
        with pytest.raises(SuperpositionError):
            measure_control(joint, basis)


def test_measure_control_dim_mismatch():
    rng = np.random.default_rng(16)
    channels = (random_channel(rng), random_channel(rng))
    inp = DensityMatrix((2,), random_density(rng, 2))
    joint = apply(SuperpositionScenario(channels, inp, uniform_control(2), pm_basis()))
    from linksim.linalg import DimMismatchError
    with pytest.raises(DimMismatchError):
        measure_control(joint, fourier_basis(3))


def test_depolarizing_pair_plus_outcome_is_bell_diagonal():
    # correlated depolarizing channels on |00> keep the plus outcome inside
    # the Bell-diagonal family: diagonal plus a single (|00>, |11>) coherence
    channels = (
        depolarizing_correlated(0.5, 2, (S2, S2, 0, 0)),
        depolarizing_correlated(0.5, 2, (S2, 0, 0, S2)),
    )
    inp = DensityMatrix.pure((2, 2), np.array([1.0, 0, 0, 0]))
    outs = run(SuperpositionScenario(channels, inp, uniform_control(2), pm_basis()))
    m = outs[0].post_state.mat
    off = m - np.diag(np.diag(m))
    off[0, 3] = off[3, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-12


@PROPERTY
@given(pauli_and_bitflip_channels())
def test_global_kraus_complete_on_random_pauli_and_bitflip(channels):
    ops = global_kraus(channels)
    acc = sum(s.conj().T @ s for s in ops)
    assert np.max(np.abs(acc - np.eye(acc.shape[0]))) < 1e-12


@PROPERTY
@given(pauli_and_bitflip_channels())
def test_run_outcome_probabilities_sum_to_one(channels):
    n = len(channels)
    qubits = int(np.log2(channels[0].dim))
    inp = DensityMatrix.pure((2,) * qubits, np.eye(channels[0].dim)[0])
    outs = run(SuperpositionScenario(channels, inp, uniform_control(n),
                                     fourier_basis(n)))
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


def dense_apply(scenario):
    """Reference evolution sum_i S_i J S_i^dag over the dense operators of
    ``global_kraus``, summed in multi-index order and symmetrized."""
    c = scenario.control.amplitudes
    joint_in = np.kron(scenario.input.mat, np.outer(c, c.conj()))
    out = np.zeros_like(joint_in)
    for s in global_kraus(scenario.channels):
        out += (s @ joint_in) @ s.conj().T
    return (out + out.conj().T) / 2.0


BUILTIN_SPECS = {spec.name: spec for spec in map(builtin, builtin_names())}


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_apply_equals_dense_reference_on_builtins(name):
    # every builtin joint operator is monomial with real or imaginary
    # entries, so each output entry is one product and the sums agree exactly
    spec = BUILTIN_SPECS[name]
    for p in (0.0, 0.13, 0.5, 0.77, 1.0):
        for q in (0.0, 0.31, 1.0):
            scen = build_scenario(spec, p, q)
            assert np.array_equal(apply(scen).mat, dense_apply(scen)), (p, q)


def _bitwise_equal(a, b):
    """Equal bit for bit, the sign of every zero included."""
    a, b = a.view(float), b.view(float)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def dense_joint_columns(channels, cols):
    """Reference for ``_joint_columns``: columns ``cols`` of every S_i with a
    coefficient that does not vanish, in multi-index order, on every joint
    row: column t*n + l is coeff_l(i) times column t of the dense
    ``kraus[i_l]`` of channel l, at rows l::n."""
    n = len(channels)
    t, branch = np.divmod(cols, n)
    out = []
    for i in product(*(range(len(c.kraus)) for c in channels)):
        amps = [c.vacuum_amplitudes[k] for c, k in zip(channels, i)]
        coeff = [prod(amps[k] for k in range(n) if k != l) for l in range(n)]
        if not any(coeff):
            continue
        s = np.empty((channels[0].dim, n, len(cols)), dtype=complex)
        for l, (c, k) in enumerate(zip(channels, i)):
            s[:, l] = np.where(branch == l, coeff[l] * c.kraus[k][:, t], 0)
        out.append(s.reshape(-1, len(cols)))
    return np.array(out)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_joint_columns_equal_the_dense_kraus_gather(name):
    # scaling only the gathered unit columns gives bitwise the columns of
    # the dense Kraus operators; the joint rows left out are zero
    for p in (0.0, 0.3, 1.0):
        channels = build_scenario(BUILTIN_SPECS[name], p).channels
        n = len(channels)
        cols = np.arange(channels[0].dim * n)
        reach, local, scaled = superposition._joint_columns(
            channels, scale_row(channels)[None], cols)
        gathered = dense_joint_columns(channels, cols)
        rows = reach[local // n] * n + local % n
        assert _bitwise_equal(scaled[0], gathered[:, rows]), p
        assert not np.delete(gathered, rows, axis=1).any(), p


@pytest.mark.parametrize("spec", [ScenarioSpec("ghz8", "ghz_depolarizing", 8,
                                               PROP5_P05)]
                         + [BUILTIN_SPECS[name] for name in sorted(BUILTIN_SPECS)],
                         ids=lambda spec: spec.name)
def test_run_builds_no_dense_kraus_operator(spec):
    # a noise point scales only the reached Kraus columns: the dense
    # 2^n x 2^n operators are formed only where ``kraus`` is read
    scenario = build_scenario(spec, 0.3)
    run(scenario)
    assert not any("kraus" in vars(c) for c in scenario.channels)


def _random_input(rng, d, kind):
    """Full-rank mixed, pure with some zero amplitudes, or rank two on a
    random subset of the basis (zero rows elsewhere)."""
    if kind == "mixed":
        return random_density(rng, d)
    support = np.sort(rng.choice(d, size=rng.integers(2, d + 1), replace=False))
    if kind == "pure":
        v = np.zeros(d, dtype=complex)
        v[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    a = np.zeros((d, 2), dtype=complex)
    a[support] = (rng.normal(size=(len(support), 2))
                  + 1j * rng.normal(size=(len(support), 2)))
    m = a @ a.conj().T
    return m / np.trace(m).real


def assert_measure_matches_dense_projection(joint, basis):
    """Every outcome of ``measure_control`` against the literal projection
    (I (x) <b_k|) rho (I (x) |b_k>), to 1e-12."""
    d = joint.dim // len(basis[0])
    for out, b in zip(measure_control(joint, basis), basis):
        bra = np.kron(np.eye(d), b.conj()[None, :])
        block = bra @ joint.mat @ bra.conj().T
        p = np.trace(block).real
        assert out.probability == pytest.approx(p, abs=1e-12, rel=0)
        if out.post_state is None:
            assert p < superposition.ZERO_PROB
        else:
            assert np.allclose(out.post_state.mat, block / p, atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_measure_control_equals_dense_projection_on_builtins(name):
    # every outcome, not only those a plus_only spec reports
    spec = replace(BUILTIN_SPECS[name], outcome_policy="all_outcomes")
    for p, q in ((0.0, 0.31), (0.5, 0.5), (0.77, 1.0)):
        scen = build_scenario(spec, p, q)
        assert_measure_matches_dense_projection(apply(scen),
                                                scen.measurement_basis)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_plus_only_run_is_outcome_0_of_every_outcome_bitwise(name):
    # a plus_only scenario measures outcome 0 alone, bit for bit as the
    # first of every outcome
    plus = replace(BUILTIN_SPECS[name], outcome_policy="plus_only")
    every = replace(plus, outcome_policy="all_outcomes")
    for p, q in ((0.0, 0.31), (0.13, 1.0), (0.5, 0.5), (0.77, 0.0), (1.0, 1.0)):
        (alone,) = run(build_scenario(plus, p, q))
        first = run(build_scenario(every, p, q))[0]
        assert alone.outcome_index == first.outcome_index == 0
        assert alone.probability.hex() == first.probability.hex()
        assert (alone.post_state is None) == (first.post_state is None)
        if first.post_state is not None:
            assert alone.post_state.mat.tobytes() == first.post_state.mat.tobytes()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(2, 3),
       st.sampled_from(["mixed", "pure", "rank_deficient"]))
def test_apply_matches_dense_reference_on_random_channels(seed, count, kind):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 4]))
    channels = []
    for _ in range(count):
        ch = random_channel(rng, d=d, m=int(rng.integers(1, 4)))
        amps = ch.vacuum_amplitudes.copy()
        if len(amps) > 1 and rng.random() < 0.5:
            # zero amplitudes on two channels make some joint operators vanish
            amps[0] = 0.0
            amps /= np.linalg.norm(amps)
        channels.append(VacuumExtendedChannel(ch.kraus, amps))
    c = rng.normal(size=count) + 1j * rng.normal(size=count)
    if rng.random() < 0.5:
        c[rng.integers(count)] = 0.0
    scen = SuperpositionScenario(
        tuple(channels), DensityMatrix((d,), _random_input(rng, d, kind)),
        ControlState(c / np.linalg.norm(c)), fourier_basis(count))
    joint = apply(scen)
    assert np.allclose(joint.mat, dense_apply(scen), atol=1e-12, rtol=0)
    assert_measure_matches_dense_projection(joint, scen.measurement_basis)
    assert_run_stack_matches_interference_form(scen)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_run_stack_equals_the_interference_form_on_builtins(name):
    # the outcome blocks from the channel outputs and one interference
    # operator per branch, a form that shares no code with the joint Kraus
    # operators, at the noise points of ``tools/output_digest.py``
    spec = replace(BUILTIN_SPECS[name], outcome_policy="all_outcomes")
    for p in (0.0, 0.13, 0.5, 0.77, 1.0):
        for q in (0.0, 0.31, 1.0):
            assert_run_stack_matches_interference_form(build_scenario(spec, p, q))


def test_run_stack_refuses_a_badly_shaped_scale_table():
    # one row per point and one column per Kraus operator of every channel
    scenario = build_scenario(BUILTIN_SPECS["fig4a_red"], 0.3)
    row = scale_row(scenario.channels)
    assert row.shape == (8,)
    for table in ([], np.empty((0, 8)), row, row[None, None], row[None, :7],
                  np.hstack([row, row])[None], [row, row[:7]], [row * 1j],
                  [["1"] * 8]):
        with pytest.raises(SuperpositionError):
            run_stack(scenario, table)
    support, probs, live, posts = run_stack(scenario, [row, row])
    assert probs.shape == live.shape == (2, 1)  # plus_only: one outcome
    assert posts.shape == (live.sum(), len(support), len(support))


def test_run_stack_nan_scale_fails_the_density_check():
    scenario = build_scenario(BUILTIN_SPECS["fig4a_red"], 0.3)
    table = np.array([scale_row(scenario.channels)] * 3)
    table[1, 2] = np.nan
    with pytest.raises(NonHermitianError):
        run_stack(scenario, table)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("seed", range(8))
def test_run_stack_equals_run_on_random_scaled_channels(seed):
    # dense random unitaries as unit operators, random Kraus weights per
    # point (some zero), random amplitudes, mixed inputs and controls: one
    # scenario and a table of the points' scales give every point's
    # outcomes bitwise as that point alone
    rng = np.random.default_rng(seed)
    d, count = int(rng.choice([2, 4])), int(rng.integers(2, 4))
    ops = [tuple(_random_unitary(rng, d) for _ in range(rng.integers(1, 4)))
           for _ in range(count)]
    amps = []
    for channel_ops in ops:
        a = rng.normal(size=len(channel_ops)) + 1j * rng.normal(size=len(channel_ops))
        amps.append(a / np.linalg.norm(a))
    rho = DensityMatrix((d,), _random_input(rng, d, "mixed"))
    c = rng.normal(size=count) + 1j * rng.normal(size=count)
    control, basis = ControlState(c / np.linalg.norm(c)), fourier_basis(count)
    scenarios = []
    for _ in range(5):
        channels = []
        for channel_ops, a in zip(ops, amps):
            w = rng.random(len(channel_ops)) * (rng.random(len(channel_ops)) < 0.8)
            w = w / w.sum() if w.any() else np.eye(len(channel_ops))[0]
            channels.append(VacuumExtendedChannel(channel_ops, a, np.sqrt(w)))
        scenarios.append(SuperpositionScenario(tuple(channels), rho, control, basis))
    # the stacked scenario's own scales (ones) are not read
    unit = SuperpositionScenario(tuple(VacuumExtendedChannel(channel_ops, a)
                                       for channel_ops, a in zip(ops, amps)),
                                 rho, control, basis)
    table = [scale_row(scenario.channels) for scenario in scenarios]
    stack = superposition._outcome_lists(rho.dims, *run_stack(unit, table))
    for stacked, scenario in zip(stack, scenarios, strict=True):
        alone = run(scenario)
        assert [o.probability for o in stacked] == [o.probability for o in alone]
        for s, a in zip(stacked, alone):
            assert (s.post_state is None) == (a.post_state is None)
            if a.post_state is not None:
                assert _bitwise_equal(s.post_state.mat, a.post_state.mat)
