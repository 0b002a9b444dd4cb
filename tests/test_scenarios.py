import importlib.util
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from linksim import cli, linalg, scenarios
from linksim.channels import (
    BadProbabilityError,
    VacuumExtendedChannel,
    depolarizing_correlated,
    pauli_channel_correlated,
    pauli_scales,
    scale_row,
)
from linksim.linalg import LinksimError
from linksim.metrics import VacuumConfig
from linksim.superposition import run
from linksim.scenarios import (
    PROP5_P05,
    ScenarioError,
    ScenarioSpec,
    UnknownScenarioError,
    build_scenario,
    builtin,
    builtin_names,
    evaluate_point,
    optimize_amplitudes,
    published_configs,
    sweep,
    verify_propositions,
    verify_sweep_oracle,
)

from test_superposition import _bitwise_equal

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)
S6 = 1.0 / np.sqrt(6.0)


def fid_at(name, p, q=None):
    spec = builtin(name)
    recs = evaluate_point(spec, p, p if q is None else q)
    return recs[0]


def test_builtin_lookup_and_aliases():
    assert "prop4_p1" in builtin_names()
    assert builtin("ideal_bell").name == builtin("prop1_ideal_bell").name
    assert builtin("fig8a_green").name == builtin("fig8_green").name
    with pytest.raises(UnknownScenarioError):
        builtin("nope")


def test_replace_policy():
    spec = replace(builtin("prop4_p1"), outcome_policy="all_outcomes")
    assert spec.outcome_policy == "all_outcomes"
    with pytest.raises(ScenarioError):
        replace(spec, outcome_policy="bogus")


def test_published_configs_normalized():
    for family in ("bell_depolarizing", "bell_bitphase", "ghz_depolarizing",
                   "ghz_bitphase", "w_memoryless"):
        cfgs = published_configs(family)
        assert cfgs
        for cfg in cfgs:
            for v in cfg.vectors:
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_ideal_bell_outcomes():
    recs = evaluate_point(builtin("ideal_bell"), 0.0, 0.0)
    assert len(recs) == 2
    for r in recs:
        assert r.probability == pytest.approx(0.5, abs=1e-12)
        assert r.fidelity == pytest.approx(1.0, abs=1e-12)
        assert r.conc_pairwise == pytest.approx(1.0, abs=1e-10)


def test_regime_points_hit_unit_fidelity():
    for name in ("prop4_p1", "prop4_p05", "cor1_p1", "cor1_p05",
                 "prop5_p1", "prop5_p05", "cor2_p1", "cor2_p05", "prop7_p1"):
        spec = builtin(name)
        p = spec.noise[0]
        q = spec.noise[1] if len(spec.noise) > 1 else p
        rec = evaluate_point(spec, p, q)[0]
        assert rec.fidelity == pytest.approx(1.0, abs=1e-9), name


def test_figure_spot_values():
    # frozen curve values, tolerance 1e-4
    assert fid_at("fig4a_red", 0.530611).fidelity == pytest.approx(
        0.816824, abs=1e-4)
    for p in (0.1, 0.45, 0.9):
        assert fid_at("fig4a_green", p).fidelity == pytest.approx(
            0.707107, abs=1e-4)
    assert fid_at("fig4a_blue", 1.0).fidelity == pytest.approx(
        0.808655, abs=1e-4)
    assert fid_at("fig4b_blue", 0.5).fidelity == pytest.approx(1.0, abs=1e-4)
    assert fid_at("fig6a_blue", 0.5).conc_pairwise == pytest.approx(
        1.0, abs=1e-4)
    assert fid_at("fig6a_blue", 1.0).conc_pairwise == pytest.approx(
        4.0 / 13.0, abs=1e-4)
    for p in (0.0, 0.3, 0.8, 1.0):
        assert fid_at("fig6b_red", p).conc_pairwise == pytest.approx(
            p, abs=1e-4)
    assert fid_at("fig7a_red", 0.2).fidelity == pytest.approx(
        np.sqrt(0.6), abs=1e-4)
    assert fid_at("fig7a_green", 1.0).fidelity == pytest.approx(
        np.sqrt(3) / 2, abs=1e-4)
    assert fid_at("fig8_green", 1.0).fidelity == pytest.approx(
        np.sqrt(6) / 3, abs=1e-4)
    assert fid_at("fig8_green", 1.0).conc_one_vs_rest == pytest.approx(
        2 * np.sqrt(2) / 3, abs=1e-4)


def test_fig4b_red_monotone_increasing():
    recs = sweep(builtin("fig4b_red"), np.linspace(0.0, 1.0, 21))
    fids = [r.fidelity for r in recs]
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    assert fids[0] == pytest.approx(S2, abs=1e-10)
    assert fids[-1] == pytest.approx(1.0, abs=1e-10)


def test_sweep_matches_oracle_everywhere():
    for name in ("fig4a_red", "fig4b_blue", "fig8_red"):
        recs = sweep(builtin(name), np.linspace(0.0, 1.0, 21))
        assert verify_sweep_oracle(recs) < 1e-10, name


def test_sweep_is_deterministic():
    spec = builtin("fig4a_red")
    grid = np.linspace(0.0, 1.0, 11)
    assert sweep(spec, grid) == sweep(spec, grid)


def test_emit_oracle_is_keyword_only():
    spec = builtin("prop7_p1")
    # a third positional value must not bind emit_oracle
    with pytest.raises(TypeError):
        evaluate_point(spec, 1.0, 1.0, 1.0)
    with pytest.raises(TypeError):
        sweep(spec, [0.5], None, False)
    assert evaluate_point(spec, 0.5, 0.5, emit_oracle=False)[0].oracle_fidelity is None


def test_two_dimensional_sweep_ordering():
    grid = np.array([0.0, 0.5, 1.0])
    recs = sweep(builtin("fig4a_red"), grid, q_grid=grid)
    assert len(recs) == 9
    assert [r.p for r in recs[:3]] == [0.0, 0.0, 0.0]
    assert [r.q for r in recs[:3]] == [0.0, 0.5, 1.0]


def test_oracle_only_for_closed_form_families():
    assert evaluate_point(builtin("fig7a_red"), 0.5, 0.5)[0].oracle_fidelity is None
    assert evaluate_point(builtin("fig4a_red"), 0.5, 0.5)[0].oracle_fidelity is not None


def test_custom_scenario_round_trip():
    cfg = VacuumConfig(((0, S3, -S3, -S3), (0, -S3, S3, S3)))
    spec = ScenarioSpec("custom", "bell_depolarizing", 2, cfg, None)
    rec = evaluate_point(spec, 1.0, 1.0)[0]
    assert rec.fidelity == pytest.approx(1.0, abs=1e-9)


def test_scenario_spec_validation():
    cfg = VacuumConfig(((1, 0, 0, 0), (1, 0, 0, 0)))
    assert build_scenario(
        ScenarioSpec("x", "bell_depolarizing", 2, cfg, None), 0.5, 0.5
    ) is not None
    for family in ("no_such_family", "custom"):
        with pytest.raises(ScenarioError):
            ScenarioSpec("x", family, 2, cfg, None)
    with pytest.raises(ScenarioError):
        ScenarioSpec("x", "bell_depolarizing", 2, cfg, None,
                     outcome_policy="sometimes")


def test_random_configs_match_oracles():
    rng = np.random.default_rng(30)
    for _ in range(25):
        p, q = rng.uniform(0.05, 0.95, size=2)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        cfg = VacuumConfig((a / np.linalg.norm(a), b / np.linalg.norm(b)))
        spec = ScenarioSpec("rand", "bell_depolarizing", 2, cfg, None)
        rec = evaluate_point(spec, p, q)[0]
        assert rec.fidelity == pytest.approx(rec.oracle_fidelity, abs=1e-10)


def test_optimizer_deterministic_for_seed():
    for name, p in (("prop4_p1", 1.0), ("fig8_green", 0.5)):
        spec = builtin(name)
        a = optimize_amplitudes(spec, p, p, seed=5, restarts=3, max_iter=100)
        b = optimize_amplitudes(spec, p, p, seed=5, restarts=3, max_iter=100)
        assert (a.best_fidelity, a.iterations) == (b.best_fidelity, b.iterations)
        for va, vb in zip(a.best_config.vectors, b.best_config.vectors):
            assert np.array_equal(va, vb)


def test_optimizer_skips_published_configs_of_another_size():
    # the published W configurations have three channels
    cfg = VacuumConfig(((0.6, 0.8),) * 4)
    spec = ScenarioSpec("w4", "w_memoryless", 4, cfg, None)
    res = optimize_amplitudes(spec, 0.5, seed=3, restarts=2, max_iter=20)
    assert len(res.best_config.vectors) == 4


def test_optimizer_needs_a_restart():
    with pytest.raises(ScenarioError):
        optimize_amplitudes(builtin("prop4_p1"), 1.0, restarts=0)


# one builtin per optimizable family: bell_depolarizing, bell_bitphase,
# ghz_depolarizing (n=4), ghz_bitphase (n=3), w_memoryless (n=3)
OPTIMIZABLE = ("fig4a_red", "fig4b_red", "prop5_p05", "cor2_p05", "fig8_green")


@pytest.mark.parametrize("name", OPTIMIZABLE)
def test_fixed_noise_objective_matches_run_path(name):
    spec = builtin(name)
    slots = scenarios._free_slots(spec.family, spec.n)
    dim = sum(np.count_nonzero(m) for m in slots)
    rng = np.random.default_rng(2024)
    noise = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
             (0.0, rng.uniform()), (rng.uniform(), 1.0)]
    noise += [tuple(rng.uniform(size=2)) for _ in range(10)]
    for p, q in noise:
        objective = scenarios._fixed_noise_objective(spec, p, q)
        for _ in range(3):
            x = rng.standard_normal(dim)
            cfg = VacuumConfig(tuple(scenarios._amplitudes(slots, x)))
            plus = ScenarioSpec(spec.name, spec.family, spec.n, cfg, None)
            out = run(build_scenario(plus, p, q))[0]
            expected = 1.0 if out.post_state is None else \
                -scenarios.outcome_fidelity(plus, out)
            assert abs(objective(x) - expected) <= 1e-12, (p, q, x)
        x[:np.count_nonzero(slots[0])] = 0.0  # first block has zero norm
        assert objective(x) == 1.0
        assert scenarios._amplitudes(slots, x) is None


@pytest.mark.parametrize("name", OPTIMIZABLE)
def test_slot_table_round_trips_published_configs(name):
    spec = builtin(name)
    slots = scenarios._free_slots(spec.family, spec.n)
    for cfg in published_configs(spec.family):
        x = np.concatenate([v.real[m] for v, m in zip(cfg.vectors, slots)])
        vectors = scenarios._amplitudes(slots, x)
        for v, got, mask in zip(cfg.vectors, vectors, slots, strict=True):
            # nothing outside the mask is dropped by the gather
            assert not v[~mask].any()
            # the scatter renormalizes the block, which moves the last bit
            # of 1/sqrt(2) entries, and leaves the empty slots exactly 0
            assert np.array_equal(got, v / np.linalg.norm(v.real[mask]))
            assert np.allclose(got, v, rtol=0, atol=1e-15)


def test_optimizer_never_below_published_floor():
    spec = builtin("cor1_p1")
    for p in (0.2, 0.7):
        rec = evaluate_point(spec, p, p)[0]
        res = optimize_amplitudes(spec, p, p, seed=1, restarts=2, max_iter=200)
        assert res.best_fidelity >= rec.fidelity - 1e-12


def test_verify_propositions_all_pass():
    checks = verify_propositions()
    assert len(checks) >= 20
    assert all(c.passed for c in checks)


def test_ghz8_sweep_equals_ghz4_sweep():
    """n = 8 is a multiple of 4 like n = 4, so the correlated-depolarizing
    GHZ sweep gives the same row at every noise point: the large
    (512 x 512 joint) path checked against the small one."""
    points = [0.0, 0.37, 0.91]
    rows = {n: sweep(ScenarioSpec(f"ghz{n}", "ghz_depolarizing", n, PROP5_P05),
                     points)
            for n in (4, 8)}
    assert len(rows[8]) == len(rows[4]) == len(points)
    for big, small in zip(rows[8], rows[4]):
        assert (big.p, big.q, big.outcome) == (small.p, small.q, small.outcome)
        assert big.oracle_fidelity is small.oracle_fidelity is None
        for field in ("probability", "fidelity", "conc_pairwise",
                      "conc_one_vs_rest"):
            assert getattr(big, field) == pytest.approx(
                getattr(small, field), abs=1e-9, rel=0), field


def test_w_outcome_probabilities_uniform():
    recs = evaluate_point(builtin("prop7_p1"),
                          builtin("prop7_p1").noise[0],
                          builtin("prop7_p1").noise[0])
    # plus_only policy reports the first Fourier outcome
    assert recs[0].outcome == 0
    assert recs[0].probability == pytest.approx(1 / 3, abs=1e-10)
    all_spec = replace(builtin("prop7_p1"), outcome_policy="all_outcomes")
    all_recs = evaluate_point(all_spec, 1.0, 1.0)
    assert len(all_recs) == 3
    for r in all_recs:
        assert r.probability == pytest.approx(1 / 3, abs=1e-10)
        assert r.fidelity == pytest.approx(1.0, abs=1e-10)


def test_zero_input_is_cached_and_read_only():
    # every point of a sweep shares one |0...0> input, so no caller may
    # write to it
    first = build_scenario(builtin("prop5_p05"), 0.2)
    second = build_scenario(builtin("prop5_p05"), 0.7)
    assert first.input is second.input
    with pytest.raises(ValueError):
        first.input.mat[0, 0] = 0.5
    assert first.input.mat[0, 0] == 1.0


def _cb(scenario):
    channels = scenario.channels
    branch = np.repeat(np.arange(len(channels)), [len(ch.kraus) for ch in channels])
    return (scenario.control.amplitudes * scenario.measurement_basis[0].conj())[branch]


def dense_plus_tables(scenario):
    """The whole d x d tables w_xy K_x rho K_y^dag from the dense Kraus
    operators, cut to the rows and columns any table reaches."""
    kraus = np.concatenate([ch.kraus for ch in scenario.channels])
    cb = _cb(scenario)
    tables = np.matmul((kraus @ scenario.input.mat)[:, None],
                       kraus.conj().transpose(0, 2, 1)[None])
    tables *= np.outer(cb, cb.conj())[:, :, None, None]
    reach = (tables.any(axis=(0, 1, 2)) | tables.any(axis=(0, 1, 3))).nonzero()[0]
    return reach, tables.take(reach, 2).take(reach, 3)


def image_plus_tables(scenario, reach):
    """Reference for ``_plus_tables`` on |0...0>: each table
    w_xy outer(v_x, conj(v_y)) from the images v_x = K_x[:, 0] of the dense
    Kraus operators, on ``reach``."""
    v = np.concatenate([ch.kraus for ch in scenario.channels])[:, reach, 0]
    cb = _cb(scenario)
    return np.array([[np.outer(vx, vy.conj()) * (cx * cy.conj())
                      for vy, cy in zip(v, cb)] for vx, cx in zip(v, cb)])


OBJECTIVE_SPECS = sorted(
    {spec.name: spec for spec in map(builtin, builtin_names())
     if spec.family not in ("ideal_bell", "ideal_ghz", "ideal_w")}.values(),
    key=lambda spec: spec.name) + [
    ScenarioSpec(f"ghz{n}", "ghz_depolarizing", n, PROP5_P05) for n in (6, 8)]


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=lambda spec: spec.name)
def test_plus_tables_equal_the_whole_tables_cut(spec):
    # the tables are formed from the images of |0...0> on the reached rows
    # only: bitwise the outer products of those images, and in value the
    # whole d x d tables K_x rho K_y^dag cut to the same rows
    for p, q in ((0.0, 0.0), (0.5, 0.5), (0.3, 1.0), (1.0, 0.7)):
        scenario = build_scenario(spec, p, q)
        reach, _, tables = scenarios._plus_tables(scenario)
        dense_reach, dense_tables = dense_plus_tables(scenario)
        assert np.array_equal(reach, dense_reach), (p, q)
        assert _bitwise_equal(tables, image_plus_tables(scenario, reach)), (p, q)
        assert np.array_equal(tables, dense_tables), (p, q)


def test_objective_build_forms_no_whole_table():
    # an n = 8 spec has 64 tables of 256 x 256; formed whole they would
    # hold 67 MB, while the reached blocks are 2 x 2
    import tracemalloc
    spec = ScenarioSpec("ghz8", "ghz_depolarizing", 8, PROP5_P05)
    build_scenario(spec, 0.5, 0.5)  # the cached unit operators and input
    tracemalloc.start()
    try:
        scenarios._fixed_noise_objective(spec, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one 256 x 256 complex matrix
    assert peak < 256 * 256 * 16


def _hex(records):
    """Every field of every record, bit for bit."""
    return [tuple(None if v is None else float(v).hex() for v in astuple(r))
            for r in records]


def _identity_only(family, n, channels, size):
    # every amplitude on the identity slot: at p = q = 0 both branches
    # apply the identity, so every outcome but the first has probability 0
    return ScenarioSpec(f"identity_only_{family}", family, n,
                        VacuumConfig((np.eye(size)[0],) * channels))


def _stack_specs():
    """``stack_specs()`` of ``tools/output_digest.py``, which is loaded
    from its file and never written."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("output_digest", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.stack_specs()


STACK_SPECS = sorted({spec.name: spec for spec in map(builtin, builtin_names())}
                     .values(), key=lambda spec: spec.name) + [
    _identity_only("bell_bitphase", 2, 2, 4),
    _identity_only("ghz_depolarizing", 4, 2, 4),
    _identity_only("w_memoryless", 3, 3, 2)]


@pytest.mark.parametrize("policy", ["plus_only", "all_outcomes"])
@pytest.mark.parametrize("spec", STACK_SPECS + _stack_specs(),
                         ids=lambda spec: spec.name)
def test_sweep_and_grid_equal_evaluate_point_bitwise(spec, policy):
    # one stack and one metric pass per outcome index for a sweep or grid,
    # point by point the records of the one-point path; both grids hold 0
    # and 1
    spec = replace(spec, outcome_policy=policy)
    p_grid, q_grid = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
    expected = [rec for p in p_grid for q in q_grid
                for rec in evaluate_point(spec, float(p), float(q))]
    assert _hex(sweep(spec, p_grid, q_grid)) == _hex(expected)
    expected = [rec for p in p_grid for rec in evaluate_point(spec, float(p), float(p))]
    assert _hex(sweep(spec, p_grid)) == _hex(expected)


def test_stacks_drop_zero_probability_outcomes_per_point():
    spec = replace(STACK_SPECS[-1], outcome_policy="all_outcomes")
    records = sweep(spec, [0.0, 0.5])
    # p = 0 keeps only outcome 0; p = 0.5 keeps all three
    assert [(r.p, r.outcome) for r in records] == [
        (0.0, 0), (0.5, 0), (0.5, 1), (0.5, 2)]


@pytest.mark.parametrize("extra", [-31, -1, 0, 1, 33])
def test_sweeps_across_chunk_edges_equal_evaluate_point(extra):
    # 1, 31, 32, 33 and 65 points for chunks of 32, with p = 0 in mid-chunk:
    # there outcome 1 of the identity-only Bell spec has probability 0, and
    # the chunk's pass for outcome 1 leaves that point out
    points = scenarios._CHUNK + extra
    grid = np.linspace(0.0, 1.0, points)
    at = (points - 1) // 3
    grid[[0, at]] = grid[[at, 0]]
    for spec in (builtin("fig7a_green"),
                 _identity_only("bell_depolarizing", 2, 2, 4)):
        spec = replace(spec, outcome_policy="all_outcomes")
        expected = [rec for p in grid
                    for rec in evaluate_point(spec, float(p), float(p))]
        records = sweep(spec, grid)
        assert _hex(records) == _hex(expected)
    # the Bell spec's records: two outcomes at every point but p = 0
    assert [r.outcome for r in records if r.p == 0.0] == [0]
    assert len(records) == 2 * points - 1


def test_sweep_records_come_from_evaluate_point(monkeypatch, tmp_path):
    # evaluate_point patched on the module, as the benchmark's self-test
    # patches it: it is called once per point, with the point's stacked
    # outcomes and concurrences, and sweep returns, and the CLI writes,
    # exactly the records it returns
    evaluate, calls, returned = scenarios.evaluate_point, [], []

    def perturbed(spec, p, q, **kwargs):
        calls.append((p, q, kwargs["_outcomes"] is not None,
                      kwargs["_concurrences"] is not None))
        records = [replace(r, fidelity=r.fidelity + 1.0,
                           conc_pairwise=r.conc_pairwise + 2.0,
                           conc_one_vs_rest=r.conc_one_vs_rest + 3.0)
                   for r in evaluate(spec, p, q, **kwargs)]
        returned.extend(records)
        return records

    monkeypatch.setattr(scenarios, "evaluate_point", perturbed)
    ghz8 = ScenarioSpec("ghz8", "ghz_depolarizing", 8, PROP5_P05)
    for spec, points in ((builtin("fig4a_red"), scenarios._CHUNK + 1), (ghz8, 11)):
        calls.clear()
        returned.clear()
        grid = np.linspace(0.0, 1.0, points)
        records = sweep(spec, grid)
        assert calls == [(float(p), float(p), True, True) for p in grid]
        assert len(records) == len(returned) == points
        assert all(a is b for a, b in zip(records, returned))
    returned.clear()
    out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
    assert cli.main(["sweep", "--scenario", "fig4a_red", "--points", "33",
                     "--out", str(out)]) == 0
    cli._write_records(returned, str(expected))
    assert len(returned) == 33 and out.read_text() == expected.read_text()


def _record_stage_peak(monkeypatch, spec, points) -> int:
    """The tracemalloc peak of a sweep that replays outcomes measured
    before it starts: building the scenario and the scale rows, and making
    the records, with the reduction index built anew."""
    import tracemalloc

    grid = np.linspace(0.0, 1.0, points)
    run_stack, chunks = scenarios.run_stack, []

    def measured(scenario, scales):
        chunks.append(list(run_stack(scenario, scales)))
        return iter(chunks[-1])

    monkeypatch.setattr(scenarios, "run_stack", measured)
    expected = sweep(spec, grid)
    replay = iter(chunks)
    monkeypatch.setattr(scenarios, "run_stack", lambda *args: iter(next(replay)))
    linalg._reduction_index.cache_clear()
    tracemalloc.start()
    try:
        records = sweep(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == expected
    return peak


@pytest.mark.parametrize("n, points, per_point_peak", [
    (8, 11, 971_580), (10, 32, 6_104_799)])
def test_record_stage_peaks_below_the_per_point_gathers(monkeypatch, n, points,
                                                        per_point_peak):
    """Gathering a chunk's reductions together, in slices of at most
    ``linalg._GATHER_ENTRIES`` entries, keeps the record stage of GHZ
    sweeps below the peak it read when each point's reductions were
    gathered alone (``per_point_peak``, in bytes, measured by
    ``_record_stage_peak`` on that path): the whole chunk in one gather
    read 5.37 MB at n = 8 and 96.3 MB at n = 10."""
    spec = ScenarioSpec(f"ghz{n}", "ghz_depolarizing", n, PROP5_P05)
    assert _record_stage_peak(monkeypatch, spec, points) < per_point_peak


def test_sweep_builds_one_scenario(monkeypatch):
    # one checked scenario, and one channel tuple, per sweep; a point adds
    # only its row of its chunk's scale table
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    spec = builtin("fig7a_green")
    grid = np.linspace(0.0, 1.0, 2 * scenarios._CHUNK + 1)
    expected = sweep(spec, grid, [0.3])
    counted(scenarios, "build_scenario")
    counted(scenarios, "_channels")
    counted(VacuumExtendedChannel, "__post_init__")
    assert _hex(sweep(spec, grid, [0.3])) == _hex(expected)
    # the bit flip and the phase flip, built once at the first point
    assert calls == ["build_scenario", "_channels"] + ["__post_init__"] * 2
    calls.clear()
    assert len(sweep(spec, np.linspace(0.0, 1.0, 33))) == 33
    assert calls.count("__post_init__") == 2
    calls.clear()
    assert sweep(spec, []) == [] and calls == []


def test_plus_only_sweep_builds_one_post_state_per_point(monkeypatch):
    # the scenario measures only the reported outcome, and each chunk's
    # post states are checked as one stack: an n = 8 GHZ sweep of 55
    # points checks 55 post states in 2 stacked calls, one per chunk
    check, checked = linalg.check_densities, []

    def counted(mats):
        # frame 1 is linalg._held, frame 2 the stack constructor
        if sys._getframe(3).f_code.co_name == "_measure":
            checked.append((sys._getframe(2).f_code.co_name, mats.shape))
        return check(mats)

    monkeypatch.setattr(linalg, "check_densities", counted)
    spec = ScenarioSpec("ghz8", "ghz_depolarizing", 8, PROP5_P05)
    assert spec.outcome_policy == "plus_only"
    assert scenarios._CHUNK == 32
    assert len(sweep(spec, np.linspace(0.0, 1.0, 55))) == 55
    assert checked == [("stack", (32, 2, 2)), ("stack", (23, 2, 2))]


def test_sweep_refuses_a_bad_point_in_a_later_chunk():
    # the scenario is checked at the first point; a bad noise value in the
    # second chunk still raises the channel constructor's own error
    good = list(np.linspace(0.0, 1.0, scenarios._CHUNK + 1))
    for constructor, name, grids in (
            (lambda: depolarizing_correlated(1.5, 2, scenarios.PROP4_P05.alpha),
             "fig4a_blue", (good + [1.5],)),
            (lambda: pauli_channel_correlated((-0.5, 0, 0, 1.5), 3,
                                              scenarios.COR2_P05.beta, (0, 3)),
             "fig7a_blue", ([0.5], good + [1.5]))):
        with pytest.raises(BadProbabilityError) as alone:
            constructor()
        with pytest.raises(BadProbabilityError) as swept:
            sweep(builtin(name), *grids)
        assert str(swept.value) == str(alone.value)


def _table_specs():
    """A spec of every family, with w_memoryless at n = 3 to 8."""
    w = [ScenarioSpec(f"w{n}", "w_memoryless", n, VacuumConfig(((S2, S2),) * n))
         for n in range(3, 9)]
    return [builtin("prop1_ideal_bell"), builtin("prop2_ideal_ghz_n3"),
            builtin("prop3_ideal_w_n4"), builtin("fig4a_blue"),
            builtin("fig4b_green"), builtin("prop5_p05"), builtin("fig7a_blue"),
            ScenarioSpec("ghz8", "ghz_depolarizing", 8, PROP5_P05), *w]


def _first_error(spec, p, q):
    """What the per-point constructors raise first at the points (p[i],
    q[i]), in order, as (class, message); None if every point is good."""
    for pi, qi in zip(p, q):
        try:
            scenarios._channels(spec, float(pi), float(qi))
        except LinksimError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("spec", _table_specs(), ids=lambda s: s.name)
def test_scale_table_rows_are_the_constructors_scale_rows(spec):
    # bitwise, signed zeros included, at 0, 1 and random values, in
    # tables of the sizes a chunk takes at its edges
    rng = np.random.default_rng(21)
    for points in (1, 32, 33, 65):
        p, q = rng.uniform(0.0, 1.0, (2, points))
        p[::3], q[1::4] = 0.0, 1.0
        p[1::5], q[::7] = 1.0, 0.0
        table = scenarios._scale_table(spec, p, q)
        rows = [scale_row(scenarios._channels(spec, pi, qi)) for pi, qi in zip(p, q)]
        assert table.dtype == np.float64
        assert table.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("spec", _table_specs(), ids=lambda s: s.name)
def test_scale_table_refuses_as_the_first_bad_constructor(spec):
    # a bad value in the p or the q column, at a chunk's first or last
    # point or inside it, raises what the constructors raise first in
    # p-major order; the ideal families ignore the noise
    rng = np.random.default_rng(22)
    for bad in (np.nan, np.inf, -np.inf, -1e-3, 1 + 1e-9):
        for points, at in ((1, 0), (32, 31), (33, 17), (65, 0), (65, 64)):
            for column in (0, 1):
                pq = rng.uniform(0.0, 1.0, (2, points))
                pq[column, at] = bad
                if at:  # a second bad value after the first
                    pq[1 - column, at - 1:] = 1.5
                expected = _first_error(spec, *pq)
                try:
                    scenarios._scale_table(spec, *pq)
                    raised = None
                except LinksimError as exc:
                    raised = type(exc), str(exc)
                assert raised == expected, (bad, points, at, column)
                ignored = spec.family.startswith("ideal") or (
                    spec.family == "w_memoryless" and column == 1 and not at)
                assert (expected is None) == ignored


def test_sweep_refuses_as_the_first_bad_constructor_in_any_chunk():
    grid = list(np.linspace(0.0, 1.0, 2 * scenarios._CHUNK + 1))
    for name in ("fig4a_blue", "fig7a_blue", "fig8_green"):
        spec = builtin(name)
        for bad in (np.nan, -np.inf, -1e-3, 1 + 1e-9):
            for at in (0, scenarios._CHUNK, 2 * scenarios._CHUNK):
                p = grid[:at] + [bad] + grid[at + 1:]
                with pytest.raises(LinksimError) as swept:
                    sweep(spec, p, [0.25])
                expected = _first_error(spec, p, [0.25] * len(p))
                assert (type(swept.value), str(swept.value)) == expected
            # a bad q at every point: the first point's raises
            if spec.family != "w_memoryless":
                with pytest.raises(LinksimError) as swept:
                    sweep(spec, grid, [bad])
                expected = _first_error(spec, grid, [bad] * len(grid))
                assert (type(swept.value), str(swept.value)) == expected


def test_pauli_scales_keep_the_distribution_message():
    for weights in ((-0.5, 1.5, 0, 0), (0.5, 0.6, 0, 0), (np.nan, 1, 0, 0)):
        with pytest.raises(BadProbabilityError) as table:
            pauli_scales([(1.0, 0, 0, 0), weights])
        with pytest.raises(BadProbabilityError) as alone:
            pauli_channel_correlated(weights, 2, (1, 0, 0, 0))
        assert str(table.value) == str(alone.value)
        assert str(alone.value) == (f"weights {[float(w) for w in weights]} "
                                    "are not a distribution")
    # p = 1.5 in a bit-flip sweep is the weights (-0.5, 1.5, 0, 0)
    with pytest.raises(BadProbabilityError, match=r"weights \[-0\.5, 1\.5, 0\.0, "
                                                   r"0\.0\] are not a distribution"):
        sweep(builtin("fig7a_blue"), [0.5, 1.5])


def test_sweep_memory_does_not_grow_with_points():
    # the peak less the records it returns: one chunk's working set,
    # whatever the number of points
    import tracemalloc

    def overhead(points):
        grid = np.linspace(0.0, 1.0, points)
        tracemalloc.start()
        try:
            records = sweep(spec, grid)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == points
        return peak - current

    spec = ScenarioSpec("ghz6", "ghz_depolarizing", 6, PROP5_P05)
    sweep(spec, [0.5])  # the cached unit operators and input
    small, large = overhead(2 * scenarios._CHUNK), overhead(16 * scenarios._CHUNK)
    assert large <= small + 64 * 1024, (small, large)
