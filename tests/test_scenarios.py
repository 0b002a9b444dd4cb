import numpy as np
import pytest

from linksim import scenarios
from linksim.metrics import VacuumConfig
from linksim.superposition import run
from linksim.scenarios import (
    ScenarioError,
    ScenarioSpec,
    UnknownScenarioError,
    build_scenario,
    builtin,
    builtin_names,
    evaluate_point,
    optimize_amplitudes,
    published_configs,
    replace_policy,
    sweep,
    verify_propositions,
    verify_sweep_oracle,
)

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
    spec = replace_policy(builtin("prop4_p1"), "all_outcomes")
    assert spec.outcome_policy == "all_outcomes"
    with pytest.raises(ScenarioError):
        replace_policy(spec, "bogus")


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
    # a 3-tuple noise spec must not bind emit_oracle positionally
    with pytest.raises(TypeError):
        evaluate_point(spec, *spec.noise)
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


def test_optimizer_needs_a_restart():
    with pytest.raises(ScenarioError):
        optimize_amplitudes(builtin("prop4_p1"), 1.0, restarts=0)


# one builtin per optimizable family: bell_depolarizing, bell_bitphase,
# ghz_depolarizing (n=4), ghz_bitphase (n=3), w_memoryless (n=3)
OPTIMIZABLE = ("fig4a_red", "fig4b_red", "prop5_p05", "cor2_p05", "fig8_green")


@pytest.mark.parametrize("name", OPTIMIZABLE)
def test_fixed_noise_objective_matches_run_path(name):
    spec = builtin(name)
    sizes = scenarios._free_blocks(spec.family, spec.n)
    rng = np.random.default_rng(2024)
    noise = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
             (0.0, rng.uniform()), (rng.uniform(), 1.0)]
    noise += [tuple(rng.uniform(size=2)) for _ in range(10)]
    for p, q in noise:
        objective = scenarios._fixed_noise_objective(
            spec, p, q, rng.standard_normal(sum(sizes)))
        for _ in range(3):
            x = rng.standard_normal(sum(sizes))
            cfg = scenarios._vector_to_config(spec, x)
            plus = ScenarioSpec(spec.name, spec.family, spec.n, cfg, None)
            out = run(build_scenario(plus, p, q))[0]
            expected = 1.0 if out.post_state is None else \
                -scenarios.outcome_fidelity(plus, out)
            assert abs(objective(x) - expected) <= 1e-12, (p, q, x)
        x[:sizes[0]] = 0.0  # first block has zero norm
        assert objective(x) == 1.0


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


def test_w_outcome_probabilities_uniform():
    recs = evaluate_point(builtin("prop7_p1"),
                          builtin("prop7_p1").noise[0],
                          builtin("prop7_p1").noise[0])
    # plus_only policy reports the first Fourier outcome
    assert recs[0].outcome == 0
    assert recs[0].probability == pytest.approx(1 / 3, abs=1e-10)
    all_spec = replace_policy(builtin("prop7_p1"), "all_outcomes")
    all_recs = evaluate_point(all_spec, 1.0, 1.0)
    assert len(all_recs) == 3
    for r in all_recs:
        assert r.probability == pytest.approx(1 / 3, abs=1e-10)
        assert r.fidelity == pytest.approx(1.0, abs=1e-10)
