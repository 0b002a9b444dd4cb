"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -v -s`` or on failure) and then asserts, so the suite doubles as a
human-readable checklist.
"""

import time
from dataclasses import replace

import numpy as np

from linksim.linalg import DensityMatrix
from linksim.metrics import VacuumConfig, concurrence
from linksim.scenarios import (
    ScenarioSpec,
    build_scenario,
    builtin,
    evaluate_point,
    optimize_amplitudes,
    published_configs,
    sweep,
)
from linksim.superposition import global_kraus, run
from linksim.walk import HADAMARD, WalkSpec, simulate, verify_embedding

from test_superposition import random_channel


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_ideal_bell():
    spec = replace(builtin("ideal_bell"), outcome_policy="all_outcomes")
    scen = build_scenario(spec, 0.0, 0.0)
    run(scen)  # warm up
    t0 = time.perf_counter()
    outs = run(scen)
    elapsed = time.perf_counter() - t0
    recs = evaluate_point(spec, 0.0, 0.0)
    worst = max(abs(r.fidelity - 1.0) for r in recs)
    ok = len(outs) == 2 and worst < 1e-10 and elapsed < 1e-3
    report(1, ok, f"both Bell outcomes fid 1 (worst dev {worst:.2e}, "
                  f"{elapsed * 1e6:.0f} us)")


def test_criterion_02_ideal_ghz():
    worst = 0.0
    for n in (2, 3, 4, 5):
        spec = builtin(f"ideal_ghz_n{n}")
        for rec in evaluate_point(spec, 0.0, 0.0):
            worst = max(worst, abs(rec.fidelity - 1.0))
    report(2, worst < 1e-10,
           f"GHZ n=2..5 all outcomes fid-up-to-phase 1 (worst dev {worst:.2e})")


def test_criterion_03_ideal_w():
    worst_p = worst_f = 0.0
    for n in (3, 4):
        spec = builtin(f"ideal_w_n{n}")
        recs = evaluate_point(spec, 0.0, 0.0)
        assert len(recs) == n
        for rec in recs:
            worst_p = max(worst_p, abs(rec.probability - 1.0 / n))
            worst_f = max(worst_f, abs(rec.fidelity - 1.0))
    ok = worst_p < 1e-10 and worst_f < 1e-10
    report(3, ok, f"W n=3,4: outcome prob 1/n (dev {worst_p:.2e}), "
                  f"fid vs phase-corrected W (dev {worst_f:.2e})")


def test_criterion_04_bell_regime_points():
    worst = 0.0
    for name in ("prop4_p1", "prop4_p05", "cor1_p1", "cor1_p05"):
        spec = builtin(name)
        rec = evaluate_point(spec, *spec.noise)[0]
        worst = max(worst, abs(rec.fidelity - 1.0))
    report(4, worst < 1e-9,
           f"published Bell configs reach fid 1 at their regimes "
           f"(worst dev {worst:.2e})")


def test_criterion_05_figure_regression():
    t0 = time.perf_counter()
    curves = {name: list(sweep(builtin(name), np.linspace(0.0, 1.0, 101)))
              for name in ("fig4a_red", "fig4a_green", "fig4b_blue",
                           "fig6a_blue", "fig6b_red", "fig8_green")}
    elapsed = time.perf_counter() - t0

    def at(name, p):
        recs = curves[name]
        return min(recs, key=lambda r: abs(r.p - p))

    checks = [
        abs(evaluate_point(builtin("fig4a_red"), 0.530611, 0.530611)[0].fidelity
            - 0.816824),
        max(abs(r.fidelity - 0.707107) for r in curves["fig4a_green"]),
        abs(at("fig4b_blue", 0.5).fidelity - 1.0),
        abs(at("fig6a_blue", 0.5).conc_pairwise - 1.0),
        abs(at("fig6a_blue", 1.0).conc_pairwise - 0.3076923),
        max(abs(r.conc_pairwise - r.p) for r in curves["fig6b_red"]),
        abs(at("fig8_green", 1.0).fidelity - 0.8164966),
        abs(at("fig8_green", 1.0).conc_one_vs_rest - 0.9428090),
    ]
    worst = max(checks)
    ok = worst < 1e-4 and elapsed < 10.0
    report(5, ok, f"figure spot values match embedded curve data "
                  f"(worst dev {worst:.2e}, sweeps {elapsed:.1f} s)")


def random_slot_config(rng, slots_a, slots_b):
    vecs = []
    for slots in (slots_a, slots_b):
        v = np.zeros(4)
        v[list(slots)] = rng.normal(size=len(slots))
        vecs.append(v / np.linalg.norm(v))
    return VacuumConfig(tuple(vecs))


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        p, q = rng.uniform(0.02, 0.98, size=2)
        cfg = random_slot_config(rng, (0, 1, 2, 3), (0, 1, 2, 3))
        rec = evaluate_point(
            ScenarioSpec("r", "bell_depolarizing", 2, cfg, None), p, q)[0]
        worst = max(worst, abs(rec.fidelity - rec.oracle_fidelity))
    for _ in range(200):
        p, q = rng.uniform(0.02, 0.98, size=2)
        cfg = random_slot_config(rng, (0, 1), (0, 3))
        rec = evaluate_point(
            ScenarioSpec("r", "bell_bitphase", 2, cfg, None), p, q)[0]
        worst = max(worst, abs(rec.fidelity - rec.oracle_fidelity))
    for _ in range(200):
        p = rng.uniform(0.02, 0.98)
        vecs = []
        for _ in range(3):
            v = rng.normal(size=2)
            vecs.append(v / np.linalg.norm(v))
        cfg = VacuumConfig(tuple(vecs))
        rec = evaluate_point(
            ScenarioSpec("r", "w_memoryless", 3, cfg, None), p, p)[0]
        worst = max(worst, abs(rec.fidelity - rec.oracle_fidelity))
    report(6, worst < 1e-8,
           f"600 random points: simulation vs closed forms "
           f"(worst dev {worst:.2e})")


def test_criterion_07_cptp_completeness():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        count = 2 if trial % 2 == 0 else 3
        channels = tuple(random_channel(rng, m=rng.integers(2, 5))
                         for _ in range(count))
        ops = global_kraus(channels)
        acc = sum(s.conj().T @ s for s in ops)
        worst = max(worst, float(np.max(np.abs(acc - np.eye(2 * count)))))
    report(7, worst < 1e-10,
           f"sum S^dag S = I over 100 random pairs/triples "
           f"(worst defect {worst:.2e})")


def test_criterion_08_optimizer():
    worst = 1.0
    for name in ("prop4_p1", "prop4_p05", "cor1_p1", "cor1_p05"):
        spec = builtin(name)
        res = optimize_amplitudes(spec, *spec.noise, seed=0, restarts=20)
        worst = min(worst, res.best_fidelity)
    grid_ok = True
    for name in ("prop4_p1", "cor1_p1"):
        spec = builtin(name)
        for p in np.linspace(0.0, 1.0, 11):
            floor = max(
                evaluate_point(
                    ScenarioSpec(spec.name, spec.family, spec.n, cfg, None),
                    p, p)[0].fidelity
                for cfg in published_configs(spec.family))
            res = optimize_amplitudes(spec, p, p, seed=0, restarts=2)
            if res.best_fidelity < floor - 1e-9:
                grid_ok = False
    ok = worst >= 1.0 - 1e-6 and grid_ok
    report(8, ok, f"optimizer recovers the published regimes "
                  f"(lowest best fid {worst:.9f}) and never drops below the "
                  f"paper-config floor on an 11-point grid")


def brute_force_concurrence(rho: DensityMatrix) -> float:
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    tilde = yy @ rho.mat.conj() @ yy
    vals = np.linalg.eigvals(rho.mat @ tilde).real
    # eigenvalues at the numerical noise floor would contribute sqrt(eps)
    # after the square root; treat them as exact zeros
    vals[vals < 1e-12 * max(vals.max(), 1e-30)] = 0.0
    lams = np.sort(np.sqrt(np.clip(vals, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def test_criterion_09_concurrence_cross_check():
    worst = 0.0
    for name in ("fig6a_red", "fig6a_blue", "fig6b_red", "fig6b_blue",
                 "fig6b_green"):
        spec = builtin(name)
        for p in (0.1, 0.35, 0.6, 0.85, 1.0):
            outs = run(build_scenario(spec, p, p))
            rho = outs[0].post_state
            if rho is None:
                continue
            worst = max(worst, abs(concurrence(rho)
                                   - brute_force_concurrence(rho)))
    report(9, worst < 1e-9,
           f"Wootters concurrence matches direct rho rho-tilde spectrum "
           f"(worst dev {worst:.2e})")


def test_criterion_10_quantum_walk():
    n, start, steps = 64, 32, 20
    init = np.zeros(2 * n, dtype=complex)
    init[2 * start] = 1.0 / np.sqrt(2.0)
    init[2 * start + 1] = 1.0j / np.sqrt(2.0)
    *_, final = simulate(WalkSpec(n, HADAMARD, steps, init))
    asym = max(abs(final[(start + k) % n] - final[(start - k) % n])
               for k in range(1, n // 2))
    up = np.roll(np.eye(n), 1, axis=0)
    down = np.roll(np.eye(n), -1, axis=0)
    embedded = verify_embedding(up, down)
    ok = asym < 1e-9 and embedded
    report(10, ok, f"Hadamard walk symmetric after 20 steps "
                   f"(asymmetry {asym:.2e}); shift pair embeds a walk step")
