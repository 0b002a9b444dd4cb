"""GHZ sweeps against the plus-outcome block written in closed form.

For the input |0...0> and the control |+>, the joint operator of Kraus
pair (i, j) sends the plus outcome to (beta_j A_i + alpha_i B_j)|0...0> / 2,
with A_i = sqrt(w_i) P_i^(x)n on branch 0 and B_j = sqrt(v_j) P_j^(x)n on
branch 1. A Pauli string maps |0...0> to one of two states: I and Z keep
it, X flips every qubit, and Y flips every qubit with the phase i^n. So
the unnormalized block lives on {|0...0>, |1...1>} as a 2 x 2 matrix in
(p, q, alpha, beta, n mod 4), computed here without the simulator.
"""

from math import sqrt

import numpy as np
import pytest

from linksim.metrics import VacuumConfig
from linksim.scenarios import (
    COR2_P05,
    COR2_P1,
    PROP5_P05,
    PROP5_P1,
    ScenarioSpec,
    sweep,
)
from linksim.superposition import ZERO_PROB

# Pauli slot -> (basis state of P^(x)n |0...0>, 0 for |0...0> and 1 for
# |1...1>; the phase as a function of n mod 4)
IMAGE = {0: (0, (1, 1, 1, 1)), 1: (1, (1, 1, 1, 1)),
         2: (1, (1, 1j, -1, -1j)), 3: (0, (1, 1, 1, 1))}


def plus_block(family, p, q, alpha, beta, n):
    """Unnormalized plus-outcome block on {|0...0>, |1...1>}."""
    if family == "ghz_depolarizing":
        w, v = (1 - p, p / 3, p / 3, p / 3), (1 - q, q / 3, q / 3, q / 3)
    else:  # bit flip on branch 0, phase flip on branch 1
        w, v = (1 - p, p, 0, 0), (1 - q, 0, 0, q)
    block = np.zeros((2, 2), dtype=complex)
    for i in range(4):
        for j in range(4):
            u = np.zeros(2, dtype=complex)
            state, phase = IMAGE[i]
            u[state] += beta[j] * sqrt(w[i]) * phase[n % 4]
            state, phase = IMAGE[j]
            u[state] += alpha[i] * sqrt(v[j]) * phase[n % 4]
            block += np.outer(u, u.conj()) / 4
    return block


def _random_configs(family, count, seed):
    rng = np.random.default_rng(seed)
    slots = ([(0, 1, 2, 3)] * 2 if family == "ghz_depolarizing"
             else [(0, 1), (0, 3)])
    configs = []
    for _ in range(count):
        vectors = []
        for used in slots:
            v = np.zeros(4, dtype=complex)
            v[list(used)] = (rng.standard_normal(len(used))
                             + 1j * rng.standard_normal(len(used)))
            vectors.append(v / np.linalg.norm(v))
        configs.append(VacuumConfig(tuple(vectors)))
    return configs


CASES = [(family, cfg) for family, published, seed in (
             ("ghz_depolarizing", (PROP5_P1, PROP5_P05), 41),
             ("ghz_bitphase", (COR2_P1, COR2_P05), 43))
         for cfg in (*published, *_random_configs(family, 4, seed))]


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family,cfg", CASES,
                         ids=[f"{family}-{k % 6}" for k, (family, _)
                              in enumerate(CASES)])
def test_ghz_sweep_matches_the_closed_form_block(family, cfg, n):
    spec = ScenarioSpec(f"{family}_n{n}", family, n, cfg)
    grid = [0.0, 0.35, 1.0]
    records = {(r.p, r.q): r for r in sweep(spec, grid, grid)}
    for p in grid:
        for q in grid:
            block = plus_block(family, p, q, cfg.alpha, cfg.beta, n)
            prob = block.trace().real
            if prob < ZERO_PROB:
                assert (p, q) not in records
                continue
            m = block / prob
            rec = records[(p, q)]
            assert rec.outcome == 0
            assert abs(rec.probability - prob) <= 1e-12, (p, q)
            assert abs(rec.fidelity - sqrt(0.5 + abs(m[0, 1]))) <= 1e-12, (p, q)
            purity = m[0, 0].real ** 2 + m[1, 1].real ** 2
            if block[0, 0] == 0 or block[1, 1] == 0:
                # a product state: its purity rounds one unit below 1 and
                # the square root of twice that unit reads 2.1e-8, so the
                # squares are compared
                assert rec.conc_one_vs_rest ** 2 <= 1e-12, (p, q)
            else:
                assert abs(rec.conc_one_vs_rest
                           - sqrt(2 * (1 - purity))) <= 1e-12, (p, q)
            # every pair reduction is diag(m00, 0, 0, m11): concurrence 0
            assert 0.0 <= rec.conc_pairwise <= 1e-12, (p, q)
