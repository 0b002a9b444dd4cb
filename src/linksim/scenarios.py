"""Named experiment registry, parameter sweeps, and amplitude optimization.

Each builtin scenario pins one published operating point (channel family,
noise regime, vacuum amplitude configuration) or one figure curve, so that
every reported result is reproducible by name from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import metrics
from .channels import (
    depolarizing_correlated,
    memoryless_bitflip,
    pauli_channel_correlated,
    pauli_string,
    unitary_channel,
)
from .linalg import DensityMatrix
from .metrics import (
    TargetState,
    VacuumConfig,
    avg_one_vs_rest_concurrence,
    avg_pairwise_concurrence,
    fid_closed_bitphase,
    fid_closed_depolarizing,
    fid_closed_w3,
    fidelity_pure,
    fidelity_up_to_phase,
    target_bell,
    target_ghz,
    target_w,
    w_state,
)
from .superposition import (
    ZERO_PROB,
    MeasurementOutcome,
    SuperpositionScenario,
    fourier_basis,
    plus_control,
    pm_basis,
    run,
    uniform_control,
)

FAMILIES = (
    "ideal_bell",
    "ideal_ghz",
    "ideal_w",
    "bell_depolarizing",
    "bell_bitphase",
    "ghz_depolarizing",
    "ghz_bitphase",
    "w_memoryless",
)

_DEPOL_FAMILIES = ("bell_depolarizing", "ghz_depolarizing")
_BITPHASE_FAMILIES = ("bell_bitphase", "ghz_bitphase")


class UnknownScenarioError(KeyError):
    pass


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    family: str
    n: int
    config: VacuumConfig
    noise: tuple[float, ...] | None = None  # (p, q) or per-channel p_i
    outcome_policy: str = "plus_only"  # or "all_outcomes"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"unknown family {self.family!r}")
        if self.outcome_policy not in ("plus_only", "all_outcomes"):
            raise ScenarioError(f"bad outcome policy {self.outcome_policy!r}")

    @property
    def target(self) -> TargetState:
        if self.family in ("ideal_bell", "bell_depolarizing", "bell_bitphase"):
            return target_bell(+1)
        if self.family in ("ideal_ghz", "ghz_depolarizing", "ghz_bitphase"):
            return target_ghz(self.n)
        return target_w(self.n)


@dataclass(frozen=True)
class SweepRecord:
    p: float
    q: float
    outcome: int
    probability: float
    fidelity: float
    conc_pairwise: float
    conc_one_vs_rest: float
    oracle_fidelity: float | None = None


@dataclass(frozen=True)
class OptimizationResult:
    best_config: VacuumConfig
    best_fidelity: float
    iterations: int
    seed: int


@dataclass(frozen=True)
class PropositionCheck:
    name: str
    detail: str
    value: float
    threshold: float
    passed: bool


# ---------------------------------------------------------------------------
# published vacuum amplitude configurations

_S2 = 1.0 / np.sqrt(2.0)
_S3 = 1.0 / np.sqrt(3.0)
_S6 = 1.0 / np.sqrt(6.0)

# Bell through depolarizing noise
PROP4_P1 = VacuumConfig(((0, _S3, -_S3, -_S3), (0, -_S3, _S3, _S3)))
PROP4_P05 = VacuumConfig(((-_S2, _S6, -_S6, -_S6), (_S2, -_S6, _S6, _S6)))
# Bell through bit-flip / phase-flip noise
COR1_P1 = VacuumConfig(((0, 1, 0, 0), (0, 0, 0, 1)))
COR1_P05 = VacuumConfig(((-_S2, _S2, 0, 0), (_S2, 0, 0, _S2)))
# GHZ through depolarizing noise
PROP5_P1 = VacuumConfig(((0, _S3, _S3, -_S3), (0, -_S3, -_S3, _S3)))
PROP5_P05 = VacuumConfig(((-_S2, _S6, _S6, -_S6), (_S2, -_S6, -_S6, _S6)))
# GHZ through bit-flip / phase-flip noise. The p=q=1 configuration follows
# the figure-legend values; the corresponding displayed equation is not
# normalizable as printed.
COR2_P1 = VacuumConfig(((0, 1, 0, 0), (0, 0, 0, 1)))
COR2_P05 = VacuumConfig(((-_S2, _S2, 0, 0), (_S2, 0, 0, _S2)))
# W through memoryless bit flips (per-channel 2-vectors)
PROP7_P1 = VacuumConfig(((0, 1), (0, 1), (0, 1)))
W_BALANCED = VacuumConfig((( _S2, _S2), (_S2, _S2), (_S2, _S2)))
W_TILTED = VacuumConfig(
    ((_S3, np.sqrt(2 / 3)), (_S3, np.sqrt(2 / 3)), (_S3, np.sqrt(2 / 3)))
)

_EVEN4 = VacuumConfig(((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5)))
_BITPHASE_EVEN = VacuumConfig(((_S2, _S2, 0, 0), (_S2, 0, 0, _S2)))


def _ideal_config(n: int) -> VacuumConfig:
    return VacuumConfig(tuple(np.array([1.0]) for _ in range(n)))


_BUILTINS: dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec, *aliases: str) -> None:
    for name in (spec.name, *aliases):
        _BUILTINS[name] = spec


_register(
    ScenarioSpec("prop1_ideal_bell", "ideal_bell", 2, _ideal_config(2),
                 outcome_policy="all_outcomes"),
    "ideal_bell",
)
for _n in (2, 3, 4, 5):
    _register(
        ScenarioSpec(f"prop2_ideal_ghz_n{_n}", "ideal_ghz", _n, _ideal_config(2),
                     outcome_policy="all_outcomes"),
        f"ideal_ghz_n{_n}",
    )
for _n in (3, 4):
    _register(
        ScenarioSpec(f"prop3_ideal_w_n{_n}", "ideal_w", _n, _ideal_config(_n),
                     outcome_policy="all_outcomes"),
        f"ideal_w_n{_n}",
    )
_register(ScenarioSpec("prop4_p1", "bell_depolarizing", 2, PROP4_P1, (1.0, 1.0)))
_register(ScenarioSpec("prop4_p05", "bell_depolarizing", 2, PROP4_P05, (0.5, 0.5)))
_register(ScenarioSpec("cor1_p1", "bell_bitphase", 2, COR1_P1, (1.0, 1.0)))
_register(ScenarioSpec("cor1_p05", "bell_bitphase", 2, COR1_P05, (0.5, 0.5)))
# The correlated-depolarizing GHZ construction is exact only when the
# Y^(x)n Kraus phase i**n is real and positive, i.e. n % 4 == 0; n=4 is
# the smallest size where the unit-fidelity claim holds.
_register(ScenarioSpec("prop5_p1", "ghz_depolarizing", 4, PROP5_P1, (1.0, 1.0)))
_register(ScenarioSpec("prop5_p05", "ghz_depolarizing", 4, PROP5_P05, (0.5, 0.5)))
_register(ScenarioSpec("cor2_p1", "ghz_bitphase", 3, COR2_P1, (1.0, 1.0)))
_register(ScenarioSpec("cor2_p05", "ghz_bitphase", 3, COR2_P05, (0.5, 0.5)))
_register(ScenarioSpec("prop7_p1", "w_memoryless", 3, PROP7_P1, (1.0, 1.0, 1.0)))

# figure curves (noise swept)
_register(ScenarioSpec("fig4a_red", "bell_depolarizing", 2, PROP4_P1))
_register(ScenarioSpec("fig4a_green", "bell_depolarizing", 2, _EVEN4))
_register(ScenarioSpec("fig4a_blue", "bell_depolarizing", 2, PROP4_P05))
_register(ScenarioSpec("fig4b_red", "bell_bitphase", 2, COR1_P1))
_register(ScenarioSpec("fig4b_green", "bell_bitphase", 2, _BITPHASE_EVEN))
_register(ScenarioSpec("fig4b_blue", "bell_bitphase", 2, COR1_P05))
_register(ScenarioSpec("fig6a_red", "bell_depolarizing", 2, PROP4_P1))
_register(ScenarioSpec("fig6a_blue", "bell_depolarizing", 2, PROP4_P05))
_register(ScenarioSpec("fig6b_red", "bell_bitphase", 2, COR1_P1))
_register(ScenarioSpec("fig6b_green", "bell_bitphase", 2, _BITPHASE_EVEN))
_register(ScenarioSpec("fig6b_blue", "bell_bitphase", 2, COR1_P05))
_register(ScenarioSpec("fig7a_red", "ghz_bitphase", 3, COR2_P1))
_register(ScenarioSpec("fig7a_green", "ghz_bitphase", 3, _BITPHASE_EVEN))
_register(ScenarioSpec("fig7a_blue", "ghz_bitphase", 3, COR2_P05))
_register(ScenarioSpec("fig8_red", "w_memoryless", 3, PROP7_P1), "fig8a_red", "fig8b_red")
_register(ScenarioSpec("fig8_green", "w_memoryless", 3, W_BALANCED),
          "fig8a_green", "fig8b_green")
_register(ScenarioSpec("fig8_blue", "w_memoryless", 3, W_TILTED),
          "fig8a_blue", "fig8b_blue")


def builtin(name: str) -> ScenarioSpec:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(builtin_names())}"
        ) from None


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def replace_policy(spec: ScenarioSpec, policy: str) -> ScenarioSpec:
    return replace(spec, outcome_policy=policy)


# ---------------------------------------------------------------------------
# scenario construction and evaluation


def _zero_input(n: int) -> DensityMatrix:
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return DensityMatrix.pure((2,) * n, v)


def build_scenario(spec: ScenarioSpec, p: float | None = None,
                   q: float | None = None) -> SuperpositionScenario:
    """Instantiate channels, control and basis for a spec at noise (p, q).

    For ``w_memoryless`` all per-channel probabilities are set to ``p``
    unless the spec carries an explicit per-channel noise tuple.
    """
    n = spec.n
    family = spec.family
    cfg = spec.config
    if p is None:
        if spec.noise is None and family not in ("ideal_bell", "ideal_ghz", "ideal_w"):
            raise ScenarioError(f"{spec.name}: noise level required")
        p = spec.noise[0] if spec.noise else 0.0
        q = spec.noise[1] if spec.noise and len(spec.noise) > 1 else p
    if q is None:
        q = p

    inp = _zero_input(n)
    if family == "ideal_bell" or family == "ideal_ghz":
        channels = (
            unitary_channel(pauli_string("X" * n), "bit-flip"),
            unitary_channel(pauli_string("Z" * n), "phase-flip"),
        )
        return SuperpositionScenario(channels, inp, plus_control(), pm_basis())
    if family == "ideal_w":
        channels = tuple(
            unitary_channel(pauli_string("I" * i + "X" + "I" * (n - i - 1)), f"X_{i}")
            for i in range(n)
        )
        return SuperpositionScenario(channels, inp, uniform_control(n), fourier_basis(n))
    if family in _DEPOL_FAMILIES:
        channels = (
            depolarizing_correlated(p, n, cfg.alpha, "F"),
            depolarizing_correlated(q, n, cfg.beta, "N"),
        )
        return SuperpositionScenario(channels, inp, plus_control(), pm_basis())
    if family in _BITPHASE_FAMILIES:
        channels = (
            pauli_channel_correlated((1 - p, p, 0, 0), n, cfg.alpha, "bit-flip",
                                     used_slots=(0, 1)),
            pauli_channel_correlated((1 - q, 0, 0, q), n, cfg.beta, "phase-flip",
                                     used_slots=(0, 3)),
        )
        return SuperpositionScenario(channels, inp, plus_control(), pm_basis())
    # w_memoryless
    probs = tuple(p) if np.ndim(p) == 1 else (p,) * n
    if len(probs) != n:
        raise ScenarioError(f"expected {n} per-channel probabilities")
    channels = tuple(
        memoryless_bitflip(i, n, probs[i], cfg.vectors[i]) for i in range(n)
    )
    return SuperpositionScenario(channels, inp, uniform_control(n), fourier_basis(n))


def outcome_fidelity(spec: ScenarioSpec, outcome: MeasurementOutcome) -> float:
    """Fidelity of one measurement outcome against its family target.

    Outcome 0 of a Bell family is scored against |Phi+>; the minus outcome
    and all GHZ outcomes are scored up to the relative phase. W outcomes
    are scored against the phase-corrected W state for that Fourier
    outcome.
    """
    if outcome.post_state is None:
        raise ScenarioError("zero-probability outcome has no post state")
    family = spec.family
    if family in ("ideal_w", "w_memoryless"):
        return fidelity_pure(outcome.post_state, w_state(spec.n, outcome.outcome_index))
    if family in ("ideal_bell", "bell_depolarizing", "bell_bitphase") and \
            outcome.outcome_index == 0:
        return fidelity_pure(outcome.post_state, spec.target)
    fid, _ = fidelity_up_to_phase(outcome.post_state, spec.n)
    return fid


def oracle_fidelity(spec: ScenarioSpec, p: float, q: float) -> float | None:
    """Closed-form plus-outcome fidelity where an exact expression exists."""
    if spec.family == "bell_depolarizing":
        return fid_closed_depolarizing(p, q, spec.config)
    if spec.family == "bell_bitphase":
        return fid_closed_bitphase(p, q, spec.config)
    if spec.family == "w_memoryless" and spec.n == 3:
        return fid_closed_w3((p,) * 3, spec.config)
    return None


def evaluate_point(spec: ScenarioSpec, p: float, q: float, *,
                   emit_oracle: bool = True) -> list[SweepRecord]:
    """All reported outcome records for a spec at one noise point."""
    outcomes = run(build_scenario(spec, p, q))
    if spec.outcome_policy == "plus_only":
        outcomes = outcomes[:1]
    records = []
    for out in outcomes:
        if out.post_state is None:
            continue  # excluded from aggregation
        oracle = None
        if emit_oracle and out.outcome_index == 0:
            oracle = oracle_fidelity(spec, p, q)
        records.append(
            SweepRecord(
                p=p,
                q=q,
                outcome=out.outcome_index,
                probability=out.probability,
                fidelity=outcome_fidelity(spec, out),
                conc_pairwise=avg_pairwise_concurrence(out.post_state),
                conc_one_vs_rest=avg_one_vs_rest_concurrence(out.post_state),
                oracle_fidelity=oracle,
            )
        )
    return records


def default_grid(points: int = 101) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def sweep(spec: ScenarioSpec, p_grid=None, q_grid=None, *,
          emit_oracle: bool = True) -> list[SweepRecord]:
    """Evaluate a spec over a noise grid.

    With no ``q_grid`` the sweep is one-dimensional with q locked to p.
    Records are ordered p-major, then q, then outcome.
    """
    if p_grid is None:
        p_grid = default_grid()
    return [
        rec
        for p in p_grid
        for q in (q_grid if q_grid is not None else [p])
        for rec in evaluate_point(spec, float(p), float(q), emit_oracle=emit_oracle)
    ]


def verify_sweep_oracle(records) -> float:
    """Largest |fidelity - oracle| over records that carry an oracle value."""
    gaps = [abs(r.fidelity - r.oracle_fidelity) for r in records
            if r.oracle_fidelity is not None]
    return max(gaps) if gaps else 0.0


# ---------------------------------------------------------------------------
# amplitude optimization


def _free_blocks(family: str, n: int) -> list[int]:
    if family in _DEPOL_FAMILIES:
        return [4, 4]
    if family in _BITPHASE_FAMILIES:
        return [2, 2]
    if family == "w_memoryless":
        return [2] * n
    raise ScenarioError(f"family {family!r} has no free vacuum amplitudes")


def _blocks_to_config(family: str, blocks: list[np.ndarray]) -> VacuumConfig:
    if family in _BITPHASE_FAMILIES:
        a, b = blocks
        return VacuumConfig(((a[0], a[1], 0, 0), (b[0], 0, 0, b[1])))
    return VacuumConfig(tuple(blocks))


def _config_to_vector(family: str, cfg: VacuumConfig) -> np.ndarray:
    if family in _BITPHASE_FAMILIES:
        a, b = cfg.alpha.real, cfg.beta.real
        return np.array([a[0], a[1], b[0], b[3]])
    return np.concatenate([v.real for v in cfg.vectors])


def published_configs(family: str) -> list[VacuumConfig]:
    """Paper-reported configurations, used to anchor optimizer restarts."""
    return {
        "bell_depolarizing": [PROP4_P1, PROP4_P05],
        "ghz_depolarizing": [PROP5_P1, PROP5_P05],
        "bell_bitphase": [COR1_P1, COR1_P05],
        "ghz_bitphase": [COR2_P1, COR2_P05],
        "w_memoryless": [PROP7_P1, W_BALANCED, W_TILTED],
    }.get(family, [])


def _vector_to_config(spec: ScenarioSpec, x: np.ndarray) -> VacuumConfig | None:
    """Project a free amplitude vector onto the per-channel unit spheres.

    Returns None when a block has vanishing norm.
    """
    blocks, start = [], 0
    for size in _free_blocks(spec.family, spec.n):
        part = x[start:start + size]
        start += size
        norm = np.linalg.norm(part)
        if norm < 1e-9:
            return None
        blocks.append(part / norm)
    return _blocks_to_config(spec.family, blocks)


def _fixed_noise_objective(spec: ScenarioSpec, p, q, x0: np.ndarray):
    """Negative plus-outcome fidelity at fixed noise, as a function of the
    free amplitude vector.

    The Kraus operators K^l_i, input rho, control c and plus-outcome basis
    vector b do not depend on the vacuum amplitudes, so the channels are
    built once (at the amplitudes of ``x0``) and the unnormalized
    plus-outcome block is scored as

        D + sum_{l != m} w_lm sum_ij conj(a^l_i) a^m_j K^l_i rho K^m_j^dag

    with D = sum_l |c_l b_l|^2 E_l(rho) and w_lm = conj(b_l) b_m c_l conj(c_m):
    a constant plus a bilinear form in the amplitudes a.
    """
    plus = replace(spec, config=_vector_to_config(spec, x0),
                   outcome_policy="plus_only")
    scenario = build_scenario(plus, p, q)
    channels = scenario.channels
    # one row per Kraus operator, labelled by its branch l
    kraus = np.concatenate([ch.kraus for ch in channels])
    branch = np.repeat(np.arange(len(channels)), [len(ch.kraus) for ch in channels])
    cb = (scenario.control.amplitudes * scenario.measurement_basis[0].conj())[branch]
    # tables[x, y] = w_xy K_x rho K_y^dag
    tables = np.matmul((kraus @ scenario.input.mat)[:, None],
                       kraus.conj().transpose(0, 2, 1)[None])
    tables *= np.outer(cb, cb.conj())[:, :, None, None]
    const = np.einsum("xxab->ab", tables)
    tables[branch[:, None] == branch[None, :]] = 0.0
    tables = tables.reshape(len(kraus) ** 2, -1)

    def objective(x: np.ndarray) -> float:
        cfg = _vector_to_config(spec, x)
        if cfg is None:
            return 1.0
        a = np.concatenate(cfg.vectors)
        block = const + (np.outer(a.conj(), a).ravel() @ tables).reshape(const.shape)
        prob = float(np.trace(block).real)
        if prob < ZERO_PROB:
            return 1.0
        post = DensityMatrix(scenario.input.dims,
                             (block + block.conj().T) / (2.0 * prob))
        return -outcome_fidelity(plus, MeasurementOutcome(0, prob, post))

    return objective


def optimize_amplitudes(spec: ScenarioSpec, p: float, q: float | None = None,
                        seed: int = 0, restarts: int = 20,
                        max_iter: int = 500) -> OptimizationResult:
    """Derivative-free search over real vacuum amplitudes at fixed noise.

    Uses a Nelder-Mead simplex over unconstrained real vectors; every
    proposal is projected to the per-channel unit spheres before the
    plus-outcome fidelity is evaluated. The channels are built once per
    call (see ``_fixed_noise_objective``). The published configurations are
    always injected as the first restarts so the result is never worse
    than the paper's own operating point. Deterministic for a fixed seed.
    """
    if q is None:
        q = p
    if restarts < 1:
        raise ScenarioError("restarts must be at least 1")
    family = spec.family
    dim = sum(_free_blocks(family, spec.n))

    rng = np.random.default_rng(seed)
    starts = [_config_to_vector(family, c) for c in published_configs(family)]
    while len(starts) < restarts:
        starts.append(rng.standard_normal(dim))
    starts = starts[:restarts]
    objective = _fixed_noise_objective(spec, p, q, starts[0])

    best_x, best_val, iterations = None, np.inf, 0
    for x0 in starts:
        res = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": max_iter, "xatol": 1e-10, "fatol": 1e-12},
        )
        iterations += int(res.nit)
        val = objective(res.x)
        if val < best_val:
            best_val, best_x = val, res.x
    return OptimizationResult(
        best_config=_vector_to_config(spec, best_x),
        best_fidelity=-best_val,
        iterations=iterations,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# proposition verification


def _check(name: str, detail: str, value: float, threshold: float,
           at_least: bool = True) -> PropositionCheck:
    passed = value >= threshold if at_least else value <= threshold
    return PropositionCheck(name, detail, value, threshold, passed)


def verify_propositions() -> list[PropositionCheck]:
    """Re-run every proposition/corollary claim and report pass/fail."""
    checks: list[PropositionCheck] = []
    tol = 1e-9

    spec = builtin("prop1_ideal_bell")
    outs = run(build_scenario(spec))
    for out, sign, label in zip(outs, (+1, -1), ("+", "-")):
        fid = fidelity_pure(out.post_state, metrics.bell_state(sign))
        checks.append(_check(
            "prop1", f"ideal Bell, control outcome |{label}>, fid vs Phi{label}",
            fid, 1.0 - tol))

    for n in (2, 3, 4, 5):
        spec = builtin(f"prop2_ideal_ghz_n{n}")
        for out in run(build_scenario(spec)):
            fid, _ = fidelity_up_to_phase(out.post_state, n)
            checks.append(_check(
                "prop2", f"ideal GHZ n={n}, outcome {out.outcome_index}, "
                         "fid up to phase", fid, 1.0 - tol))

    for n in (3, 4):
        spec = builtin(f"prop3_ideal_w_n{n}")
        for out in run(build_scenario(spec)):
            fid = fidelity_pure(out.post_state, w_state(n, out.outcome_index))
            checks.append(_check(
                "prop3", f"ideal W n={n}, outcome {out.outcome_index}, "
                         f"prob {out.probability:.6f}", fid, 1.0 - tol))

    for name, detail in (
        ("prop4_p1", "Bell, depolarizing p=q=1"),
        ("prop4_p05", "Bell, depolarizing p=q=1/2"),
        ("cor1_p1", "Bell, bit/phase flip p=q=1"),
        ("cor1_p05", "Bell, bit/phase flip p=q=1/2"),
        ("prop5_p1", "GHZ n=4, depolarizing p=q=1"),
        ("prop5_p05", "GHZ n=4, depolarizing p=q=1/2"),
        ("cor2_p1", "GHZ n=3, bit/phase flip p=q=1 (figure-legend amplitudes)"),
        ("cor2_p05", "GHZ n=3, bit/phase flip p=q=1/2"),
    ):
        spec = builtin(name)
        rec = evaluate_point(spec, *spec.noise)[0]
        checks.append(_check(name.split("_")[0], detail, rec.fidelity, 1.0 - tol))

    spec = builtin("prop7_p1")
    rec = evaluate_point(spec, 1.0, 1.0)[0]
    checks.append(_check("prop7", "W n=3, memoryless bit flip p=1", rec.fidelity,
                         1.0 - tol))
    rec = evaluate_point(spec, 0.99, 0.99)[0]
    checks.append(_check("prop7", "W n=3, memoryless bit flip p=0.99 (asymptotic)",
                         rec.fidelity, 0.994))
    return checks
