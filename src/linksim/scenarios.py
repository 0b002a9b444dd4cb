"""Named experiment registry, parameter sweeps, and amplitude optimization.

Each builtin scenario pins one published operating point (channel family,
noise regime, vacuum amplitude configuration) or one figure curve, so that
every reported result is reproducible by name from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import sqrt

import numpy as np

from .channels import (
    bitflip_scales,
    depolarizing_correlated,
    depolarizing_scales,
    kraus_columns,
    memoryless_bitflip,
    pauli_channel_correlated,
    pauli_scales,
    pauli_string,
    scale_row,
    unitary_channel,
)
from .linalg import DensityMatrix, LinksimError
from .metrics import (
    VacuumConfig,
    bell_state,
    fid_closed_bitphase,
    fid_closed_depolarizing,
    fid_closed_w3,
    fidelity_pure,
    fidelity_up_to_phase,
    one_vs_rest_concurrences,
    pairwise_concurrences,
    w_state,
)
from .superposition import (
    JOINT_DIM_CAP,
    ZERO_PROB,
    MeasurementOutcome,
    SuperpositionScenario,
    fourier_basis,
    pm_basis,
    run,
    run_stack,
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

_BELL_FAMILIES = ("ideal_bell", "bell_depolarizing", "bell_bitphase")
_DEPOL_FAMILIES = ("bell_depolarizing", "ghz_depolarizing")
_BITPHASE_FAMILIES = ("bell_bitphase", "ghz_bitphase")
_W_FAMILIES = ("ideal_w", "w_memoryless")


class ScenarioError(LinksimError):
    pass


class UnknownScenarioError(ScenarioError, KeyError):
    def __str__(self) -> str:
        # KeyError would quote the message
        return self.args[0]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    family: str
    n: int
    config: VacuumConfig
    noise: tuple[float, ...] | None = None  # published operating point
    outcome_policy: str = "plus_only"  # or "all_outcomes"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"unknown family {self.family!r}")
        if self.n < 2 or (self.family in _BELL_FAMILIES and self.n != 2):
            raise ScenarioError(f"family {self.family!r} cannot have n={self.n}")
        if self.outcome_policy not in ("plus_only", "all_outcomes"):
            raise ScenarioError(f"bad outcome policy {self.outcome_policy!r}")


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
_register(ScenarioSpec("prop7_p1", "w_memoryless", 3, PROP7_P1, (1.0, 1.0)))

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


# ---------------------------------------------------------------------------
# scenario construction and evaluation


# one entry per n; build_scenario checks n against the joint dimension cap
# before it asks, so the cache stays small
@lru_cache(maxsize=None)
def _zero_input(n: int) -> DensityMatrix:
    """|0...0><0...0| on n qubits, cached and shared, which is safe as a
    ``DensityMatrix`` is read-only."""
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return DensityMatrix.pure((2,) * n, v)


def _free_slots(family: str, n: int) -> list[np.ndarray]:
    """Which vacuum amplitudes of each channel may be non-zero.

    The single statement of each family's amplitude layout: depolarizing
    channels use all four Pauli slots, the bit flip uses (I, X) and the
    phase flip (I, Z), and each memoryless W channel its two Kraus slots.
    """
    if family in _DEPOL_FAMILIES:
        return [np.ones(4, dtype=bool)] * 2
    if family in _BITPHASE_FAMILIES:
        return [np.array([True, True, False, False]),
                np.array([True, False, False, True])]
    if family == "w_memoryless":
        return [np.ones(2, dtype=bool)] * n
    raise ScenarioError(f"family {family!r} has no free vacuum amplitudes")


def build_scenario(spec: ScenarioSpec, p: float,
                   q: float | None = None) -> SuperpositionScenario:
    """Instantiate channels, control and basis for a spec at noise (p, q).

    ``q`` defaults to ``p``; ``w_memoryless`` sets every channel to ``p``
    and ideal families ignore the noise; ``plus_only`` measures only outcome
    0, |+> (|0~> for W). A sweep builds its scenario once, at its first
    point: every check here holds at any noise point but the channel
    constructors' noise checks (``_channels``), which ``_scale_table``
    makes for every point.
    """
    n = spec.n
    # reject before building 2^n x 2^n Kraus operators; a huge n never
    # reaches the power
    branches = n if spec.family in _W_FAMILIES else 2
    if n >= JOINT_DIM_CAP.bit_length() or 2**n * branches > JOINT_DIM_CAP:
        raise ScenarioError(
            f"{spec.name}: {branches} branches on {n} qubits exceed the "
            f"joint dimension cap {JOINT_DIM_CAP}"
        )
    if len(spec.config.vectors) != branches:
        raise ScenarioError(f"{spec.name}: expected {branches} amplitude "
                            f"vectors, got {len(spec.config.vectors)}")
    # pm_basis, not fourier_basis(2): its |-> differs in the last bits
    basis = fourier_basis(n) if spec.family in _W_FAMILIES else pm_basis()
    keep = 1 if spec.outcome_policy == "plus_only" else None
    return SuperpositionScenario(_channels(spec, p, p if q is None else q),
                                 _zero_input(n), uniform_control(branches),
                                 basis[:keep])


def _channels(spec: ScenarioSpec, p: float, q: float):
    """The channels of a spec at noise (p, q), each from its named
    constructor, which checks the noise and the vacuum amplitudes and
    computes the Kraus scales."""
    n, family, cfg = spec.n, spec.family, spec.config
    if family == "ideal_bell" or family == "ideal_ghz":
        return (unitary_channel(pauli_string("X" * n)),
                unitary_channel(pauli_string("Z" * n)))
    if family == "ideal_w":
        return tuple(
            unitary_channel(pauli_string("I" * i + "X" + "I" * (n - i - 1)))
            for i in range(n)
        )
    if family in _DEPOL_FAMILIES:
        return (depolarizing_correlated(p, n, cfg.alpha),
                depolarizing_correlated(q, n, cfg.beta))
    if family in _BITPHASE_FAMILIES:
        bit, phase = (np.flatnonzero(m) for m in _free_slots(family, n))
        bit_w, phase_w = _bitphase_weights(np.array([p]), np.array([q]))[0]
        return (pauli_channel_correlated(bit_w, n, cfg.alpha, bit),
                pauli_channel_correlated(phase_w, n, cfg.beta, phase))
    # w_memoryless
    return tuple(memoryless_bitflip(i, n, p, cfg.vectors[i]) for i in range(n))


def _bitphase_weights(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The weights (1-p, p, 0, 0) of the bit flip and (1-q, 0, 0, q) of the
    phase flip at each point (p[i], q[i]): shape (P, 2, 4)."""
    z = np.zeros(len(p))
    return np.array([[1 - p, p, z, z], [1 - q, z, z, q]]).transpose(2, 0, 1)


def _scale_table(spec: ScenarioSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (P, K) table of Kraus scales at the points (p[i], q[i]): row i is
    ``scale_row(_channels(spec, p[i], q[i]))``, taken from the
    constructors' table functions, so no channel is built. The noise values
    are checked point by point, p before q, as the constructors check them;
    the vacuum amplitudes are ``build_scenario``'s to check."""
    if spec.family in _DEPOL_FAMILIES:
        return depolarizing_scales(np.column_stack([p, q])).reshape(len(p), -1)
    if spec.family in _BITPHASE_FAMILIES:
        return pauli_scales(_bitphase_weights(p, q)).reshape(len(p), -1)
    if spec.family == "w_memoryless":
        return np.tile(bitflip_scales(p), spec.n)
    # an ideal family ignores the noise: one unitary per channel
    return np.ones((len(p), len(spec.config.vectors)))


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
    if family in _W_FAMILIES:
        return fidelity_pure(outcome.post_state, w_state(spec.n, outcome.outcome_index))
    if family in _BELL_FAMILIES and outcome.outcome_index == 0:
        return fidelity_pure(outcome.post_state, bell_state(+1))
    return fidelity_up_to_phase(outcome.post_state, spec.n)


def oracle_fidelity(spec: ScenarioSpec, p: float, q: float) -> float | None:
    """Closed-form plus-outcome fidelity where an exact expression exists."""
    if spec.family == "bell_depolarizing":
        return fid_closed_depolarizing(p, q, spec.config)
    if spec.family == "bell_bitphase":
        return fid_closed_bitphase(p, q, spec.config)
    if spec.family == "w_memoryless" and spec.n == 3:
        return fid_closed_w3((p,) * 3, spec.config)
    return None


#: points per ``run_stack`` call in ``sweep``, each chunk one table of
#: Kraus scales and one density check of its post states. The stack's
#: arrays grow with it while the per-call numpy overhead it spreads
#: flattens out. The largest is the joint on its reached target rows,
#: P x Rt x n x d x n complex: 1 MB at 32 points for an n = 8 GHZ sweep,
#: 75 MB for an n = 8 W sweep, the largest the joint dimension cap allows.
#: On the benchmark's figures workload (2-core x86-64, Python 3.11, numpy
#: 2.4) a whole 225-point grid in one stack read a peak RSS of 44.6 MB
#: against 43.5 MB at 32 points. A chunk's post states are kept until its
#: records are made; their reductions are gathered together only as far
#: as ``linalg._GATHER_ENTRIES`` allows.
_CHUNK = 32


def _concurrence_table(points) -> list[list[tuple[float, float]]]:
    """The pairwise and one-vs-rest concurrence of every post state of
    each point, from the points' outcome lists (as ``run_stack`` yields
    them): one list per point of ``(pairwise, one_vs_rest)`` pairs, in
    outcome order, zero-probability outcomes left out.

    The post states of one outcome index share dims and support (the rows
    ``run_stack`` reaches, or a lone point's own), so each outcome index
    is one stacked pass of ``pairwise_concurrences`` and
    ``one_vs_rest_concurrences``, bitwise the one-state calls.
    """
    table = [[] for _ in points]
    for k in range(len(points[0])):
        kept = [(row, outs[k].post_state) for row, outs in zip(table, points)
                if outs[k].post_state is not None]
        if not kept:
            continue
        dims, support = kept[0][1].dims, kept[0][1].support
        if any(state.support is not support for _, state in kept):
            raise ScenarioError(f"the post states of outcome {k} are held on "
                                "different supports")
        blocks = np.stack([state.block for _, state in kept])
        values = zip(pairwise_concurrences(dims, support, blocks),
                     one_vs_rest_concurrences(dims, support, blocks))
        for (row, _), pair in zip(kept, values):
            row.append(pair)
    return table


def evaluate_point(spec: ScenarioSpec, p: float, q: float, *,
                   emit_oracle: bool = True, _outcomes=None,
                   _concurrences=None) -> list[SweepRecord]:
    """One record per non-zero outcome a spec measures at one noise point.

    ``sweep`` passes the point's outcomes from its stacked evaluation as
    ``_outcomes``, and their concurrences from its stacked metric pass
    (its row of ``_concurrence_table``) as ``_concurrences``; without them
    the point is built and run alone, and its concurrences taken by the
    same pass on this one point, with bitwise the same records.
    """
    outcomes = _outcomes if _outcomes is not None else run(build_scenario(spec, p, q))
    if _concurrences is None:
        _concurrences = _concurrence_table([outcomes])[0]
    kept = [out for out in outcomes if out.post_state is not None]
    records = []
    for out, (pairwise, one_vs_rest) in zip(kept, _concurrences, strict=True):
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
                conc_pairwise=pairwise,
                conc_one_vs_rest=one_vs_rest,
                oracle_fidelity=oracle,
            )
        )
    return records


def sweep(spec: ScenarioSpec, p_grid, q_grid=None, *,
          emit_oracle: bool = True) -> list[SweepRecord]:
    """Evaluate a spec over a noise grid.

    With no ``q_grid`` the sweep is one-dimensional with q locked to p.
    Records are ordered p-major, then q, then outcome. The scenario, with
    its channels and vacuum amplitudes, is built and checked once, at the
    first point. The points are taken ``_CHUNK`` at a time: a chunk is one
    table of Kraus scales (``_scale_table``), with no channel per point,
    evolved and measured as one stack by ``run_stack``, so memory does not
    grow with the number of points. Its concurrences are one stacked pass
    per outcome index (``_concurrence_table``), and each point's records
    are made by ``evaluate_point``, bitwise as if it ran the point alone.
    """
    points = ((float(p), float(q)) for p in p_grid
              for q in (q_grid if q_grid is not None else [p]))
    records, scenario = [], None
    while chunk := list(islice(points, _CHUNK)):
        scenario = scenario or build_scenario(spec, *chunk[0])
        outcomes = list(run_stack(scenario, _scale_table(spec, *np.array(chunk).T)))
        for (p, q), outs, conc in zip(chunk, outcomes, _concurrence_table(outcomes)):
            records += evaluate_point(spec, p, q, emit_oracle=emit_oracle,
                                      _outcomes=outs, _concurrences=conc)
    return records


def verify_sweep_oracle(records) -> float:
    """Largest |fidelity - oracle| over records that carry an oracle value."""
    gaps = [abs(r.fidelity - r.oracle_fidelity) for r in records
            if r.oracle_fidelity is not None]
    return max(gaps) if gaps else 0.0


# ---------------------------------------------------------------------------
# amplitude optimization


def published_configs(family: str) -> list[VacuumConfig]:
    """Paper-reported configurations, used to anchor optimizer restarts."""
    return {
        "bell_depolarizing": [PROP4_P1, PROP4_P05],
        "ghz_depolarizing": [PROP5_P1, PROP5_P05],
        "bell_bitphase": [COR1_P1, COR1_P05],
        "ghz_bitphase": [COR2_P1, COR2_P05],
        "w_memoryless": [PROP7_P1, W_BALANCED, W_TILTED],
    }.get(family, [])


def _amplitudes(slots: list[np.ndarray], x: np.ndarray) -> list[np.ndarray] | None:
    """Unit amplitude vector of each channel from a free real vector.

    ``x`` holds one block per channel, sized by its ``_free_slots`` mask;
    each block is projected onto the unit sphere and scattered into its
    mask. Returns None when a block has vanishing norm.
    """
    x = np.asarray(x, dtype=float)
    vectors, start = [], 0
    for mask in slots:
        part = x[start:start + np.count_nonzero(mask)]
        start += len(part)
        # np.linalg.norm's own sum and root, without its argument handling
        norm = sqrt(part.dot(part))
        if norm < 1e-9:
            return None
        v = np.zeros(len(mask), dtype=complex)
        v[mask] = part / norm
        vectors.append(v)
    return vectors


def _plus_tables(scenario: SuperpositionScenario):
    """The fixed-noise tables of the plus outcome on the rows they reach:
    ``(reach, branch, tables)`` with tables[x, y] = w_xy v_x v_y^dag on
    ``reach`` x ``reach``, x and y running over every Kraus operator of
    every channel, v_x = K_x |0...0> and ``branch[x]`` the channel of K_x
    (see ``_fixed_noise_objective``).

    The scenario's input must be |0...0><0...0| (``_zero_input``, the input
    of every ``build_scenario``), so K_x rho K_y^dag = v_x v_y^dag. The
    images v_x are column 0 of every Kraus operator, read by
    ``kraus_columns`` on the rows the unit operators reach from it.
    """
    channels = scenario.channels
    branch = np.repeat(np.arange(len(channels)), [len(ch.ops) for ch in channels])
    cb = (scenario.control.amplitudes * scenario.measurement_basis[0].conj())[branch]
    rows, images = kraus_columns(channels, scale_row(channels)[None], [0])
    v = images[0, :, :, 0]
    tables = v[:, None, :, None] * v.conj()[None, :, None, :]
    tables *= np.outer(cb, cb.conj())[:, :, None, None]
    hit = (tables.any(axis=(0, 1, 2)) | tables.any(axis=(0, 1, 3))).nonzero()[0]
    return rows[hit], branch, tables.take(hit, 2).take(hit, 3)


def _fixed_noise_objective(spec: ScenarioSpec, p, q):
    """Negative plus-outcome fidelity at fixed noise, as a function of the
    free amplitude vector (see ``_amplitudes``).

    The Kraus operators K^l_i, input rho, control c and plus-outcome basis
    vector b do not depend on the vacuum amplitudes, so the channels are
    built once (at the spec's own amplitudes) and the unnormalized
    plus-outcome block is scored as

        D + sum_{l != m} w_lm sum_ij conj(a^l_i) a^m_j K^l_i rho K^m_j^dag

    with D = sum_l |c_l b_l|^2 E_l(rho) and w_lm = conj(b_l) b_m c_l conj(c_m):
    a constant plus a bilinear form in the amplitudes a, over the tables of
    ``_plus_tables``.
    """
    scenario = build_scenario(spec, p, q)
    slots = _free_slots(spec.family, spec.n)
    reach, branch, tables = _plus_tables(scenario)
    reach.setflags(write=False)  # the support every post state shares
    const = np.einsum("xxab->ab", tables)
    tables[branch[:, None] == branch[None, :]] = 0.0
    tables = tables.reshape(len(branch) ** 2, -1)
    # the whole d x d block's diagonal, whose sum rounds as its trace
    diag = np.zeros(scenario.input.dim, dtype=complex)

    def objective(x: np.ndarray) -> float:
        vectors = _amplitudes(slots, x)
        if vectors is None:
            return 1.0
        a = np.concatenate(vectors)
        # the product np.outer forms, without its argument handling
        block = const + ((a.conj()[:, None] * a).ravel() @ tables).reshape(const.shape)
        diag[reach] = block.diagonal()
        prob = float(diag.sum().real)
        if prob < ZERO_PROB:
            return 1.0
        post = DensityMatrix(scenario.input.dims,
                             (block + block.conj().T) / (2.0 * prob), reach)
        return -outcome_fidelity(spec, MeasurementOutcome(0, prob, post))

    return objective


def optimize_amplitudes(spec: ScenarioSpec, p: float, q: float | None = None,
                        seed: int = 0, restarts: int = 20,
                        max_iter: int = 500) -> OptimizationResult:
    """Derivative-free search over real vacuum amplitudes at fixed noise.

    Uses a Nelder-Mead simplex over unconstrained real vectors; every
    proposal is projected to the per-channel unit spheres before the
    plus-outcome fidelity is evaluated. The channels are built once per
    call (see ``_fixed_noise_objective``). The published configurations
    with one vector per channel are always injected as the first restarts
    so the result is never worse than the paper's own operating point.
    Deterministic for a fixed seed. scipy is imported here, on the first
    call, and by nothing else in the package.
    """
    # imported here: every other command would otherwise pay for this import
    from scipy.optimize import minimize

    if q is None:
        q = p
    if restarts < 1:
        raise ScenarioError("restarts must be at least 1")
    slots = _free_slots(spec.family, spec.n)

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([v.real[m] for v, m in zip(c.vectors, slots)])
              for c in published_configs(spec.family)
              if len(c.vectors) == len(slots)]
    dim = sum(np.count_nonzero(m) for m in slots)
    while len(starts) < restarts:
        starts.append(rng.standard_normal(dim))
    starts = starts[:restarts]
    objective = _fixed_noise_objective(spec, p, q)

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
        best_config=VacuumConfig(tuple(_amplitudes(slots, best_x))),
        best_fidelity=-best_val,
        iterations=iterations,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# proposition verification


def _check(name: str, detail: str, value: float,
           threshold: float) -> PropositionCheck:
    return PropositionCheck(name, detail, value, threshold, value >= threshold)


def verify_propositions() -> list[PropositionCheck]:
    """Re-run every proposition/corollary claim and report pass/fail."""
    checks: list[PropositionCheck] = []
    tol = 1e-9

    spec = builtin("prop1_ideal_bell")
    outs = run(build_scenario(spec, 0.0))
    for out, sign, label in zip(outs, (+1, -1), ("+", "-")):
        fid = fidelity_pure(out.post_state, bell_state(sign))
        checks.append(_check(
            "prop1", f"ideal Bell, control outcome |{label}>, fid vs Phi{label}",
            fid, 1.0 - tol))

    for n in (2, 3, 4, 5):
        spec = builtin(f"prop2_ideal_ghz_n{n}")
        for out in run(build_scenario(spec, 0.0)):
            fid = fidelity_up_to_phase(out.post_state, n)
            checks.append(_check(
                "prop2", f"ideal GHZ n={n}, outcome {out.outcome_index}, "
                         "fid up to phase", fid, 1.0 - tol))

    for n in (3, 4):
        spec = builtin(f"prop3_ideal_w_n{n}")
        for out in run(build_scenario(spec, 0.0)):
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
