"""Named experiment registry, parameter sweeps, and amplitude optimization.

Each builtin scenario pins one published operating point (channel family,
noise regime, vacuum amplitude configuration) or one figure curve, so that
every reported result is reproducible by name from the CLI.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .channels import (
    _check_amps,
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
from .linalg import DensityMatrix, LinksimError, check_densities
from .metrics import (
    VacuumConfig,
    bell_state,
    fid_closed_bitphase,
    fid_closed_depolarizing,
    fid_closed_w3,
    fidelities_pure,
    fidelities_up_to_phase,
    fidelity_pure,
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


def _free_slots(family: str, n: int) -> list[np.ndarray]:
    """Which vacuum amplitudes of each channel may be non-zero.

    The single statement of each family's amplitude layout: depolarizing
    channels use all four Pauli slots, the bit flip uses (I, X) and the
    phase flip (I, Z), and each memoryless W channel its two Kraus slots.
    The channels of a family have vectors of one length and as many free
    slots each, so a vector of free amplitudes splits into equal blocks.
    """
    if family in _DEPOL_FAMILIES:
        return [np.ones(4, dtype=bool)] * 2
    if family in _BITPHASE_FAMILIES:
        return [np.array([True, True, False, False]),
                np.array([True, False, False, True])]
    if family == "w_memoryless":
        return [np.ones(2, dtype=bool)] * n
    raise ScenarioError(f"family {family!r} has no free vacuum amplitudes")


@dataclass(frozen=True)
class ScenarioSpec:
    """A family on n qubits with one vacuum amplitude vector per branch;
    every check that does not depend on the noise runs when it is created."""

    name: str
    family: str
    n: int
    config: VacuumConfig
    noise: tuple[float, ...] | None = None  # published operating point
    outcome_policy: str = "plus_only"  # or "all_outcomes"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"unknown family {self.family!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ScenarioError(f"n must be an integer, got {self.n!r}")
        if self.n < 2 or (self.family in _BELL_FAMILIES and self.n != 2):
            raise ScenarioError(f"family {self.family!r} cannot have n={self.n}")
        if self.outcome_policy not in ("plus_only", "all_outcomes"):
            raise ScenarioError(f"bad outcome policy {self.outcome_policy!r}")
        n, vectors = self.n, self.config.vectors
        branches = n if self.family in _W_FAMILIES else 2
        # before anything of size 2^n is made; a huge n never reaches the power
        if n >= JOINT_DIM_CAP.bit_length() or 2**n * branches > JOINT_DIM_CAP:
            raise ScenarioError(f"{self.name}: {branches} branches on {n} qubits "
                                f"exceed the joint dimension cap {JOINT_DIM_CAP}")
        if len(vectors) != branches:
            raise ScenarioError(f"{self.name}: expected {branches} amplitude "
                                f"vectors, got {len(vectors)}")
        if self.family.startswith("ideal"):
            return  # one unitary per channel: its vector is ignored
        for v, mask in zip(vectors, _free_slots(self.family, n)):
            _check_amps(v, len(mask), np.flatnonzero(mask))


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


# one entry per n; a spec checks n against the joint dimension cap when
# it is made, so the cache stays small
@lru_cache(maxsize=None)
def _zero_input(n: int) -> DensityMatrix:
    """|0...0><0...0| on n qubits, cached and shared, which is safe as a
    ``DensityMatrix`` is read-only."""
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return DensityMatrix.pure((2,) * n, v)


def build_scenario(spec: ScenarioSpec, p: float,
                   q: float | None = None) -> SuperpositionScenario:
    """Instantiate channels, control and basis for a spec at noise (p, q).

    ``q`` defaults to ``p``; ``w_memoryless`` sets every channel to ``p``
    and ideal families ignore the noise; ``plus_only`` measures only outcome
    0, |+> (|0~> for W). Each channel's named constructor checks the noise
    and computes the Kraus scales; the spec made every other check. A sweep
    builds once, at its first point, and ``_scale_table`` checks each point.
    """
    n, family, cfg = spec.n, spec.family, spec.config
    q = p if q is None else q
    if family == "ideal_bell" or family == "ideal_ghz":
        channels = (unitary_channel(pauli_string("X" * n)),
                    unitary_channel(pauli_string("Z" * n)))
    elif family == "ideal_w":
        channels = tuple(
            unitary_channel(pauli_string("I" * i + "X" + "I" * (n - i - 1)))
            for i in range(n)
        )
    elif family in _DEPOL_FAMILIES:
        channels = (depolarizing_correlated(p, n, cfg.alpha),
                    depolarizing_correlated(q, n, cfg.beta))
    elif family in _BITPHASE_FAMILIES:
        bit, phase = (np.flatnonzero(m) for m in _free_slots(family, n))
        bit_w, phase_w = _bitphase_weights(np.array([p]), np.array([q]))[0]
        channels = (pauli_channel_correlated(bit_w, n, cfg.alpha, bit),
                    pauli_channel_correlated(phase_w, n, cfg.beta, phase))
    else:  # w_memoryless
        channels = tuple(memoryless_bitflip(i, n, p, cfg.vectors[i])
                         for i in range(n))
    # pm_basis, not fourier_basis(2): its |-> differs in the last bits
    basis = fourier_basis(n) if family in _W_FAMILIES else pm_basis()
    keep = 1 if spec.outcome_policy == "plus_only" else None
    return SuperpositionScenario(channels, _zero_input(n),
                                 uniform_control(len(channels)), basis[:keep])


def _bitphase_weights(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The weights (1-p, p, 0, 0) of the bit flip and (1-q, 0, 0, q) of the
    phase flip at each point (p[i], q[i]): shape (P, 2, 4)."""
    z = np.zeros(len(p))
    return np.array([[1 - p, p, z, z], [1 - q, z, z, q]]).transpose(2, 0, 1)


def _scale_table(spec: ScenarioSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (P, K) table of Kraus scales at the points (p[i], q[i]): row i is
    ``scale_row(build_scenario(spec, p[i], q[i]).channels)``, taken from the
    constructors' table functions, so no channel is built. The noise values
    are checked point by point, p before q, as the constructors check them;
    the vacuum amplitudes were checked when the spec was made."""
    if spec.family in _DEPOL_FAMILIES:
        return depolarizing_scales(np.column_stack([p, q])).reshape(len(p), -1)
    if spec.family in _BITPHASE_FAMILIES:
        return pauli_scales(_bitphase_weights(p, q)).reshape(len(p), -1)
    if spec.family == "w_memoryless":
        return np.tile(bitflip_scales(p), spec.n)
    # an ideal family ignores the noise: one unitary per channel
    return np.ones((len(p), len(spec.config.vectors)))


def outcome_fidelity(spec: ScenarioSpec, outcome: MeasurementOutcome) -> float:
    """Fidelity of one measurement outcome against its family target: the
    one-state call of ``_fidelity_column``."""
    state = outcome.post_state
    if state is None:
        raise ScenarioError("zero-probability outcome has no post state")
    return _fidelity_column(spec, outcome.outcome_index, state.dims,
                            state.support, state.block[None])[0]


def _fidelity_column(spec: ScenarioSpec, k: int, dims, support,
                     blocks: np.ndarray) -> list[float]:
    """The fidelity of outcome ``k`` of every post state of a stack that
    shares ``dims`` and ``support``, given as its blocks ``(P, s, s)``.
    Outcome 0 of a Bell family is scored against |Phi+>; the minus outcome
    and all GHZ outcomes up to the relative phase; W outcomes against the
    phase-corrected W state for that Fourier outcome."""
    if spec.family in _W_FAMILIES:
        return fidelities_pure(dims, support, blocks, w_state(spec.n, k))
    if spec.family in _BELL_FAMILIES and k == 0:
        return fidelities_pure(dims, support, blocks, bell_state(+1))
    return fidelities_up_to_phase(dims, support, blocks, spec.n)


def oracle_fidelity(spec: ScenarioSpec, p, q) -> float | list[float] | None:
    """Closed-form plus-outcome fidelity where an exact expression exists,
    else None; elementwise over arrays of (p, q), a float for floats."""
    if spec.family == "bell_depolarizing":
        return fid_closed_depolarizing(p, q, spec.config)
    if spec.family == "bell_bitphase":
        return fid_closed_bitphase(p, q, spec.config)
    if spec.family == "w_memoryless" and spec.n == 3:
        return fid_closed_w3(np.stack([p] * 3, axis=-1), spec.config)
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
#: rows are made, its records until they are yielded; the reductions sum
#: only the block entries that contribute (``linalg._support_plan``), the
#: chunk's at once, each distinct one once: an n = 8 GHZ chunk decomposes
#: one pair reduction per point, not 28. The optimizer's objective takes
#: its proposals at most this many at a time too, a round that fits in one
#: call (``_lockstep``): it places each state in a d x d matrix, 33.5 MB
#: for 32 proposals of an n = 8 W spec.
_CHUNK = 32


def _record_rows(spec: ScenarioSpec, scenario: SuperpositionScenario,
                 p: np.ndarray, q: np.ndarray, scales,
                 emit_oracle: bool) -> list[list[tuple]]:
    """Each point's records but their p and q, from ``run_stack`` of
    ``scenario`` at the points' table ``scales``: a tuple ``(outcome,
    probability, fidelity, conc_pairwise, conc_one_vs_rest,
    oracle_fidelity)`` per live outcome, in outcome order. The post blocks
    of outcome k are those of the live entries of column k of the mask, on
    the stack's one support, so each outcome index is one stacked pass of
    ``_fidelity_column`` and of the two concurrences, bitwise the
    one-state calls; the oracle is one ``oracle_fidelity`` call over the
    points whose outcome 0 is live, the records that carry it.
    """
    support, probs, live, posts = run_stack(scenario, scales)
    dims, probs = scenario.input.dims, probs.tolist()
    # the position in ``posts`` of each live outcome's block
    at = live.cumsum().reshape(live.shape) - 1
    plus = live[:, 0].nonzero()[0]
    column = oracle_fidelity(spec, p[plus], q[plus]) if emit_oracle and len(plus) else None
    oracles = dict(zip(plus.tolist(), column or ()))
    rows = [[] for _ in probs]
    for k in range(live.shape[1]):
        kept = live[:, k].nonzero()[0]
        if not len(kept):
            continue
        blocks = posts[at[kept, k]]
        for i, *values in zip(kept.tolist(),
                              _fidelity_column(spec, k, dims, support, blocks),
                              pairwise_concurrences(dims, support, blocks),
                              one_vs_rest_concurrences(dims, support, blocks)):
            rows[i].append((k, probs[i][k], *values,
                            oracles.get(i) if k == 0 else None))
    return rows


def evaluate_point(spec: ScenarioSpec, p: float, q: float, *,
                   _row=None) -> list[SweepRecord]:
    """One record per non-zero outcome at one noise point, with its oracle if any.

    ``sweep`` calls this once per point, through the module attribute, with
    the point's row of ``_record_rows`` over its chunk as ``_row``; without
    it the point is built and run alone and its row taken by the same
    functions, a one-point chunk, with bitwise the same records. A lone
    call does not go through ``sweep``, which would call this again.
    """
    if _row is None:
        point = np.array([p]), np.array([q])
        _row = _record_rows(spec, build_scenario(spec, p, q), *point,
                            _scale_table(spec, *point), emit_oracle=True)[0]
    return [SweepRecord(p, q, *fields) for fields in _row]


def sweep(spec: ScenarioSpec, p_grid, q_grid=None, *,
          emit_oracle: bool = True) -> Iterator[SweepRecord]:
    """Evaluate a spec over a noise grid, yielding each record as it is made.

    With no ``q_grid`` the sweep is one-dimensional with q locked to p.
    Records are ordered p-major, then q, then outcome. The scenario is built
    once, at the first point: ``run_stack`` reads the scales of each
    chunk's table, not those the scenario's channels hold. Nothing runs,
    or raises, until the first record is asked for. The points are taken
    ``_CHUNK`` at a time: a chunk is one table of Kraus scales
    (``_scale_table``), evolved and measured as one stack by ``run_stack``,
    so memory does not grow with the number of points. Its records are
    taken as columns from the stack's arrays (``_record_rows``), with no
    state object per point, and each point's are made by ``evaluate_point``
    from its row, bitwise as if it ran the point alone. Callers that keep
    them take ``list(sweep(...))``.
    """
    points = ((float(p), float(q)) for p in p_grid
              for q in (q_grid if q_grid is not None else [p]))
    scenario = None
    while chunk := list(islice(points, _CHUNK)):
        scenario = scenario or build_scenario(spec, *chunk[0])
        p, q = np.array(chunk).T
        rows = _record_rows(spec, scenario, p, q, _scale_table(spec, p, q),
                            emit_oracle)
        for point, row in zip(chunk, rows):
            yield from evaluate_point(spec, *point, _row=row)


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


def _amplitudes(slots: list[np.ndarray], free: np.ndarray,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit amplitude vector of each channel from free real vectors.

    ``x`` is ``(..., dim)``: each row holds one equal block per channel,
    one entry per free slot of its ``_free_slots`` mask in ``slots``; each
    block is projected onto the unit sphere and scattered to ``free``,
    ``np.flatnonzero(slots)``, which a command makes once. Returns
    ``(vectors, live)``: the ``(..., channels, len(mask))`` complex
    vectors, and whether every block of the row has a norm of at least
    1e-9; a block below it stays zero.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    blocks = x.reshape(*lead, len(slots), -1)
    # each block's sum of squares as a (1, k) @ (k, 1) product, which
    # numpy takes as a dot; a row sum or an einsum rounds otherwise
    norm = np.sqrt(blocks[..., None, :] @ blocks[..., :, None])[..., 0]
    big = ~(norm < 1e-9)  # a NaN block is scored, and fails its check
    units = np.divide(blocks, norm, out=np.zeros(blocks.shape), where=big)
    vectors = np.zeros((*lead, len(slots), len(slots[0])), dtype=complex)
    vectors.reshape(*lead, -1)[..., free] = units.reshape(*lead, -1)
    return vectors, big.all(axis=(-2, -1))


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
    """Negative plus-outcome fidelity at fixed noise, as a function from an
    ``(m, dim)`` stack of free amplitude vectors (see ``_amplitudes``) to
    their ``(m,)`` values. A row with a block of vanishing norm, or whose
    outcome probability is below ``ZERO_PROB``, scores 1.0. Each row is
    computed as it would be alone, bitwise, whatever stack it is in.

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
    free = np.flatnonzero(slots)
    reach, branch, tables = _plus_tables(scenario)
    reach.setflags(write=False)  # the support every post state shares
    const = np.einsum("xxab->ab", tables)
    tables[branch[:, None] == branch[None, :]] = 0.0
    tables = tables.reshape(len(branch) ** 2, -1)
    dims, d = scenario.input.dims, scenario.input.dim

    def objective(x: np.ndarray) -> np.ndarray:
        vectors, live = _amplitudes(slots, free, x)
        a = vectors.reshape(len(vectors), -1)
        # each row's np.outer product, scored as one batched
        # (1, R^2) @ (R^2, s^2) product
        pairs = (a.conj()[:, :, None] * a[:, None, :]).reshape(len(a), 1, -1)
        blocks = const + (pairs @ tables).reshape(-1, *const.shape)
        # the whole d x d block's diagonal, whose sum rounds as its trace
        diag = np.zeros((len(a), d), dtype=complex)
        diag[:, reach] = blocks.diagonal(axis1=1, axis2=2)
        probs = diag.sum(axis=1).real
        live &= ~(probs < ZERO_PROB)  # a NaN probability goes on to its check
        blocks, probs = blocks[live], probs[live]
        posts = (blocks + blocks.conj().transpose(0, 2, 1)) / (2.0 * probs[:, None, None])
        check_densities(posts)
        values = np.ones(len(a))
        values[live] = np.negative(_fidelity_column(spec, 0, dims, reach, posts))
        return values

    return objective


def _nelder_mead(x0: np.ndarray):
    """Minimize from ``x0`` by the Nelder-Mead simplex (Nelder & Mead,
    Comput. J. 7, 308, 1965): reflection 1, expansion 2, contraction 1/2,
    shrink 1/2; at most 500 iterations, ending once every vertex is within
    1e-10 of the best in each coordinate and 1e-12 in value.

    A generator: it yields the points whose values it needs, a ``(k, dim)``
    array (the first simplex, the n shrunk vertices, or one point), is sent
    their ``(k,)`` values, and returns the best vertex, its value and the
    iteration count, counted from 1 (``_lockstep`` drives it). The
    operations and their order are those of the reference implementation
    that ``tests/test_scenarios.py`` names, so the two agree bitwise and an
    optimizer result does not move with the implementation (as ndarray
    methods; ``argsort``'s default kind sorts ties as the reference does).
    """
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array((yield sim), dtype=float)
    for _ in range(2):  # the reference sorts the first simplex twice
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    nit = 1
    while nit < 500:
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-10
                and np.abs(fsim[0] - fsim[1:]).max() <= 1e-12):
            break
        xbar = sim[:-1].sum(0) / n
        worst, fworst = sim[-1], fsim[-1]  # a view, read before it is replaced
        xr = 2 * xbar - worst  # reflect
        fxr = (yield xr[None])[0]
        shrink = False
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * worst  # expand
            fxe = (yield xe[None])[0]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fworst:
            xc = 1.5 * xbar - 0.5 * worst  # contract outside
            fxc = (yield xc[None])[0]
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * worst  # contract inside
            fxcc = (yield xcc[None])[0]
            if fxcc < fworst:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            fsim[1:] = yield sim[1:]
        nit += 1
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return sim[0], fsim.min(), nit


def _lockstep(f, runs: list) -> list:
    """Drive the ``_nelder_mead`` generators ``runs`` together: each round
    stacks the points every unfinished run asks for (a lone ask as it is),
    scores them by one call of ``f``, or by calls on ``_CHUNK`` rows when
    they do not fit, and sends each run its values. Returns each run's
    result, in order. The rows of ``f`` must not depend on how they are
    grouped, so each run ends as it would alone."""
    results = [None] * len(runs)
    pending = [(i, run, next(run)) for i, run in enumerate(runs)]
    while pending:
        points = pending[0][2] if len(pending) == 1 else \
            np.concatenate([ask for *_, ask in pending])
        values = f(points) if len(points) <= _CHUNK else np.concatenate(
            [f(points[at:at + _CHUNK]) for at in range(0, len(points), _CHUNK)])
        asked, pending, at = pending, [], 0
        for i, run, ask in asked:
            try:
                pending.append((i, run, run.send(values[at:at + len(ask)])))
            except StopIteration as stop:
                results[i] = stop.value
            at += len(ask)
    return results


def optimize_amplitudes(spec: ScenarioSpec, p: float, q: float | None = None,
                        seed: int = 0, restarts: int = 20) -> OptimizationResult:
    """Derivative-free search over real vacuum amplitudes at fixed noise.

    Uses a Nelder-Mead simplex of at most 500 iterations per restart over
    unconstrained real vectors; every proposal is projected to the
    per-channel unit spheres before the plus-outcome fidelity is evaluated.
    The channels are built once per call (see ``_fixed_noise_objective``).
    The restarts run in lockstep (``_lockstep``): each round scores the
    proposals of every unfinished restart in stacks of at most ``_CHUNK``,
    and each restart ends bitwise as it would alone.
    The published configurations with one vector per channel are always
    injected as the first restarts so the result is never worse than the
    paper's own operating point. Deterministic for a fixed seed.
    """
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
    for x, fun, nit in _lockstep(objective, [_nelder_mead(x0) for x0 in starts]):
        iterations += nit
        if fun < best_val:
            best_val, best_x = fun, x
    return OptimizationResult(
        best_config=VacuumConfig(tuple(_amplitudes(slots, np.flatnonzero(slots),
                                                   best_x)[0])),
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
            fid = outcome_fidelity(spec, out)
            checks.append(_check(
                "prop2", f"ideal GHZ n={n}, outcome {out.outcome_index}, "
                         "fid up to phase", fid, 1.0 - tol))

    for n in (3, 4):
        spec = builtin(f"prop3_ideal_w_n{n}")
        for out in run(build_scenario(spec, 0.0)):
            fid = outcome_fidelity(spec, out)
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
        fid = outcome_fidelity(spec, run(build_scenario(spec, *spec.noise))[0])
        checks.append(_check(name.split("_")[0], detail, fid, 1.0 - tol))

    spec = builtin("prop7_p1")
    for p, detail, threshold in ((1.0, "p=1", 1.0 - tol),
                                 (0.99, "p=0.99 (asymptotic)", 0.994)):
        fid = outcome_fidelity(spec, run(build_scenario(spec, p))[0])
        checks.append(_check("prop7", f"W n=3, memoryless bit flip {detail}",
                             fid, threshold))
    return checks
