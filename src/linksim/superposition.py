"""Coherent spatial superposition of vacuum-extended channels.

N channels sit on N branches labelled by a control qudit. For each
multi-index (i_0, ..., i_{N-1}) over Kraus choices, the joint operator on
target (x) control is

    S_i = sum_l [prod_{k != l} a^{(k)}_{i_k}] E^{(l)}_{i_l} (x) |l><l|,

i.e. branch l applies channel l's Kraus operator weighted by the vacuum
amplitudes of every channel that is *not* traversed. For N = 2 this is the
familiar  b_j F_i (x) |0><0| + a_i N_j (x) |1><1|  construction. The joint
state sum_i S_i (rho_t (x) rho_c) S_i^dag is trace one, and measuring the
control on 1 to N orthonormal vectors (the outcomes) projects the target.

``run_stack`` is the one evaluation core: it evolves and measures one
scenario at every row of a table of Kraus scales, such as the points of
one sweep, together; ``apply``, ``measure_control`` and ``run`` are its
one-point calls. A noise point changes only the scales: the unit
operators, vacuum amplitudes, input, control and basis are the
scenario's. It forms rho_t (x) rho_c only on its support, which is a
few rows for the paper's pure product inputs, and builds only the columns
of each S_i that meet it. ``channels.kraus_columns`` gathers the unit
columns once per stack and scales only them, per row of the table, so no
2^n x 2^n operator is formed per noise point, and each scaled entry is the
one product the dense operator holds. The measurement contracts only the
target rows that the joint states reach, for every point and outcome in
one einsum. Each step keeps the order of every sum that the whole-matrix
computation of one point uses, so neither the restriction nor the
stacking changes an output bit. ``global_kraus`` builds the dense
operators literally from the formula and serves as the reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .channels import VacuumExtendedChannel, kraus_columns, scale_row
from .linalg import DensityMatrix, DimMismatchError, LinksimError, check_densities

#: target dim x control dim beyond which we refuse to build joint operators
JOINT_DIM_CAP = 4096

#: outcomes below this probability are flagged as zero-probability
ZERO_PROB = 1e-12


class SuperpositionError(LinksimError):
    pass


@dataclass(frozen=True)
class ControlState:
    """Pure control state over the N branches."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amps)
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:  # NaN fails
            raise SuperpositionError("control state must be unit norm")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def uniform_control(n: int) -> ControlState:
    """|0~> = (1/sqrt(n)) sum_j |j>, the uniform Fourier state."""
    return ControlState(np.full(n, 1.0 / np.sqrt(n)))


def pm_basis() -> tuple[np.ndarray, ...]:
    """(|+>, |->) measurement basis for a control qubit."""
    s = 1.0 / np.sqrt(2.0)
    return (np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex))


def fourier_basis(n: int) -> tuple[np.ndarray, ...]:
    """Control-qudit Fourier basis |k~> = (1/sqrt(n)) sum_l w^{kl} |l>."""
    omega = np.exp(2j * np.pi / n)
    return tuple(
        omega ** (k * np.arange(n)) / np.sqrt(n) for k in range(n)
    )


def _checked_basis(basis, n: int) -> tuple[np.ndarray, ...]:
    """``basis`` as complex vectors, if it is 1 to n orthonormal vectors of
    length n: the measured control outcomes, outcome k being vector k."""
    basis = tuple(np.asarray(b, dtype=complex) for b in basis)
    if not 1 <= len(basis) <= n or any(b.shape != (n,) for b in basis):
        raise DimMismatchError(f"a control of dimension {n} needs 1 to {n} "
                               f"basis vectors of length {n}")
    b = np.array(basis)
    if not np.max(np.abs(b.conj() @ b.T - np.eye(len(b)))) <= 1e-10:  # NaN fails
        raise SuperpositionError("measurement basis is not orthonormal")
    return basis


@dataclass(frozen=True)
class SuperpositionScenario:
    """One experiment: channels, target input, control, measured outcomes."""

    channels: tuple[VacuumExtendedChannel, ...]
    input: DensityMatrix
    control: ControlState
    measurement_basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) < 2:
            raise SuperpositionError("need at least two channels to superpose")
        d = channels[0].dim
        if any(c.dim != d for c in channels):
            raise DimMismatchError("channels act on different target dimensions")
        if self.input.dim != d:
            raise DimMismatchError("input state does not match channel dimension")
        n = len(channels)
        if self.control.dim != n:
            raise DimMismatchError(f"{n} channels need a control of dimension {n}")
        object.__setattr__(self, "measurement_basis",
                           _checked_basis(self.measurement_basis, n))
        if d * n > JOINT_DIM_CAP:
            raise SuperpositionError(
                f"joint dimension {d * n} exceeds cap {JOINT_DIM_CAP}"
            )


@dataclass(frozen=True)
class MeasurementOutcome:
    """Control outcome with the normalized post-measurement target state.

    ``post_state`` is None for zero-probability outcomes; such outcomes are
    excluded from any fidelity aggregation.
    """

    outcome_index: int
    probability: float
    post_state: DensityMatrix | None


def _joint_columns(channels, scales, cols):
    """Columns ``cols`` of the joint Kraus operators S_i whose coefficients
    do not all vanish, at every row of the (P, K) table ``scales`` of Kraus
    scales (see ``kraus_columns``), on the joint rows that any row reaches.

    Returns ``(reach, local, cols)``: ``reach``, the sorted target rows the
    unit columns can reach; ``local``, the sorted kept positions in the
    (len(reach), n) grid of joint rows reach[r] * n + l; and an array of
    shape (P, M, len(local), len(cols)), one slice per row and kept
    multi-index, in the lexicographic order of ``global_kraus``.

    Column t*n + l of S_i is coeff_l(i) K^(l)_{i_l}[:, t] at rows l::n,
    with coeff_l(i) = prod_{k != l} a^(k)_{i_k}. The multi-indices and
    coefficients depend only on the amplitudes, and the Kraus columns in
    ``t`` come from ``kraus_columns``, scaled per row on the rows they can
    reach, with no sum reordered, so the result is bitwise the gather from
    ``channel.kraus``, which is never built here.
    """
    n = len(channels)
    t, branch = np.divmod(cols, n)
    idx = np.indices([len(c.ops) for c in channels]).reshape(n, -1)
    amps = [c.vacuum_amplitudes[i] for c, i in zip(channels, idx)]
    coeff = np.array([prod(amps[k] for k in range(n) if k != l) for l in range(n)])
    keep = coeff.any(axis=0).nonzero()[0]
    idx, coeff = idx.take(keep, 1), coeff.take(keep, 1)
    reach, kcols = kraus_columns(channels, scales, t)
    # position of each channel's first Kraus operator in kcols
    start = np.cumsum([0] + [len(c.ops) for c in channels])
    # target (x) control with control as the rightmost factor: row r*n + l
    out = np.empty((len(scales), idx.shape[1], len(reach), n, len(cols)),
                   dtype=complex)
    for l in range(n):
        out[:, :, :, l] = np.where(
            branch == l, coeff[l, :, None, None] * kcols.take(start[l] + idx[l], 1), 0)
    out = out.reshape(out.shape[:2] + (-1, len(cols)))
    local = out.any(axis=(0, 1, 3)).nonzero()[0]
    return reach, local, out.take(local, 2)


def global_kraus(channels) -> list[np.ndarray]:
    """Dense joint Kraus operators S_i on target (x) control, one per
    multi-index, enumerated lexicographically over (i_0, ..., i_{N-1}).

    The module docstring's formula term by term, sharing no code with
    ``apply``: the reference that ``apply`` is tested against.
    """
    channels = tuple(channels)
    if len(channels) < 2:
        raise SuperpositionError("need at least two channels")
    if any(c.dim != channels[0].dim for c in channels):
        raise DimMismatchError("channels act on different target dimensions")
    # |l><l| on the control
    proj = [np.diag(e) for e in np.eye(len(channels))]
    ops = []
    for i in product(*(range(len(c.kraus)) for c in channels)):
        amps = [c.vacuum_amplitudes[k] for c, k in zip(channels, i)]
        ops.append(sum(
            np.kron(prod(amps[:l] + amps[l + 1:]) * c.kraus[k], proj[l])
            for l, (c, k) in enumerate(zip(channels, i))
        ))
    return ops


def _joint_blocks(scenario, scales):
    """The joint states of ``scenario`` at every row of the table
    ``scales``, on the joint rows any row reaches: ``(reach, local, rows,
    blocks)``, with ``reach`` and ``local`` as ``_joint_columns``
    returns them, ``rows`` the joint row of each position in ``local``, and
    blocks of shape (P, len(rows), len(rows)), symmetrized, unchecked.

    Only the columns of each S_i on the support ``sup`` of the input J are
    built: sum_i S_i J S_i^dag = sum_i S_i[:, sup] J[sup, sup] S_i[:, sup]^dag.
    """
    rho, c = scenario.input, scenario.control.amplitudes
    n = len(c)
    # row t*n + l of J is non-zero exactly when row t of rho and c_l are;
    # ``pick``, the block rows of rho's non-zero rows in ascending order
    pick = rho.block.any(axis=1).nonzero()[0]
    pick = pick[np.argsort(rho.support[pick])]
    rho_sup, c_sup = rho.support[pick], c.nonzero()[0]
    sup = (rho_sup[:, None] * n + c_sup).ravel()
    # J[sup, sup] as one broadcast product of the sub-blocks, entry by entry
    # the product kron(rho, |c><c|) would form
    c = c[c_sup]
    joint_in = (rho.block.take(pick, 0).take(pick, 1)[:, None, :, None]
                * (c[:, None] * c.conj())[:, None, :])
    joint_in = joint_in.reshape(len(sup), len(sup))
    reach, local, cols = _joint_columns(scenario.channels, scales, sup)
    r, l = np.divmod(local, n)
    rows = reach[r] * n + l
    left = cols @ joint_in
    right = cols.conj().swapaxes(-1, -2)
    blocks = np.zeros((len(scales), len(rows), len(rows)), dtype=complex)
    term = np.empty_like(blocks)
    # one term at a time, in multi-index order, for every point at once:
    # fusing the sum into one product would reorder it and change the
    # rounding of the output
    for m in range(cols.shape[1]):
        blocks += np.matmul(left[:, m], right[:, m], out=term)
    # symmetrize away accumulated rounding before the invariant checks
    return reach, local, rows, (blocks + blocks.conj().swapaxes(-1, -2)) / 2.0


def _measure(t, keep, target_dims, basis):
    """Outcomes of the control measurement of each joint state of the stack
    ``t`` (P, len(keep), n, d, n): the joints on their reached target rows
    ``keep``, every column kept. Yields one outcome list per point.

    Only the rows are restricted: the einsum runs over every column, as on
    the whole joint, so each sum over the control indices rounds as there
    (with a single column the iterator could fuse those two sums into one
    loop, which adds in another order). Each probability is summed over the
    length-d diagonal with zeros in place, so it rounds as the d x d trace.
    The post blocks of every point and outcome above ``ZERO_PROB`` are
    normalized together and held on the reached rows by one
    ``DensityMatrix.stack`` call, so one ``check_densities`` call covers
    them and no d x d matrix is formed.
    """
    blocks = np.einsum("bk,pikjl,bl->pbij", basis.conj(), t, basis).take(keep, 3)
    diag = np.zeros(blocks.shape[:2] + (t.shape[3],), dtype=complex)
    diag[..., keep] = blocks.diagonal(axis1=2, axis2=3)
    probs = diag.sum(axis=-1).real
    live = ~(probs < ZERO_PROB)  # a NaN stays, and fails the check
    posts = blocks[live]
    posts = (posts + posts.conj().swapaxes(-1, -2)) / (2.0 * probs[live])[:, None, None]
    states = iter(DensityMatrix.stack(target_dims, posts, keep))
    for point_probs, point_live in zip(probs.tolist(), live.tolist()):
        yield [MeasurementOutcome(k, p, next(states)) if alive
               else MeasurementOutcome(k, 0.0, None)
               for k, (p, alive) in enumerate(zip(point_probs, point_live))]


def run_stack(scenario: SuperpositionScenario,
              scales) -> Iterator[list[MeasurementOutcome]]:
    """The control-measurement outcomes of ``scenario`` at every row of the
    (P, K) table ``scales`` of Kraus scales, K running over every channel's
    operators in channel order (a row is ``channels.scale_row``; a sweep's
    chunk is ``scenarios._scale_table``), computed as one stack; yields one
    outcome list per row, in order. The scales the scenario's channels hold
    are not read.

    The joint states are evolved together (``_joint_blocks``) and checked
    as one stack, then measured together on the target rows any of them
    reaches. Outcome k has probability Tr[(I (x) |b_k><b_k|) rho]; outcomes
    below ``ZERO_PROB`` carry no post state, and the normalized target
    blocks of all others are held on the reached rows and checked as one
    stack (``DensityMatrix.stack``). Each output is bitwise that of its row
    evaluated alone.
    """
    k = sum(len(c.ops) for c in scenario.channels)
    try:
        scales = np.asarray(scales)
    except ValueError as exc:  # ragged rows
        raise SuperpositionError(f"scale table is not an array: {exc}") from None
    if (scales.dtype.kind not in "fiu" or scales.ndim != 2 or not len(scales)
            or scales.shape[1] != k):
        raise SuperpositionError(f"scale table of {scales.dtype} and shape "
                                 f"{scales.shape}, expected real (P, {k}), P >= 1")
    reach, local, rows, blocks = _joint_blocks(scenario, scales)
    reach.setflags(write=False)  # the support every post state shares
    check_densities(blocks)
    d, n = scenario.input.dim, scenario.control.dim
    # the joints on the target rows the unit columns reach, every column kept
    t = np.zeros((len(scales), len(reach) * n, d * n), dtype=complex)
    t[:, local[:, None], rows] = blocks
    t = t.reshape(len(scales), len(reach), n, d, n)
    return _measure(t, reach, scenario.input.dims,
                    np.array(scenario.measurement_basis))


def apply(scenario: SuperpositionScenario) -> DensityMatrix:
    """Evolve rho_t (x) rho_c under the superposed channels: the joint
    state of ``run_stack``'s evolution for this one scenario, held on the
    rows it reaches. No command calls
    it; it stays because ``perfbench/tracer.py`` wraps it by name and
    ``tests/test_tracer_names.py`` requires it."""
    _, _, rows, blocks = _joint_blocks(scenario, scale_row(scenario.channels)[None])
    dims = scenario.input.dims + (scenario.control.dim,)
    return DensityMatrix(dims, blocks[0], rows)


def measure_control(joint: DensityMatrix, basis) -> list[MeasurementOutcome]:
    """Projective control measurement in the given orthonormal basis:
    ``run_stack``'s measurement of this one joint state, on the target rows
    where it has a non-zero entry.

    ``basis`` is held to the scenario's rule: 1 to n orthonormal vectors
    of length n, n the dimension of the last subsystem. Outcome k has
    probability Tr[(I (x) |b_k><b_k|) rho]; its post state is the
    normalized target state after projecting the control onto |b_k>.
    No command calls it; it stays because ``perfbench/tracer.py`` wraps it
    by name and ``tests/test_tracer_names.py`` requires it.
    """
    n = joint.dims[-1]
    basis = np.array(_checked_basis(basis, n))
    d = joint.dim // n
    t = joint.mat.reshape(d, n, d, n)
    keep = t.any(axis=(1, 2, 3)).nonzero()[0]
    return next(_measure(t.take(keep, 0)[None], keep, joint.dims[:-1], basis))


def run(scenario: SuperpositionScenario) -> list[MeasurementOutcome]:
    """Evolution and control measurement of one scenario: ``run_stack``
    on its own scales."""
    return next(run_stack(scenario, scale_row(scenario.channels)[None]))
