"""Coherent spatial superposition of vacuum-extended channels.

N channels sit on N branches labelled by a control qudit. For each
multi-index (i_0, ..., i_{N-1}) over Kraus choices, the joint operator on
target (x) control is

    S_i = sum_l [prod_{k != l} a^{(k)}_{i_k}] E^{(l)}_{i_l} (x) |l><l|,

i.e. branch l applies channel l's Kraus operator weighted by the vacuum
amplitudes of every channel that is *not* traversed. For N = 2 this is the
familiar  b_j F_i (x) |0><0| + a_i N_j (x) |1><1|  construction. The joint
state sum_i S_i (rho_t (x) rho_c) S_i^dag is trace one, and measuring the
control in an orthonormal basis projects the target.

``apply`` forms rho_t (x) rho_c only on its support, which is a few rows
for the paper's pure product inputs, and builds only the columns of each
S_i that meet it. A channel holds unit operators and scales, and only the
Kraus columns those S_i columns use are scaled, so no 2^n x 2^n operator is
formed per noise point; each scaled entry is the one product the dense
operator holds. ``measure_control`` contracts only the target rows that
the joint state reaches, for every outcome in one einsum. Each keeps the
order of every sum that the whole-matrix computation uses, so no
restriction changes an output bit. ``global_kraus`` builds the dense
operators literally from the formula and serves as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .channels import VacuumExtendedChannel
from .linalg import DensityMatrix, DimMismatchError, LinksimError

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


def plus_control() -> ControlState:
    return ControlState(np.array([1.0, 1.0]) / np.sqrt(2.0))


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


@dataclass(frozen=True)
class SuperpositionScenario:
    """One experiment: channels, target input, control, measurement basis."""

    channels: tuple[VacuumExtendedChannel, ...]
    input: DensityMatrix
    control: ControlState
    measurement_basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        basis = tuple(np.asarray(b, dtype=complex) for b in self.measurement_basis)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "measurement_basis", basis)
        if len(channels) < 2:
            raise SuperpositionError("need at least two channels to superpose")
        d = channels[0].dim
        if any(c.dim != d for c in channels):
            raise DimMismatchError("channels act on different target dimensions")
        if self.input.dim != d:
            raise DimMismatchError("input state does not match channel dimension")
        n = len(channels)
        if self.control.dim != n or len(basis) != n:
            raise DimMismatchError(
                "channel count, control dimension and basis size must agree"
            )
        gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise SuperpositionError("measurement basis is not orthonormal")
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


def _joint_columns(channels, cols) -> np.ndarray:
    """Columns ``cols`` of the joint Kraus operators S_i whose coefficients
    do not all vanish.

    Returns an array of shape (M, d*n, len(cols)), one slice per kept
    multi-index, in the lexicographic order of ``global_kraus``. Column
    t*n + l of S_i is coeff_l(i) K^(l)_{i_l}[:, t] at rows l::n, with
    coeff_l(i) = prod_{k != l} a^(k)_{i_k}. The Kraus columns come from
    ``kraus_columns``, which scales only the unit columns in ``t``; each
    entry is the one product scale * unit entry that the dense Kraus
    operator holds, with no sum reordered, so the result is bitwise the
    gather from ``channel.kraus``, which is never built here.
    """
    d, n = channels[0].dim, len(channels)
    t, branch = np.divmod(cols, n)
    idx = np.indices([len(c.ops) for c in channels]).reshape(n, -1)
    amps = [c.vacuum_amplitudes[i] for c, i in zip(channels, idx)]
    coeff = np.array([prod(amps[k] for k in range(n) if k != l) for l in range(n)])
    keep = coeff.any(axis=0)
    idx, coeff = idx[:, keep], coeff[:, keep]
    # target (x) control with control as the rightmost factor: row r*n + l
    out = np.empty((idx.shape[1], d, n, len(cols)), dtype=complex)
    for l, channel in enumerate(channels):
        # index the Kraus columns first, so the multi-index gather copies
        # only those columns and never a (M, d, d) stack
        kcols = channel.kraus_columns(t)[idx[l]]
        out[:, :, l] = np.where(branch == l, coeff[l, :, None, None] * kcols, 0)
    return out.reshape(-1, d * n, len(cols))


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


def apply(scenario: SuperpositionScenario) -> DensityMatrix:
    """Evolve rho_t (x) rho_c under the superposed channels.

    Only the columns of each S_i on the support ``sup`` of the input J are
    built: sum_i S_i J S_i^dag = sum_i S_i[:, sup] J[sup, sup] S_i[:, sup]^dag,
    summed only on the rows those columns reach: the ``from_block`` support.
    """
    rho, c = scenario.input.mat, scenario.control.amplitudes
    n = len(c)
    # row t*n + l of J is non-zero exactly when row t of rho and c_l are
    rho_sup, c_sup = rho.any(axis=1).nonzero()[0], c.nonzero()[0]
    sup = (rho_sup[:, None] * n + c_sup).ravel()
    # J[sup, sup] as one broadcast product of the sub-blocks, entry by entry
    # the product kron(rho, |c><c|) would form
    c = c[c_sup]
    joint_in = (rho.take(rho_sup, 0).take(rho_sup, 1)[:, None, :, None]
                * (c[:, None] * c.conj())[:, None, :])
    joint_in = joint_in.reshape(len(sup), len(sup))
    cols = _joint_columns(scenario.channels, sup)
    rows = cols.any(axis=(0, 2)).nonzero()[0]
    cols = cols.take(rows, 1)
    left = cols @ joint_in
    right = cols.conj().transpose(0, 2, 1)
    block = np.zeros((len(rows), len(rows)), dtype=complex)
    term = np.empty_like(block)
    # one term at a time, in multi-index order: fusing the sum into one
    # product would reorder it and change the rounding of the output
    for a, b in zip(left, right):
        block += np.matmul(a, b, out=term)
    # symmetrize away accumulated rounding before the invariant checks
    dims = scenario.input.dims + (scenario.control.dim,)
    return DensityMatrix.from_block(dims, rows, (block + block.conj().T) / 2.0)


def measure_control(joint: DensityMatrix, basis) -> list[MeasurementOutcome]:
    """Projective control measurement in the given orthonormal basis.

    Outcome k has probability Tr[(I (x) |b_k><b_k|) rho]; its post state is
    the normalized target state after projecting the control onto |b_k>,
    built with ``DensityMatrix.from_block`` on the rows the joint reaches.
    """
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[-1]
    if joint.dims[-1] != n:
        raise DimMismatchError("basis dimension does not match control subsystem")
    target_dims = joint.dims[:-1]
    d = joint.dim // n
    t = joint.mat.reshape(d, n, d, n)
    # the target rows holding a non-zero entry; the joint is Hermitian, so
    # every other row and column of each block is zero. Only the rows are
    # restricted: the einsum runs over every column, so each sum rounds as
    # on the whole joint.
    keep = t.any(axis=(1, 2, 3)).nonzero()[0]
    blocks = np.einsum("bk,ikjl,bl->bij", basis.conj(), t.take(keep, 0),
                       basis).take(keep, 2)
    # the whole d x d post matrix's diagonal, whose sum rounds as its trace
    diag = np.zeros(d, dtype=complex)
    outcomes = []
    for k, block in enumerate(blocks):
        diag[keep] = block.diagonal()
        p = float(diag.sum().real)
        if p < ZERO_PROB:
            outcomes.append(MeasurementOutcome(k, 0.0, None))
            continue
        post = DensityMatrix.from_block(target_dims, keep,
                                        (block + block.conj().T) / (2.0 * p))
        outcomes.append(MeasurementOutcome(k, p, post))
    return outcomes


def run(scenario: SuperpositionScenario) -> list[MeasurementOutcome]:
    """apply followed by measure_control."""
    return measure_control(apply(scenario), scenario.measurement_basis)
