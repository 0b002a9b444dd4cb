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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
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


def global_kraus(channels) -> list[np.ndarray]:
    """Joint Kraus operators S_i on target (x) control, one per multi-index.

    Multi-indices are enumerated lexicographically over (i_0, ..., i_{N-1}).
    """
    channels = tuple(channels)
    if len(channels) < 2:
        raise SuperpositionError("need at least two channels")
    d = channels[0].dim
    if any(c.dim != d for c in channels):
        raise DimMismatchError("channels act on different target dimensions")
    n = len(channels)
    ops = []
    for idx in product(*(range(len(c.kraus)) for c in channels)):
        s = np.zeros((d * n, d * n), dtype=complex)
        for l in range(n):
            coeff = prod(
                channels[k].vacuum_amplitudes[idx[k]] for k in range(n) if k != l
            )
            if coeff == 0:
                continue
            # target (x) control with control as the rightmost factor:
            # block (x) |l><l| fills the entries with row, column = l mod n
            s[l::n, l::n] += coeff * channels[l].kraus[idx[l]]
        ops.append(s)
    return ops


def apply(scenario: SuperpositionScenario) -> DensityMatrix:
    """Evolve rho_t (x) rho_c under the superposed channels."""
    c = scenario.control.amplitudes
    joint_in = np.kron(scenario.input.mat, np.outer(c, c.conj()))
    out = np.zeros_like(joint_in)
    for s in global_kraus(scenario.channels):
        tmp = s @ joint_in
        out += tmp @ s.conj().T
    dims = scenario.input.dims + (scenario.control.dim,)
    # symmetrize away accumulated rounding before the invariant checks
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(dims, out)


def measure_control(joint: DensityMatrix, basis) -> list[MeasurementOutcome]:
    """Projective control measurement in the given orthonormal basis.

    Outcome k has probability Tr[(I (x) |b_k><b_k|) rho]; its post state is
    the normalized target state after projecting the control onto |b_k>.
    """
    basis = tuple(np.asarray(b, dtype=complex) for b in basis)
    n = len(basis[0])
    if joint.dims[-1] != n:
        raise DimMismatchError("basis dimension does not match control subsystem")
    target_dims = joint.dims[:-1]
    d = joint.dim // n
    t = joint.mat.reshape(d, n, d, n)
    outcomes = []
    for k, b in enumerate(basis):
        block = np.einsum("k,ikjl,l->ij", b.conj(), t, b)
        p = float(np.trace(block).real)
        if p < ZERO_PROB:
            outcomes.append(MeasurementOutcome(k, 0.0, None))
            continue
        post = (block + block.conj().T) / (2.0 * p)
        outcomes.append(MeasurementOutcome(k, p, DensityMatrix(target_dims, post)))
    return outcomes


def run(scenario: SuperpositionScenario) -> list[MeasurementOutcome]:
    """apply followed by measure_control."""
    return measure_control(apply(scenario), scenario.measurement_basis)
