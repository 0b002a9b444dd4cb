"""Reference formulas that only the tests use: the channel defects, the
channel's reduced action, the general Uhlmann fidelity and the GHZ state.
The package computes none of them; the tests check it against them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linksim.channels import CPTP_TOL, VacuumExtendedChannel
from linksim.linalg import DensityMatrix, DimMismatchError, sqrt_psd


@dataclass(frozen=True)
class ValidationReport:
    cptp_defect: float
    amplitude_defect: float

    @property
    def ok(self) -> bool:
        return self.cptp_defect < CPTP_TOL and self.amplitude_defect < 1e-10


def validate(c: VacuumExtendedChannel) -> ValidationReport:
    """CPTP and amplitude-normalization defects of a channel, also of one
    built deliberately broken."""
    acc = sum(k.conj().T @ k for k in c.kraus)
    cptp_defect = float(np.max(np.abs(acc - np.eye(c.dim))))
    amp_defect = float(abs(np.sum(np.abs(c.vacuum_amplitudes) ** 2) - 1.0))
    return ValidationReport(cptp_defect, amp_defect)


def channel_apply(c: VacuumExtendedChannel, rho: np.ndarray) -> np.ndarray:
    """Action of the reduced CPTP map: sum_k K rho K^dagger."""
    return sum(k @ rho @ k.conj().T for k in c.kraus)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """General Tr sqrt(sqrt(rho) sigma sqrt(rho)) form."""
    if rho.dim != sigma.dim:
        raise DimMismatchError("state dimensions differ")
    r = sqrt_psd(rho.mat)
    inner = sqrt_psd(r @ sigma.mat @ r)
    return float(np.trace(inner).real)


def ghz_state(n: int, phase: float = 0.0) -> np.ndarray:
    """(|0>^n + e^{i phase} |1>^n) / sqrt(2)."""
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    v[-1] = np.exp(1j * phase)
    return v / np.sqrt(2.0)
