"""Reference formulas that only the tests use: the channel defects, the
channel's reduced action, the general Uhlmann fidelity, the GHZ state, and
the one-point fidelities and closed forms as scalar code, one Python float
operation at a time. The package computes none of them; the tests check it
against them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

from linksim.channels import CPTP_TOL, VacuumExtendedChannel
from linksim.linalg import DensityMatrix, DimMismatchError, sqrt_psd
from linksim.metrics import _sym, bell_state, w_state


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



def outcome_fidelity(spec, outcome) -> float:
    """The fidelity of one outcome as the one-state code took it, on the
    whole matrix: a W outcome against its phase-corrected W state, a Bell
    outcome 0 against |Phi+>, every other outcome up to the GHZ relative
    phase."""
    mat, k = outcome.post_state.mat, outcome.outcome_index
    if spec.family in ("ideal_w", "w_memoryless"):
        val = (w_state(spec.n, k).conj() @ mat @ w_state(spec.n, k)).real
    elif spec.family in ("ideal_bell", "bell_depolarizing", "bell_bitphase") and k == 0:
        val = (bell_state(+1).conj() @ mat @ bell_state(+1)).real
    else:
        val = 0.5 * (mat.item(0, 0).real + mat.item(-1, -1).real) + abs(mat.item(0, -1))
    return sqrt(min(max(val, 0.0), 1.0))


def oracle_fidelity(spec, p: float, q: float) -> float | None:
    """The closed-form plus-outcome fidelity as the scalar code took it, one
    float operation at a time, or None for a family without one."""
    a, b = spec.config.vectors[:2]
    if spec.family == "bell_depolarizing":
        m = np.array([[_sym(a[i], b[j]) for j in range(4)] for i in range(4)])
        sg = np.array([1.0, -1.0, 1.0])
        num = (3.0 + 3.0 * sqrt((1 - p) * (1 - q)) * m[0, 0]
               + sqrt(3 * p * (1 - q)) * (sg @ m[1:, 0])
               + sqrt(3 * q * (1 - p)) * (m[0, 1:] @ sg)
               + sqrt(p * q) * (sg @ m[1:, 1:] @ sg))
        den = 2.0 * (3.0 + 3.0 * sqrt((1 - p) * (1 - q)) * m[0, 0]
                     + sqrt(p * q) * m[3, 3] + sqrt(3 * p * (1 - q)) * m[3, 0]
                     + sqrt(3 * q * (1 - p)) * m[0, 3]
                     + sqrt(p * q) * (m[1, 1] - m[1, 2] - m[2, 1] + m[2, 2]))
    elif spec.family == "bell_bitphase":
        shared = (1.0 + sqrt(q * (1 - p)) * _sym(a[0], b[3])
                  + sqrt((1 - p) * (1 - q)) * _sym(a[0], b[0]))
        num = (shared + sqrt(p * (1 - q)) * _sym(a[1], b[0])
               + sqrt(p * q) * _sym(a[1], b[3]))
        den = 2.0 * shared
    elif spec.family == "w_memoryless" and spec.n == 3:
        num, den = sum((p, p, p)), 9.0
        for ai, aj in combinations(spec.config.vectors, 2):
            num += 2.0 * _sym(ai[1], aj[1]) * sqrt(p * p)
            den += 6.0 * _sym(ai[0], aj[0]) * sqrt((1 - p) * (1 - p))
    else:
        return None
    if den <= 1e-14:
        raise ZeroDivisionError("vanishing outcome probability")
    return sqrt(max(num, 0.0) / den)
