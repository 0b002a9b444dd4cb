"""Reference formulas that only the tests use: the dense Kronecker
product, the channel defects, the channel's reduced action, the
interference-operator form of a measured superposition, the control
measurement of a joint on every target column, the general
Uhlmann fidelity, the GHZ state, the one-point fidelities and closed
forms as scalar code, one Python float operation at a time, and a sweep's
largest gap to its oracle. The package computes none of them; the tests
check it against them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

from linksim.channels import CPTP_TOL, VacuumExtendedChannel, scale_row
from linksim.linalg import DensityMatrix, DimMismatchError, sqrt_psd
from linksim.metrics import _sym, bell_state, w_state
from linksim.superposition import ZERO_PROB, _outcome_lists, run_stack


def kron_all(*mats) -> np.ndarray:
    """The literal left fold of ``np.kron`` over ``mats``, as complex."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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


def interference_blocks(scenario) -> list[np.ndarray]:
    """The unnormalized post block of each measured control outcome k,

        sum_l |c_l b_kl|^2 E_l(rho)
          + sum_{l != m} c_l conj(c_m) conj(b_kl) b_km F_l rho F_m^dag,

    with E_l(rho) = sum_i K^l_i rho K^l_i^dag and F_l = sum_i conj(a^l_i)
    K^l_i, the vacuum-interference operator of channel l: the
    superposition-of-trajectories form (Chiribella & Kristjansson, Proc.
    R. Soc. A 475, 20180903, 2019), derived apart from the joint Kraus
    operators. The other channels' Kraus sums drop out of each term, as
    each amplitude vector has unit norm. N^2 products of d x d matrices."""
    rho, c = scenario.input.mat, scenario.control.amplitudes
    chans = scenario.channels
    outs = [sum(k @ rho @ k.conj().T for k in ch.kraus) for ch in chans]
    f = [sum(a.conjugate() * k for a, k in zip(ch.vacuum_amplitudes, ch.kraus))
         for ch in chans]
    blocks = []
    for b in scenario.measurement_basis:
        w = c * b.conj()  # c_l conj(b_kl)
        block = sum(abs(w[l]) ** 2 * outs[l] for l in range(len(chans)))
        for l in range(len(chans)):
            for m in range(len(chans)):
                if l != m:
                    block = block + w[l] * w[m].conjugate() * (f[l] @ rho @ f[m].conj().T)
        blocks.append(block)
    return blocks


def assert_run_stack_matches_interference_form(scenario, atol=1e-12) -> None:
    """``run_stack`` at the scenario's own scales against
    ``interference_blocks``, within ``atol``: every probability, and every
    live outcome's post state times its probability, on the whole matrix.
    An outcome that is not live has no block above ``ZERO_PROB``."""
    support, probs, live, posts = run_stack(scenario, scale_row(scenario.channels)[None])
    states = iter(posts)
    for block, p, alive in zip(interference_blocks(scenario), probs[0], live[0]):
        assert abs(p - np.trace(block).real) <= atol, (p, np.trace(block))
        post = np.zeros_like(block)
        if alive:
            post[np.ix_(support, support)] = next(states) * p
        else:
            assert np.trace(block).real < ZERO_PROB + atol
        assert np.max(np.abs(post - block)) <= atol


def measure_every_column(t, keep, basis):
    """The control measurement of each joint state of the stack ``t`` (P,
    len(keep), n, d, n): the joints on their reached target rows ``keep``,
    every one of the d target columns kept, the whole-joint measurement
    that ``superposition._measure``, on the reached columns alone, is held
    to bit for bit. Returns ``(probs, live, posts)`` as ``_measure`` does;
    each probability is summed over the length-d diagonal with zeros in
    place."""
    blocks = np.einsum("bk,pikjl,bl->pbij", basis.conj(), t, basis).take(keep, 3)
    diag = np.zeros(blocks.shape[:2] + (t.shape[3],), dtype=complex)
    diag[..., keep] = blocks.diagonal(axis1=2, axis2=3)
    probs = diag.sum(axis=-1).real
    live = ~(probs < ZERO_PROB)
    posts = blocks[live]
    posts = (posts + posts.conj().swapaxes(-1, -2)) / (2.0 * probs[live])[:, None, None]
    return probs, live, posts


def measure_joint_every_column(joint: DensityMatrix, basis) -> list:
    """``measure_every_column`` of one joint state, formed as its whole
    matrix, on the target rows where it has a non-zero entry: the outcome
    list ``superposition.measure_control`` returns."""
    n = joint.dims[-1]
    d = joint.dim // n
    t = joint.mat.reshape(d, n, d, n)
    keep = t.any(axis=(1, 2, 3)).nonzero()[0]
    return _outcome_lists(joint.dims[:-1], keep, *measure_every_column(
        t.take(keep, 0)[None], keep, np.array(basis)))[0]


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


def verify_sweep_oracle(records) -> float:
    """Largest |fidelity - oracle| over records that carry an oracle value."""
    gaps = [abs(r.fidelity - r.oracle_fidelity) for r in records
            if r.oracle_fidelity is not None]
    return max(gaps) if gaps else 0.0
