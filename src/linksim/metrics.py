"""Entanglement and distance measures, plus closed-form fidelity oracles.

The fidelity convention is Tr sqrt(sqrt(rho) sigma sqrt(rho)) -- note the
square root: the separable-vs-Bell baseline is 1/sqrt(2) ~ 0.707107. For a
pure target |psi> this reduces to sqrt(<psi|rho|psi>).

The closed-form oracles assume real vacuum amplitudes; complex input is
folded through the symmetrization a_i b_j -> (a_i* b_j + a_i b_j*) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import sqrt

import numpy as np

from .channels import Y, BadNormalizationError, _check_probs
from .linalg import (
    DensityMatrix,
    DimMismatchError,
    LinksimError,
    eig_hermitian,
    sqrt_psd,
    stack_partial_traces,
)


class DivisionByZeroError(LinksimError, ZeroDivisionError):
    """Closed-form fidelity denominator vanished (zero-probability outcome)."""


# ---------------------------------------------------------------------------
# target states


# The targets are built once per argument list and shared, so they are
# read-only; every record and objective call scores against one of them.


@lru_cache(maxsize=8)
def bell_state(sign: int = +1) -> np.ndarray:
    """|Phi+-> = (|00> +- |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    v[3] = sign
    v = v / np.sqrt(2.0)
    v.setflags(write=False)
    return v


@lru_cache(maxsize=64)
def w_state(n: int, outcome: int = 0) -> np.ndarray:
    """n-qubit W state, phase-corrected for Fourier control outcome ``outcome``.

    (1/sqrt(n)) sum_l w^{-outcome * l} |0...1_l...0> with w = e^{2 pi i / n};
    outcome 0 is the plain W state.
    """
    omega = np.exp(2j * np.pi / n)
    v = np.zeros(2**n, dtype=complex)
    for l in range(n):
        v[1 << (n - 1 - l)] = omega ** (-outcome * l)
    v = v / np.sqrt(n)
    v.setflags(write=False)
    return v


# ---------------------------------------------------------------------------
# fidelity


def fidelity_pure(rho: DensityMatrix, target) -> float:
    """sqrt(<psi|rho|psi>) against a pure target state.

    Reads the whole ``mat``: the same product on the block and the
    target's entries on the support rounds differently in the last bit.
    """
    psi = np.asarray(target)
    if rho.dim != len(psi):
        raise DimMismatchError("state and target dimensions differ")
    val = (psi.conj() @ rho.mat @ psi).real
    return sqrt(min(max(val, 0.0), 1.0))


def fidelity_up_to_phase(rho: DensityMatrix, n: int) -> float:
    """Best GHZ fidelity over the relative phase.

    Maximizes fid against (|0>^n + e^{i phi} |1>^n)/sqrt(2); the maximum is
    attained at phi = -arg rho[0, last] and only involves the extreme
    populations and the single extreme off-diagonal element, which are
    read from the block.
    """
    if rho.dim != 2**n:
        raise DimMismatchError(f"state is not {n}-qubit")
    end = rho.dim - 1
    first, last, coh = rho.entries([0, end, 0], [0, end, end])
    val = 0.5 * (first.real + last.real) + abs(coh)
    return sqrt(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# concurrence


_YY = np.kron(Y, Y)


def _concurrences(rho: np.ndarray) -> list[float]:
    """Wootters concurrence of each two-qubit state of the stack ``rho``
    (k, 4, 4), in one stacked computation; ``stack_partial_traces`` output
    goes in as it is, with no per-state object.

    max{0, l1 - l2 - l3 - l4} where l_i are the square roots of the
    eigenvalues of rho rho~ in decreasing order, computed through the
    Hermitian similarity sqrt(rho) rho~ sqrt(rho).
    """
    if rho.shape[1:] != (4, 4):
        raise DimMismatchError("concurrence needs a two-qubit state")
    rho_tilde = _YY @ rho.conj() @ _YY
    r = sqrt_psd(rho)
    m = r @ rho_tilde @ r
    vals, _ = eig_hermitian((m + m.conj().swapaxes(-1, -2)) / 2.0, tol=1e-8)
    # what np.clip(vals, 0.0, None) computes, without its Python wrapper
    vals = np.maximum(vals, 0.0)
    # eigenvalues at the numerical noise floor would each contribute
    # sqrt(eps) ~ 1e-8 after the square root; treat them as exact zeros
    vals[vals < 1e-12 * np.maximum(vals[:, :1], 1e-30)] = 0.0
    lam = np.sqrt(vals)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]).tolist()


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, of dims ``(2, 2)``: the
    one-state call of ``pairwise_concurrences``."""
    if rho.dims != (2, 2):
        raise DimMismatchError(f"concurrence needs two qubits, not dims {rho.dims}")
    return pairwise_concurrences(rho.dims, rho.support, rho.block[None])[0]


def avg_pairwise_concurrence(rho: DensityMatrix) -> float:
    """Mean Wootters concurrence over all two-qubit reductions: the
    one-state call of ``pairwise_concurrences``."""
    return pairwise_concurrences(rho.dims, rho.support, rho.block[None])[0]


def pairwise_concurrences(dims, support, blocks: np.ndarray) -> list[float]:
    """``avg_pairwise_concurrence`` of every state of a stack that shares
    ``dims`` and ``support``, given as its blocks ``(P, s, s)``.

    All the states' pair reductions go through one ``_concurrences`` call;
    for two qubits the reductions are the whole matrices, placed from the
    blocks as ``mat`` places them.
    """
    n = len(dims)
    if n < 2:
        raise DimMismatchError("need at least two qubits")
    if n == 2:
        if tuple(dims) != (2, 2):
            raise DimMismatchError(f"concurrence needs two qubits, not dims {dims}")
        mats = np.zeros((len(blocks), 4, 4), dtype=complex)
        mats[:, support[:, None], support] = blocks
        return _concurrences(mats)
    pairs = list(combinations(range(n), 2))
    reduced = stack_partial_traces(dims, support, blocks, pairs)
    c = _concurrences(reduced.reshape(-1, 4, 4))
    k = len(pairs)
    # the builtin sum adds in pair order; np.sum would regroup the terms
    return [sum(c[i:i + k]) / k for i in range(0, len(c), k)]


def avg_one_vs_rest_concurrence(rho: DensityMatrix) -> float:
    """Mean over qubits k of 2 sqrt(max{0, det rho_k}): the one-state call
    of ``one_vs_rest_concurrences``.

    For a qubit of trace one 2 det rho_k = 1 - Tr rho_k^2, so this is
    sqrt(2 (1 - Tr rho_k^2)), but a product state gives an exact 0 rather
    than the square root of the purity's rounding. For pure global states
    it is the one-vs-rest bipartite concurrence; for mixed states it is
    only a descriptive purity statistic.
    """
    return one_vs_rest_concurrences(rho.dims, rho.support, rho.block[None])[0]


def one_vs_rest_concurrences(dims, support, blocks: np.ndarray) -> list[float]:
    """``avg_one_vs_rest_concurrence`` of every state of a stack that
    shares ``dims`` and ``support``, given as its blocks ``(P, s, s)``,
    from one stack of single-qubit reductions."""
    n = len(dims)
    if n < 2:
        raise DimMismatchError("need at least two qubits")
    if any(d != 2 for d in dims):
        raise DimMismatchError("one-vs-rest concurrence needs qubits")
    r = stack_partial_traces(dims, support, blocks, [[k] for k in range(n)])
    det = (r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]).real
    # the builtin sum adds in qubit order
    return [sum(2.0 * sqrt(max(0.0, x)) for x in row) / n for row in det.tolist()]


# ---------------------------------------------------------------------------
# vacuum configurations and closed-form oracles


@dataclass(frozen=True)
class VacuumConfig:
    """Per-channel vacuum amplitude vectors (each unit-norm)."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=complex) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:  # NaN fails
                raise BadNormalizationError("vacuum amplitude vectors must be unit norm")

    @property
    def alpha(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def beta(self) -> np.ndarray:
        return self.vectors[1]


def _sym(a, b) -> float:
    # (a* b + a b*) / 2; equals a*b for real amplitudes
    return float(((np.conj(a) * b + a * np.conj(b)) / 2.0).real)


def fid_closed_depolarizing(p: float, q: float, cfg: VacuumConfig) -> float:
    """Closed-form Bell fidelity for two superposed correlated depolarizing
    channels, as a function of the noise strengths and the vacuum amplitudes."""
    p, q = _check_probs((p, q), "probability").tolist()
    a, b = cfg.alpha, cfg.beta
    m = np.array([[_sym(a[i], b[j]) for j in range(4)] for i in range(4)])
    sg = np.array([1.0, -1.0, 1.0])  # signs of the (X, Y, Z) combination
    xyz_a = m[1:, :]
    xyz_b = m[:, 1:]
    c = (
        3.0
        + 3.0 * sqrt((1 - p) * (1 - q)) * m[0, 0]
        + sqrt(3 * p * (1 - q)) * (sg @ xyz_a[:, 0])
        + sqrt(3 * q * (1 - p)) * (xyz_b[0, :] @ sg)
        + sqrt(p * q) * (sg @ m[1:, 1:] @ sg)
    )
    d = 2.0 * (
        3.0
        + 3.0 * sqrt((1 - p) * (1 - q)) * m[0, 0]
        + sqrt(p * q) * m[3, 3]
        + sqrt(3 * p * (1 - q)) * m[3, 0]
        + sqrt(3 * q * (1 - p)) * m[0, 3]
        + sqrt(p * q) * (m[1, 1] - m[1, 2] - m[2, 1] + m[2, 2])
    )
    if d <= 1e-14:
        raise DivisionByZeroError("vanishing outcome probability")
    return sqrt(max(c, 0.0) / d)


def fid_closed_bitphase(p: float, q: float, cfg: VacuumConfig) -> float:
    """Closed-form Bell fidelity for a superposed bit-flip (amplitudes in
    Pauli slots 0, 1) and phase-flip (slots 0, 3) channel pair."""
    p, q = _check_probs((p, q), "probability").tolist()
    a, b = cfg.alpha, cfg.beta
    shared = (
        1.0
        + sqrt(q * (1 - p)) * _sym(a[0], b[3])
        + sqrt((1 - p) * (1 - q)) * _sym(a[0], b[0])
    )
    num = shared + sqrt(p * (1 - q)) * _sym(a[1], b[0]) + sqrt(p * q) * _sym(a[1], b[3])
    den = 2.0 * shared
    if den <= 1e-14:
        raise DivisionByZeroError("vanishing outcome probability")
    return sqrt(max(num, 0.0) / den)


def fid_closed_w3(p, cfg: VacuumConfig) -> float:
    """Closed-form W fidelity for three superposed memoryless bit-flip
    channels with per-channel noise (p_0, p_1, p_2) and 2-vector amplitudes."""
    p = _check_probs(p, "probability").tolist()
    if len(p) != 3 or len(cfg.vectors) != 3:
        raise DimMismatchError("expected 3 probabilities and 3 amplitude pairs")
    num = sum(p)
    den = 9.0
    for i, j in combinations(range(3), 2):
        ai, aj = cfg.vectors[i], cfg.vectors[j]
        num += 2.0 * _sym(ai[1], aj[1]) * sqrt(p[i] * p[j])
        den += 6.0 * _sym(ai[0], aj[0]) * sqrt((1 - p[i]) * (1 - p[j]))
    if den <= 1e-14:
        raise DivisionByZeroError("vanishing outcome probability")
    return sqrt(max(num, 0.0) / den)
