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
from math import prod, sqrt

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
    """sqrt(<psi|rho|psi>) against a pure target state: the one-state call
    of ``fidelities_pure``."""
    return fidelities_pure(rho.dims, rho.support, rho.block[None], target)[0]


def fidelities_pure(dims, support, blocks: np.ndarray, target) -> list[float]:
    """``fidelity_pure`` of every state of a stack that shares ``dims`` and
    ``support``, given as its blocks ``(P, s, s)``. It reads the whole
    matrices, as ``mat`` places them, and takes the last product as P
    products (1, d) @ (d,): on the blocks, or as one (P, d) @ (d,)
    product, the sums round otherwise in the last bit. An empty stack
    (the optimizer's objective on a round with no live row) gives []."""
    psi = np.asarray(target)
    if prod(dims) != len(psi):
        raise DimMismatchError("state and target dimensions differ")
    mats = np.zeros((len(blocks), len(psi), len(psi)), dtype=complex)
    mats[:, support[:, None], support] = blocks
    vals = ((psi.conj() @ mats)[:, None] @ psi).real.ravel().tolist()
    return [sqrt(min(max(val, 0.0), 1.0)) for val in vals]


def fidelity_up_to_phase(rho: DensityMatrix, n: int) -> float:
    """Best GHZ fidelity over the relative phase: the one-state call of
    ``fidelities_up_to_phase``."""
    return fidelities_up_to_phase(rho.dims, rho.support, rho.block[None], n)[0]


def fidelities_up_to_phase(dims, support, blocks: np.ndarray, n: int) -> list[float]:
    """``fidelity_up_to_phase`` of every state of a stack that shares
    ``dims`` and ``support``, given as its blocks ``(P, s, s)``.

    Maximizes fid against (|0>^n + e^{i phi} |1>^n)/sqrt(2); the maximum is
    attained at phi = -arg rho[0, last] and only involves the extreme
    populations and the single extreme off-diagonal element, which are
    read from the blocks (an entry off the support is a zero).
    """
    if prod(dims) != 2**n:
        raise DimMismatchError(f"state is not {n}-qubit")
    end = 2**n - 1
    at = support.tolist()
    first, last, coh = (blocks[:, at.index(i), at.index(j)].tolist()
                        if i in at and j in at else [0j] * len(blocks)
                        for i, j in ((0, 0), (end, end), (0, end)))
    return [sqrt(min(max(0.5 * (a.real + b.real) + abs(c), 0.0), 1.0))
            for a, b, c in zip(first, last, coh)]


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
    vals, _ = eig_hermitian((m + m.conj().swapaxes(-1, -2)) / 2.0)
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

    The distinct pair reductions of all the states (one for a GHZ
    support, whatever n) go through one ``_concurrences`` call, and each
    mean adds ``c[class of pair j]`` in pair order; for two qubits the one
    reduction traces nothing out and is the whole matrix, bitwise.
    """
    n = len(dims)
    if n < 2:
        raise DimMismatchError("need at least two qubits")
    if any(d != 2 for d in dims):
        raise DimMismatchError(f"concurrence needs qubits, not dims {tuple(dims)}")
    pairs = list(combinations(range(n), 2))
    reduced, classes = stack_partial_traces(dims, support, blocks, pairs)
    c = _concurrences(reduced.reshape(-1, 4, 4))
    u = reduced.shape[1]
    # the builtin sum adds in pair order; np.sum would regroup the terms
    return [sum(c[i + j] for j in classes) / len(pairs) for i in range(0, len(c), u)]


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
    from one stack of the distinct single-qubit reductions, each mean
    adding the term of qubit k's class in qubit order."""
    n = len(dims)
    if n < 2:
        raise DimMismatchError("need at least two qubits")
    if any(d != 2 for d in dims):
        raise DimMismatchError("one-vs-rest concurrence needs qubits")
    r, classes = stack_partial_traces(dims, support, blocks, [[k] for k in range(n)])
    det = (r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]).real
    terms = [[2.0 * sqrt(max(0.0, x)) for x in row] for row in det.tolist()]
    # the builtin sum adds in qubit order
    return [sum(row[j] for j in classes) / n for row in terms]


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


def _check_shape(cfg: VacuumConfig, count: int, length: int) -> None:
    """Raise unless ``cfg`` holds ``count`` amplitude vectors of ``length``."""
    if [len(v) for v in cfg.vectors] != [length] * count:
        raise DimMismatchError(f"expected {count} amplitude vectors of length "
                               f"{length}, got {[len(v) for v in cfg.vectors]}")


def _fidelities(num: np.ndarray, den: np.ndarray) -> float | list[float]:
    """sqrt(max(num, 0) / den) pointwise; a vanishing denominator raises."""
    if (den <= 1e-14).any():
        raise DivisionByZeroError("vanishing outcome probability")
    return np.sqrt(np.maximum(num, 0.0) / den).tolist()


def fid_closed_depolarizing(p, q, cfg: VacuumConfig) -> float | list[float]:
    """Closed-form Bell fidelity for two superposed correlated depolarizing
    channels, as a function of the noise strengths and the vacuum
    amplitudes: elementwise over arrays of (p, q), the amplitudes' terms
    formed once; a float for floats."""
    p, q = np.moveaxis(_check_probs(np.stack([p, q], -1), "probability"), -1, 0)
    _check_shape(cfg, 2, 4)
    a, b = cfg.alpha, cfg.beta
    m = np.array([[_sym(a[i], b[j]) for j in range(4)] for i in range(4)])
    sg = np.array([1.0, -1.0, 1.0])  # signs of the (X, Y, Z) combination
    same, both = np.sqrt((1 - p) * (1 - q)), np.sqrt(p * q)
    p_only, q_only = np.sqrt(3 * p * (1 - q)), np.sqrt(3 * q * (1 - p))
    base = 3.0 + 3.0 * same * m[0, 0]
    c = (base + p_only * (sg @ m[1:, 0]) + q_only * (m[0, 1:] @ sg)
         + both * (sg @ m[1:, 1:] @ sg))
    d = 2.0 * (base + both * m[3, 3] + p_only * m[3, 0] + q_only * m[0, 3]
               + both * (m[1, 1] - m[1, 2] - m[2, 1] + m[2, 2]))
    return _fidelities(c, d)


def fid_closed_bitphase(p, q, cfg: VacuumConfig) -> float | list[float]:
    """Closed-form Bell fidelity for a superposed bit-flip (amplitudes in
    Pauli slots 0, 1) and phase-flip (slots 0, 3) channel pair, elementwise
    over arrays of (p, q); a float for floats."""
    p, q = np.moveaxis(_check_probs(np.stack([p, q], -1), "probability"), -1, 0)
    _check_shape(cfg, 2, 4)
    a, b = cfg.alpha, cfg.beta
    shared = (1.0 + np.sqrt(q * (1 - p)) * _sym(a[0], b[3])
              + np.sqrt((1 - p) * (1 - q)) * _sym(a[0], b[0]))
    num = (shared + np.sqrt(p * (1 - q)) * _sym(a[1], b[0])
           + np.sqrt(p * q) * _sym(a[1], b[3]))
    return _fidelities(num, 2.0 * shared)


def fid_closed_w3(p, cfg: VacuumConfig) -> float | list[float]:
    """Closed-form W fidelity for three superposed memoryless bit-flip
    channels with per-channel noise p = (p_0, p_1, p_2) and 2-vector
    amplitudes; elementwise over rows (..., 3) of p, a float for one row."""
    p = _check_probs(p, "probability")
    if p.shape[-1:] != (3,):
        raise DimMismatchError("expected 3 probabilities")
    _check_shape(cfg, 3, 2)
    channels = list(zip(cfg.vectors, np.moveaxis(p, -1, 0)))
    num, den = sum(pi for _, pi in channels), 9.0
    for (ai, pi), (aj, pj) in combinations(channels, 2):
        num = num + 2.0 * _sym(ai[1], aj[1]) * np.sqrt(pi * pj)
        den = den + 6.0 * _sym(ai[0], aj[0]) * np.sqrt((1 - pi) * (1 - pj))
    return _fidelities(num, den)
