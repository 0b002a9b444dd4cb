"""Discrete-time quantum walk on a cycle.

One walk step is U = T (I (x) C): a coin rotation followed by the
conditional shift T = sum_i |i+1><i| (x) |0><0| + sum_i |i-1><i| (x) |1><1|
with cyclic boundary (indices mod N). Tensor order is position (x) coin.

The two-vertex walk with a trivial coin is exactly a spatial superposition
of the two cyclic shift unitaries, with the coin playing the role of the
control system; ``verify_embedding`` checks a candidate unitary pair
against that construction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import unitary_channel
from .linalg import DimMismatchError, LinksimError, _normalized
from .superposition import global_kraus

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class WalkSpec:
    """``steps`` >= 0 steps of a 2x2 unitary coin from ``initial``, normalized here."""

    positions: int
    coin: np.ndarray
    steps: int
    initial: np.ndarray  # pure state on position (x) coin

    def __post_init__(self):
        coin = np.asarray(self.coin, dtype=complex)
        init = np.asarray(self.initial, dtype=complex)
        if coin.shape != (2, 2):
            raise DimMismatchError("coin must be 2x2")
        unitary_channel(coin)  # the channels' unitarity check: NotUnitaryError
        if init.shape != (2 * self.positions,):
            raise DimMismatchError("initial state must live on position (x) coin")
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 0:
            raise LinksimError(f"steps must be an integer of at least 0, got {self.steps!r}")
        object.__setattr__(self, "coin", coin)
        object.__setattr__(self, "initial", _normalized(init))


def shift_operator(n: int) -> np.ndarray:
    """Cyclic conditional shift on position (x) coin."""
    up = np.roll(np.eye(n, dtype=complex), 1, axis=0)  # |i+1><i|
    down = np.roll(np.eye(n, dtype=complex), -1, axis=0)  # |i-1><i|
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(up, p0) + np.kron(down, p1)


def position_distribution(state: np.ndarray, n: int) -> np.ndarray:
    """Marginal probability of each lattice position."""
    amp = state.reshape(n, 2)
    return np.sum(np.abs(amp) ** 2, axis=1)


def simulate(spec: WalkSpec) -> Iterator[np.ndarray]:
    """Position distributions after 0, 1, ..., steps applications of U, each
    yielded as it is made, on a (positions, 2) state: one product with C^T,
    then T rolls coin 0 up, 1 down."""
    n = spec.positions
    state = spec.initial.reshape(n, 2)
    yield position_distribution(state, n)
    for _ in range(spec.steps):
        state = state @ spec.coin.T
        state[:, 0] = np.roll(state[:, 0], 1)
        state[:, 1] = np.roll(state[:, 1], -1)
        yield position_distribution(state, n)


def verify_embedding(u1: np.ndarray, u2: np.ndarray) -> bool:
    """Check whether superposing (u1, u2) reproduces a two-vertex walk step.

    Builds S = u1 (x) |0><0| + u2 (x) |1><1|, the one joint Kraus operator
    of the two superposed unitary channels, and compares it against
    T (I (x) C) with trivial coin C = I, where T is either the cyclic
    shift pair on the position space or the degenerate identity pair.
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    if u1.shape != u2.shape or u1.shape[0] != u1.shape[1]:
        raise DimMismatchError("unitaries must be square and same-dim")
    n = u1.shape[0]
    s = global_kraus((unitary_channel(u1), unitary_channel(u2)))[0]
    candidates = [
        shift_operator(n),  # cyclic shift pair
        np.eye(2 * n, dtype=complex),  # degenerate trivial-shift pair
    ]
    return any(np.max(np.abs(s - t)) <= 1e-12 for t in candidates)
