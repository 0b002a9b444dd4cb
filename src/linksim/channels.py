"""Vacuum-extended quantum channels.

A channel is a CPTP Kraus set plus one vacuum amplitude per Kraus operator.
The amplitudes fix how the Kraus branches interfere when the channel is
placed in a spatial superposition; they satisfy sum |alpha_k|^2 = 1.

Every channel stores each Kraus operator as a unit operator and one real
scale. The named constructors share read-only unit operators (cached
``pauli_string`` products), and each takes its scales from a table
function over an array of noise values (``depolarizing_scales``,
``pauli_scales``, ``bitflip_scales``), whose one-row call it is: each
noise check and each sqrt(w) is stated once, and a sweep takes a whole
table of scales with no channel per point. ``kraus_columns`` is the one
reader of that format: it scales only the unit columns a computation
reaches, and the dense ``kraus`` is formed on first use. Both multiply
each entry once, scale times unit entry, so a scaled column is bitwise
that of the dense operator.

Pauli channels keep a fixed length-4 amplitude vector indexed by
``PAULI_INDEX`` = (I, X, Y, Z) even when some weights vanish, so amplitude
vectors keep their shape across parameter sweeps. Zero-weight slots must
carry zero amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import LinksimError, kron_all

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}
#: index 0,1,2,3 -> I, X, Y, Z; fixed global convention for weight and
#: amplitude vectors of Pauli channels.
PAULI_INDEX = ("I", "X", "Y", "Z")

CPTP_TOL = 1e-10
AMP_TOL = 1e-12

#: distinct Pauli strings kept by ``pauli_string``
PAULI_CACHE_SIZE = 32


class ChannelError(LinksimError):
    pass


class BadLetterError(ChannelError):
    pass


class BadProbabilityError(ChannelError):
    pass


class BadNormalizationError(ChannelError, ValueError):
    pass


class NotUnitaryError(ChannelError):
    pass


class BadChannelIndexError(ChannelError):
    pass


@lru_cache(maxsize=PAULI_CACHE_SIZE)
def pauli_string(spec: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, leftmost letter first.

    ``pauli_string("IXI")`` is the bit flip on qubit 1 of 3. Results are
    cached and shared, so the returned array is read-only.
    """
    try:
        factors = [PAULI[c] for c in spec]
    except KeyError as exc:
        raise BadLetterError(f"bad Pauli letter {exc.args[0]!r} in {spec!r}") from exc
    if not factors:
        raise BadLetterError("empty Pauli string")
    out = kron_all(*factors)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class VacuumExtendedChannel:
    """Kraus operators paired with their vacuum amplitudes.

    Kraus operator k is ``scales[k] * ops[k]``: the named constructors pass
    shared unit operators and real scales, and
    ``VacuumExtendedChannel(kraus, amps)`` takes the Kraus operators
    themselves and stores scales of one.

    The dataclass itself performs only shape checks; the named
    constructors below always produce validated channels.
    """

    ops: tuple[np.ndarray, ...]
    vacuum_amplitudes: np.ndarray
    scales: np.ndarray | None = None  # None stores ones

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        amps = np.asarray(self.vacuum_amplitudes, dtype=complex)
        scales = np.ones(len(ops)) if self.scales is None else np.asarray(
            self.scales, dtype=float)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "vacuum_amplitudes", amps)
        object.__setattr__(self, "scales", scales)
        if len(ops) != len(amps):
            raise ChannelError(
                f"{len(ops)} Kraus operators but {len(amps)} vacuum amplitudes"
            )
        if scales.shape != (len(ops),):
            raise ChannelError(f"{len(ops)} Kraus operators but scales "
                               f"of shape {scales.shape}")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ChannelError("Kraus operators must be square and same-dim")

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    @cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """The dense Kraus operators, each ``scales[k] * ops[k]``, built on
        first use and kept."""
        return tuple(s * op for s, op in zip(self.scales, self.ops))


def scale_row(channels) -> np.ndarray:
    """The scales of every Kraus operator of ``channels``, channel after
    channel: one row of ``kraus_columns``' table."""
    return np.concatenate([c.scales for c in channels])


def kraus_columns(channels, scales, cols) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``cols`` of every Kraus operator of ``channels``, at each row
    of the (P, K) table ``scales``, on the rows any unit operator reaches
    from them.

    K runs over the Kraus operators of every channel in channel order (one
    row is ``scale_row``); only the unit operators of ``channels`` are read.
    Returns ``(reach, columns)``: ``reach``, the sorted reached rows, and
    ``columns`` of shape (P, K, len(reach), len(cols)). The unit columns
    are gathered once and each entry is the one product scale * unit entry
    that ``kraus`` holds. Every other row of a Kraus operator is zero in
    these columns, whatever the scales.
    """
    units = np.array([op[:, cols] for c in channels for op in c.ops])
    reach = units.any(axis=(0, 2)).nonzero()[0]
    return reach, scales[:, :, None, None] * units.take(reach, 1)


def _check_amps(amps, length: int) -> np.ndarray:
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (length,):
        raise BadNormalizationError(f"expected {length} vacuum amplitudes")
    if not abs(np.sum(np.abs(amps) ** 2) - 1.0) <= AMP_TOL:  # NaN fails
        raise BadNormalizationError("vacuum amplitudes must have unit norm")
    return amps


def _check_probs(values, name: str = "p") -> np.ndarray:
    """``values`` as a float array, if each is in [0, 1]; else the first
    that is not, in C order, raises."""
    values = np.asarray(values, dtype=float)
    bad = ~((values >= 0.0) & (values <= 1.0))  # NaN is bad
    if bad.any():
        raise BadProbabilityError(f"{name}={values.item(bad.argmax())} outside [0, 1]")
    return values


def pauli_scales(weights) -> np.ndarray:
    """The scales sqrt(w) of each row of Pauli weights (..., 4), in I, X,
    Y, Z order; the first row, in C order, that is no distribution raises."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-1:] != (4,):
        raise BadProbabilityError("expected 4 Pauli weights")
    w0, w1, w2, w3 = np.moveaxis(weights, -1, 0)
    # the builtin sum's additions, in its order; a NaN fails, as does an
    # infinite weight, whose sum may be NaN
    with np.errstate(invalid="ignore"):
        ok = (weights >= -1e-15).all(axis=-1) & (abs(w0 + w1 + w2 + w3 - 1.0) <= 1e-12)
    if not ok.all():
        bad = weights.reshape(-1, 4)[ok.argmin()].tolist()
        raise BadProbabilityError(f"weights {bad} are not a distribution")
    return np.sqrt(np.where(weights < 0.0, 0.0, weights))  # sqrt(max(w, 0))


def depolarizing_scales(p) -> np.ndarray:
    """The scales of ``depolarizing_correlated`` at each p: (..., 4)."""
    p = _check_probs(p)
    return pauli_scales(np.stack([1.0 - p, p / 3.0, p / 3.0, p / 3.0], axis=-1))


def bitflip_scales(p) -> np.ndarray:
    """The scales of ``memoryless_bitflip`` at each p: (..., 2)."""
    p = _check_probs(p, "p_i")
    return np.sqrt(np.stack([1.0 - p, p], axis=-1))


def _pauli_channel(scales, n: int, amps) -> VacuumExtendedChannel:
    ops = tuple(pauli_string(letter * n) for letter in PAULI_INDEX)
    return VacuumExtendedChannel(ops, amps, scales)


def depolarizing_correlated(p: float, n: int, amps) -> VacuumExtendedChannel:
    """Correlated n-qubit depolarizing channel.

    Kraus set {sqrt(1-p) I, sqrt(p/3) X^n, sqrt(p/3) Y^n, sqrt(p/3) Z^n}
    with a length-4 amplitude vector in I, X, Y, Z order: the one-row call
    of ``depolarizing_scales``.
    """
    return _pauli_channel(depolarizing_scales([p])[0], n, _check_amps(amps, 4))


def pauli_channel_correlated(weights, n: int, amps,
                             used_slots=(0, 1, 2, 3)) -> VacuumExtendedChannel:
    """Correlated Pauli channel with Kraus sqrt(w_k) P_k^{(x)n}, the scales
    of ``pauli_scales``.

    Bit flip is weights (1-p, p, 0, 0); phase flip is (1-q, 0, 0, q).
    Zero-weight Kraus operators are retained so amplitude vectors keep
    length 4 across a parameter sweep. Slots outside ``used_slots`` are
    structurally empty for the channel type and must carry zero amplitude
    (a weight that merely vanishes at a sweep endpoint may still interfere
    through its amplitude).
    """
    weights = [float(w) for w in weights]
    scales = pauli_scales([weights])[0]
    amps = _check_amps(amps, 4)
    for k, (w, a) in enumerate(zip(weights, amps)):
        if k not in used_slots and (w != 0.0 or a != 0.0):
            raise BadNormalizationError(
                f"structurally empty Pauli slot {PAULI_INDEX[k]} carries "
                f"weight {w} / amplitude {a}"
            )
    return _pauli_channel(scales, n, amps)


def memoryless_bitflip(i: int, n: int, p_i: float, amps) -> VacuumExtendedChannel:
    """Bit-flip channel acting on qubit ``i`` of ``n`` only.

    Kraus set {sqrt(1-p_i) I, sqrt(p_i) X_i} with a length-2 amplitude
    vector: the one-row call of ``bitflip_scales``.
    """
    if not 0 <= i < n:
        raise BadChannelIndexError(f"qubit index {i} outside 0..{n - 1}")
    scales = bitflip_scales([p_i])[0]
    amps = _check_amps(amps, 2)
    ops = (pauli_string("I" * n), pauli_string("I" * i + "X" + "I" * (n - i - 1)))
    return VacuumExtendedChannel(ops, amps, scales)


def unitary_channel(u: np.ndarray) -> VacuumExtendedChannel:
    """Single-Kraus channel from a unitary; its vacuum amplitude is 1."""
    u = np.asarray(u, dtype=complex)
    if not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= CPTP_TOL:  # NaN fails
        raise NotUnitaryError("operator is not unitary")
    return VacuumExtendedChannel((u,), np.array([1.0 + 0j]))
