"""Vacuum-extended quantum channels.

A channel is a CPTP Kraus set plus one vacuum amplitude per Kraus operator.
The amplitudes fix how the Kraus branches interfere when the channel is
placed in a spatial superposition; they satisfy sum |alpha_k|^2 = 1.

Every channel stores each Kraus operator as a unit operator and one real
scale. The named constructors share unit operators, the cached Pauli
strings of ``pauli_string``, which form only the columns asked of them,
and each is the one-row call of a table function of the scales over
noise values (``depolarizing_scales``, ``pauli_scales``, ``bitflip_scales``),
so a sweep takes a table of scales with no channel per point.
``kraus_columns``, the one reader of that format, scales only the unit
columns a computation reaches; the dense ``kraus`` is formed on first use.
Each multiplies each entry once, scale times unit entry, bitwise alike.

Pauli channels keep a fixed length-4 amplitude vector indexed by
``PAULI_INDEX`` = (I, X, Y, Z) even when some weights vanish, so amplitude
vectors keep their shape across parameter sweeps. Zero-weight slots must
carry zero amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import LinksimError

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": np.eye(2, dtype=complex), "X": X, "Y": Y, "Z": Z}
#: index 0,1,2,3 -> I, X, Y, Z; fixed global convention for weight and
#: amplitude vectors of Pauli channels.
PAULI_INDEX = ("I", "X", "Y", "Z")

CPTP_TOL = 1e-10
AMP_TOL = 1e-12

#: distinct Pauli strings, and column gathers, kept by ``pauli_string``
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


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Paulis, leftmost letter first, held as its letters
    and ``shape``: unitary by construction, with no 2^n x 2^n array. Its
    columns ``op[:, cols]`` are kept (``_pauli_columns``); ``np.asarray(op)``,
    the dense operator, is formed on each request."""

    spec: str

    def __post_init__(self):
        if not self.spec or not set(self.spec) <= PAULI.keys():
            raise BadLetterError(f"bad Pauli string {self.spec!r}")
        object.__setattr__(self, "shape", (2 ** len(self.spec),) * 2)

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key[0], slice) and key[0] == slice(None)):
            raise IndexError("a Pauli string gives whole columns: op[:, cols]")
        return _pauli_columns(self.spec, tuple(np.ravel(key[1]).tolist()))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(_pauli_columns.__wrapped__(self.spec, range(self.shape[1])), dtype)


@lru_cache(maxsize=PAULI_CACHE_SIZE)
def _pauli_columns(spec: str, cols: tuple) -> np.ndarray:
    """Columns ``cols`` of the string ``spec``, kept, as a sweep gathers the
    same ones at every stack: one column of each letter multiplied in
    ``np.kron``'s left fold, bitwise the product's, signed zeros included."""
    cols = np.arange(2 ** len(spec))[list(cols)]
    bits = cols >> np.arange(len(spec) - 1, -1, -1)[:, None] & 1
    out = PAULI[spec[0]][:, bits[0]]
    for letter, b in zip(spec[1:], bits[1:]):
        out = (out[:, None] * PAULI[letter][:, b]).reshape(-1, len(cols))
    out.flags.writeable = False
    return out


#: the shared ``PauliString`` of each spec; "IXI" flips qubit 1 of 3
pauli_string = lru_cache(maxsize=PAULI_CACHE_SIZE)(PauliString)


@dataclass(frozen=True)
class VacuumExtendedChannel:
    """Kraus operators paired with their vacuum amplitudes.

    Kraus operator k is ``scales[k] * ops[k]``: the named constructors pass
    shared Pauli strings and real scales, and ``VacuumExtendedChannel(kraus,
    amps)`` takes the Kraus operators themselves and stores scales of one.

    The dataclass itself performs only shape checks; the named
    constructors below always produce validated channels.
    """

    ops: tuple[np.ndarray | PauliString, ...]
    vacuum_amplitudes: np.ndarray
    scales: np.ndarray | None = None  # None stores ones

    def __post_init__(self):
        ops = tuple(k if isinstance(k, PauliString) else np.asarray(k, dtype=complex)
                    for k in self.ops)
        amps = np.asarray(self.vacuum_amplitudes, dtype=complex)
        scales = np.ones(len(ops)) if self.scales is None else np.asarray(
            self.scales, dtype=float)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "vacuum_amplitudes", amps)
        object.__setattr__(self, "scales", scales)
        if len(ops) != len(amps):
            raise ChannelError(f"{len(ops)} Kraus operators but {len(amps)} vacuum amplitudes")
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
        return tuple(s * np.asarray(op) for s, op in zip(self.scales, self.ops))


def scale_row(channels) -> np.ndarray:
    """The scales of every Kraus operator of ``channels``, channel after
    channel: one row of ``kraus_columns``' table."""
    return np.concatenate([c.scales for c in channels])


def kraus_columns(channels, scales, cols) -> tuple[np.ndarray, np.ndarray]:
    """``(reach, columns)``: columns ``cols`` of every Kraus operator of
    ``channels`` at each row of the (P, K) table ``scales`` (K over every
    channel's operators in channel order; a row is ``scale_row``), shaped
    (P, K, len(reach), len(cols)), on the sorted rows ``reach`` any unit
    operator reaches from them; every other row is zero. The unit columns,
    ``op[:, cols]`` of a dense operator or a Pauli string, are gathered
    once, and each entry is the product scale * unit entry ``kraus`` holds,
    ``scales[:, :, None, None] * units``. With ``scales`` None the unit
    columns themselves are returned, (K, len(reach), len(cols)), for a
    caller that scales them per table."""
    units = np.array([op[:, cols] for c in channels for op in c.ops])
    # one axis at a time: numpy reduces a tuple of axes several times slower
    reach = units.any(axis=0).any(axis=1).nonzero()[0]
    units = units.take(reach, 1)
    return reach, units if scales is None else scales[:, :, None, None] * units


def _check_amps(amps, length: int, used_slots=None) -> np.ndarray:
    """``amps`` as a complex vector of ``length`` entries with unit norm
    and, if ``used_slots`` is given, zeros in every other Pauli slot (the
    structurally empty ones of the channel type)."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (length,):
        raise BadNormalizationError(f"expected {length} vacuum amplitudes")
    if not abs(np.sum(np.abs(amps) ** 2) - 1.0) <= AMP_TOL:  # NaN fails
        raise BadNormalizationError("vacuum amplitudes must have unit norm")
    if used_slots is not None:
        used = set(used_slots)  # `in` on an index array is a numpy comparison
        empty = [k for k, a in enumerate(amps.tolist()) if a and k not in used]
        if empty:
            raise BadNormalizationError(
                f"structurally empty Pauli slot {PAULI_INDEX[empty[0]]} "
                f"carries amplitude {amps[empty[0]]}")
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
    amps = _check_amps(amps, 4, used_slots)
    for k, w in enumerate(weights):
        if k not in used_slots and w != 0.0:
            raise BadNormalizationError(
                f"structurally empty Pauli slot {PAULI_INDEX[k]} carries weight {w}")
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


def unitary_channel(u) -> VacuumExtendedChannel:
    """Single-Kraus channel from a unitary; its vacuum amplitude is 1."""
    if not isinstance(u, PauliString):  # unitary by construction
        u = np.asarray(u, dtype=complex)
        square = u.ndim == 2 and u.shape[0] == u.shape[1] > 0
        if not (square and np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= CPTP_TOL):  # NaN fails
            raise NotUnitaryError("operator is not unitary")
    return VacuumExtendedChannel((u,), np.array([1.0 + 0j]))
