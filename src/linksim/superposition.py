"""Coherent spatial superposition of vacuum-extended channels.

N channels sit on N branches labelled by a control qudit. For each
multi-index (i_0, ..., i_{N-1}) over Kraus choices, the joint operator on
target (x) control is

    S_i = sum_l [prod_{k != l} a^{(k)}_{i_k}] E^{(l)}_{i_l} (x) |l><l|,

i.e. branch l applies channel l's Kraus operator weighted by the vacuum
amplitudes of every channel that is *not* traversed. For N = 2 this is the
familiar  b_j F_i (x) |0><0| + a_i N_j (x) |1><1|  construction. The joint
state sum_i S_i (rho_t (x) rho_c) S_i^dag is trace one, and measuring the
control on 1 to N orthonormal vectors (the outcomes) projects the target.

``run_stack`` is the one evaluation core: it evolves and measures one
scenario at every row of a table of Kraus scales, such as the points of
one sweep, together, and returns arrays: the probabilities, the live
outcomes and their post blocks. ``apply``, ``measure_control`` and
``run`` are its one-point calls, and only they hold a state in a
``DensityMatrix``. A noise point changes only the scales: the unit
operators, vacuum amplitudes, input, control and basis are the
scenario's, and what they fix is its plan (``_Plan``), formed on its
first stack and read by every later one. It forms rho_t (x) rho_c only on
its support, which is a few rows for the paper's pure product inputs, and
builds only the columns of each S_i that meet it. ``channels.kraus_columns``
gathers their unit columns once per scenario, and each stack scales only
them, per row of the table, so no 2^n x 2^n operator is formed per noise
point, and each scaled entry is the one product the dense operator holds.
The measurement places each joint state on the target rows and columns it
reaches, the columns padded to at least two, and contracts them for every
point and outcome in one einsum. Each step keeps the order of every sum
that the whole-matrix computation of one point uses, so neither the
restriction nor the stacking changes an output bit. ``global_kraus``
builds the dense operators literally from the formula and serves as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np

from .channels import VacuumExtendedChannel, kraus_columns, scale_row
from .linalg import DensityMatrix, DimMismatchError, LinksimError, check_densities

#: target dim x control dim beyond which we refuse to build joint operators
JOINT_DIM_CAP = 4096

#: outcomes below this probability are flagged as zero-probability
ZERO_PROB = 1e-12

#: the bytes of the zero-filled diagonals ``_measure`` sums at once: 16
#: points of an n = 8 GHZ stack, 2 at n = 11
_DIAG_BYTES = 2**16


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


def _checked_basis(basis, n: int) -> tuple[np.ndarray, ...]:
    """``basis`` as complex vectors, if it is 1 to n orthonormal vectors of
    length n: the measured control outcomes, outcome k being vector k."""
    basis = tuple(np.asarray(b, dtype=complex) for b in basis)
    if not 1 <= len(basis) <= n or any(b.shape != (n,) for b in basis):
        raise DimMismatchError(f"a control of dimension {n} needs 1 to {n} "
                               f"basis vectors of length {n}")
    b = np.array(basis)
    if not np.max(np.abs(b.conj() @ b.T - np.eye(len(b)))) <= 1e-10:  # NaN fails
        raise SuperpositionError("measurement basis is not orthonormal")
    return basis


@dataclass(frozen=True)
class SuperpositionScenario:
    """One experiment: channels, target input, control, measured outcomes."""

    channels: tuple[VacuumExtendedChannel, ...]
    input: DensityMatrix
    control: ControlState
    measurement_basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) < 2:
            raise SuperpositionError("need at least two channels to superpose")
        d = channels[0].dim
        if any(c.dim != d for c in channels):
            raise DimMismatchError("channels act on different target dimensions")
        if self.input.dim != d:
            raise DimMismatchError("input state does not match channel dimension")
        n = len(channels)
        if self.control.dim != n:
            raise DimMismatchError(f"{n} channels need a control of dimension {n}")
        object.__setattr__(self, "measurement_basis",
                           _checked_basis(self.measurement_basis, n))
        if d * n > JOINT_DIM_CAP:
            raise SuperpositionError(
                f"joint dimension {d * n} exceeds cap {JOINT_DIM_CAP}"
            )

    @cached_property
    def _plan(self) -> _Plan:
        """What ``run_stack`` reads at any scales, formed on first use and
        kept (``_Plan``)."""
        n = self.control.dim
        sup, joint_in = _joint_input(self)
        idx, coeff = _multi_indices(self.channels)
        start = np.cumsum([0] + [len(c.ops) for c in self.channels])[:-1]
        reach, units = kraus_columns(self.channels, None, sup // n)
        plan = _Plan(sup, joint_in, idx + start[:, None], coeff, reach, units,
                     np.array(self.measurement_basis))
        for array in plan:
            array.setflags(write=False)
        return plan


@dataclass(frozen=True)
class MeasurementOutcome:
    """Control outcome with the normalized post-measurement target state.

    ``post_state`` is None for zero-probability outcomes; such outcomes are
    excluded from any fidelity aggregation.
    """

    outcome_index: int
    probability: float
    post_state: DensityMatrix | None


def _multi_indices(channels):
    """``(idx, coeff)``: the multi-indices i whose coefficients
    coeff_l(i) = prod_{k != l} a^(k)_{i_k} do not all vanish, (n, M) in
    lexicographic order, and those coefficients, (n, M). They depend only
    on the vacuum amplitudes."""
    n = len(channels)
    idx = np.indices([len(c.ops) for c in channels]).reshape(n, -1)
    amps = [c.vacuum_amplitudes[i] for c, i in zip(channels, idx)]
    coeff = np.array([prod(amps[k] for k in range(n) if k != l) for l in range(n)])
    keep = coeff.any(axis=0).nonzero()[0]
    return idx.take(keep, 1), coeff.take(keep, 1)


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


def _joint_input(scenario):
    """``(sup, joint_in)``: the support ``sup`` of the joint input J =
    rho (x) |c><c|, ascending, and J[sup, sup]."""
    rho, c = scenario.input, scenario.control.amplitudes
    n = len(c)
    # row t*n + l of J is non-zero exactly when row t of rho and c_l are;
    # ``pick``, the block rows of rho's non-zero rows in ascending order
    pick = rho.block.any(axis=1).nonzero()[0]
    pick = pick[np.argsort(rho.support[pick])]
    rho_sup, c_sup = rho.support[pick], c.nonzero()[0]
    sup = (rho_sup[:, None] * n + c_sup).ravel()
    # J[sup, sup] as one broadcast product of the sub-blocks, entry by entry
    # the product kron(rho, |c><c|) would form
    c = c[c_sup]
    joint_in = (rho.block.take(pick, 0).take(pick, 1)[:, None, :, None]
                * (c[:, None] * c.conj())[:, None, :])
    return sup, joint_in.reshape(len(sup), len(sup))


class _Plan(NamedTuple):
    """What every stack of one scenario shares, at any scales. Every array
    is read-only.

    - ``sup``, the support of the joint input, and ``joint_in`` on it
      (``_joint_input``);
    - ``at``, the kept multi-indices of ``_multi_indices`` as positions
      in a scale row (i_l plus the number of Kraus operators before
      channel l), (n, M), and their coefficients ``coeff``, (n, M);
    - ``reach``, the sorted target rows the unit columns at ``sup``
      reach, and ``units``, those unit columns on them, (K, len(reach),
      len(sup)), from ``kraus_columns``;
    - ``basis``, the measured vectors, (B, n).
    """

    sup: np.ndarray
    joint_in: np.ndarray
    at: np.ndarray
    coeff: np.ndarray
    reach: np.ndarray
    units: np.ndarray
    basis: np.ndarray


def _joint_columns(plan: _Plan, scales):
    """The columns ``plan.sup`` of the joint Kraus operators S_i whose
    coefficients do not all vanish, at every row of the (P, K) table
    ``scales`` of Kraus scales (see ``kraus_columns``), on the joint rows
    that any row reaches.

    Returns ``(local, cols)``: ``local``, the sorted kept positions in the
    (len(reach), n) grid of joint rows reach[r] * n + l; and an array of
    shape (P, M, len(local), len(sup)), one slice per row and kept
    multi-index, in the lexicographic order of ``global_kraus``.

    Column t*n + l of S_i is coeff_l(i) K^(l)_{i_l}[:, t] at rows l::n,
    with coeff_l(i) = prod_{k != l} a^(k)_{i_k}. The plan's unit columns
    are scaled per row as ``kraus_columns`` scales them, with no sum
    reordered, so the result is bitwise the gather from ``channel.kraus``,
    which is never built here.
    """
    n = len(plan.coeff)
    on = [(plan.sup % n == l).nonzero()[0] for l in range(n)]
    # branch l fills only its own columns, coeff_l(i) times the scaled unit
    # columns of K^(l)_{i_l}, on every reached target row
    parts = [np.multiply(plan.coeff[l, :, None, None],
                         scales.take(plan.at[l], 1)[:, :, None, None]
                         * plan.units.take(plan.at[l], 0).take(on[l], 2))
             for l in range(n)]
    # target (x) control with control as the rightmost factor: joint row
    # r*n + l is kept if branch l reaches target row r at any row of the
    # table; reduced one axis at a time, as in kraus_columns
    hit = np.array([part.any(axis=0).any(axis=0).any(axis=1) for part in parts])
    local = hit.T.ravel().nonzero()[0]
    r, branch = np.divmod(local, n)
    out = np.zeros((len(scales), plan.at.shape[1], len(local), len(plan.sup)),
                   dtype=complex)
    for l, part in enumerate(parts):
        mine = (branch == l).nonzero()[0]
        out[:, :, mine[:, None], on[l]] = part.take(r[mine], 2)
    return local, out


def stack_row_bytes(scenario) -> int:
    """The bytes of ``run_stack``'s largest arrays per row of its table,
    read from the scenario's plan, all complex. ``_joint_columns`` holds
    every branch's part, M kept multi-indices by len(reach) target rows by
    the input support columns it fills (S over all branches), and the
    kept joint rows, M by at most len(reach) * n by S. ``_measure`` places
    the joints on their reached rows and columns, len(reach) * n by
    max(2, len(reach)) * n. The reached rows are the unit operators', at
    any scales; the d-length diagonals that ``_measure`` sums are held a
    slice of points at a time (``_DIAG_BYTES``), whatever the stack's
    size."""
    plan = scenario._plan
    n, m = plan.coeff.shape
    r, s = len(plan.reach), len(plan.sup)
    return 16 * r * (m * s * (n + 1) + n * max(2, r) * n)


def _joint_blocks(plan: _Plan, scales):
    """The joint states of the plan's scenario at every row of the table
    ``scales``, on the joint rows any row reaches: ``(local, blocks)``,
    with ``local`` as ``_joint_columns`` returns it and blocks of shape
    (P, len(local), len(local)), symmetrized, unchecked.

    Only the columns of each S_i on the support ``sup`` of the input J are
    built: sum_i S_i J S_i^dag = sum_i S_i[:, sup] J[sup, sup] S_i[:, sup]^dag.
    """
    local, cols = _joint_columns(plan, scales)
    blocks = np.zeros((len(scales), len(local), len(local)), dtype=complex)
    term = np.empty_like(blocks)
    # one term at a time, in multi-index order, for every point at once:
    # fusing the sum into one product would reorder it and change the
    # rounding of the output. Each term forms its own S_i J and S_i^dag,
    # the same products on the same slices as whole stacks of them would
    for col in cols.swapaxes(0, 1):
        blocks += np.matmul(col @ plan.joint_in, col.conj().swapaxes(-1, -2), out=term)
    # symmetrize away accumulated rounding before the invariant checks
    return local, (blocks + blocks.conj().swapaxes(-1, -2)) / 2.0


def _measure(blocks, local, reach, d, basis):
    """The control measurement of each joint state of the stack ``blocks``
    (P, L, L), held on the positions ``local`` of the (len(reach), n) grid
    of joint rows reach[r] * n + l. Returns ``(probs, live, posts)``: the
    (P, B) outcome probabilities, the (P, B) mask of those not below
    ``ZERO_PROB``, and the normalized post blocks of the live outcomes on
    the target rows ``reach``, (m, r, r) in point-major, then outcome
    order, unchecked.

    Each joint is placed on its reached rows and reached columns, r of
    each, the columns padded with zeros to at least two: each sum over
    the control indices then rounds as on the whole joint, where every
    one of the d columns is kept (with a single column the iterator fuses
    those two sums into one loop, which adds in another order). Each
    probability is summed over the length-d diagonal with zeros in place,
    so it rounds as the d x d trace. The post blocks are normalized
    together, so no d x d matrix is formed.
    """
    p, r, n = len(blocks), len(reach), basis.shape[1]
    t = np.zeros((p, r * n, max(2, r) * n), dtype=complex)
    t[:, local[:, None], local] = blocks
    t = t.reshape(p, r, n, -1, n)
    blocks = np.einsum("bk,pikjl,bl->pbij", basis.conj(), t, basis)[..., :r]
    # the diagonals in slices of points, so that they hold at most
    # _DIAG_BYTES whatever the stack's size
    size = max(1, _DIAG_BYTES // (16 * d * len(basis)))
    diag = np.zeros((min(p, size), len(basis), d), dtype=complex)
    probs = np.empty((p, len(basis)))
    for at in range(0, p, size):
        part = blocks[at:at + size]
        diag[:len(part), :, reach] = part.diagonal(axis1=2, axis2=3)
        probs[at:at + size] = diag[:len(part)].sum(axis=-1).real
    live = ~(probs < ZERO_PROB)  # a NaN stays, and fails the check
    posts = blocks[live]
    posts = (posts + posts.conj().swapaxes(-1, -2)) / (2.0 * probs[live])[:, None, None]
    return probs, live, posts


def _outcome_lists(dims, support, probs, live, posts) -> list[list[MeasurementOutcome]]:
    """One outcome list per point of a measured stack, as ``run_stack``
    returns it: each live outcome's post state is
    ``DensityMatrix(dims, block, support)``, so each is checked on its
    own; the others carry none."""
    states = iter(posts)
    return [[MeasurementOutcome(k, p, DensityMatrix(dims, next(states), support))
             if alive else MeasurementOutcome(k, 0.0, None)
             for k, (p, alive) in enumerate(zip(point_probs, point_live))]
            for point_probs, point_live in zip(probs.tolist(), live.tolist())]


def run_stack(scenario: SuperpositionScenario, scales) -> tuple[np.ndarray, ...]:
    """The control measurement of ``scenario`` at every row of the (P, K)
    table ``scales`` of Kraus scales, K running over every channel's
    operators in channel order (a row is ``channels.scale_row``; a sweep's
    stack is ``scenarios._scale_table``), computed as one stack. The
    scales the scenario's channels hold are not read, and what does not
    depend on them comes from the scenario's plan, formed on its first
    stack and shared by every later one.

    Returns ``(support, probs, live, posts)``: the read-only target rows
    the post states are held on, and ``_measure``'s arrays. The joint
    states are evolved together (``_joint_blocks``) and checked as one
    stack, then measured together on the target rows and columns any of
    them reaches. Outcome k has probability Tr[(I (x) |b_k><b_k|) rho];
    outcomes below ``ZERO_PROB`` carry no post block, and the normalized
    target blocks of all others are checked as one stack. Each output is
    bitwise that of its row evaluated alone.
    """
    k = sum(len(c.ops) for c in scenario.channels)
    try:
        scales = np.asarray(scales)
    except ValueError as exc:  # ragged rows
        raise SuperpositionError(f"scale table is not an array: {exc}") from None
    if (scales.dtype.kind not in "fiu" or scales.ndim != 2 or not len(scales)
            or scales.shape[1] != k):
        raise SuperpositionError(f"scale table of {scales.dtype} and shape "
                                 f"{scales.shape}, expected real (P, {k}), P >= 1")
    plan = scenario._plan
    local, blocks = _joint_blocks(plan, scales)
    check_densities(blocks)
    probs, live, posts = _measure(blocks, local, plan.reach, scenario.input.dim,
                                  plan.basis)
    check_densities(posts)
    return plan.reach, probs, live, posts


def apply(scenario: SuperpositionScenario) -> DensityMatrix:
    """Evolve rho_t (x) rho_c under the superposed channels: the joint
    state of ``run_stack``'s evolution for this one scenario, held on the
    rows it reaches. No command calls
    it; it stays because ``perfbench/tracer.py`` wraps it by name and
    ``tests/test_tracer_names.py`` requires it."""
    plan = scenario._plan
    local, blocks = _joint_blocks(plan, scale_row(scenario.channels)[None])
    n = scenario.control.dim
    dims = scenario.input.dims + (n,)
    return DensityMatrix(dims, blocks[0], plan.reach[local // n] * n + local % n)


def measure_control(joint: DensityMatrix, basis) -> list[MeasurementOutcome]:
    """Projective control measurement in the given orthonormal basis:
    ``run_stack``'s measurement of this one joint state, on the target rows
    where it has a non-zero entry and on the same columns.

    ``basis`` is held to the scenario's rule: 1 to n orthonormal vectors
    of length n, n the dimension of the last subsystem. Outcome k has
    probability Tr[(I (x) |b_k><b_k|) rho]; its post state is the
    normalized target state after projecting the control onto |b_k>.
    No command calls it; it stays because ``perfbench/tracer.py`` wraps it
    by name and ``tests/test_tracer_names.py`` requires it.
    """
    n = joint.dims[-1]
    basis = np.array(_checked_basis(basis, n))
    target, branch = np.divmod(joint.support, n)
    reach = np.unique(target[joint.block.any(axis=1)])
    # the block's rows and columns on the reached target rows; an entry
    # in another column is read by no output
    keep = np.isin(target, reach).nonzero()[0]
    local = np.searchsorted(reach, target[keep]) * n + branch[keep]
    block = joint.block.take(keep, 0).take(keep, 1)
    return _outcome_lists(joint.dims[:-1], reach, *_measure(
        block[None], local, reach, joint.dim // n, basis))[0]


def run(scenario: SuperpositionScenario) -> list[MeasurementOutcome]:
    """Evolution and control measurement of one scenario: ``run_stack``
    on its own scales, as outcome objects."""
    return _outcome_lists(scenario.input.dims,
                          *run_stack(scenario, scale_row(scenario.channels)[None]))[0]
