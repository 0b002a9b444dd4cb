"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Everything here operates on plain ``numpy`` arrays of complex128. Density
matrices carry their subsystem structure in a thin immutable wrapper so
partial traces and measurements know how to reshape.

Subsystem 0 is the leftmost tensor factor throughout (row-major ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-8


class LinksimError(Exception):
    """Base class for every error the linksim library raises."""


class LinalgError(LinksimError):
    """Base class for numerical-layer failures."""


class NonHermitianError(LinalgError):
    pass


class NegativeEigenvalueError(LinalgError):
    pass


class BadIndexError(LinalgError):
    pass


class DimMismatchError(LinalgError):
    pass


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest |m - m^dag| entry, over every matrix of a stack (..., d, d);
    0 for an empty stack, NaN if any entry is NaN."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))


def eig_hermitian(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., d, d).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    descending; column ``k`` of the eigenvector matrix pairs with eigenvalue
    ``k``. Raises if any matrix of the stack is not Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(m)
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix, or
    of each matrix of a stack (..., d, d); raises if any has a negative
    eigenvalue."""
    vals, vecs = eig_hermitian(m)
    lowest = vals[..., -1].min()
    if lowest < -PSD_TOL:
        raise NegativeEigenvalueError(f"matrix has negative eigenvalue {lowest:.3e}")
    # what np.clip(vals, 0.0, None) computes, without its Python wrapper
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def check_densities(mats: np.ndarray) -> None:
    """Raise unless every matrix of the stack ``mats`` (..., d, d) passes the
    density checks, to ``DensityMatrix``'s tolerances.

    In order: the Hermiticity defect is at most ``HERM_TOL``; each trace is
    within ``TRACE_TOL`` of 1; the lowest eigenvalue is at least
    ``-EIG_TOL``. A stack with one bad matrix raises the class that matrix
    raises alone. Each test is written so that a NaN fails it, wherever it
    sits in the stack.
    """
    if not hermiticity_defect(mats) <= DensityMatrix.HERM_TOL:
        raise NonHermitianError("density matrix is not Hermitian")
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    # ``all`` over .flat: a numpy reduction would cost a single matrix, the
    # most frequent check, about 0.5 us more each
    off = abs(traces - 1.0)
    if not all(x <= DensityMatrix.TRACE_TOL for x in off.flat):
        raise LinalgError(f"trace {np.ravel(traces)[np.argmax(off)].item()!r} != 1")
    # eigenvalues come back ascending
    lowest = np.linalg.eigvalsh(mats)[..., 0]
    if not all(x >= -DensityMatrix.EIG_TOL for x in lowest.flat):
        raise NegativeEigenvalueError("density matrix is not PSD")


def _normalized(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm, which must be finite and non-zero."""
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < np.inf:  # NaN fails
        raise LinalgError(f"cannot normalize a state vector of norm {norm!r}")
    return v / norm


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix together with its ordered subsystem dimensions, held
    on its support: ``block`` is the matrix on the rows and columns
    ``support`` (distinct indices into the ``dim``-square matrix), and every
    other entry is zero. Both are read-only.

    ``DensityMatrix(dims, mat)`` holds the whole matrix as the block, on
    every row; ``DensityMatrix(dims, block, support)`` holds ``block`` on
    ``support`` and allocates nothing of length ``dim``. Either way the
    block is checked with ``check_densities``: every entry off the block
    is a zero, so the block's checks are the whole matrix's. The
    constructor is the one way to build a state, so every state is
    checked. ``mat`` forms the whole matrix on its first request.
    """

    dims: tuple[int, ...]
    block: np.ndarray
    support: np.ndarray | None = None

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-12
    EIG_TOL = 1e-10

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        dim = prod(dims)
        block, support = np.asarray(self.block), self.support
        if support is None:
            if block.shape != (dim, dim):
                raise DimMismatchError(
                    f"matrix shape {block.shape} does not match dims {dims}")
            support = np.arange(dim)
        else:
            support = np.asarray(support)
            if support.ndim != 1 or block.shape != (len(support),) * 2:
                raise DimMismatchError(
                    f"block {block.shape} on support of shape {support.shape}")
            rows = support.tolist()
            if rows and (support.dtype.kind not in "iu" or min(rows) < 0
                         or max(rows) >= dim or len(set(rows)) < len(rows)):
                raise BadIndexError(
                    f"support {rows} is not distinct rows in 0..{dim - 1}")
        # a read-only support is held as given, any other one copied
        if support.dtype != np.intp or support.flags.writeable:
            support = support.astype(np.intp)
            support.setflags(write=False)
        block = np.array(block, dtype=complex)
        block.setflags(write=False)
        check_densities(block)
        self.__dict__.update(dims=dims, block=block, support=support)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def mat(self) -> np.ndarray:
        """The whole matrix, the block placed into zeros: formed on the
        first request and kept, read-only."""
        if "_mat" not in self.__dict__:
            mat = np.zeros((self.dim,) * 2, dtype=complex)
            mat[self.support[:, None], self.support] = self.block
            mat.setflags(write=False)
            object.__setattr__(self, "_mat", mat)
        return self._mat

    @classmethod
    def pure(cls, dims, vector: np.ndarray) -> "DensityMatrix":
        """Density matrix of a state vector, normalized here."""
        v = np.asarray(vector, dtype=complex)
        if v.shape != (prod(dims),):
            raise DimMismatchError(f"vector {v.shape} does not match dims {dims}")
        v = _normalized(v)
        support = v.nonzero()[0]
        return cls(dims, np.outer(v[support], v[support].conj()), support)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    The kept subsystems stay in their original order. Tracing out all
    subsystems yields a 1x1 matrix equal to the trace. The metrics call
    ``stack_partial_traces``; this one stays because ``perfbench/tracer.py``
    wraps it by name and ``tests/test_tracer_names.py`` requires it.
    """
    mat = stack_partial_traces(rho.dims, rho.support, rho.block[None], [keep])[0, 0]
    kept = sorted({int(k) for k in keep})
    return DensityMatrix(tuple(rho.dims[k] for k in kept), mat)


#: the most gathered entries ``stack_partial_traces`` holds at once, unless
#: one state needs more. Every state of a figure sweep's chunk but the
#: n = 4 grid's pair reductions (10 states of 384 entries to a gather)
#: fits one gather, while an n = 8 GHZ state's reductions (28,672 entries
#: for its pairs, 4,096 for its qubits) are gathered one state at a time.
#: The records of an 11-point n = 8 GHZ sweep read a tracemalloc peak of
#: 0.88 MB so, 5.37 MB with the whole chunk in one gather and 0.97 MB when
#: each state was reduced alone; a 32-point n = 10 sweep read 4.83, 96.3
#: and 6.10 MB. At 2^14, four n = 8 states to a qubit gather, the peak
#: RSS of 2600 in-process passes of the benchmark's ghz8 workload read
#: 0.5 to 0.6 MB above one state at a time (x86-64, Python 3.11, numpy
#: 2.4).
_GATHER_ENTRIES = 2**12


def stack_partial_traces(dims, support, blocks: np.ndarray, keeps) -> np.ndarray:
    """The reductions to each ``keep`` in ``keeps`` of every state of a
    stack that shares ``dims`` and ``support`` (as ``DensityMatrix`` holds
    them), given as its blocks ``(P, s, s)``; stacked ``(P, len(keeps), d,
    d)``.

    Every ``keep`` must leave the same kept and traced dimensions (for
    qubits: the same number of subsystems). The entries the reductions sum
    over, ``rho[(a, t), (b, t)]`` for each traced multi-index ``t``, are
    taken with one gather into a ``(T, len(keeps), d, d, states)`` array
    whose leading digit is the highest traced subsystem; the sums are then
    formed by adding the slices of the leading digit in order, one digit at
    a time (for qubits, ``x[:h] += x[h:]`` until one slice is left). For a
    qubit, ``np.trace`` over one axis pair is the single addition
    ``x0 + x1``, and tracing the dropped subsystems out one by one from the
    highest index down performs the same additions in the same order, so
    every entry is bitwise that loop's, signed zeros included. The gather
    reads each block padded with a zero row and column, so an entry off the
    support is the zero ``mat`` holds there, and ``mat`` is never formed.
    States are gathered together, as many at a time as keep the gather
    within ``_GATHER_ENTRIES`` entries (at least one state), and the
    additions are elementwise, so each state's reductions are bitwise those
    it has alone. The whole stack is checked once with ``check_densities``.
    """
    n = len(dims)
    keeps = tuple(map(tuple, keeps))
    for keep in keeps:
        if keep and (min(keep) < 0 or max(keep) >= n):
            raise BadIndexError(f"keep={list(keep)} outside subsystems 0..{n - 1}")
    index, traced_dims = _reduction_index(tuple(dims), tuple(support.tolist()),
                                          keeps)
    p, s = len(blocks), len(support)
    # the states on the last axis: the gather copies one row of states per
    # entry, and each digit's slices are whole contiguous blocks
    padded = np.zeros((s + 1, s + 1, p), dtype=complex)
    padded[:s, :s] = np.moveaxis(blocks, 0, -1)
    padded = padded.reshape(-1, p)
    out = np.empty((p,) + index.shape[1:], dtype=complex)
    step = max(1, _GATHER_ENTRIES // index.size)
    for start in range(0, p, step):
        # one statement, so no name holds the last slice's gather
        out[start:start + step] = np.moveaxis(_traced_sums(
            padded[:, start:start + step].take(index, axis=0), traced_dims), -1, 0)
    check_densities(out)
    return out


def _traced_sums(x: np.ndarray, traced_dims) -> np.ndarray:
    """The sums of a gather ``x`` (T, ...) over its leading axis, whose
    digits run over ``traced_dims`` from the most significant: each
    digit's slices are added in order into its first slice, which the
    gather owns, so nothing more of the gather's size is allocated."""
    for dt in traced_dims:
        x = x.reshape((dt, -1) + x.shape[1:])
        for j in range(1, dt):
            np.add(x[0], x[j], out=x[0])
        x = x[0]
    return x[0]


# bounded like ``channels.pauli_string``: one entry per (dims, support,
# keeps) in use; a sweep's post states share one support
@lru_cache(maxsize=32)
def _reduction_index(dims: tuple[int, ...], support: tuple[int, ...],
                     keeps: tuple[tuple, ...]):
    """The flat indices, into the block of a state on ``support`` padded
    with a zero row and column, of the entries each reduction sums over,
    shape ``(T, len(keeps), d, d)``; also the traced dimensions, highest
    subsystem first, which are the digits of the leading axis from the
    most significant.

    Entry ``[t, k, a, b]`` is ``mat[t + a', t + b']``, with ``t`` the
    offset of the traced multi-index and ``a'``, ``b'`` those of the kept
    ones, mapped to its place in the block, or to the pad zero when its row
    or column is off the support."""
    n = len(dims)
    keeps = [sorted({int(k) for k in keep}) for keep in keeps]
    drops = [[q for q in reversed(range(n)) if q not in keep] for keep in keeps]
    layouts = {(tuple(dims[q] for q in keep), tuple(dims[q] for q in drop))
               for keep, drop in zip(keeps, drops)}
    if len(layouts) != 1:
        raise DimMismatchError(
            "reductions taken together need one layout of kept and traced dims")
    ((kept_dims, traced_dims),) = layouts
    strides = np.array([prod(dims[q + 1:]) for q in range(n)], dtype=np.intp)

    def offsets(subsystems, sub_dims):
        # (len(keeps), prod(sub_dims)) flat offsets of every multi-index over
        # the listed subsystems, the first listed as the leading digit
        digits = np.indices(sub_dims, dtype=np.intp).reshape(len(sub_dims),
                                                             prod(sub_dims))
        at = np.array(subsystems, dtype=np.intp).reshape(len(keeps), len(sub_dims))
        return strides[at] @ digits

    # (T, len(keeps), d): the row of mat of each traced and kept multi-index
    # C-contiguous, so the index formed from it is: ``take`` copies any
    # other index before every gather
    rows = np.ascontiguousarray(offsets(drops, traced_dims).T)[:, :, None] \
        + offsets(keeps, kept_dims)
    at = np.full(prod(dims), len(support), dtype=np.intp)
    at[list(support)] = np.arange(len(support))
    at = at[rows]
    # left writable: ``take`` copies a read-only index too
    return at[..., :, None] * (len(support) + 1) + at[..., None, :], traced_dims
