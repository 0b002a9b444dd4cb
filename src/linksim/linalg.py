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
    """Largest |m - m^dag| entry, over every matrix of a stack (..., d, d)."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


def eig_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., d, d).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    descending; column ``k`` of the eigenvector matrix pairs with eigenvalue
    ``k``. Raises if any matrix of the stack is not Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > tol:
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
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def check_densities(mats: np.ndarray, traces) -> None:
    """Raise unless every matrix of the stack ``mats`` (..., d, d) passes the
    density checks, to ``DensityMatrix``'s tolerances.

    In order: the Hermiticity defect is at most ``HERM_TOL``; each of
    ``traces`` (given, so a caller can check a block of a matrix against the
    whole matrix's trace) is within ``TRACE_TOL`` of 1; the lowest
    eigenvalue is at least ``-EIG_TOL``. A stack with one bad matrix raises
    the class that matrix raises alone. Each test is written so that a NaN
    fails it, wherever it sits in the stack.
    """
    if not hermiticity_defect(mats) <= DensityMatrix.HERM_TOL:
        raise NonHermitianError("density matrix is not Hermitian")
    # ``all`` over .flat: a numpy reduction would cost a single matrix, the
    # most frequent check, about 0.5 us more each
    off = abs(traces.real - 1.0)
    if not all(x <= DensityMatrix.TRACE_TOL for x in off.flat):
        worst = np.ravel(traces.real)[np.argmax(off)]
        raise LinalgError(f"trace {worst!r} != 1")
    # eigenvalues come back ascending
    lowest = np.linalg.eigvalsh(mats)[..., 0]
    if not all(x >= -DensityMatrix.EIG_TOL for x in lowest.flat):
        raise NegativeEigenvalueError("density matrix is not PSD")


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix together with its ordered subsystem dimensions.

    ``DensityMatrix(dims, mat)`` checks the whole matrix with
    ``check_densities``. ``DensityMatrix.from_block(dims, support, block)``
    builds a matrix that is zero outside the rows and columns ``support``
    and checks only ``block``.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-12
    EIG_TOL = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        if mat.shape != (self.dim, self.dim):
            raise DimMismatchError(
                f"matrix shape {mat.shape} does not match dims {self.dims}"
            )
        check_densities(mat, mat.trace())

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @classmethod
    def from_block(cls, dims, support, block: np.ndarray) -> "DensityMatrix":
        """The density matrix that is ``block`` on the rows and columns
        ``support`` (distinct indices) and zeros placed here elsewhere, so
        checking the block against the whole matrix's trace is exact."""
        block = np.asarray(block, dtype=complex)
        if block.shape != (len(support),) * 2:
            raise DimMismatchError(f"block {block.shape} on {len(support)} rows")
        support = np.asarray(support, dtype=np.intp)
        mat = np.zeros((prod(dims),) * 2, dtype=complex)
        mat[support[:, None], support] = block
        check_densities(block, mat.trace())
        # past __post_init__, whose whole-matrix check this one replaces
        rho = object.__new__(cls)
        rho.__dict__.update(dims=tuple(int(k) for k in dims), mat=mat)
        return rho

    @classmethod
    def pure(cls, dims, vector: np.ndarray) -> "DensityMatrix":
        """Density matrix of a (normalized) pure state vector."""
        v = np.asarray(vector, dtype=complex)
        if v.shape != (prod(dims),):
            raise DimMismatchError(f"vector {v.shape} does not match dims {dims}")
        v = v / np.linalg.norm(v)
        support = v.nonzero()[0]
        return cls.from_block(dims, support, np.outer(v[support], v[support].conj()))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    The kept subsystems stay in their original order. Tracing out all
    subsystems yields a 1x1 matrix equal to the trace.
    """
    mat = partial_traces(rho, [keep])[0]
    kept = sorted({int(k) for k in keep})
    return DensityMatrix(tuple(rho.dims[k] for k in kept), mat)


def partial_traces(rho: DensityMatrix, keeps) -> np.ndarray:
    """The reductions of ``rho`` to each ``keep`` in ``keeps``, stacked
    ``(len(keeps), d, d)``.

    Every ``keep`` must leave the same kept and traced dimensions (for
    qubits: the same number of subsystems). The entries the reductions sum
    over, ``rho[(a, t), (b, t)]`` for each traced multi-index ``t``, are
    taken with one gather into a ``(T, len(keeps), d, d)`` array whose
    leading digit is the highest traced subsystem; the sums are then formed
    by adding the slices of the leading digit in order, one digit at a
    time (for qubits, ``x[:h] + x[h:]`` until one slice is left). For a
    qubit, ``np.trace`` over one axis pair is the single addition
    ``x0 + x1``, and tracing the dropped subsystems out one by one from the
    highest index down performs the same additions in the same order, so
    every entry is bitwise that loop's, signed zeros included. The whole
    stack is checked once with ``check_densities``.
    """
    n = len(rho.dims)
    keeps = tuple(map(tuple, keeps))
    for keep in keeps:
        if keep and (min(keep) < 0 or max(keep) >= n):
            raise BadIndexError(f"keep={list(keep)} outside subsystems 0..{n - 1}")
    traced, kept, traced_dims = _reduction_offsets(rho.dims, keeps)
    x = rho.mat.take(traced + kept)
    for dt in traced_dims:
        x = x.reshape((dt, -1) + x.shape[1:])
        total = x[0]
        for j in range(1, dt):
            total = total + x[j]
        x = total
    out = x[0]
    check_densities(out, np.trace(out, axis1=1, axis2=2))
    return out


# bounded like ``channels.pauli_string``: one entry per (dims, keeps) in use
@lru_cache(maxsize=32)
def _reduction_offsets(dims: tuple[int, ...], keeps: tuple[tuple, ...]):
    """The two read-only parts of the flat indices, into the
    ``prod(dims)``-square matrix, of the entries each reduction sums over:
    ``traced + kept`` has shape ``(T, len(keeps), d, d)``, with ``traced``
    ``(T, len(keeps), 1, 1)`` and ``kept`` ``(len(keeps), d, d)``. Also the
    traced dimensions, highest subsystem first, which are the digits of the
    leading axis from the most significant. Only the parts are kept: the
    whole index is as large as the gather and would stay resident."""
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

    size = prod(dims)
    kept = offsets(keeps, kept_dims)
    kept = kept[:, :, None] * size + kept[:, None, :]
    traced = (size + 1) * np.ascontiguousarray(offsets(drops, traced_dims).T)
    traced = traced[:, :, None, None]
    for part in (traced, kept):
        part.flags.writeable = False
    return traced, kept, traced_dims
