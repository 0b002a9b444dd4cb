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
#: dimension above which the density check counts non-zeros on float views
FLOAT_COUNT_DIM = 32


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
    the class that matrix raises alone.
    """
    if hermiticity_defect(mats) > DensityMatrix.HERM_TOL:
        raise NonHermitianError("density matrix is not Hermitian")
    # the builtin max and min over .flat: a numpy reduction would cost a
    # single matrix, the most frequent check, about 0.6 us more each
    off = abs(traces.real - 1.0)
    if max(off.flat) > DensityMatrix.TRACE_TOL:
        worst = np.ravel(traces.real)[np.argmax(off)]
        raise LinalgError(f"trace {worst!r} != 1")
    # eigenvalues come back ascending
    if min(np.linalg.eigvalsh(mats)[..., 0].flat) < -DensityMatrix.EIG_TOL:
        raise NegativeEigenvalueError("density matrix is not PSD")


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix together with its ordered subsystem dimensions.

    Construction checks the matrix with ``check_densities``: on the
    principal block of its non-zero diagonal when every non-zero entry lies
    in that block (the rest is then zero, so the check is exact), on the
    whole matrix otherwise, and always against the whole matrix's trace.
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
        d = prod(self.dims) if self.dims else 1
        if mat.shape != (d, d):
            raise DimMismatchError(
                f"matrix shape {mat.shape} does not match dims {self.dims}"
            )
        # When every non-zero entry lies in the principal block on the
        # non-zero diagonal, the rest of the matrix is zero: the Hermiticity
        # defect is the block's and the other eigenvalues are 0, so checking
        # the block is exact. Otherwise the whole matrix is checked.
        keep = mat.diagonal().nonzero()[0]
        block = mat
        if 0 < len(keep) < d:
            sub = mat.take(keep, 0).take(keep, 1)
            if d <= FLOAT_COUNT_DIM:
                inside = np.count_nonzero(sub) == np.count_nonzero(mat)
            else:
                # non-zero real and imaginary parts, counted as floats, give
                # the same decision in about 2/3 of the time; on a small
                # matrix the views cost more than they save
                inside = (np.count_nonzero(sub.view(float))
                          == np.count_nonzero(np.ravel(mat).view(float)))
            if inside:
                block = sub
        check_densities(block, mat.trace())

    @property
    def dim(self) -> int:
        return prod(self.dims) if self.dims else 1

    @classmethod
    def pure(cls, dims, vector: np.ndarray) -> "DensityMatrix":
        """Density matrix of a (normalized) pure state vector."""
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(tuple(dims), np.outer(v, v.conj()))


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
