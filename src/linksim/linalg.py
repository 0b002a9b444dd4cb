"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Everything here operates on plain ``numpy`` arrays of complex128. Density
matrices carry their subsystem structure in a thin immutable wrapper so
partial traces and measurements know how to reshape.

Subsystem 0 is the leftmost tensor factor throughout (row-major ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix together with its ordered subsystem dimensions."""

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
        if hermiticity_defect(block) > self.HERM_TOL:
            raise NonHermitianError("density matrix is not Hermitian")
        if abs(mat.trace().real - 1.0) > self.TRACE_TOL:
            raise LinalgError(f"trace {mat.trace().real!r} != 1")
        # eigenvalues come back ascending
        if np.linalg.eigvalsh(block)[0] < -self.EIG_TOL:
            raise NegativeEigenvalueError("density matrix is not PSD")

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
    return partial_traces(rho, [keep])[0]


def partial_traces(rho: DensityMatrix, keeps) -> list[DensityMatrix]:
    """``partial_trace(rho, keep)`` for every ``keep`` in ``keeps``.

    Each reduction traces out its dropped subsystems from the highest index
    down. Reductions whose drop lists start alike share those first traces,
    so each result is bitwise what tracing it out alone gives.
    """
    dims = list(rho.dims)
    n = len(dims)
    keeps = [sorted(set(int(k) for k in keep)) for keep in keeps]
    for keep in keeps:
        if any(k < 0 or k >= n for k in keep):
            raise BadIndexError(f"keep={keep} outside subsystems 0..{n - 1}")

    # drop prefix -> the tensor left after tracing those subsystems out
    traced = {(): rho.mat.reshape(dims + dims)}
    out = []
    for keep in keeps:
        drop = tuple(q for q in reversed(range(n)) if q not in keep)
        for i, q in enumerate(drop):
            key = drop[:i + 1]
            if key not in traced:
                # q is still at axis position q because higher axes were
                # removed first
                traced[key] = np.trace(traced[drop[:i]], axis1=q, axis2=q + n - i)
        kept_dims = tuple(dims[k] for k in keep)
        d = prod(kept_dims) if kept_dims else 1
        out.append(DensityMatrix(kept_dims, traced[drop].reshape(d, d)))
    return out
