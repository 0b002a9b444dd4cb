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
    mat = stack_partial_traces(rho.dims, rho.support, rho.block[None], [keep])[0][0, 0]
    kept = sorted({int(k) for k in keep})
    return DensityMatrix(tuple(rho.dims[k] for k in kept), mat)


def stack_partial_traces(dims, support, blocks: np.ndarray, keeps):
    """The reductions to each ``keep`` in ``keeps`` of every state of a
    stack that shares ``dims`` and ``support`` (as ``DensityMatrix`` holds
    them), given as its blocks ``(P, s, s)``: the ``u`` distinct ones
    ``(P, u, d, d)`` and each keep's class, its index on axis 1. The keeps
    of a class add the same block entries in the same order
    (``_support_plan``), so their reductions are bitwise equal and each
    class is summed and checked once.

    Every ``keep`` must leave the same kept and traced dimensions (for
    qubits: the same number of subsystems). Entry ``[k, a, b]`` sums
    ``rho[(a, t), (b, t)]`` over the traced multi-indices ``t``; only the
    block entries whose row and column are both on the support contribute,
    and ``_support_plan`` lists them. They are added as the literal loop
    adds them: tracing the dropped subsystems out one by one from the
    highest index down, where ``np.trace`` over one axis pair adds the
    digit's terms in order (``x0 + x1`` for a qubit). Each level of that
    tree adds a node's children in digit order, and a child with no
    contribution below it reads an appended ``+0.0``, the sum of the zeros
    ``mat`` holds off the support. So every entry is bitwise that loop's,
    signed zeros included, but for a sum of -0.0 terms alone: the tree
    keeps it -0.0, and ``np.trace``, which sums from +0.0, makes it +0.0.
    ``mat`` is never formed. The additions are elementwise over the stack,
    so each state's reductions are bitwise those it has alone. The ``u``
    reductions are checked once with ``check_densities``.
    """
    n = len(dims)
    keeps = tuple(map(tuple, keeps))
    for keep in keeps:
        if keep and (min(keep) < 0 or max(keep) >= n):
            raise BadIndexError(f"keep={list(keep)} outside subsystems 0..{n - 1}")
    levels, targets, shape, classes = _support_plan(tuple(dims),
                                                    tuple(support.tolist()), keeps)
    p, s = len(blocks), len(support)
    # the states on the last axis, so each level takes whole rows
    v = np.zeros((s * s + 1, p), dtype=complex)
    v[:-1] = blocks.reshape(p, s * s).T
    for children in levels:
        acc = v.take(children[0], axis=0)
        for child in children[1:]:
            acc += v.take(child, axis=0)
        v = acc
    out = np.zeros((p, prod(shape)), dtype=complex)
    out[:, targets] = v[:-1].T
    out = out.reshape((p,) + shape)
    check_densities(out)
    return out, classes


# one entry per (dims, support, keeps) in use, bounded as the caches of
# ``channels.pauli_string`` are; a sweep's post states share one support
@lru_cache(maxsize=32)
def _support_plan(dims: tuple[int, ...], support: tuple[int, ...],
                  keeps: tuple[tuple, ...]):
    """How ``stack_partial_traces`` sums a state on ``support``: one
    ``(dt, nodes + 1)`` index array per traced subsystem, highest first;
    the flat targets in ``(u, d, d)`` of the last level's nodes; that
    shape; and each keep's class, a tuple of indices into ``u``.

    Two keeps are one class when every support row has the same kept and
    the same traced multi-index under both: they add the same entries, in
    the same order, into the same targets. Classes are numbered in the
    order of their first keep, and the levels are built for it alone.

    The leaves are the block entries ``(r, c)`` whose traced digits agree,
    at their flat place in the block. A node of level ``j`` sums, in digit
    order, the nodes of level ``j - 1`` (the leaves for ``j = 0``) that
    differ only in traced digit ``j``: column ``i`` of the level's array
    lists them, one row per digit value, and ``-1`` where no contribution
    lies below that child. The values each level reads end in one
    ``+0.0``, the block's appended by the caller and every level's own as
    its last column, whose children are all ``-1``."""
    n = len(dims)
    keeps = [sorted({int(k) for k in keep}) for keep in keeps]
    drops = [[q for q in reversed(range(n)) if q not in keep] for keep in keeps]
    layouts = {(tuple(dims[q] for q in keep), tuple(dims[q] for q in drop))
               for keep, drop in zip(keeps, drops)}
    if len(layouts) != 1:
        raise DimMismatchError(
            "reductions taken together need one layout of kept and traced dims")
    ((kept_dims, traced_dims),) = layouts
    rows = np.array(support, dtype=np.intp)
    strides = [prod(dims[q + 1:]) for q in range(n)]
    digits = rows[:, None] // np.array(strides, dtype=np.intp) % dims  # (s, n)

    def multi_index(subsystems, sub_dims):
        # (len(keeps), s): each row's multi-index over the listed
        # subsystems, the first listed as the leading digit
        weights = [prod(sub_dims[i + 1:]) for i in range(len(sub_dims))]
        at = np.array(subsystems, dtype=np.intp).reshape(len(keeps), len(sub_dims))
        return (digits[:, at] @ np.array(weights, dtype=np.intp)).T

    kept, traced = multi_index(keeps, kept_dims), multi_index(drops, traced_dims)
    index = {}
    classes = tuple(index.setdefault(row.tobytes(), len(index))
                    for row in np.hstack([kept, traced]))
    firsts = [classes.index(c) for c in range(len(index))]
    kept, traced = kept[firsts], traced[firsts]
    d = prod(kept_dims)
    k, r, c = np.nonzero(traced[:, :, None] == traced[:, None, :])
    # each node by its target entry and its traced digits not yet summed
    node, rest = (k * d + kept[k, r]) * d + kept[k, c], traced[k, r]
    children, levels = r * len(rows) + c, []
    # no traced subsystem: one level of one child, which only takes
    for j, dt in enumerate(traced_dims or (1,)):
        low = prod(traced_dims[j + 1:])
        key = node * low + rest % low
        # the distinct keys and each one's place among them, read from a
        # mark per possible key: a sort (``np.unique``) pages numpy's sort
        # kernels in, about 0.4 MB of resident memory (x86-64, numpy 2.4)
        mark = np.zeros(len(firsts) * d * d * low, dtype=bool)
        mark[key] = True
        key, inverse = np.flatnonzero(mark), np.cumsum(mark)[key] - 1
        # C-contiguous rows, left writable: ``take`` copies any other index
        level = np.full((dt, len(key) + 1), -1, dtype=np.intp)
        level[rest // low, inverse] = children
        levels.append(level)
        node, rest, children = key // low, key % low, np.arange(len(key))
    return tuple(levels), node, (len(firsts), d, d), classes
