import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksim import linalg, scenarios, superposition
from linksim.linalg import (
    BadIndexError,
    DensityMatrix,
    DimMismatchError,
    LinalgError,
    NegativeEigenvalueError,
    NonHermitianError,
    eig_hermitian,
    hermiticity_defect,
    kron_all,
    partial_trace,
    partial_traces,
    sqrt_psd,
)
from linksim.metrics import (
    avg_one_vs_rest_concurrence,
    avg_pairwise_concurrence,
    fidelity_up_to_phase,
)
from linksim.scenarios import (
    PROP5_P05,
    ScenarioSpec,
    build_scenario,
    builtin,
    builtin_names,
    evaluate_point,
)
from linksim.superposition import apply, run


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_kron_small_matrices():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 1], [1, 0]])
    out = kron_all(a, b)
    expected = np.array([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ])
    assert out.dtype == complex
    assert np.allclose(out, expected)


def test_kron_all_associates():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    assert np.allclose(kron_all(*mats), np.kron(np.kron(mats[0], mats[1]), mats[2]))


def test_hermiticity_defect():
    assert hermiticity_defect(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_defect(m) == pytest.approx(1.0)
    # once numpy's ValueError on a reduction over no entries
    assert hermiticity_defect(np.zeros((0, 2, 2))) == 0.0
    assert hermiticity_defect(np.zeros((0, 0))) == 0.0
    assert np.isnan(hermiticity_defect(np.array([[0.0, np.nan], [0.0, 0.0]])))


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = a + a.conj().T
    vals, vecs = eig_hermitian(m)
    assert np.all(np.diff(vals) <= 1e-12)  # descending
    assert np.allclose((vecs * vals) @ vecs.conj().T, m, atol=1e-10)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-10)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(2)
    m = random_density(rng, 5)
    r = sqrt_psd(m)
    assert np.allclose(r @ r, m, atol=1e-10)
    assert hermiticity_defect(r) < 1e-10


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NegativeEigenvalueError):
        sqrt_psd(np.diag([1.0, -1.0]))


def _stack(rng, count, d):
    """Random density matrices, some rank deficient, stacked (count, d, d)."""
    mats = [random_density(rng, d) for _ in range(count)]
    for k in range(0, count, 3):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        mats[k] = np.outer(v, v.conj()) / np.vdot(v, v).real
    return np.array(mats)


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
def test_stacked_calls_equal_per_matrix_calls(shape):
    rng = np.random.default_rng(3)
    for d in (2, 4):
        stack = _stack(rng, np.prod(shape), d).reshape(shape + (d, d))
        flat = stack.reshape(-1, d, d)
        vals, vecs = eig_hermitian(stack)
        roots = sqrt_psd(stack)
        for k, m in enumerate(flat):
            one_vals, one_vecs = eig_hermitian(m)
            assert np.array_equal(vals.reshape(-1, d)[k], one_vals)
            assert np.array_equal(vecs.reshape(-1, d, d)[k], one_vecs)
            assert np.array_equal(roots.reshape(-1, d, d)[k], sqrt_psd(m))


def test_stacked_calls_reject_one_bad_matrix():
    rng = np.random.default_rng(4)
    stack = _stack(rng, 5, 4)
    skewed = stack.copy()
    skewed[3, 0, 1] += 1e-6
    with pytest.raises(NonHermitianError):
        eig_hermitian(skewed)
    with pytest.raises(NonHermitianError):
        sqrt_psd(skewed)
    negative = stack.copy()
    negative[2] = np.diag([1.5, -0.5, 0.0, 0.0])
    eig_hermitian(negative)
    with pytest.raises(NegativeEigenvalueError):
        sqrt_psd(negative)


def test_density_matrix_validation():
    with pytest.raises(DimMismatchError):
        DensityMatrix((2, 2), np.eye(2) / 2)
    with pytest.raises(NonHermitianError):
        DensityMatrix((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(LinalgError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(NegativeEigenvalueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))


def _raised(call):
    try:
        call()
    except LinalgError as exc:
        return type(exc)
    return None


def _whole_matrix_check(mat):
    """The exception type the density checks raise on the whole matrix
    (None when it is a valid density matrix)."""
    if hermiticity_defect(mat) > DensityMatrix.HERM_TOL:
        return NonHermitianError
    if abs(np.trace(mat).real - 1.0) > DensityMatrix.TRACE_TOL:
        return LinalgError
    if np.min(np.linalg.eigvalsh(mat)) < -DensityMatrix.EIG_TOL:
        return NegativeEigenvalueError
    return None


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["psd", "negative", "non_hermitian"]),
       st.sampled_from(["none", "pair", "single"]))
def test_support_block_check_matches_whole_matrix(seed, kind, stray):
    """``DensityMatrix`` accepts or rejects a block embedded in zero rows
    and columns exactly as the whole-matrix reference does, also with an
    entry in a row whose diagonal is zero; ``DensityMatrix``, given the
    block and its support, raises what the reference raises on the placed
    matrix and holds that matrix bit for bit."""
    rng = np.random.default_rng(seed)
    d = int(rng.choice([3, 4, 8, 16]))
    # a stray entry needs a row outside the support
    r = int(rng.integers(1 if kind == "psd" else 2,
                         d + (stray == "none")))
    support = np.sort(rng.choice(d, r, replace=False))
    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    u, _ = np.linalg.qr(g)
    vals = rng.uniform(0.0, 1.0, r)
    vals[rng.random(r) < 0.3] = 0.0
    vals[0] = max(vals[0], 0.1)
    if kind == "negative":
        vals[-1] = -10.0 ** rng.uniform(-8.0, -0.5)
    vals /= vals.sum()
    block = (u * vals) @ u.conj().T
    if kind == "non_hermitian":
        a = rng.normal(size=(r, r))
        block = block + 10.0 ** rng.uniform(-9.0, -1.0) * (a - a.T)
    mat = np.zeros((d, d), dtype=complex)
    mat[np.ix_(support, support)] = block
    placed = mat.copy()
    if stray != "none":
        i = int(rng.choice(np.setdiff1d(np.arange(d), support)))
        j = int(rng.choice(np.delete(np.arange(d), i)))
        v = 10.0 ** rng.uniform(-3.0, -0.3) * np.exp(2j * np.pi * rng.random())
        mat[i, j] = v
        if stray == "pair":
            mat[j, i] = np.conj(v)
    assert _raised(lambda: DensityMatrix((d,), mat)) is _whole_matrix_check(mat)
    # the support constructor places the block itself, with no stray entry
    expected = _whole_matrix_check(placed)
    try:
        rho = DensityMatrix((d,), block, support)
    except LinalgError as exc:
        assert type(exc) is expected
    else:
        assert expected is None
        assert_bitwise(rho.mat, placed)


@pytest.mark.parametrize("d", [4, 64])
@pytest.mark.parametrize("layout", ["c", "fortran"])
@pytest.mark.parametrize("at", [(1, 3), (0, 1), (3, 2)])
@pytest.mark.parametrize("stray", [0.25, 0.25j, -0.0, complex(0.0, -0.0),
                                   complex(-0.0, -0.0)])
def test_support_block_decision_on_one_stray_entry(monkeypatch, stray, at,
                                                   layout, d):
    """What is checked is decided by the constructor, never guessed from
    the entries: ``DensityMatrix`` given the whole matrix checks it whole,
    so a real-only or imaginary-only stray entry outside the block makes it
    raise and a zero of either sign does not; given a block and its support,
    it checks only the block it places, and holds the matrix without the
    stray entry."""
    support = [0, 2]
    block = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    mat = np.zeros((d, d), dtype=complex)
    mat[np.ix_(support, support)] = block
    placed = mat.copy()
    mat[at] = stray
    if layout == "fortran":
        mat, block = np.asfortranarray(mat), np.asfortranarray(block)
    checked = []
    defect = linalg.hermiticity_defect
    monkeypatch.setattr(linalg, "hermiticity_defect",
                        lambda m: checked.append(m.shape) or defect(m))
    expected = None if stray == 0 else NonHermitianError
    assert _raised(lambda: DensityMatrix((d,), mat)) is expected
    assert_bitwise(DensityMatrix((d,), block, support).mat, placed)
    assert checked == [(d, d), (2, 2)]


def test_density_matrix_pure_normalizes():
    rho = DensityMatrix.pure((2, 2), np.array([1.0, 0.0, 0.0, 1.0]))
    assert rho.dims == (2, 2)
    assert rho.dim == 4
    assert np.trace(rho.mat).real == pytest.approx(1.0)
    assert rho.mat[0, 3] == pytest.approx(0.5)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    ra = random_density(rng, 2)
    rb = random_density(rng, 3)
    rho = DensityMatrix((2, 3), np.kron(ra, rb))
    assert np.allclose(partial_trace(rho, [0]).mat, ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, [1]).mat, rb, atol=1e-12)


def test_partial_trace_keeps_order_and_dims():
    rng = np.random.default_rng(4)
    parts = [random_density(rng, d) for d in (2, 3, 2)]
    rho = DensityMatrix((2, 3, 2), kron_all(*parts))
    kept = partial_trace(rho, [0, 2])
    assert kept.dims == (2, 2)
    assert np.allclose(kept.mat, np.kron(parts[0], parts[2]), atol=1e-12)


def test_partial_trace_entangled_marginal():
    bell = DensityMatrix.pure((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    marg = partial_trace(bell, [1])
    assert np.allclose(marg.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_all_and_none():
    rng = np.random.default_rng(5)
    rho = DensityMatrix((2, 2), random_density(rng, 4))
    full = partial_trace(rho, [0, 1])
    assert np.allclose(full.mat, rho.mat)
    none = partial_trace(rho, [])
    assert none.mat.shape == (1, 1)
    assert none.mat[0, 0].real == pytest.approx(1.0)


def test_partial_trace_bad_index():
    rho = DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(BadIndexError):
        partial_trace(rho, [1])


def _einsum_reduction(mat, n, keep):
    """Partial trace over the qubits outside ``keep``, by one einsum."""
    rows = [chr(ord("a") + q) for q in range(n)]
    cols = [r if q not in keep else chr(ord("A") + q) for q, r in enumerate(rows)]
    out = [rows[q] for q in keep] + [cols[q] for q in keep]
    spec = "".join(rows + cols) + "->" + "".join(out)
    d = 2 ** len(keep)
    return np.einsum(spec, mat.reshape([2] * 2 * n)).reshape(d, d)


def _trace_loop(rho, keep):
    """The literal reduction: ``np.trace`` over one dropped subsystem at a
    time, the highest first."""
    dims = list(rho.dims)
    n = len(dims)
    x = rho.mat.reshape(dims + dims)
    for i, q in enumerate(q for q in reversed(range(n)) if q not in keep):
        # q is still at axis q because the higher axes went first
        x = np.trace(x, axis1=q, axis2=q + n - i)
    d = int(np.prod([dims[q] for q in keep]))
    return x.reshape(d, d)


def assert_bitwise(a, b):
    """Equal bit for bit, the sign of every zero included."""
    assert a.shape == b.shape and a.dtype == b.dtype
    a, b = np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _keep_groups(n):
    """All pairs, all singles and all triples (``[0, 2, 5]`` and the like)
    of n qubits, one group per size."""
    return [[list(keep) for keep in combinations(range(n), size)]
            for size in (2, 1, 3) if size <= n]


def _assert_equal_trace_loop(rho):
    for keeps in _keep_groups(len(rho.dims)):
        stack = partial_traces(rho, keeps)
        d = 2 ** len(keeps[0])
        assert stack.shape == (len(keeps), d, d)
        for keep, reduced in zip(keeps, stack):
            assert_bitwise(reduced, _trace_loop(rho, keep))


@pytest.mark.parametrize("n", range(2, 9))
def test_partial_traces_equal_trace_loop(n):
    rng = np.random.default_rng(100 + n)
    rho = DensityMatrix((2,) * n, random_density(rng, 2**n))
    _assert_equal_trace_loop(rho)
    for keeps in _keep_groups(n):
        for keep, reduced in zip(keeps, partial_traces(rho, keeps)):
            single = partial_trace(rho, keep)
            assert single.dims == (2,) * len(keep)
            assert single.mat.tobytes() == reduced.tobytes()
            np.testing.assert_allclose(reduced, _einsum_reduction(rho.mat, n, keep),
                                       rtol=0, atol=1e-14)
    for bad in ([0, n], [-1], [n + 3]):
        with pytest.raises(BadIndexError):
            partial_traces(rho, [[0, 1], bad])


def test_partial_traces_equal_trace_loop_on_post_states():
    # every outcome, not only those a plus_only spec reports
    every = [replace(builtin(name), outcome_policy="all_outcomes")
             for name in builtin_names()]
    scenarios = [build_scenario(spec, p) for spec in every for p in (0.0, 0.3, 1.0)]
    spec = ScenarioSpec("ghz_depolarizing8", "ghz_depolarizing", 8, PROP5_P05,
                        outcome_policy="all_outcomes")
    scenarios.append(build_scenario(spec, 0.3))
    checked = 0
    for scenario in scenarios:
        for outcome in run(scenario):
            if outcome.post_state is not None:
                _assert_equal_trace_loop(outcome.post_state)
                checked += 1
    assert checked >= 326


def test_partial_traces_mixed_dims_need_one_layout():
    rng = np.random.default_rng(6)
    rho = DensityMatrix((2, 3, 2, 3), kron_all(*[random_density(rng, d)
                                                 for d in (2, 3, 2, 3)]))
    # both leave kept dims (2, 3) and traced dims (3, 2), highest first
    keeps = [[0, 1], [2, 3]]
    stack = partial_traces(rho, keeps)
    assert stack.shape == (2, 6, 6)
    for keep, reduced in zip(keeps, stack):
        np.testing.assert_allclose(reduced, _trace_loop(rho, keep), rtol=0, atol=1e-14)
    # traced (3, 2) against (2, 3)
    with pytest.raises(DimMismatchError):
        partial_traces(rho, [[0, 1], [0, 3]])
    with pytest.raises(DimMismatchError):
        partial_traces(rho, [])


def test_reduction_index_is_cached_and_bounded():
    cache = linalg._reduction_index
    assert cache.cache_info().maxsize is not None
    rng = np.random.default_rng(8)
    rho = DensityMatrix((2, 2, 2), random_density(rng, 8))
    partial_traces(rho, [[0, 1], [1, 2]])
    index, traced_dims = cache((2, 2, 2), tuple(range(8)), ((0, 1), (1, 2)))
    assert index.shape == (2, 2, 4, 4) and traced_dims == (2,)
    before = cache.cache_info()
    partial_traces(rho, [[0, 1], [1, 2]])
    assert cache.cache_info().hits == before.hits + 1
    before = cache.cache_info()
    for bad in ([[0, 3]], [[0, 1], [-1, 2]]):
        with pytest.raises(BadIndexError):
            partial_traces(rho, bad)
    assert cache.cache_info() == before


# True: just past the tolerance; False: just inside it; or a NaN in the
# first or the last member of the stack
@pytest.mark.parametrize("past", [True, False, "nan-first", "nan-last"])
@pytest.mark.parametrize("kind, error", [("hermiticity", NonHermitianError),
                                         ("trace", LinalgError),
                                         ("eigenvalue", NegativeEigenvalueError)])
def test_stacked_check_raises_as_the_member_alone(monkeypatch, kind, error, past):
    """One member of a stack of four, moved just past a tolerance, makes the
    stack check raise what ``DensityMatrix`` raises on that member; moved
    just inside, both pass. A NaN where one check reads (two off-diagonal
    entries, the member's trace, its lowest eigenvalue) fails that check,
    alone and at either end of the stack."""
    rng = np.random.default_rng(9)
    stack = np.array([random_density(rng, 4) for _ in range(4)])
    nan = past in ("nan-first", "nan-last")
    at = {"nan-first": 0, "nan-last": 3}.get(past, 2)
    scale = 1.5 if past is True else 0.5
    if nan and kind == "hermiticity":
        stack[at, 0, 1] = stack[at, 1, 0] = np.nan
    elif nan and kind == "eigenvalue":
        eigvalsh = np.linalg.eigvalsh

        def nan_lowest(m):
            # the member's lowest eigenvalue, given the member or the stack
            vals = eigvalsh(m)
            vals[(at, 0) if vals.ndim == 2 else 0] = np.nan
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", nan_lowest)
    elif nan:
        trace = np.trace

        def nan_trace(m, **axes):
            # the member's trace, given the member or the stack
            traces = np.array(trace(m, **axes))
            traces[at if traces.ndim else ()] = np.nan
            return traces

        monkeypatch.setattr(np, "trace", nan_trace)
    elif kind == "hermiticity":
        stack[at, 0, 1] += scale * DensityMatrix.HERM_TOL
    elif kind == "trace":
        stack[at, 1, 1] += scale * DensityMatrix.TRACE_TOL
    else:
        eps = scale * DensityMatrix.EIG_TOL
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = (u * [0.5, 0.3, 0.2 + eps, -eps]) @ u.conj().T
        stack[at] = (m + m.conj().T) / 2
    alone = _raised(lambda: linalg.check_densities(stack[at]))
    together = _raised(lambda: linalg.check_densities(stack))
    assert alone is (error if past else None)
    assert together is alone
    assert _raised(lambda: DensityMatrix((2, 2), stack[at])) is alone


@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("kind, error", [("hermiticity", NonHermitianError),
                                         ("trace", LinalgError),
                                         ("eigenvalue", NegativeEigenvalueError),
                                         ("nan", NonHermitianError)])
def test_density_stack_raises_as_the_member_alone(kind, error, at):
    """One bad member of a stack of four, first or last, makes
    ``DensityMatrix.stack`` raise what the one-state constructor raises on
    that member."""
    rng = np.random.default_rng(10)
    dims, support = (2, 2, 2), [0, 2, 5]
    stack = np.array([random_density(rng, 3) for _ in range(4)])
    if kind == "hermiticity":
        stack[at, 0, 1] += 1e-6
    elif kind == "trace":
        stack[at, 1, 1] += 1e-6
    elif kind == "eigenvalue":
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        m = (u * [0.7, 0.4, -0.1]) @ u.conj().T
        stack[at] = (m + m.conj().T) / 2
    else:
        stack[at, 2, 2] = np.nan
    alone = _raised(lambda: DensityMatrix(dims, stack[at], support))
    assert alone is error
    assert _raised(lambda: DensityMatrix.stack(dims, stack, support)) is alone
    assert DensityMatrix.stack(dims, np.delete(stack, at, axis=0), support)


@pytest.mark.parametrize("support", [np.array([5, 0, 2]), None])
def test_density_stack_holds_what_the_one_state_constructor_holds(support):
    """The states are read-only, share one support array, and hold the
    blocks ``DensityMatrix(dims, block, support)`` holds, bit for bit."""
    rng = np.random.default_rng(11)
    size = 8 if support is None else len(support)
    blocks = np.array([random_density(rng, size) for _ in range(5)])
    given = blocks.copy()
    states = DensityMatrix.stack((2, 2, 2), given, support)
    given[:] = 0  # the states hold their own copies
    assert len(states) == 5
    assert all(state.support is states[0].support for state in states)
    for state, block in zip(states, blocks):
        alone = DensityMatrix((2, 2, 2), block, support)
        assert state.dims == alone.dims == (2, 2, 2)
        assert_bitwise(state.support, alone.support)
        assert_bitwise(state.block, alone.block)
        assert_bitwise(state.mat, alone.mat)
        for part in (state.block, state.support, state.mat):
            assert not part.flags.writeable
    assert DensityMatrix.stack((2, 2, 2), np.zeros((0, 3, 3)), [0, 2, 5]) == []


def test_density_matrix_and_partial_traces_share_one_check(monkeypatch):
    rho = DensityMatrix.pure((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    scenario = build_scenario(builtin("prop4_p05"), 0.5)

    def refuse(mats):
        raise LinalgError("refused")

    monkeypatch.setattr(linalg, "check_densities", refuse)
    with pytest.raises(LinalgError, match="refused"):
        DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(LinalgError, match="refused"):
        DensityMatrix((2, 2), np.full((2, 2), 0.5), [0, 3])
    with pytest.raises(LinalgError, match="refused"):
        DensityMatrix.pure((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(LinalgError, match="refused"):
        partial_traces(rho, [[0], [1]])
    with pytest.raises(LinalgError, match="refused"):
        DensityMatrix.stack((2, 2), np.full((3, 2, 2), 0.5), [0, 3])
    with pytest.raises(LinalgError, match="refused"):
        DensityMatrix.stack((2, 2), np.zeros((0, 2, 2)), [0, 3])
    # the post states of a run
    with pytest.raises(LinalgError, match="refused"):
        run(scenario)


def test_from_block_rejects_a_block_unlike_its_support():
    with pytest.raises(DimMismatchError):
        DensityMatrix((2, 2), np.eye(3) / 3, [0, 3])
    with pytest.raises(DimMismatchError):
        DensityMatrix.pure((2, 2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("support, error", [
    ([-1, 0], BadIndexError),  # once wrapped to the last row
    ([0, 5], BadIndexError),  # once a numpy IndexError
    ([1, 1], BadIndexError),  # once caught only through the trace
    ([0.0, 1.0], BadIndexError),
    ([True, False], BadIndexError),
    ([[0, 1]], DimMismatchError),
    (0, DimMismatchError),
])
def test_from_block_validates_its_support(support, error):
    with pytest.raises(error):
        DensityMatrix((2, 2), np.eye(2) / 2, support)
    with pytest.raises(error):
        DensityMatrix.stack((2, 2), np.array([np.eye(2) / 2] * 3), support)


def test_an_empty_block_fails_the_trace_check_and_an_empty_stack_passes():
    with pytest.raises(LinalgError, match="trace") as info:
        DensityMatrix((2, 2), np.zeros((0, 0)), np.array([], dtype=int))
    assert type(info.value) is LinalgError
    linalg.check_densities(np.zeros((0, 2, 2)))


def test_the_trace_error_names_a_plain_float():
    # numpy 2 once printed ``trace np.float64(1.25) != 1``
    with pytest.raises(LinalgError) as info:
        DensityMatrix((2,), np.diag([1.0, 0.25]))
    assert str(info.value) == "trace 1.25 != 1"


def test_a_state_on_two_rows_allocates_nothing_of_its_dimension():
    """A two-row state on 16 qubits is built and checked on its block: the
    construction allocates far less than one length-2^16 complex vector,
    1 MB."""
    dims, block = (2,) * 16, np.array([[0.5, 0.5], [0.5, 0.5]])
    support = np.array([0, 2**16 - 1])
    tracemalloc.start()
    try:
        DensityMatrix(dims, block, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_mat_is_the_block_placed_into_zeros_and_read_only():
    rng = np.random.default_rng(19)
    support = np.array([5, 0, 3])
    block = random_density(rng, 3)
    given = block.copy()
    rho = DensityMatrix((2, 3), given, support)
    given[0, 0] = support[0] = 7  # the state holds its own copies
    placed = np.zeros((6, 6), dtype=complex)
    placed[np.ix_([5, 0, 3], [5, 0, 3])] = block
    assert_bitwise(rho.mat, placed)
    assert rho.support.tolist() == [5, 0, 3]
    for part in (rho.mat, rho.block, rho.support):
        assert not part.flags.writeable
    assert rho.entries([5, 0, 1], [0, 3, 1]) == [block[0, 1], block[1, 2], 0j]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector", [np.zeros(4), [np.nan, 0, 0, 1],
                                    [np.inf, 0, 0, 1], [1, 0, 0, -np.inf]])
def test_pure_names_the_norm_it_cannot_normalize(vector):
    # once a RuntimeWarning, then a misleading NonHermitianError
    with pytest.raises(LinalgError, match="norm") as info:
        DensityMatrix.pure((2, 2), np.asarray(vector, dtype=complex))
    assert type(info.value) is LinalgError


def _layout_groups(dims):
    """Every keep of ``dims`` but the empty and the whole one, grouped by
    layout of kept and traced dimensions, so each group can be reduced in
    one ``partial_traces`` call."""
    n = len(dims)
    groups = {}
    for size in range(1, n):
        for keep in combinations(range(n), size):
            layout = (tuple(dims[q] for q in keep),
                      tuple(dims[q] for q in reversed(range(n)) if q not in keep))
            groups.setdefault(layout, []).append(list(keep))
    return list(groups.values())


def _held_on_support(rng, dims, support, signed_zeros):
    """A random state on ``support``; with ``signed_zeros``, one row and
    column of its block hold only zeros of negative sign."""
    r = len(support)
    block = random_density(rng, r)
    if signed_zeros and r > 1:
        k = int(rng.integers(r))
        block[k, :] = complex(-0.0, -0.0)
        block[:, k] = complex(-0.0, 0.0)
        block[k, k] = -0.0
        block /= np.trace(block).real
    return DensityMatrix(dims, block, support)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2,) * 5, (2, 3),
                                  (3, 2, 2), (2, 3, 2, 2)])
def test_partial_traces_on_the_support_equal_the_dense_gather(dims):
    """Bit for bit, signed zeros included, the reductions read from the
    block equal those of the same matrix held whole, and the literal
    ``np.trace`` loop over it: on random unsorted supports, blocks holding
    -0.0, and a support that leaves every traced digit but 0 unmet."""
    rng = np.random.default_rng(sum(dims) * len(dims))
    d = int(np.prod(dims))
    # rows whose traced digits are all 0 when only subsystem 0 is kept
    corner = [0, d // dims[0]]
    supports = [rng.choice(d, int(rng.integers(1, min(d, 7) + 1)), replace=False)
                for _ in range(4)] + [corner, [d - 1, 0]]
    for k, support in enumerate(supports):
        rho = _held_on_support(rng, dims, support, signed_zeros=k % 2 == 1)
        whole = DensityMatrix(dims, rho.mat)
        for keeps in _layout_groups(dims):
            stack = partial_traces(rho, keeps)
            assert_bitwise(stack, partial_traces(whole, keeps))
            for keep, reduced in zip(keeps, stack):
                assert_bitwise(reduced, _trace_loop(whole, keep))


@pytest.mark.parametrize("limit", [1, 200, 2**14])
def test_stack_partial_traces_equal_each_state_alone(monkeypatch, limit):
    """Bit for bit, signed zeros included, the reductions of a stack of
    states on one support equal each state's own, however many states
    each gather holds: one, a few with a shorter last slice, or all."""
    rng = np.random.default_rng(31)
    dims, support = (2, 3, 2), np.array([7, 0, 11, 4, 5])
    states = [_held_on_support(rng, dims, support, signed_zeros=k % 2 == 1)
              for k in range(7)]
    blocks = np.stack([state.block for state in states])
    monkeypatch.setattr(linalg, "_GATHER_ENTRIES", limit)
    for keeps in _layout_groups(dims):
        stack = linalg.stack_partial_traces(dims, states[0].support, blocks, keeps)
        assert stack.shape[:2] == (len(states), len(keeps))
        for state, reduced in zip(states, stack):
            assert_bitwise(reduced, partial_traces(state, keeps))


def test_records_of_a_large_ghz_post_state_allocate_no_dense_matrix():
    """From the post state's block to its three records, an n = 10 GHZ
    state allocates far less than the 16 MB one dense 1024 x 1024 complex
    matrix takes: the largest array is the gather of the 45 pair
    reductions, 2.9 MB, and the peak, with its cached index, about
    4.4 MB, as the halving adds in place."""
    n, d = 10, 2**10
    block = np.array([[0.6, 0.45], [0.45, 0.4]])
    linalg._reduction_index.cache_clear()
    tracemalloc.start()
    try:
        rho = DensityMatrix((2,) * n, block, [0, d - 1])
        fid = fidelity_up_to_phase(rho, n)
        pairwise = avg_pairwise_concurrence(rho)
        one_vs_rest = avg_one_vs_rest_concurrence(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 16 / 2
    assert fid == pytest.approx(np.sqrt(0.5 + 0.45))
    assert pairwise < 1e-12 and 0.0 < one_vs_rest < 1.0


def test_density_checks_see_only_the_reached_block(monkeypatch):
    """On an n = 8 GHZ point and on the fixed-noise objective of an n = 8
    spec, no density check sees more rows than the block the state
    reaches; the 512 x 512 joint and 256 x 256 post states are never
    checked whole."""
    spec = ScenarioSpec("ghz_depolarizing8", "ghz_depolarizing", 8, PROP5_P05)
    joint = apply(build_scenario(spec, 0.3))
    reached = np.count_nonzero(joint.mat.any(axis=1))
    post = run(build_scenario(spec, 0.3))[0].post_state
    post_reached = np.count_nonzero(post.mat.any(axis=1))
    assert 0 < post_reached <= reached < 16
    objective = scenarios._fixed_noise_objective(spec, 0.3, 0.3)
    x = np.concatenate([v.real for v in PROP5_P05.vectors])
    seen = []
    check = linalg.check_densities

    def recorded(mats):
        seen.append(mats.shape)
        return check(mats)

    # the joint states are checked as one stack by ``superposition``
    monkeypatch.setattr(linalg, "check_densities", recorded)
    monkeypatch.setattr(superposition, "check_densities", recorded)
    assert evaluate_point(spec, 0.3, 0.3)
    assert (1, reached, reached) in seen
    assert max(shape[-1] for shape in seen) == reached
    seen.clear()
    assert objective(x) < 0
    assert seen == [(post_reached, post_reached)]
