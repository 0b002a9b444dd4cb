from itertools import product

import numpy as np
import pytest

from linksim import channels
from linksim.channels import (
    BadChannelIndexError,
    BadLetterError,
    BadNormalizationError,
    BadProbabilityError,
    ChannelError,
    NotUnitaryError,
    PAULI,
    PAULI_INDEX,
    VacuumExtendedChannel,
    X,
    Y,
    Z,
    depolarizing_correlated,
    memoryless_bitflip,
    pauli_channel_correlated,
    pauli_string,
    unitary_channel,
)
from linksim.linalg import kron_all
from reference import channel_apply, validate

S2 = 1.0 / np.sqrt(2.0)


def test_pauli_index_order():
    assert PAULI_INDEX == ("I", "X", "Y", "Z")


def test_pauli_string_single_letters():
    assert np.allclose(pauli_string("X"), X)
    assert np.allclose(pauli_string("Y"), Y)
    assert np.allclose(pauli_string("Z"), Z)
    assert np.allclose(pauli_string("I"), np.eye(2))


def test_pauli_string_tensor():
    ix = pauli_string("IX")
    assert ix.shape == (4, 4)
    assert np.allclose(ix, np.kron(np.eye(2), X))
    # leftmost letter acts on the leftmost tensor factor
    assert np.allclose(pauli_string("XI"), np.kron(X, np.eye(2)))


def test_pauli_string_is_cached_and_read_only(monkeypatch):
    for size in (1, 2, 3):
        for letters in product(PAULI_INDEX, repeat=size):
            spec = "".join(letters)
            out = pauli_string(spec)
            expected = kron_all(*(PAULI[c] for c in spec))
            assert out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes(), spec
            with pytest.raises(ValueError):
                out[0, 0] = 0.0

    def no_rebuild(*mats):
        raise AssertionError("cached Pauli string was rebuilt")

    first = pauli_string("XYZ")
    monkeypatch.setattr(channels, "kron_all", no_rebuild)
    assert pauli_string("XYZ") is first


def test_pauli_string_bad_input():
    with pytest.raises(BadLetterError):
        pauli_string("XQ")
    with pytest.raises(BadLetterError):
        pauli_string("")


def test_depolarizing_kraus_weights():
    c = depolarizing_correlated(0.3, 1, (1, 0, 0, 0))
    assert len(c.kraus) == 4
    assert np.allclose(c.kraus[0], np.sqrt(0.7) * np.eye(2))
    assert np.allclose(c.kraus[1], np.sqrt(0.1) * X)
    assert validate(c).ok


def test_depolarizing_is_cptp_for_all_p():
    for p in (0.0, 0.25, 0.5, 1.0):
        for n in (1, 2, 3):
            c = depolarizing_correlated(p, n, (S2, S2, 0, 0))
            rep = validate(c)
            assert rep.cptp_defect < 1e-12
            assert rep.amplitude_defect < 1e-12


def test_depolarizing_action_on_maximally_mixed():
    c = depolarizing_correlated(0.7, 1, (1, 0, 0, 0))
    rho = np.eye(2) / 2
    assert np.allclose(channel_apply(c, rho), rho)


def test_depolarizing_contracts_bloch_vector():
    p = 0.4
    c = depolarizing_correlated(p, 1, (1, 0, 0, 0))
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = channel_apply(c, rho)
    # z component shrinks by 1 - 4p/3
    assert out[0, 0].real == pytest.approx(0.5 + 0.5 * (1 - 4 * p / 3))


def test_bitphase_channels_via_used_slots():
    bit = pauli_channel_correlated((0.4, 0.6, 0, 0), 2, (S2, S2, 0, 0),
                                   used_slots=(0, 1))
    phase = pauli_channel_correlated((0.4, 0, 0, 0.6), 2, (S2, 0, 0, S2),
                                     used_slots=(0, 3))
    assert validate(bit).ok
    assert validate(phase).ok


def test_used_slots_rejects_leakage():
    # amplitude in a structurally empty slot must be rejected
    with pytest.raises(BadNormalizationError):
        pauli_channel_correlated((0.4, 0.6, 0, 0), 1, (S2, 0, S2, 0),
                                 used_slots=(0, 1))
    # but amplitude in a slot whose weight merely vanishes is fine
    c = pauli_channel_correlated((0.0, 1.0, 0, 0), 1, (S2, S2, 0, 0),
                                 used_slots=(0, 1))
    assert validate(c).ok


def test_pauli_channel_bad_weights():
    with pytest.raises(BadProbabilityError):
        pauli_channel_correlated((0.5, 0.2, 0.2, 0.2), 1, (1, 0, 0, 0))
    with pytest.raises(BadProbabilityError):
        pauli_channel_correlated((1.2, -0.2, 0, 0), 1, (1, 0, 0, 0))
    with pytest.raises(BadProbabilityError):
        depolarizing_correlated(1.5, 1, (1, 0, 0, 0))


@pytest.mark.parametrize("slot", range(4))
def test_nan_weight_raises_bad_probability(slot):
    # a NaN weight would otherwise give a NaN Kraus scale
    weights = [0.25] * 4
    weights[slot] = float("nan")
    with pytest.raises(BadProbabilityError):
        pauli_channel_correlated(weights, 2, (0.5, 0.5, 0.5, 0.5))


def test_amplitude_normalization_enforced():
    with pytest.raises(BadNormalizationError):
        depolarizing_correlated(0.5, 1, (1, 1, 0, 0))
    with pytest.raises(BadNormalizationError):
        depolarizing_correlated(0.5, 1, (1, 0, 0))
    with pytest.raises(BadNormalizationError):
        depolarizing_correlated(0.5, 1, (float("nan"), 0, 0, 0))


def test_memoryless_bitflip():
    c = memoryless_bitflip(1, 3, 0.25, (S2, S2))
    assert c.dim == 8
    assert validate(c).ok
    assert np.allclose(c.kraus[1], np.sqrt(0.25) * pauli_string("IXI"))
    with pytest.raises(BadChannelIndexError):
        memoryless_bitflip(3, 3, 0.25, (S2, S2))


def test_unitary_channel():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    c = unitary_channel(h)
    assert validate(c).ok
    assert np.allclose(c.vacuum_amplitudes, [1.0])
    with pytest.raises(NotUnitaryError):
        unitary_channel(np.array([[1, 0], [0, 2]]))


def test_nan_operator_is_not_unitary():
    with pytest.raises(NotUnitaryError):
        unitary_channel(np.array([[np.nan, 0], [0, 1]]))


def test_channel_shape_checks():
    with pytest.raises(ChannelError):
        VacuumExtendedChannel((np.eye(2),), np.array([1.0, 0.0]))
    with pytest.raises(ChannelError):
        VacuumExtendedChannel((np.eye(2), np.eye(3)), np.array([1.0, 0.0]))


def test_validate_reports_broken_channel():
    # a deliberately non-CPTP instance still constructs; validate flags it
    c = VacuumExtendedChannel((np.eye(2),), np.array([0.5 + 0j]))
    rep = validate(c)
    assert rep.cptp_defect < 1e-12
    assert rep.amplitude_defect > 0.5
    assert not rep.ok


def assert_bitwise(a, b):
    """Equal bit for bit, the sign of every zero included."""
    assert a.shape == b.shape and a.dtype == b.dtype
    a, b = np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_derived_kraus_is_the_dense_product(n, p):
    # the dense operators formed on first use are bitwise the products of
    # scale and unit operator: sqrt(w) * P^n, sqrt(1 - p) * eye and 1.0 * u
    amps = np.full(4, 0.5)
    for weights in ((1 - p, p / 3, p / 3, p / 3), (1 - p, p, 0, 0),
                    (1 - p, 0, 0, p)):
        c = pauli_channel_correlated(weights, n, amps)
        assert len(c.kraus) == 4
        for k, w, letter in zip(c.kraus, weights, PAULI_INDEX):
            assert_bitwise(k, np.sqrt(max(w, 0.0)) * pauli_string(letter * n))
    for i in range(n):
        c = memoryless_bitflip(i, n, p, (S2, S2))
        assert_bitwise(c.kraus[0], np.sqrt(1.0 - p) * np.eye(2**n, dtype=complex))
        assert_bitwise(c.kraus[1], np.sqrt(p) * pauli_string(
            "I" * i + "X" + "I" * (n - i - 1)))
    # a unitary channel holds u with scale one; Z^n and Y^n hold zeros of
    # both signs, and the product with 1.0 clears some of them
    for u in (pauli_string("Z" * n), pauli_string("Y" * n), pauli_string("X" * n)):
        assert_bitwise(unitary_channel(u).kraus[0], 1.0 * u)


def test_named_constructors_share_unit_operators():
    # a new noise point reuses the cached unit operators: no dense Kraus
    # operator is allocated until ``kraus`` is read
    c = depolarizing_correlated(0.3, 3, np.full(4, 0.5))
    assert all(op is pauli_string(letter * 3)
               for op, letter in zip(c.ops, PAULI_INDEX))
    assert "kraus" not in vars(c)
    b = memoryless_bitflip(0, 2, 0.3, (S2, S2))
    assert b.ops[0] is pauli_string("II") and b.ops[1] is pauli_string("XI")
    assert "kraus" not in vars(b)
    assert c.kraus is c.kraus


def test_raw_kraus_channel_stores_ones():
    # the Kraus operators given themselves become unit operators of scale 1
    c = VacuumExtendedChannel((np.eye(2), X), np.array([S2, S2]))
    assert c.scales.dtype == float and np.array_equal(c.scales, [1.0, 1.0])
    assert_bitwise(c.kraus[1], 1.0 * X)
    assert np.array_equal(unitary_channel(Y).scales, [1.0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kraus_columns_on_a_stack_equal_per_point_gathers(n):
    # one gather for a table of every point's scales gives every point
    # bitwise its own gather and the columns of its dense Kraus operators on
    # the reached rows; every other row is zero
    amps = np.full(4, 0.5)
    cols = np.arange(0, 2**n, 3)
    for make in (lambda p: (depolarizing_correlated(p, n, amps),
                            pauli_channel_correlated((1 - p, 0, 0, p), n, amps)),
                 lambda p: tuple(memoryless_bitflip(i, n, p, (S2, S2))
                                 for i in range(n))):
        stack = [make(p) for p in (0.0, 0.3, 1.0)]
        table = np.array([channels.scale_row(chans) for chans in stack])
        assert np.array_equal(table[1], [s for c in stack[1] for s in c.scales])
        reach, stacked = channels.kraus_columns(stack[0], table, cols)
        assert stacked.shape == (3, sum(len(c.ops) for c in stack[0]),
                                 len(reach), len(cols))
        for point, chans in zip(stacked, stack):
            one_reach, one = channels.kraus_columns(
                chans, channels.scale_row(chans)[None], cols)
            assert np.array_equal(one_reach, reach)
            assert_bitwise(point, one[0])
            dense = np.array([k[:, cols] for c in chans for k in c.kraus])
            assert_bitwise(point, dense[:, reach])
            assert not np.delete(dense, reach, axis=1).any()


def test_scales_must_match_operators():
    with pytest.raises(ChannelError):
        VacuumExtendedChannel((np.eye(2), X), np.array([S2, S2]), [1.0])
