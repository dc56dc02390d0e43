"""Environment-assisted one-bit codes and their Stinespring plumbing."""

import numpy as np
import pytest

from conftest import random_kraus_ops, random_orthogonal_pair, random_state
from loccsynth import (
    DimensionMismatchError,
    KrausChannel,
    NonOrthogonalInputError,
    NotNormalizedError,
    build_env_code,
    stinespring,
    success_probability,
)

S = 1 / np.sqrt(2)


def identity_channel():
    return KrausChannel(2, 2, (np.eye(2, dtype=np.complex128),))


def dephasing_channel():
    return KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def damping_channel(gamma=0.3):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel(2, 2, (k0, k1))


def channel_action(channel, rho):
    return sum(k @ rho @ k.conj().T for k in channel.kraus)


def trace_out_env(m, d_b, d_e):
    """Partial trace over the environment of a (B tensor E) operator."""
    return np.einsum("jkik->ji", m.reshape(d_b, d_e, d_b, d_e))


class TestKrausChannel:
    def test_env_dim_counts_operators(self):
        assert identity_channel().env_dim == 1
        assert dephasing_channel().env_dim == 2

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, (0.5 * np.eye(2),))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(2, 3, (np.eye(2),))

    def test_rejects_empty_kraus_list(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, ())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            KrausChannel(0, 2, (np.zeros((2, 0)),))

    def test_random_isometry_slices_are_channels(self):
        rng = np.random.default_rng(501)
        for _ in range(10):
            d_a = int(rng.integers(2, 5))
            d_b = int(rng.integers(2, 5))
            n_k = max(int(rng.integers(1, 5)), -(-d_a // d_b))
            ops = random_kraus_ops(rng, d_a, d_b, n_k)
            channel = KrausChannel(d_a, d_b, tuple(ops))
            assert channel.env_dim == n_k


class TestStinespring:
    def test_identity_channel_dilates_trivially(self):
        channel = identity_channel()
        assert channel.env_dim == 1
        assert np.array_equal(stinespring(channel), np.eye(2))

    def test_dephasing_copies_basis_to_environment(self):
        v = stinespring(dephasing_channel())
        want = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=np.complex128)
        assert np.array_equal(v, want)

    def test_isometry_property(self):
        for channel in (identity_channel(), dephasing_channel(), damping_channel()):
            v = stinespring(channel)
            assert np.max(np.abs(v.conj().T @ v - np.eye(channel.input_dim))) <= 1e-12

    def test_dilation_reproduces_channel(self):
        rng = np.random.default_rng(502)
        channels = [identity_channel(), dephasing_channel(), damping_channel()]
        for _ in range(10):
            d_a = int(rng.integers(2, 4))
            d_b = int(rng.integers(2, 4))
            n_k = max(int(rng.integers(1, 4)), -(-d_a // d_b))
            channels.append(KrausChannel(d_a, d_b, tuple(random_kraus_ops(rng, d_a, d_b, n_k))))
        for channel in channels:
            v = stinespring(channel)
            state = random_state(rng, (channel.input_dim,))
            rho = np.outer(state.amplitudes, state.amplitudes.conj())
            dilated = v @ rho @ v.conj().T
            recovered = trace_out_env(dilated, channel.output_dim, channel.env_dim)
            direct = channel_action(channel, rho)
            assert np.max(np.abs(recovered - direct)) <= 1e-10


class TestBuildEnvCode:
    def test_identity_channel(self):
        code = build_env_code(identity_channel())
        assert code.error_prob == 0.0
        # One Kraus operator means a one-dimensional environment: a single
        # vacuous announcement, with the receiver doing all the work.
        assert code.protocol.padded_dim_a == 1
        assert np.array_equal(code.encoder_states[0], [1, 0])
        assert np.array_equal(code.encoder_states[1], [0, 1])

    def test_dephasing_channel(self):
        code = build_env_code(dephasing_channel())
        assert code.error_prob <= 1e-12
        assert code.protocol.original_dim_a == 2  # environment announces

    def test_damping_channel(self):
        code = build_env_code(damping_channel())
        assert code.error_prob <= 1e-12

    def test_environment_always_measures_even_when_larger(self):
        rng = np.random.default_rng(503)
        ops = random_kraus_ops(rng, 2, 2, 3)  # environment dim 3 > output dim 2
        code = build_env_code(KrausChannel(2, 2, tuple(ops)))
        assert code.protocol.original_dim_a == 3
        assert not code.protocol.swapped
        assert code.error_prob <= 1e-9

    def test_random_channels_decode_perfectly(self):
        rng = np.random.default_rng(504)
        for _ in range(20):
            d_b = int(rng.integers(2, 5))
            n_k = int(rng.integers(1, 6))
            channel = KrausChannel(2, d_b, tuple(random_kraus_ops(rng, 2, d_b, n_k)))
            assert build_env_code(channel).error_prob <= 1e-9

    def test_redundant_zero_kraus_changes_nothing(self):
        # Appending a zero operator is a different dilation of the same
        # channel; the code must still be exact.
        rng = np.random.default_rng(505)
        ops = random_kraus_ops(rng, 2, 3, 2)
        padded = tuple(ops) + (np.zeros((3, 2), dtype=np.complex128),)
        code = build_env_code(KrausChannel(2, 3, padded))
        assert code.protocol.original_dim_a == 3
        assert code.error_prob <= 1e-9

    def test_custom_encoders(self):
        plus = np.array([S, S])
        minus = np.array([S, -S])
        code = build_env_code(dephasing_channel(), encoder_states=(plus, minus))
        assert code.error_prob <= 1e-9
        assert np.allclose(code.encoder_states[0], plus)

    def test_encoder_validation(self):
        channel = dephasing_channel()
        with pytest.raises(NotNormalizedError):
            build_env_code(channel, encoder_states=([1.0, 1.0], [1.0, -1.0]))
        with pytest.raises(NonOrthogonalInputError):
            build_env_code(channel, encoder_states=([1.0, 0.0], [S, S]))
        with pytest.raises(DimensionMismatchError):
            build_env_code(channel, encoder_states=([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            build_env_code(channel, encoder_states=([1.0, 0.0],))

    def test_rejects_one_dimensional_input(self):
        channel = KrausChannel(1, 2, (np.array([[1.0], [0.0]]),))
        with pytest.raises(ValueError):
            build_env_code(channel)


class TestConverse:
    """A pair of states is a channel whose environment can decode it.

    The isometry V|0> = psi, V|1> = phi, read with A as the environment,
    has Kraus operators K_k = (<k|_A x 1) V.  Its assisted code is then a
    discrimination protocol for the original pair.
    """

    @pytest.mark.parametrize("dims", [(3, 5), (4, 4), (6, 2)])
    def test_code_of_pair_channel_discriminates_the_pair(self, dims):
        d_a, d_b = dims
        psi, phi = random_orthogonal_pair(np.random.default_rng([506, *dims]), dims)
        v = np.column_stack([psi.amplitudes, phi.amplitudes]).reshape(d_a, d_b, 2)
        channel = KrausChannel(2, d_b, tuple(v[k] for k in range(d_a)))
        code = build_env_code(channel)
        assert code.error_prob <= 1e-12
        assert (code.protocol.original_dim_a, code.protocol.dim_b) == dims
        report = success_probability(psi, phi, code.protocol)
        assert abs(report.success_prob - 1.0) <= 1e-12
