"""The StateVector record and the (d_A, d_B) amplitude matrix of a bipartite state."""

import numpy as np
import pytest

from conftest import random_state
from loccsynth import DimensionMismatchError, NotNormalizedError, StateVector, overlap_matrix


class TestStateVector:
    def test_amplitude_count_must_match_dims(self):
        with pytest.raises(DimensionMismatchError):
            StateVector((2, 3), np.zeros(5, dtype=np.complex128))

    def test_dims_must_be_positive(self):
        with pytest.raises(ValueError):
            StateVector((2, 0), np.zeros(0, dtype=np.complex128))
        with pytest.raises(ValueError):
            StateVector((), np.zeros(1, dtype=np.complex128))

    def test_require_normalized(self):
        good = StateVector((2,), np.array([1.0, 0.0]))
        good.require_normalized()
        bad = StateVector((2,), np.array([1.0, 1.0]))
        with pytest.raises(NotNormalizedError):
            bad.require_normalized()

    def test_overlap_conjugates_self(self):
        # <a|b> carries the conjugate on the left argument.
        a = StateVector((2,), np.array([1.0, 1.0j]) / np.sqrt(2))
        b = StateVector((2,), np.array([1.0, 0.0], dtype=np.complex128))
        assert a.overlap(b) == pytest.approx((1.0 - 0.0j) / np.sqrt(2))
        assert b.overlap(a) == pytest.approx(np.conj(a.overlap(b)))

    def test_overlap_rejects_mismatched_dims(self):
        a = StateVector((2,), np.array([1.0, 0.0]))
        b = StateVector((3,), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatchError):
            a.overlap(b)

    def test_amplitudes_are_frozen(self):
        s = StateVector((2,), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5.0


class TestUnvecVec:
    """``amplitudes.reshape(d_A, d_B)``: the one matrix orientation, which replaced unvec/vec."""

    def test_product_state(self):
        # |00> on 2x2 becomes the rank-one matrix with a single corner entry.
        s = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(s.amplitudes.reshape(s.dims), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_bell_state_is_scaled_identity(self):
        s = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert np.allclose(s.amplitudes.reshape(s.dims), np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_index_convention(self):
        # Entry (i, j) of the matrix is amplitude i * d_b + j, and overlap_matrix
        # contracts the second factor's index j of that same matrix.
        d_a, d_b = 3, 4
        amps = np.arange(12, dtype=np.complex128)
        m = StateVector((d_a, d_b), amps).amplitudes.reshape(d_a, d_b)
        assert m.shape == (d_a, d_b)
        for i in range(d_a):
            for j in range(d_b):
                assert m[i, j] == amps[i * d_b + j]
        rng = np.random.default_rng(106)
        psi, phi = random_state(rng, (d_a, d_b)), random_state(rng, (d_a, d_b))
        got = overlap_matrix(psi, phi)
        for i_prime in range(d_a):
            for i in range(d_a):
                want = sum(
                    np.conj(phi.amplitudes[i_prime * d_b + j]) * psi.amplitudes[i * d_b + j]
                    for j in range(d_b)
                )
                assert abs(got[i_prime, i] - want) <= 1e-12

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(104)
        s = random_state(rng, (3, 5))
        back = StateVector((3, 5), s.amplitudes.reshape(s.dims))
        assert back.dims == s.dims
        assert np.array_equal(back.amplitudes, s.amplitudes)

    def test_vec_then_unvec_is_exact(self):
        rng = np.random.default_rng(105)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        s = StateVector((3, 4), m)
        assert np.array_equal(s.amplitudes.reshape(s.dims), m)

    def test_unvec_needs_bipartite(self):
        s = StateVector((2, 2, 2), np.eye(8)[0])
        with pytest.raises(DimensionMismatchError):
            overlap_matrix(s, s)
