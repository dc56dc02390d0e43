"""Dense complex primitives: states, products, reshaping."""

import numpy as np
import pytest

from conftest import naive_matmul, random_state
from loccsynth import (
    DimensionMismatchError,
    NotNormalizedError,
    StateVector,
    adjoint,
    matmul,
    unvec,
    vec,
)

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=np.complex128)


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


class TestMatmul:
    def test_identity(self):
        m = np.arange(6, dtype=np.complex128).reshape(2, 3)
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_nilpotent_squares_to_zero(self):
        assert np.array_equal(matmul(NILPOTENT, NILPOTENT), np.zeros((2, 2)))

    def test_against_entrywise_sums(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            got = matmul(a, b)
            want = naive_matmul(a, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_associativity(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            c = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            scale = max(1.0, float(np.max(np.abs(left))))
            assert np.max(np.abs(left - right)) <= 1e-12 * scale

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.eye(2), np.eye(3))


class TestAdjoint:
    def test_single_entry(self):
        m = np.array([[1.0 + 2.0j]])
        assert adjoint(m)[0, 0] == 1.0 - 2.0j

    def test_involution(self):
        rng = np.random.default_rng(103)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_transposes_shape(self):
        m = np.zeros((2, 7), dtype=np.complex128)
        assert adjoint(m).shape == (7, 2)

    def test_hermitian_fixed_point(self):
        h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -3.0]])
        assert np.array_equal(adjoint(h), h)


class TestUnvecVec:
    def test_product_state(self):
        # |00> on 2x2 becomes the rank-one matrix with a single corner entry.
        s = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(unvec(s), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_bell_state_is_scaled_identity(self):
        s = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert np.allclose(unvec(s), np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_index_convention(self):
        # Entry (j, i) of the matrix is amplitude i * d_b + j.
        d_a, d_b = 3, 4
        amps = np.arange(12, dtype=np.complex128)
        m = unvec(StateVector((d_a, d_b), amps))
        assert m.shape == (d_b, d_a)
        for i in range(d_a):
            for j in range(d_b):
                assert m[j, i] == amps[i * d_b + j]

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(104)
        s = random_state(rng, (3, 5))
        back = vec(unvec(s), dims=(3, 5))
        assert back.dims == s.dims
        assert np.array_equal(back.amplitudes, s.amplitudes)

    def test_vec_then_unvec_is_exact(self):
        rng = np.random.default_rng(105)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert np.array_equal(unvec(vec(m)), m)

    def test_unvec_needs_bipartite(self):
        with pytest.raises(DimensionMismatchError):
            unvec(StateVector((2, 2, 2), np.zeros(8)))

