"""Diagonal flattening: 2x2 core, butterfly recursion, independent checker."""

import numpy as np
import pytest

from conftest import random_unitary
from loccsynth import (
    TAU_ZERO,
    DimensionMismatchError,
    FlatteningResult,
    uflat2,
    uflatgen,
    verify_flat,
)
from loccsynth.flatten import uflatgen_stack

S = 1 / np.sqrt(2)


def random_square(rng, d, traceless=False):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if traceless:
        m -= np.trace(m) / d * np.eye(d)
    return m


class TestUflat2:
    def test_nilpotent_needs_no_rotation(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        assert np.allclose(uflat2(m), np.eye(2), atol=1e-12)

    def test_sign_matrix(self):
        m = np.diag([1.0, -1.0]).astype(np.complex128)
        u = uflat2(m)
        assert np.allclose(u[:, 0], [S, S], atol=1e-12)
        # The second column is fixed only up to a global phase.
        assert abs(np.vdot(u[:, 1], [S, -S])) == pytest.approx(1.0, abs=1e-12)
        flat = u.conj().T @ m @ u
        assert np.max(np.abs(np.diagonal(flat))) <= 1e-12

    def test_rank_one_projector(self):
        m = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        u = uflat2(m)
        flat = u.conj().T @ m @ u
        assert np.allclose(np.diagonal(flat), [1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(uflat2(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_equalizes_random_diagonals(self):
        rng = np.random.default_rng(201)
        for trial in range(400):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if trial % 4 == 1:
                m = m + m.conj().T
            if trial % 4 == 2:
                m = m.real.astype(np.complex128)
            if trial % 7 == 0:
                m[1, 0] = 0.0  # triangular, possibly defective
            u = uflat2(m)
            fro = np.linalg.norm(m, "fro")
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12
            flat = u.conj().T @ m @ u
            half = np.trace(m) / 2
            assert np.max(np.abs(np.diagonal(flat) - half)) <= 1e-10 * (1 + fro)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            uflat2(np.zeros((3, 3)))

    def test_stacked_lanes_match_numpy_oracle(self):
        # Every matrix goes through one layer of uflatgen at once, so lanes
        # that take different branches of the 2x2 kernel share one call.
        rng = np.random.default_rng(202)
        mats = []
        for trial in range(500):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            kind = trial % 5
            if kind == 1:
                m = m + m.conj().T
            elif kind == 2:
                m = m - np.trace(m) / 2 * np.eye(2)
            elif kind == 3:
                m = np.diag(rng.standard_normal(2)).astype(np.complex128)
            elif kind == 4:
                m[1, :] = 0.0
            mats.append(m)
        mats.append(np.zeros((2, 2), dtype=np.complex128))
        mats.append(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))
        # Integer matrices, some with eigenvector components of equal modulus.
        for entries in ([[-1, -2], [2, 1]], [[1, 2], [3, 4]], [[1, 1], [0, 1]], [[2, 0], [0, -3]],
                        [[0, 5], [0, 0]], [[3, -1], [0, 0]], [[1, 1], [1, 1]], [[0, 0], [0, 0]]):
            mats.append(np.array(entries, dtype=np.complex128))
        # Lane z is the zero matrix, whose rotation is the identity.  Coupling
        # every lane k to it by an identity block makes block (k, z) of the
        # layer-0 product U M_pad read U_k*, so each lane's unitary comes out
        # of the same call, and block (k, k) reads U_k* M_k.  The coupling
        # blocks are not read by the 2x2 kernel.
        z = len(mats)
        n = 2 * (z + 1)
        big = np.zeros((n, n), dtype=np.complex128)
        for k, m in enumerate(mats):
            big[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = m
            big[2 * k : 2 * k + 2, 2 * z : 2 * z + 2] = np.eye(2)

        # Later layers mix the lanes, so stop uflatgen once layer 0 is done.
        class LayerZero(Exception):
            pass

        def grab(p, cur):
            raise LayerZero(cur.copy())

        with pytest.raises(LayerZero) as caught:
            uflatgen(big, on_layer=grab)
        cur = caught.value.args[0]

        for k, m in enumerate(mats):
            scale = 1e-10 * (1.0 + np.linalg.norm(m, "fro"))
            u = cur[2 * k : 2 * k + 2, 2 * z : 2 * z + 2].conj().T
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12, (k, m)
            flat = u.conj().T @ m @ u
            assert np.max(np.abs(np.diagonal(flat) - np.trace(m) / 2)) <= scale, (k, m)
            block = cur[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            assert np.max(np.abs(block @ u - flat)) <= scale, (k, m)


class TestUflatgen:
    def test_two_dims_matches_uflat2(self):
        rng = np.random.default_rng(203)
        for _ in range(25):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            # uflat2 returns columns; the general routine accumulates the
            # adjoint so its rows are the measurement basis.
            assert np.allclose(uflatgen(m).unitary, uflat2(m).conj().T, atol=1e-12)

    def test_sign_matrix_rows(self):
        result = uflatgen(np.diag([1.0, -1.0]).astype(np.complex128))
        assert np.allclose(result.unitary[0], [S, S], atol=1e-12)
        assert np.allclose(result.unitary[1], [-S, S], atol=1e-12)

    def test_pads_odd_dimension(self):
        m = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
        result = uflatgen(m)
        assert result.padded_dim == 4
        assert result.original_dim == 3
        padded = np.zeros((4, 4), dtype=np.complex128)
        padded[:3, :3] = m
        flat = result.unitary @ padded @ result.unitary.conj().T
        assert np.max(np.abs(np.diagonal(flat))) <= 1e-12  # trace is zero

    def test_zero_matrix_exact(self):
        result = uflatgen(np.zeros((2, 2)))
        assert result.residual == 0.0
        assert verify_flat(np.zeros((2, 2)), result) == 0.0

    def test_residual_and_unitarity(self):
        rng = np.random.default_rng(204)
        for d in (2, 3, 4, 5, 8, 13, 16, 32):
            for traceless in (False, True):
                m = random_square(rng, d, traceless)
                result = uflatgen(m)
                fro = np.linalg.norm(m, "fro")
                assert verify_flat(m, result) <= 1e-9 * (1 + fro)
                u = result.unitary
                defect = np.linalg.norm(u @ u.conj().T - np.eye(result.padded_dim))
                assert defect <= 1e-9 * result.padded_dim

    def test_nonzero_trace_lands_on_average(self):
        rng = np.random.default_rng(205)
        for d in (2, 3, 5, 8, 12):
            m = random_square(rng, d)
            m[0, 0] += 3.0  # keep the trace safely away from zero
            result = uflatgen(m)
            padded = np.zeros((result.padded_dim,) * 2, dtype=np.complex128)
            padded[:d, :d] = m
            flat = result.unitary @ padded @ result.unitary.conj().T
            target = np.trace(m) / result.padded_dim
            fro = np.linalg.norm(m, "fro")
            assert np.max(np.abs(np.diagonal(flat) - target)) <= 1e-9 * (1 + fro)

    def test_layer_count(self):
        rng = np.random.default_rng(206)
        for d, want in ((2, 1), (3, 2), (4, 2), (5, 3), (9, 4), (16, 4), (17, 5)):
            seen = []
            uflatgen(random_square(rng, d), on_layer=lambda p, cur: seen.append(p))
            assert seen == list(range(want))

    def test_blocks_equalize_layer_by_layer(self):
        # After layer p the diagonal of U M_pad U* is constant on aligned
        # blocks of width 2**(p+1); later layers must not break earlier
        # blocks.  The payload is P = U M_pad[:, :d], so U[:, :d] = P M^-1.
        rng = np.random.default_rng(207)
        for d in (4, 6, 8, 16):
            m = random_square(rng, d)
            fro = np.linalg.norm(m, "fro")
            m_inv = np.linalg.inv(m)
            diags = []

            def record(p, prod):
                diags.append(np.einsum("ij,ij->i", prod, (prod @ m_inv).conj()))

            uflatgen(m, on_layer=record)
            for p, diag in enumerate(diags):
                width = 1 << (p + 1)
                for start in range(0, diag.size, width):
                    block = diag[start : start + width]
                    spread = np.max(np.abs(block - block[0]))
                    assert spread <= TAU_ZERO * (1 + fro)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 33, 64])
    def test_layers_match_dense_reference(self, d):
        # Reference: layer p is the dense unitary L holding uflat2 of each
        # pair (i, i + 2**p) of the previous matrix; the layer yields L* M L
        # and the unitary accumulates L*.  Each payload is U M_pad[:, :d].
        rng = np.random.default_rng([208, d])
        m = random_square(rng, d)
        layers = []
        result = uflatgen(m, on_layer=lambda p, prod: layers.append(prod.copy()))
        n = result.padded_dim
        prev = np.zeros((n, n), dtype=np.complex128)
        prev[:d, :d] = m
        u_ref = np.eye(n, dtype=np.complex128)
        for p, got in enumerate(layers):
            step = 1 << p
            layer = np.eye(n, dtype=np.complex128)
            for i in range(n):
                if not i & step:
                    pair = np.ix_([i, i + step], [i, i + step])
                    layer[pair] = uflat2(prev[pair])
            u_ref = layer.conj().T @ u_ref
            prev = layer.conj().T @ prev @ layer
            assert np.max(np.abs(got - u_ref[:, :d] @ m)) <= 1e-12
        assert np.max(np.abs(result.unitary - u_ref)) <= 1e-12

    def test_verify_flat_catches_wrong_unitary(self):
        m = np.diag([1.0, -1.0]).astype(np.complex128)
        fake = FlatteningResult(unitary=np.eye(2), padded_dim=2, original_dim=2, residual=0.0)
        assert verify_flat(m, fake) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [3, 5, 33, 100])
    def test_verify_flat_matches_dense_conjugation(self, d):
        # Reference: the diagonal of U M_pad U* from two dense products on the
        # zero-padded matrix, for a flattening and for a random unitary, whose
        # residual is far from zero and so shows any column the checker skips.
        rng = np.random.default_rng(900 + d)
        m = random_square(rng, d)
        flat = uflatgen(m)
        n = flat.padded_dim
        padded = np.zeros((n, n), dtype=np.complex128)
        padded[:d, :d] = m
        haar = FlatteningResult(random_unitary(rng, n), padded_dim=n, original_dim=d, residual=0.0)
        for result in (flat, haar):
            u = result.unitary
            want = np.max(np.abs(np.diagonal(u @ padded @ u.conj().T) - np.trace(m) / n))
            assert abs(verify_flat(m, result) - want) <= 1e-12 * (1 + np.linalg.norm(m))

    @pytest.mark.parametrize("padded_dim, original_dim", [(4, 2), (2, 3), (2, 0)])
    def test_result_checks_its_dimensions(self, padded_dim, original_dim):
        with pytest.raises(DimensionMismatchError):
            FlatteningResult(np.eye(2), padded_dim, original_dim, residual=0.0)

    def test_verify_flat_dimension_check(self):
        result = uflatgen(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            verify_flat(np.eye(3), result)

    def test_stack_of_one_dimensional_matrices_runs_no_layer(self):
        # A measurement with one outcome: synthesis takes it from here for d_A = 1.
        layers = []
        ms = np.array([[[2.0 - 1.0j]], [[0.0]]])
        u, residuals = uflatgen_stack(ms, lambda p, cur: layers.append(p))
        assert layers == []
        assert np.array_equal(u, np.ones((2, 1, 1)))
        assert np.array_equal(residuals, [0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            uflatgen_stack(np.ones((2, 0, 0)))

    def test_layer_payload_is_read_only(self):
        # The hook sees the live product U M_pad[:, :d] and cannot change it.
        rng = np.random.default_rng(209)
        ms = np.array([random_square(rng, 6) for _ in range(3)])
        shapes = []

        def scribble(p, prod):
            shapes.append(prod.shape)
            with pytest.raises(ValueError):
                prod[..., 0, 0] = 1e6

        result = uflatgen(ms[0], on_layer=scribble)
        plain = uflatgen(ms[0])
        assert np.array_equal(result.unitary, plain.unitary)
        assert result.residual == plain.residual
        unitaries, residuals = uflatgen_stack(ms, scribble)
        plain_u, plain_residuals = uflatgen_stack(ms)
        assert np.array_equal(unitaries, plain_u)
        assert np.array_equal(residuals, plain_residuals)
        assert shapes == [(8, 6)] * 3 + [(3, 8, 6)] * 3

    def test_rejects_tiny_and_crooked_input(self):
        with pytest.raises(DimensionMismatchError):
            uflatgen(np.ones((1, 1)))
        with pytest.raises(DimensionMismatchError):
            uflatgen(np.ones((2, 3)))


class TestUflatgenStack:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 33])
    def test_stack_matches_single_calls(self, d):
        # A zero, a diagonal and four random matrices share one layer loop;
        # each must come out as its own uflatgen call does.
        rng = np.random.default_rng([210, d])
        ms = [np.zeros((d, d)), np.diag(rng.standard_normal(d))]
        ms += [random_square(rng, d) for _ in range(4)]
        ms = np.array(ms, dtype=np.complex128)
        n = 1 << (d - 1).bit_length()
        unitaries, residuals = uflatgen_stack(ms)
        assert unitaries.shape == (6, n, n)
        assert residuals.shape == (6,)
        for m, u, residual in zip(ms, unitaries, residuals):
            single = uflatgen(m)
            assert np.max(np.abs(u - single.unitary)) <= 1e-12
            assert abs(residual - single.residual) <= 1e-12
            checked = verify_flat(m, FlatteningResult(u, n, d, residual))
            assert abs(residual - checked) <= 1e-12 * (1 + np.linalg.norm(m))

    @pytest.mark.parametrize("d, n", [(1, 1), (3, 4), (5, 8)])
    def test_empty_stack(self, d, n):
        unitaries, residuals = uflatgen_stack(np.zeros((0, d, d)))
        assert unitaries.shape == (0, n, n)
        assert residuals.shape == (0,)
