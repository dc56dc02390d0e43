"""Property tests: the two results the synthesis rests on, over generated input.

Fillmore (Amer. Math. Monthly 76, 1969): every matrix is unitarily similar
to one with a constant diagonal.  Walgate, Short, Hardy & Vedral (PRL 85,
4972, 2000): every pair of orthogonal pure states is perfectly
distinguishable by one-way LOCC.  The construction's structure shows too:
a unitary on the decoding party's side leaves the measuring basis alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal_pair, random_unitary
from loccsynth import (
    TAU_ORTH,
    FlatteningResult,
    StateVector,
    success_probability,
    synthesize,
    uflat2,
    uflatgen,
    verify_flat,
)

SETTINGS = settings(deadline=None, derandomize=True, database=None, max_examples=100)

entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
KINDS = ("general", "triangular", "hermitian", "traceless", "rank_one", "jordan")


def _shaped(d, values, kind):
    m = np.array(values, dtype=np.complex128).reshape(d, d)
    if kind == "triangular":
        return np.triu(m)
    if kind == "hermitian":
        return m + m.conj().T
    if kind == "traceless":
        return m - np.trace(m) / d * np.eye(d)
    if kind == "rank_one":
        return np.outer(m[:, 0], m[0].conj())
    if kind == "jordan":
        # One eigenvalue with a single Jordan block: defective for d >= 2.
        return m[0, 0] * np.eye(d) + np.diag(m[0, 1:], 1)
    return m


@st.composite
def matrices(draw, dims):
    d = draw(dims)
    values = draw(st.lists(entries, min_size=d * d, max_size=d * d))
    scale = 10.0 ** draw(st.sampled_from([-160, -100, 0, 100, 160]))
    return _shaped(d, values, draw(st.sampled_from(KINDS))) * scale


def _fro(m):
    # |M|_F without squaring entries near the overflow threshold.
    top = np.max(np.abs(m))
    return top * np.linalg.norm(m / top) if top > 0.0 else 0.0


def _assert_flat(m, result):
    u = result.unitary
    assert np.max(np.abs(u @ u.conj().T - np.eye(result.padded_dim))) <= 1e-12
    # Relative to |M|_F alone, so matrices scaled by 1e-100 are checked too.
    assert verify_flat(m, result) <= 1e-9 * _fro(m)


class TestFillmore:
    @SETTINGS
    @given(matrices(st.just(2)))
    @example(np.array([[-1, -2], [2, 1]], dtype=np.complex128))  # spectrum +-i*sqrt(3), equal moduli
    @example(np.array([[1, 1], [0, 1]], dtype=np.complex128))  # defective
    @example(np.array([[0, 1], [0, 0]], dtype=np.complex128))  # nilpotent
    @example(np.diag([1.0, -1.0]).astype(np.complex128))
    @example(np.zeros((2, 2), dtype=np.complex128))
    @example(np.array([[1e-160, 1e150], [-1e150, 0]], dtype=np.complex128))  # entries 1e310 apart
    @example(np.array([[1e160, 2e160], [-1e160, 3e159]], dtype=np.complex128))  # products overflow
    def test_uflat2(self, m):
        # uflat2's columns are the basis; the result stores it as rows.
        result = FlatteningResult(unitary=uflat2(m).conj().T, padded_dim=2, original_dim=2, residual=0.0)
        _assert_flat(m, result)

    @SETTINGS
    @given(matrices(st.integers(2, 9)))
    def test_uflatgen(self, m):
        _assert_flat(m, uflatgen(m))


class TestWalgate:
    @SETTINGS
    @given(
        d_a=st.integers(1, 6),
        d_b=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        swap_roles=st.booleans(),
        tilt=st.sampled_from([0.0, 0.9 * TAU_ORTH]),
    )
    # Tilted to the edge of the orthogonality gate: with one-dimensional
    # decoding a decoder along the psi branch said "psi" everywhere (0.5).
    @example(d_a=3, d_b=1, seed=0, swap_roles=False, tilt=0.9 * TAU_ORTH)
    def test_orthogonal_pairs_are_distinguished(self, d_a, d_b, seed, swap_roles, tilt):
        if d_a * d_b < 2:
            d_b = 2  # one dimension holds no orthogonal pair
        rng = np.random.default_rng(seed)
        psi, phi = random_orthogonal_pair(rng, (d_a, d_b))
        # |<phi|psi>| = tilt, which the input gate still accepts.
        phase = np.exp(2j * np.pi * rng.random())
        tilted = np.sqrt(1.0 - tilt**2) * phi.amplitudes + tilt * phase * psi.amplitudes
        phi = StateVector(phi.dims, tilted)
        report = success_probability(psi, phi, synthesize(psi, phi, swap_roles=swap_roles))
        assert report.success_prob >= 1.0 - 1e-9
        # Rounding may lift the sum of outcome masses a few ulps above 1.
        assert report.success_prob <= 1.0 + 1e-12

    @pytest.mark.parametrize("theta", [0.3, 0.01])
    def test_tilted_pair_with_a_light_branch(self, theta):
        # After the flatten, outcome 1 carries all of psi and 2e-17 of phi on
        # branches theta apart; a decoder orthogonal to the light phi branch
        # there scores 0.54, and one along the light psi branch of outcome 0
        # (the old decoder) scores the same.
        t = 0.9 * TAU_ORTH
        chi = np.array([np.cos(theta), np.sin(theta)])
        psi = np.sqrt(1.0 - t * t) * np.kron([0.0, 1.0], chi) + t * np.kron([1.0, 0.0], [1.0, 0.0])
        phi = np.kron([1.0, 0.0], [1.0, 0.0])
        psi, phi = StateVector((2, 2), psi), StateVector((2, 2), phi)
        for a, b in ((psi, phi), (phi, psi)):
            assert success_probability(a, b, synthesize(a, b)).success_prob >= 1.0 - 1e-9


class TestDecoderSideUnitary:
    @settings(deadline=None, derandomize=True, database=None, max_examples=25)
    @given(d_a=st.integers(1, 6), d_b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_basis_stays_and_decoders_turn(self, d_a, d_b, seed):
        # M = conj(m_phi) m_psi^T is the same for both states moved by I (x) V,
        # so the basis is the same; each decoder turns to V r, and the score stays.
        if d_a * d_b < 2:
            d_b = 2  # one dimension holds no orthogonal pair
        rng = np.random.default_rng(seed)
        psi, phi = random_orthogonal_pair(rng, (d_a, d_b))
        protocol = synthesize(psi, phi)
        # V acts on the party that decodes: the first factor when the roles are swapped.
        v = random_unitary(rng, d_a if protocol.swapped else d_b)

        def moved(state):
            m = state.amplitudes.reshape(state.dims)
            return StateVector(state.dims, (v @ m if protocol.swapped else m @ v.T).reshape(-1))

        psi_v, phi_v = moved(psi), moved(phi)
        turned = synthesize(psi_v, phi_v)
        assert turned.swapped == protocol.swapped
        assert np.max(np.abs(turned.alice_vectors - protocol.alice_vectors)) <= 1e-12
        for r, r_v in zip(protocol.bob_projectors, turned.bob_projectors):
            assert (r is None) == (r_v is None)
            if r is not None:
                assert np.max(np.abs(r_v - v @ r)) <= 1e-12
        before = success_probability(psi, phi, protocol)
        after = success_probability(psi_v, phi_v, turned)
        assert abs(after.success_prob - before.success_prob) <= 1e-12
        outcomes = np.subtract(after.per_outcome_success, before.per_outcome_success)
        assert np.max(np.abs(outcomes)) <= 1e-12
        assert abs(after.max_orthogonality_residual - before.max_orthogonality_residual) <= 1e-12
        assert np.max(np.abs(np.subtract(after.kept_mass, before.kept_mass))) <= 1e-12
