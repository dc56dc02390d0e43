"""Shared generators and oracles for the test suite.

Everything random is driven by an explicit numpy Generator so failures
reproduce from the seed in the test that reported them.
"""

from __future__ import annotations

import numpy as np

from loccsynth import StateVector


def random_state(rng: np.random.Generator, dims) -> StateVector:
    n = int(np.prod(dims))
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))


def random_orthogonal_pair(rng: np.random.Generator, dims):
    psi = random_state(rng, dims)
    raw = rng.standard_normal(psi.amplitudes.size) + 1j * rng.standard_normal(
        psi.amplitudes.size
    )
    raw = raw - np.vdot(psi.amplitudes, raw) * psi.amplitudes
    phi = StateVector(tuple(dims), raw / np.linalg.norm(raw))
    return psi, phi


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    # Fix the column phases so the distribution is Haar, not QR-biased.
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_kraus_ops(rng: np.random.Generator, d_a: int, d_b: int, n_k: int):
    """Kraus operators of a random channel, sliced from a random isometry."""
    if d_b * n_k < d_a:
        raise ValueError("total output dimension cannot be smaller than the input")
    g = rng.standard_normal((d_b * n_k, d_a)) + 1j * rng.standard_normal((d_b * n_k, d_a))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return [q[k::n_k, :] for k in range(n_k)]



def conditional_slice(state: StateVector, i: int) -> np.ndarray:
    """Unnormalized second-factor state after projecting the first onto |i>."""
    d_a, d_b = state.dims
    return state.amplitudes[i * d_b : (i + 1) * d_b].copy()


def bell_pair():
    """The Bell state and its phase-flipped partner on two qubits."""
    plus = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    minus = np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2)
    return StateVector((2, 2), plus), StateVector((2, 2), minus)


def apply_on_first_factor(u: np.ndarray, state: StateVector) -> StateVector:
    """(u tensor identity) acting on a bipartite state."""
    d_a, d_b = state.dims
    amps = (u @ state.amplitudes.reshape(d_a, d_b)).reshape(-1)
    return StateVector(state.dims, amps)
