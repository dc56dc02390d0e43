"""Independent verification of discrimination protocols.

Everything here is recomputed from the measurement vectors, the decoder
projectors and the raw input states by explicit inner products.  The
diagnostic fields a Protocol happens to carry (outcome probabilities,
residuals) are deliberately ignored, so a synthesis bug cannot vouch for
itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import TAU_NORM, TAU_ORTH, TAU_ZERO, DimensionMismatchError, StateVector, pad_rows
from .synthesis import (
    BranchNode,
    GuessLeaf,
    MultipartiteProtocol,
    Protocol,
    TruncatedMessagePlan,
)


@dataclass(frozen=True)
class VerificationReport:
    """Success probability under an equal prior, with per-outcome detail.

    ``per_outcome_success`` pairs each outcome's probability (averaged over
    the two hypotheses) with the conditional success given that outcome.
    ``max_orthogonality_residual`` is the largest normalized overlap between
    the two conditional decoder states across outcomes where both occur.
    ``kept_mass`` is the probability, under psi and under phi, that the
    outcome is one the plan keeps (every outcome without a plan).
    """

    success_prob: float
    per_outcome_success: tuple[tuple[float, float], ...]
    max_orthogonality_residual: float
    elapsed_s: float
    tolerances: dict
    kept_mass: tuple[float, float]


def _oriented_padded(state: StateVector, protocol: Protocol) -> np.ndarray:
    """Reorder and pad a raw input to match the protocol's role order."""
    if len(state.dims) != 2:
        raise DimensionMismatchError("expected bipartite states")
    amps = state.amplitudes.reshape(state.dims)
    if protocol.swapped:
        amps = amps.T
    d_a, d_b = amps.shape
    if d_a != protocol.original_dim_a or d_b != protocol.dim_b:
        raise DimensionMismatchError(
            f"states of dims ({d_a}, {d_b}) do not fit a protocol on "
            f"({protocol.original_dim_a}, {protocol.dim_b})"
        )
    return pad_rows(amps, d_a, protocol.padded_dim_a)


def _check_measurement(protocol: Protocol) -> None:
    """Refuse measurement rows that are not orthonormal and decoders that are not unit vectors."""
    u = protocol.alice_vectors
    # Written as "not within tolerance" so that NaN entries fail the checks.
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(protocol.padded_dim_a))))
    if not defect <= TAU_NORM:
        raise ValueError(f"measurement rows are not orthonormal: max|U U* - I| = {defect:.3e}")
    for i, b in enumerate(protocol.bob_projectors):
        if b is not None and not abs(np.linalg.norm(b) - 1.0) <= TAU_NORM:
            raise ValueError(f"decoder {i} has norm {np.linalg.norm(b)!r}, not 1")


def _outcome_table(m_psi: np.ndarray, m_phi: np.ndarray, protocol: Protocol):
    """Per-outcome probabilities and correct-guess masses for both states."""
    cond_psi = protocol.alice_vectors.conj() @ m_psi
    cond_phi = protocol.alice_vectors.conj() @ m_phi
    q_psi = np.einsum("ij,ij->i", cond_psi.conj(), cond_psi).real
    q_phi = np.einsum("ij,ij->i", cond_phi.conj(), cond_phi).real
    ok_psi = np.zeros(protocol.padded_dim_a)
    ok_phi = np.zeros(protocol.padded_dim_a)
    residual = 0.0
    for i, b in enumerate(protocol.bob_projectors):
        if b is None:
            # Decoder answers phi unconditionally on this outcome.
            ok_phi[i] = q_phi[i]
        else:
            hit_psi = abs(np.vdot(b, cond_psi[i])) ** 2
            hit_phi = abs(np.vdot(b, cond_phi[i])) ** 2
            ok_psi[i] = hit_psi
            ok_phi[i] = max(q_phi[i] - hit_phi, 0.0)
        if q_psi[i] > TAU_ZERO**2 and q_phi[i] > TAU_ZERO**2:
            ov = abs(np.vdot(cond_phi[i], cond_psi[i]))
            residual = max(residual, ov / np.sqrt(q_psi[i] * q_phi[i]))
    return q_psi, q_phi, ok_psi, ok_phi, residual


def success_probability(
    psi: StateVector,
    phi: StateVector,
    protocol: Protocol,
    plan: TruncatedMessagePlan | None = None,
) -> VerificationReport:
    """Exact success probability of a protocol on a state pair, equal prior.

    With a truncation ``plan``, outcomes outside the kept set count as
    failures under both hypotheses.  Raises ValueError when the measurement
    rows are not orthonormal, a decoder is not a unit vector, or the plan
    keeps a repeated or out-of-range outcome.
    """
    start = time.perf_counter()
    psi.require_normalized()
    phi.require_normalized()
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    m_psi = _oriented_padded(psi, protocol)
    m_phi = _oriented_padded(phi, protocol)
    _check_measurement(protocol)
    q_psi, q_phi, ok_psi, ok_phi, residual = _outcome_table(m_psi, m_phi, protocol)

    if plan is None:
        keep = np.ones(protocol.padded_dim_a, dtype=bool)
    else:
        kept = list(plan.kept_outcomes)
        if len(set(kept)) != len(kept) or any(not 0 <= i < protocol.padded_dim_a for i in kept):
            raise ValueError(
                f"kept outcomes {kept} must be distinct indices below {protocol.padded_dim_a}"
            )
        keep = np.zeros(protocol.padded_dim_a, dtype=bool)
        keep[kept] = True
        ok_psi = np.where(keep, ok_psi, 0.0)
        ok_phi = np.where(keep, ok_phi, 0.0)

    success = 0.5 * (float(ok_psi.sum()) + float(ok_phi.sum()))
    per_outcome = []
    for i in range(protocol.padded_dim_a):
        weight = 0.5 * (q_psi[i] + q_phi[i])
        if weight > 0.0:
            conditional = 0.5 * (ok_psi[i] + ok_phi[i]) / weight
        else:
            conditional = 1.0
        per_outcome.append((float(weight), float(conditional)))

    return VerificationReport(
        success_prob=success,
        per_outcome_success=tuple(per_outcome),
        max_orthogonality_residual=float(residual),
        elapsed_s=time.perf_counter() - start,
        tolerances={"tau_zero": TAU_ZERO, "tau_norm": TAU_NORM, "tau_orth": TAU_ORTH},
        kept_mass=(float(q_psi[keep].sum()), float(q_phi[keep].sum())),
    )


def sample_run(
    state: StateVector,
    protocol: Protocol,
    seed: int,
    shots: int,
    truth: str = "psi",
) -> float:
    """Monte Carlo estimate of the success frequency on one input state.

    ``truth`` names which of the two hypotheses ``state`` actually is, so
    the sampled guesses can be scored.  Outcomes are drawn by inverse CDF
    over the exact outcome probabilities; runs are reproducible from the
    seed alone.  Raises ValueError when the measurement rows are not
    orthonormal or a decoder is not a unit vector.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if truth not in ("psi", "phi"):
        raise ValueError(f"truth must be 'psi' or 'phi', got {truth!r}")
    state.require_normalized()
    m_state = _oriented_padded(state, protocol)
    _check_measurement(protocol)
    cond = protocol.alice_vectors.conj() @ m_state
    q = np.einsum("ij,ij->i", cond.conj(), cond).real
    guess_psi_prob = np.zeros(protocol.padded_dim_a)
    for i, b in enumerate(protocol.bob_projectors):
        if b is not None and q[i] > 0.0:
            guess_psi_prob[i] = abs(np.vdot(b, cond[i])) ** 2 / q[i]

    cdf = np.cumsum(q)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u_outcome = rng.random(shots)
    u_guess = rng.random(shots)
    idx = np.searchsorted(cdf, u_outcome, side="right")
    idx = np.minimum(idx, protocol.padded_dim_a - 1)
    guessed_psi = u_guess < guess_psi_prob[idx]
    want_psi = truth == "psi"
    return float(np.mean(guessed_psi == want_psi))


def multipartite_success_probability(
    psi: StateVector, phi: StateVector, protocol: MultipartiteProtocol
) -> float:
    """Exact success probability of a protocol tree, by full enumeration."""
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    if psi.dims != protocol.dims:
        raise DimensionMismatchError(
            f"states on dims {psi.dims} do not fit a protocol on {protocol.dims}"
        )
    psi.require_normalized()
    phi.require_normalized()
    ok_psi, ok_phi = _tree_success(psi.amplitudes, phi.amplitudes, protocol.dims, protocol.root)
    return 0.5 * (ok_psi + ok_phi)


def _tree_success(a_psi: np.ndarray, a_phi: np.ndarray, dims: tuple[int, ...], node):
    """Correct-guess masses of a subtree on unnormalized conditional pairs."""
    if node is None:
        return 0.0, 0.0
    if isinstance(node, GuessLeaf):
        mass_psi = float(np.vdot(a_psi, a_psi).real)
        mass_phi = float(np.vdot(a_phi, a_phi).real)
        return (mass_psi, 0.0) if node.guess == "psi" else (0.0, mass_phi)
    if isinstance(node, Protocol):
        m_psi = pad_rows(a_psi, dims[0], node.padded_dim_a)
        m_phi = pad_rows(a_phi, dims[0], node.padded_dim_a)
        _, _, ok_psi, ok_phi, _ = _outcome_table(m_psi, m_phi, node)
        return float(ok_psi.sum()), float(ok_phi.sum())
    # Branch node: condition on each announced outcome and recurse.
    rest = dims[1:]
    cond_psi = node.alice_vectors.conj() @ pad_rows(a_psi, dims[0], node.padded_dim)
    cond_phi = node.alice_vectors.conj() @ pad_rows(a_phi, dims[0], node.padded_dim)
    total_psi = 0.0
    total_phi = 0.0
    for i, child in enumerate(node.children):
        s_psi, s_phi = _tree_success(cond_psi[i], cond_phi[i], rest, child)
        total_psi += s_psi
        total_phi += s_phi
    return total_psi, total_phi
