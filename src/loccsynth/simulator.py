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

from .linalg import TAU_NORM, TAU_ORTH, TAU_ZERO, DimensionMismatchError, StateVector
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


def _checked_rows(protocol: Protocol, *states: StateVector) -> list[np.ndarray]:
    """Outcome rows of each state, once the protocol's measurement passes its check.

    A state is read as a (d_A, d_B) amplitude matrix in the protocol's role
    order; row i of its result is the second party's unnormalized state
    after outcome i.  Raises DimensionMismatchError for a state that does
    not fit the protocol and ValueError for a measurement that fails.
    """
    mats = [s.amplitudes.reshape(s.dims) for s in states]
    mats = [m.T if protocol.swapped else m for m in mats]
    for m in mats:
        if m.shape != (protocol.original_dim_a, protocol.dim_b):
            raise DimensionMismatchError(
                f"states of dims {m.shape} do not fit a protocol on "
                f"({protocol.original_dim_a}, {protocol.dim_b})"
            )
    _check_measurements([protocol.alice_vectors], protocol.bob_projectors)
    return [_outcome_rows(protocol.alice_vectors, m) for m in mats]


def _outcome_rows(alice_vectors: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row i: the rest's state after outcome i; padding columns would meet zero rows of m."""
    return alice_vectors[:, : m.shape[0]].conj() @ m


def _check_measurements(bases, decoders) -> None:
    """Refuse measurement rows that are not orthonormal and decoders that are not unit vectors.

    ``decoders`` may hold None (answer phi), which needs no check; a bad
    decoder is named by its position in the list.  Arrays of one shape are
    checked together as one stack.
    """
    for _, u in _stacks(bases):
        # Written as "not within tolerance" so that NaN entries fail the checks.
        gram = u @ u.conj().transpose(0, 2, 1)
        defect = float(np.max(np.abs(gram - np.eye(u.shape[1]))))
        if not defect <= TAU_NORM:
            raise ValueError(f"measurement rows are not orthonormal: max|U U* - I| = {defect:.3e}")
    for where, b in _stacks(decoders):
        norms = np.linalg.norm(b, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= TAU_NORM))
        if bad.size:
            raise ValueError(f"decoder {where[bad[0]]} has norm {norms[bad[0]]!r}, not 1")


def _stacks(arrays):
    """(positions, stacked arrays) for each shape among the arrays that are not None."""
    groups: dict = {}
    for i, a in enumerate(arrays):
        if a is not None:
            groups.setdefault(a.shape, []).append(i)
    return [(where, np.array([arrays[i] for i in where])) for where in groups.values()]


def _outcome_table(cond_psi: np.ndarray, cond_phi: np.ndarray, decoders):
    """Per-outcome probabilities and correct-guess masses, from the outcome rows of both states."""
    q_psi = np.einsum("ij,ij->i", cond_psi.conj(), cond_psi).real
    q_phi = np.einsum("ij,ij->i", cond_phi.conj(), cond_phi).real
    ok_psi = np.zeros(len(q_psi))
    ok_phi = np.zeros(len(q_phi))
    for i, b in enumerate(decoders):
        if b is None:
            # Decoder answers phi unconditionally on this outcome.
            ok_phi[i] = q_phi[i]
        else:
            ok_psi[i] = abs(np.vdot(b, cond_psi[i])) ** 2
            ok_phi[i] = max(q_phi[i] - abs(np.vdot(b, cond_phi[i])) ** 2, 0.0)
    return q_psi, q_phi, ok_psi, ok_phi


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
    cond_psi, cond_phi = _checked_rows(protocol, psi, phi)
    q_psi, q_phi, ok_psi, ok_phi = _outcome_table(cond_psi, cond_phi, protocol.bob_projectors)
    both = (q_psi > TAU_ZERO**2) & (q_phi > TAU_ZERO**2)
    overlaps = np.abs(np.einsum("ij,ij->i", cond_phi[both].conj(), cond_psi[both]))
    residual = np.max(overlaps / np.sqrt(q_psi[both] * q_phi[both]), initial=0.0)

    keep = np.ones(len(q_psi), dtype=bool)
    if plan is not None:
        kept = list(plan.kept_outcomes)
        if len(set(kept)) != len(kept) or any(not 0 <= i < len(keep) for i in kept):
            raise ValueError(f"kept outcomes {kept} must be distinct indices below {len(keep)}")
        keep[:] = False
        keep[kept] = True
        ok_psi = np.where(keep, ok_psi, 0.0)
        ok_phi = np.where(keep, ok_phi, 0.0)

    success = 0.5 * (float(ok_psi.sum()) + float(ok_phi.sum()))
    weight = 0.5 * (q_psi + q_phi)
    # An outcome that never occurs counts as conditionally certain.
    conditional = np.divide(
        0.5 * (ok_psi + ok_phi), weight, out=np.ones_like(weight), where=weight > 0.0
    )
    return VerificationReport(
        success_prob=success,
        per_outcome_success=tuple(zip(weight.tolist(), conditional.tolist())),
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
    (cond,) = _checked_rows(protocol, state)
    q, _, hit, _ = _outcome_table(cond, cond, protocol.bob_projectors)
    guess_psi_prob = np.divide(hit, q, out=np.zeros_like(q), where=q > 0.0)

    cdf = np.cumsum(q)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u_outcome = rng.random(shots)
    u_guess = rng.random(shots)
    idx = np.searchsorted(cdf, u_outcome, side="right")
    idx = np.minimum(idx, len(q) - 1)
    guessed_psi = u_guess < guess_psi_prob[idx]
    want_psi = truth == "psi"
    return float(np.mean(guessed_psi == want_psi))


def multipartite_success_probability(
    psi: StateVector, phi: StateVector, protocol: MultipartiteProtocol
) -> float:
    """Exact success probability of a protocol tree, by full enumeration.

    Raises ValueError when the measurement rows of some node are not
    orthonormal, a leaf decoder is not a unit vector, or a branch node
    does not have one child per outcome.
    """
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    if psi.dims != protocol.dims:
        raise DimensionMismatchError(
            f"states on dims {psi.dims} do not fit a protocol on {protocol.dims}"
        )
    psi.require_normalized()
    phi.require_normalized()
    bases: list = []
    decoders: list = []
    ok_psi, ok_phi = _tree_success(
        psi.amplitudes, phi.amplitudes, protocol.dims, protocol.root, bases, decoders
    )
    # One check per array shape over every node costs far less than one per node.
    _check_measurements(bases, decoders)
    return 0.5 * (ok_psi + ok_phi)


def _tree_success(a_psi, a_phi, dims: tuple[int, ...], node, bases: list, decoders: list):
    """Correct-guess masses of a subtree on unnormalized conditional pairs.

    Appends the measurement rows and decoders of every node it visits to
    ``bases`` and ``decoders``, for one check after the walk.
    """
    if node is None:
        return 0.0, 0.0
    if isinstance(node, GuessLeaf):
        mass_psi = float(np.vdot(a_psi, a_psi).real)
        mass_phi = float(np.vdot(a_phi, a_phi).real)
        return (mass_psi, 0.0) if node.guess == "psi" else (0.0, mass_phi)
    cond_psi = _outcome_rows(node.alice_vectors, a_psi.reshape(dims[0], -1))
    cond_phi = _outcome_rows(node.alice_vectors, a_phi.reshape(dims[0], -1))
    bases.append(node.alice_vectors)
    if isinstance(node, Protocol):
        decoders.extend(node.bob_projectors)
        _, _, ok_psi, ok_phi = _outcome_table(cond_psi, cond_phi, node.bob_projectors)
        return float(ok_psi.sum()), float(ok_phi.sum())
    # Branch node: condition on each announced outcome and recurse.
    if len(node.children) != len(node.alice_vectors):
        raise ValueError(
            f"branch node has {len(node.children)} children for "
            f"{len(node.alice_vectors)} outcomes"
        )
    total_psi = 0.0
    total_phi = 0.0
    for i, child in enumerate(node.children):
        s_psi, s_phi = _tree_success(cond_psi[i], cond_phi[i], dims[1:], child, bases, decoders)
        total_psi += s_psi
        total_phi += s_phi
    return total_psi, total_phi
