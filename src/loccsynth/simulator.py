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
    return alice_vectors[..., : m.shape[-2]].conj() @ m


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
    """Per-outcome probabilities and correct-guess masses, from the outcome rows of both states.

    The rows may be (n, d_B) or a (B, n, d_B) stack, with ``decoders`` in
    the same order as the rows; every result has the rows' leading shape.
    """
    q_psi = np.einsum("...ij,...ij->...i", cond_psi.conj(), cond_psi).real
    q_phi = np.einsum("...ij,...ij->...i", cond_phi.conj(), cond_phi).real
    # None answers phi unconditionally; a zero vector in its place never answers psi.
    zero = np.zeros(cond_psi.shape[-1], dtype=np.complex128)
    b = np.array([zero if v is None else v for v in decoders]).reshape(cond_psi.shape).conj()
    measured = np.array([v is not None for v in decoders]).reshape(q_psi.shape)
    ok_psi = np.abs(np.einsum("...ij,...ij->...i", b, cond_psi)) ** 2
    hit_phi = np.abs(np.einsum("...ij,...ij->...i", b, cond_phi)) ** 2
    ok_phi = np.where(measured, np.maximum(q_phi - hit_phi, 0.0), q_phi)
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
    """Exact success probability of a protocol tree, by full enumeration, level by level.

    The conditional pairs of a level are stacked, and the outcome rows of
    every measuring node with one basis shape come from one product.
    Raises ValueError when a node does not fit the factors dims[k:] left at
    its depth k, the measurement rows of some node are not orthonormal, or
    a leaf decoder is not a unit vector.  A BranchNode measures dims[k],
    with one child per outcome; a Protocol leaf measures exactly the last
    two factors, unswapped; below the last factor only a GuessLeaf or None
    fits.  Elsewhere a node would measure the wrong parties, or two at once.
    """
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    if psi.dims != protocol.dims:
        raise DimensionMismatchError(
            f"states on dims {psi.dims} do not fit a protocol on {protocol.dims}"
        )
    psi.require_normalized()
    phi.require_normalized()
    nodes = [protocol.root]
    # pairs[:, j] is the unnormalized (psi, phi) conditional pair that nodes[j] receives.
    pairs = np.stack([psi.amplitudes, phi.amplitudes])[:, None]
    ok = np.zeros(2)
    bases: list = []
    decoders: list = []
    for depth in range(len(protocol.dims) + 1):
        factors = protocol.dims[depth:]
        for node in nodes:
            _check_placement(node, factors, depth)
        mass = np.einsum("sbi,sbi->sb", pairs.conj(), pairs).real
        ok[0] += mass[0, [isinstance(n, GuessLeaf) and n.guess == "psi" for n in nodes]].sum()
        ok[1] += mass[1, [isinstance(n, GuessLeaf) and n.guess != "psi" for n in nodes]].sum()
        children: list = []
        rows: list = []
        for where, u in _stacks([getattr(node, "alice_vectors", None) for node in nodes]):
            bases.extend(u)
            group = [nodes[j] for j in where]
            cond = _outcome_rows(u, pairs[:, where].reshape(2, len(where), factors[0], -1))
            leaf = np.array([isinstance(node, Protocol) for node in group])
            found = [b for node in group if isinstance(node, Protocol) for b in node.bob_projectors]
            decoders.extend(found)
            _, _, hit_psi, hit_phi = _outcome_table(cond[0, leaf], cond[1, leaf], found)
            ok += hit_psi.sum(), hit_phi.sum()
            children.extend(c for n in group if isinstance(n, BranchNode) for c in n.children)
            rows.append(cond[:, ~leaf].reshape(2, -1, cond.shape[-1]))
        if not children:
            break
        nodes, pairs = children, np.concatenate(rows, axis=1)
    # One check per array shape over every node costs far less than one per node.
    _check_measurements(bases, decoders)
    return 0.5 * float(ok.sum())


def _check_placement(node, factors: tuple[int, ...], depth: int) -> None:
    """Refuse a node that does not fit the factors left at its depth; the tree walk says how."""
    if node is None or isinstance(node, GuessLeaf):
        return
    if isinstance(node, BranchNode) and factors[:1] == (node.original_dim,):
        if len(node.children) != len(node.alice_vectors):
            raise ValueError(
                f"branch node at depth {depth} has {len(node.children)} children for "
                f"{len(node.alice_vectors)} outcomes"
            )
    elif not isinstance(node, Protocol) or node.swapped or (
        (node.original_dim_a, node.dim_b) != factors
    ):
        raise ValueError(f"{type(node).__name__} at depth {depth} does not fit factors {factors}")
