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

from .linalg import TAU_NORM, TAU_ORTH, TAU_ZERO, DimensionMismatchError, StateVector, pair_overlap
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


def _decoder_rows(decoders, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """The decoders as (n, d_B) rows, and the mask of those that measure.

    None answers phi unconditionally; its row is zero, which never answers psi.
    """
    zero = np.zeros(d_b, dtype=np.complex128)
    rows = np.array([zero if v is None else v for v in decoders], dtype=np.complex128)
    return rows.reshape(-1, d_b), np.array([v is not None for v in decoders], dtype=bool)


def _check_measurements(u: np.ndarray, b: np.ndarray, measured: np.ndarray) -> None:
    """Refuse measurement rows that are not orthonormal and decoders that are not unit vectors.

    ``u`` is a stack of bases, a vector per row; ``b`` and ``measured`` are
    decoder rows and their mask from :func:`_decoder_rows`.  Rows that do not
    measure need no check; a bad decoder is named by its row.
    """
    # Written as "not within tolerance" so that NaN entries fail the checks.
    gram = u @ u.conj().swapaxes(-1, -2)
    defect = float(np.max(np.abs(gram - np.eye(u.shape[-1]))))
    if not defect <= TAU_NORM:
        raise ValueError(f"measurement rows are not orthonormal: max|U U* - I| = {defect:.3e}")
    norms = np.linalg.norm(b, axis=-1)
    bad = np.flatnonzero(measured & ~(np.abs(norms - 1.0) <= TAU_NORM))
    if bad.size:
        raise ValueError(f"decoder {bad[0]} has norm {norms[bad[0]]!r}, not 1")


def _outcome_table(cond_psi: np.ndarray, cond_phi: np.ndarray, b: np.ndarray, measured):
    """Per-outcome quantities from the (B, n, d_B) outcome rows of both states.

    ``b`` and ``measured`` are the decoder rows and their mask in the same
    order as the rows.  Row k of the (5, B n) result is, for each outcome,
    k = 0, 1 its probability under psi and under phi, k = 2, 3 the mass of a
    correct guess under psi and under phi, and k = 4 |<cond_phi|cond_psi>|.
    """
    q_psi = np.einsum("...ij,...ij->...i", cond_psi.conj(), cond_psi).real
    q_phi = np.einsum("...ij,...ij->...i", cond_phi.conj(), cond_phi).real
    b = b.reshape(cond_psi.shape).conj()
    ok_psi = np.abs(np.einsum("...ij,...ij->...i", b, cond_psi)) ** 2
    hit_phi = np.abs(np.einsum("...ij,...ij->...i", b, cond_phi)) ** 2
    ok_phi = np.where(measured.reshape(q_psi.shape), np.maximum(q_phi - hit_phi, 0.0), q_phi)
    overlap = np.abs(np.einsum("...ij,...ij->...i", cond_phi.conj(), cond_psi))
    return np.array([q_psi, q_phi, ok_psi, ok_phi, overlap]).reshape(5, -1)


def _score_level(nodes, pairs, factors: tuple[int, ...]):
    """Score one level of nodes on the two (nodes, ...) psi and phi states they receive.

    ``factors`` are the dims left to measure.  Protocol leaves and branch
    nodes are grouped by kind and basis shape; each group passes one
    :func:`_check_measurements` and takes one product per state.  Returns
    each leaf group's :func:`_outcome_table`, the branch nodes' children,
    and the two (children, rest) arrays of the states those receive.
    """
    groups: dict = {}
    for j, node in enumerate(nodes):
        if isinstance(node, (Protocol, BranchNode)):
            groups.setdefault((type(node), node.alice_vectors.shape), []).append(j)
    tables, children, rows = [], [], []
    for where in groups.values():
        group = [nodes[j] for j in where]
        bases = [node.alice_vectors for node in group]
        # A lone basis, and the pairs of a group of every node, are taken without a copy.
        # At (40, 100) a copy's state-sized buffer made malloc trim and refault the heap.
        u = np.array(bases) if where[1:] else bases[0][None]
        mine = pairs if len(where) == len(nodes) else [p[where] for p in pairs]
        found = [b for node in group for b in getattr(node, "bob_projectors", ())]
        b, measured = _decoder_rows(found, factors[-1])
        _check_measurements(u, b, measured)
        # Row i of cond[s][k]: the rest's state after outcome i of group[k], under
        # psi (s = 0) or phi (s = 1); padding columns would meet zero rows.
        cond = [u[..., : factors[0]].conj() @ p.reshape(len(where), factors[0], -1) for p in mine]
        if isinstance(group[0], Protocol):
            tables.append(_outcome_table(*cond, b, measured))
        else:
            children.extend(c for node in group for c in node.children)
            rows.append([c.reshape(-1, c.shape[-1]) for c in cond])
    return tables, children, [np.concatenate(r) for r in zip(*rows)]


def success_probability(
    psi: StateVector,
    phi: StateVector,
    protocol: Protocol,
    plan: TruncatedMessagePlan | None = None,
) -> VerificationReport:
    """Exact success probability of a protocol on a state pair, equal prior.

    With a truncation ``plan``, outcomes outside the kept set count as
    failures under both hypotheses.  Raises DimensionMismatchError for
    states that do not fit the protocol, and ValueError when the
    measurement rows are not orthonormal, a decoder is not a unit vector,
    or the plan keeps a repeated or out-of-range outcome.
    """
    start = time.perf_counter()
    pair_overlap(psi, phi)
    # Both states as (d_A, d_B) amplitude matrices in the protocol's role order.
    mats = [s.amplitudes.reshape(s.dims) for s in (psi, phi)]
    mats = [m.T for m in mats] if protocol.swapped else mats
    factors = (protocol.original_dim_a, protocol.dim_b)
    if mats[0].shape != factors:
        raise DimensionMismatchError(
            f"states of dims {mats[0].shape} do not fit a protocol on {factors}"
        )
    [table], _, _ = _score_level([protocol], [m[None] for m in mats], factors)
    q_psi, q_phi, ok_psi, ok_phi, overlap = table
    both = (q_psi > TAU_ZERO**2) & (q_phi > TAU_ZERO**2)
    residual = np.max(overlap[both] / np.sqrt(q_psi[both] * q_phi[both]), initial=0.0)

    keep = np.ones(len(q_psi), dtype=bool)
    if plan is not None:
        kept = list(plan.kept_outcomes)
        if len(set(kept)) != len(kept) or any(not 0 <= i < len(keep) for i in kept):
            raise ValueError(f"kept outcomes {kept} must be distinct indices below {len(keep)}")
        keep[:] = False
        keep[kept] = True
        ok_psi, ok_phi = np.where(keep, table[2:4], 0.0)

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


def multipartite_success_probability(
    psi: StateVector, phi: StateVector, protocol: MultipartiteProtocol
) -> float:
    """Exact success probability of a protocol tree, scored level by level by :func:`_score_level`.

    Raises ValueError when a node does not fit the factors dims[k:] left at
    its depth k, the measurement rows of some node are not orthonormal, or
    a leaf decoder is not a unit vector.  A BranchNode measures dims[k],
    with one child per outcome; a Protocol leaf measures exactly the last
    two factors, unswapped; below the last factor only a GuessLeaf or None
    fits.  Elsewhere a node would measure the wrong parties, or two at once.
    """
    pair_overlap(psi, phi)
    if psi.dims != protocol.dims:
        raise DimensionMismatchError(
            f"states on dims {psi.dims} do not fit a protocol on {protocol.dims}"
        )
    nodes = [protocol.root]
    # pairs[s][j] is the unnormalized psi (s = 0) or phi (s = 1) state that nodes[j] receives.
    pairs = [psi.amplitudes[None], phi.amplitudes[None]]
    ok = np.zeros(2)
    for depth in range(len(protocol.dims) + 1):
        factors = protocol.dims[depth:]
        for node in nodes:
            _check_placement(node, factors, depth)
        mass = [np.einsum("bi,bi->b", p.conj(), p).real for p in pairs]
        ok[0] += mass[0][[isinstance(n, GuessLeaf) and n.guess == "psi" for n in nodes]].sum()
        ok[1] += mass[1][[isinstance(n, GuessLeaf) and n.guess != "psi" for n in nodes]].sum()
        tables, nodes, pairs = _score_level(nodes, pairs, factors)
        for table in tables:
            ok += table[2].sum(), table[3].sum()
        if not nodes:
            break
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
