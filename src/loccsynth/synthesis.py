"""Protocol synthesis for one-way discrimination of orthogonal pure states.

Two parties share one of two known orthogonal pure states.  The first
party measures, announces the outcome over a classical channel, and the
second party finishes the job with a two-outcome projective measurement.
The synthesized measurement basis comes from flattening the diagonal of
the conditional-overlap matrix of the pair, which forces the two possible
conditional states of the second party to be orthogonal for every
outcome, so the final guess is never wrong.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .flatten import uflatgen
from .linalg import (
    TAU_ORTH,
    TAU_ZERO,
    DimensionMismatchError,
    NonOrthogonalInputError,
    StateVector,
)


@dataclass(frozen=True)
class Protocol:
    """One-way two-party discrimination protocol.

    ``alice_vectors`` holds the measuring party's orthonormal basis, one
    vector per row, over C^padded_dim_a: the flatten pads the first factor
    with zero rows up to a power of two, so only the first
    ``original_dim_a`` columns meet the state, and outcome i leaves the
    second party with ``conj(alice_vectors[i, :original_dim_a]) @ m`` for
    the (original_dim_a, dim_b) amplitude matrix m.  ``bob_projectors``
    holds, per outcome, the unit vector whose projector means "guess psi":
    the second party's psi branch where psi is the likelier state, and the
    part of it orthogonal to the phi branch elsewhere.  None means the
    decoder answers phi without measuring, where that part vanishes.
    ``swapped`` records that the two input factors were reordered so the
    smaller one measures first.
    """

    alice_vectors: np.ndarray
    bob_projectors: tuple[np.ndarray | None, ...]
    outcome_probs_psi: np.ndarray
    outcome_probs_phi: np.ndarray
    padded_dim_a: int
    original_dim_a: int
    dim_b: int
    swapped: bool = False
    input_overlap: complex = 0j
    flatten_residual: float = 0.0

    def __post_init__(self):
        av = np.asarray(self.alice_vectors, dtype=np.complex128).copy()
        av.setflags(write=False)
        object.__setattr__(self, "alice_vectors", av)
        frozen = []
        for b in self.bob_projectors:
            if b is not None:
                b = np.asarray(b, dtype=np.complex128).copy()
                b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "bob_projectors", tuple(frozen))
        for name in ("outcome_probs_psi", "outcome_probs_phi"):
            p = np.asarray(getattr(self, name), dtype=np.float64).copy()
            p.setflags(write=False)
            object.__setattr__(self, name, p)


@dataclass(frozen=True)
class TruncatedMessagePlan:
    """Outcome subset that keeps enough probability mass under both states.

    ``bits`` is the classical message cost: ceil(log2 |kept|) outcome bits
    plus one flag bit marking "outside the kept set".
    """

    kept_outcomes: tuple[int, ...]
    epsilon: float
    bits: int
    retained_prob_psi: float
    retained_prob_phi: float


@dataclass(frozen=True)
class GuessLeaf:
    """Terminal node: the remaining parties answer without measuring."""

    guess: str  # "psi" or "phi"


@dataclass(frozen=True)
class BranchNode:
    """One party's measurement layer inside a multipartite protocol tree.

    ``alice_vectors`` is the measuring basis, one vector per row over
    C^padded_dim as in :class:`Protocol`: only the first ``original_dim``
    columns meet the state.  ``children[i]`` describes what the remaining
    parties do after outcome i: another BranchNode, a bipartite Protocol
    leaf, a GuessLeaf, or None for outcomes that occur with probability
    zero under both states.  There is one child per row of
    ``alice_vectors``; the tree verifier rejects a node without.
    """

    alice_vectors: np.ndarray
    padded_dim: int
    original_dim: int
    children: tuple

    def __post_init__(self):
        av = np.asarray(self.alice_vectors, dtype=np.complex128).copy()
        av.setflags(write=False)
        object.__setattr__(self, "alice_vectors", av)
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class MultipartiteProtocol:
    dims: tuple[int, ...]
    root: BranchNode

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


def overlap_matrix(psi: StateVector, phi: StateVector) -> np.ndarray:
    """Conditional-overlap matrix M = adjoint(unvec(phi)) @ unvec(psi).

    Entry (i_prime, i) is the inner product of the two parties' conditional
    states <phi^(i_prime) | psi^(i)>, where the conditional at i is the
    second factor's unnormalized state after projecting the first factor
    onto basis vector i.  tr(M) equals <phi|psi>.
    """
    if len(psi.dims) != 2 or len(phi.dims) != 2:
        raise DimensionMismatchError("overlap_matrix expects bipartite states")
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    psi.require_normalized()
    phi.require_normalized()
    return _overlap(psi.amplitudes.reshape(psi.dims), phi.amplitudes.reshape(phi.dims))


def _overlap(m_psi: np.ndarray, m_phi: np.ndarray) -> np.ndarray:
    """M = conj(m_phi) @ m_psi^T for (d_A, rest) amplitude matrices."""
    return m_phi.conj() @ m_psi.T


def _check_pair(psi: StateVector, phi: StateVector) -> complex:
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    psi.require_normalized()
    phi.require_normalized()
    ov = phi.overlap(psi)
    if abs(ov) > TAU_ORTH:
        raise NonOrthogonalInputError(
            f"|<phi|psi>| = {abs(ov):.3e} exceeds the orthogonality tolerance {TAU_ORTH}"
        )
    return ov


def synthesize(psi: StateVector, phi: StateVector, swap_roles: bool = True) -> Protocol:
    """Build a perfect one-way discrimination protocol for an orthogonal pair.

    By default the smaller factor takes the measuring role (recorded in
    ``Protocol.swapped`` when that means reordering the inputs); pass
    ``swap_roles=False`` to force the first factor to measure regardless.
    """
    if len(psi.dims) != 2 or len(phi.dims) != 2:
        raise DimensionMismatchError(
            f"synthesize takes two-factor states, got dims {psi.dims} and {phi.dims}; "
            "use synthesize_multipartite for three or more factors"
        )
    ov = _check_pair(psi, phi)
    m_psi = psi.amplitudes.reshape(psi.dims)
    m_phi = phi.amplitudes.reshape(phi.dims)
    d_a, d_b = psi.dims
    swapped = swap_roles and d_a > d_b
    if swapped:
        m_psi, m_phi = m_psi.T, m_phi.T
    return _synthesize_checked(m_psi, m_phi, swapped=swapped, input_overlap=ov)


def _measure(m_psi: np.ndarray, m_phi: np.ndarray):
    """First-party basis that flattens the overlap of two (d_A, rest) amplitude matrices.

    Returns ``(u, residual, cond_psi, cond_phi)``: the basis as the rows of
    u, d_pad x d_pad as :func:`uflatgen` pads it, the flatten residual, and
    the outcome rows, row i the rest's unnormalized state after outcome i.
    """
    d_a = m_psi.shape[0]
    if d_a == 1:
        # A single outcome: the measuring party is trivial and the second
        # party discriminates the (orthogonal) states on its own.
        u, residual = np.eye(1, dtype=np.complex128), 0.0
    else:
        flat = uflatgen(_overlap(m_psi, m_phi))
        u, residual = flat.unitary, flat.residual
    # Padded rows of a state are zero, so conj(u) @ pad(m) = conj(u[:, :d_A]) @ m.
    rows = u[:, :d_a].conj()
    return u, residual, rows @ m_psi, rows @ m_phi


def _synthesize_checked(
    m_psi: np.ndarray, m_phi: np.ndarray, swapped: bool, input_overlap: complex
) -> Protocol:
    d_a, d_b = m_psi.shape
    u, flat_residual, cond_psi, cond_phi = _measure(m_psi, m_phi)
    probs_psi = np.einsum("ij,ij->i", cond_psi.conj(), cond_psi).real
    probs_phi = np.einsum("ij,ij->i", cond_phi.conj(), cond_phi).real

    # "psi" is the psi branch where psi is the likelier state, else its part
    # orthogonal to the phi branch.  A tilted pair (|<phi|psi>| up to
    # TAU_ORTH) leaves the branches overlapping by M_ii, and either choice
    # then loses |M_ii|^2 / max(p_psi, p_phi).  Parallel branches (always
    # when d_B = 1) leave "psi" on the likelier branch only.
    heavy = (probs_phi >= probs_psi) & (probs_phi > TAU_ZERO**2)
    coef = np.zeros(len(probs_phi), dtype=np.complex128)
    coef[heavy] = np.einsum("ij,ij->i", cond_phi[heavy].conj(), cond_psi[heavy]) / probs_phi[heavy]
    r = cond_psi - coef[:, None] * cond_phi
    norms = np.linalg.norm(r, axis=1)
    projectors = [r[i] / n if n > TAU_ZERO else None for i, n in enumerate(norms)]

    return Protocol(
        alice_vectors=u,
        bob_projectors=tuple(projectors),
        outcome_probs_psi=probs_psi,
        outcome_probs_phi=probs_phi,
        padded_dim_a=u.shape[0],
        original_dim_a=d_a,
        dim_b=d_b,
        swapped=swapped,
        input_overlap=input_overlap,
        flatten_residual=flat_residual,
    )


def epsilon_truncate(protocol: Protocol, epsilon: float) -> TruncatedMessagePlan:
    """Shrink the announced outcome set, trading success for message bits.

    Returns a smallest outcome subset retaining probability at least
    1 - epsilon under both states.  Outcomes are ranked by descending min
    of the two outcome probabilities (ties: descending probability sum,
    then ascending index); the shortest prefix of that ranking seeds a
    pruned search that removes the slack the prefix rule leaves behind
    when the two probability profiles disagree.  epsilon = 1 degenerates
    to the single top outcome.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    p_psi = protocol.outcome_probs_psi
    p_phi = protocol.outcome_probs_phi
    order = sorted(
        range(protocol.padded_dim_a),
        key=lambda i: (-min(p_psi[i], p_phi[i]), -(p_psi[i] + p_phi[i]), i),
    )
    goal = 1.0 - epsilon

    kept: list[int] = []
    got_psi = 0.0
    got_phi = 0.0
    for i in order:
        if kept and got_psi >= goal and got_phi >= goal:
            break
        kept.append(i)
        got_psi += p_psi[i]
        got_phi += p_phi[i]

    improved = _refine_kept_subset(order, p_psi, p_phi, goal, len(kept))
    if improved is not None:
        kept = improved
    bits = (len(kept) - 1).bit_length() + 1
    return TruncatedMessagePlan(
        kept_outcomes=tuple(kept),
        epsilon=float(epsilon),
        bits=bits,
        retained_prob_psi=float(sum(p_psi[i] for i in kept)),
        retained_prob_phi=float(sum(p_phi[i] for i in kept)),
    )


# Refinement limits: past these the greedy prefix stands unrefined.  The
# prefix overshoots the optimum only when the two probability profiles
# rank outcomes differently, and then rarely by more than one outcome, so
# the search below almost always terminates within a handful of nodes.
_REFINE_MAX_OUTCOMES = 256
_REFINE_NODE_BUDGET = 100_000


def _refine_kept_subset(order, p_psi, p_phi, goal, prefix_size):
    """Smallest subset meeting both retention goals, or None to keep the prefix.

    Searches sizes below the greedy prefix size with a depth-first scan in
    greedy order, pruning on the best still-reachable retention for each
    state (sum of the largest remaining probabilities).
    """
    n = len(order)
    if n > _REFINE_MAX_OUTCOMES or prefix_size <= 1:
        return None
    x = [float(p_psi[i]) for i in order]
    y = [float(p_phi[i]) for i in order]

    def min_alone(vals):
        total = 0.0
        for count, v in enumerate(sorted(vals, reverse=True), start=1):
            total += v
            if total >= goal:
                return count
        return n
    lower = max(min_alone(x), min_alone(y), 1)
    if lower >= prefix_size:
        return None

    smax = prefix_size - 1
    # top_x[pos][k]: sum of the k largest x values in order positions pos..n-1.
    top_x = _suffix_top_sums(x, smax)
    top_y = _suffix_top_sums(y, smax)
    budget = [_REFINE_NODE_BUDGET]

    def search(pos, left, need_x, need_y, chosen):
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if need_x <= 0.0 and need_y <= 0.0:
            chosen.extend(order[pos : pos + left])
            return True
        if left == 0 or n - pos < left:
            return False
        if top_x[pos][left] < need_x or top_y[pos][left] < need_y:
            return False
        chosen.append(order[pos])
        if search(pos + 1, left - 1, need_x - x[pos], need_y - y[pos], chosen):
            return True
        chosen.pop()
        return search(pos + 1, left, need_x, need_y, chosen)

    for size in range(lower, prefix_size):
        chosen: list[int] = []
        if search(0, size, goal, goal, chosen):
            return chosen
        if budget[0] <= 0:
            return None
    return None


def _suffix_top_sums(vals, smax):
    """table[pos][k] = sum of the k largest of vals[pos:], for k <= smax."""
    n = len(vals)
    table = [[0.0] * (smax + 1) for _ in range(n + 1)]
    best: list[float] = []  # ascending
    for pos in range(n - 1, -1, -1):
        bisect.insort(best, vals[pos])
        if len(best) > smax:
            best.pop(0)
        row = table[pos]
        total = 0.0
        for k, v in enumerate(reversed(best), start=1):
            total += v
            row[k] = total
        for k in range(len(best) + 1, smax + 1):
            row[k] = total
    return table


def synthesize_multipartite(psi: StateVector, phi: StateVector) -> MultipartiteProtocol:
    """Chain the bipartite construction along three or more parties.

    Party k measures its factor against the joint state of everything to
    its right, then the remaining parties recurse on the conditional pair
    selected by the announced outcome.  Every leaf is either a bipartite
    Protocol for the last two parties or an unconditional guess where one
    branch has died out.
    """
    if len(psi.dims) < 3:
        raise DimensionMismatchError(
            f"need at least 3 factors, got dims {psi.dims}; use synthesize for 2"
        )
    _check_pair(psi, phi)
    root = _synthesize_tree(psi.amplitudes, phi.amplitudes, psi.dims)
    return MultipartiteProtocol(dims=psi.dims, root=root)


def _synthesize_tree(a_psi: np.ndarray, a_phi: np.ndarray, dims: tuple[int, ...]):
    """Subtree for a normalized pair of flat amplitude arrays over ``dims``."""
    m_psi = a_psi.reshape(dims[0], -1)
    m_phi = a_phi.reshape(dims[0], -1)
    if len(dims) == 2:
        # Orthogonality holds by construction on recursive calls; the top
        # level pair was checked before recursion started.
        ov = complex(np.vdot(a_phi, a_psi))
        return _synthesize_checked(m_psi, m_phi, swapped=False, input_overlap=ov)
    u, _, cond_psi, cond_phi = _measure(m_psi, m_phi)

    children: list = []
    for i in range(u.shape[0]):
        n_psi = float(np.linalg.norm(cond_psi[i]))
        n_phi = float(np.linalg.norm(cond_phi[i]))
        if n_psi <= TAU_ZERO and n_phi <= TAU_ZERO:
            children.append(None)
        elif n_psi <= TAU_ZERO:
            children.append(GuessLeaf("phi"))
        elif n_phi <= TAU_ZERO:
            children.append(GuessLeaf("psi"))
        else:
            children.append(_synthesize_tree(cond_psi[i] / n_psi, cond_phi[i] / n_phi, dims[1:]))
    return BranchNode(
        alice_vectors=u,
        padded_dim=u.shape[0],
        original_dim=dims[0],
        children=tuple(children),
    )
