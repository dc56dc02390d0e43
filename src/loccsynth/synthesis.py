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

import math
from dataclasses import dataclass

import numpy as np

from .flatten import uflatgen_stack
from .linalg import (
    TAU_ZERO,
    DimensionMismatchError,
    StateVector,
    check_basis,
    frozen,
    orthogonal_overlap,
    pair_overlap,
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
    smaller one measures first.  Construction raises DimensionMismatchError
    when a dimension field disagrees with the arrays.
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
        object.__setattr__(self, "alice_vectors", frozen(self.alice_vectors))
        decoders = tuple(None if b is None else frozen(b) for b in self.bob_projectors)
        object.__setattr__(self, "bob_projectors", decoders)
        n = self.padded_dim_a
        check_basis("alice_vectors", self.alice_vectors, n, self.original_dim_a, "_a")
        shapes = [b.shape for b in decoders if b is not None]
        if len(decoders) != n or any(shape != (self.dim_b,) for shape in shapes):
            raise DimensionMismatchError(
                f"bob_projectors needs padded_dim_a {n} entries, each None or of dim_b "
                f"{self.dim_b} entries; got {len(decoders)} with shapes {shapes}"
            )
        for name in ("outcome_probs_psi", "outcome_probs_phi"):
            p = frozen(getattr(self, name), np.float64)
            object.__setattr__(self, name, p)
            if p.shape != (n,):
                raise DimensionMismatchError(
                    f"{name} has shape {p.shape}, not (padded_dim_a,) = ({n},)"
                )


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
    ``alice_vectors``; the tree verifier rejects a node without.  Like
    :class:`Protocol`, construction checks the basis against the dimensions.
    """

    alice_vectors: np.ndarray
    padded_dim: int
    original_dim: int
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "alice_vectors", frozen(self.alice_vectors))
        object.__setattr__(self, "children", tuple(self.children))
        check_basis("alice_vectors", self.alice_vectors, self.padded_dim, self.original_dim)


@dataclass(frozen=True)
class MultipartiteProtocol:
    dims: tuple[int, ...]
    root: BranchNode

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


def overlap_matrix(psi: StateVector, phi: StateVector) -> np.ndarray:
    """Conditional-overlap matrix M = conj(m_phi) @ m_psi^T of the (d_A, d_B) amplitude matrices.

    Entry (i_prime, i) is the inner product of the two parties' conditional
    states <phi^(i_prime) | psi^(i)>, where the conditional at i is the
    second factor's unnormalized state after projecting the first factor
    onto basis vector i.  tr(M) equals <phi|psi>.
    """
    if len(psi.dims) != 2 or len(phi.dims) != 2:
        raise DimensionMismatchError("overlap_matrix expects bipartite states")
    pair_overlap(psi, phi)
    return _overlap(psi.amplitudes.reshape(psi.dims), phi.amplitudes.reshape(phi.dims))


def _overlap(m_psi: np.ndarray, m_phi: np.ndarray) -> np.ndarray:
    """M = conj(m_phi) @ m_psi^T for (d_A, rest) amplitude matrices, or stacks of them."""
    return m_phi.conj() @ m_psi.swapaxes(-1, -2)


def synthesize(psi: StateVector, phi: StateVector, swap_roles: bool = True) -> Protocol:
    """Build a perfect one-way discrimination protocol for an orthogonal pair.

    By default the smaller factor takes the measuring role (recorded in
    ``Protocol.swapped`` when that means reordering the inputs); pass
    ``swap_roles=False`` to force the first factor to measure regardless.
    """
    if len(psi.dims) != 2 or len(phi.dims) != 2:
        many = min(len(psi.dims), len(phi.dims)) >= 3
        raise DimensionMismatchError(
            f"synthesize takes two-factor states, got dims {psi.dims} and {phi.dims}"
            + ("; use synthesize_multipartite for three or more factors" if many else "")
        )
    ov = orthogonal_overlap(psi, phi)
    # One pair of (d_A, d_B) amplitude matrices, stacked as (2, 1, d_A, d_B).
    m = np.stack([psi.amplitudes, phi.amplitudes]).reshape(2, 1, *psi.dims)
    d_a, d_b = psi.dims
    swapped = swap_roles and d_a > d_b
    return _protocols(m.swapaxes(2, 3) if swapped else m, [ov], swapped=swapped)[0]


def _measure(m: np.ndarray):
    """First-party bases that flatten the overlaps of a stack of amplitude pairs.

    ``m`` is (2, B, d_A, rest): the psi and the phi amplitude matrix of each
    of B pairs.  Returns ``(u, residuals, cond, probs)``: the bases as the
    rows of u, (B, d_pad, d_pad) as :func:`uflatgen_stack` pads them, the
    flatten residuals, the outcome rows, row i of cond[s, b] the rest's
    unnormalized state after outcome i, and the outcome masses, the squared
    norms of those rows.
    """
    d_a = m.shape[2]
    u, residuals = uflatgen_stack(_overlap(m[0], m[1]))
    # Padded rows of a state are zero, so conj(u) @ pad(m) = conj(u[:, :d_A]) @ m.
    cond = u[:, :, :d_a].conj() @ m
    probs = np.einsum("...ij,...ij->...i", cond.conj(), cond).real
    return u, residuals, cond, probs


def _protocols(m: np.ndarray, overlaps, swapped: bool = False) -> list[Protocol]:
    """One protocol per pair of a (2, B, d_A, d_B) stack of amplitude matrices."""
    d_a, d_b = m.shape[2:]
    u, residuals, (cond_psi, cond_phi), (probs_psi, probs_phi) = _measure(m)

    # "psi" is the psi branch where psi is the likelier state, else its part
    # orthogonal to the phi branch.  A tilted pair (|<phi|psi>| up to
    # TAU_ORTH) leaves the branches overlapping by M_ii, and either choice
    # then loses |M_ii|^2 / max(p_psi, p_phi).  Parallel branches (always
    # when d_B = 1) leave "psi" on the likelier branch only.
    heavy = (probs_phi >= probs_psi) & (probs_phi > TAU_ZERO**2)
    coef = np.zeros(probs_phi.shape, dtype=np.complex128)
    coef[heavy] = np.einsum("ij,ij->i", cond_phi[heavy].conj(), cond_psi[heavy]) / probs_phi[heavy]
    r = cond_psi - coef[..., None] * cond_phi
    norms = np.linalg.norm(r, axis=-1)
    kept = norms > TAU_ZERO
    r[kept] /= norms[kept][:, None]
    return [
        Protocol(
            alice_vectors=u[k],
            bob_projectors=tuple(r[k, i] if kept[k, i] else None for i in range(u.shape[1])),
            outcome_probs_psi=probs_psi[k],
            outcome_probs_phi=probs_phi[k],
            padded_dim_a=u.shape[1],
            original_dim_a=d_a,
            dim_b=d_b,
            swapped=swapped,
            input_overlap=overlaps[k],
            flatten_residual=float(residuals[k]),
        )
        for k in range(len(u))
    ]


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
    # lexsort is stable, so the last tie rule, ascending index, needs no key.
    order = np.lexsort((-(p_psi + p_phi), -np.minimum(p_psi, p_phi))).tolist()
    goal = 1.0 - epsilon
    x, y = p_psi[order], p_phi[order]
    # The shortest prefix of the ranking that meets both goals, or all of it.
    prefix = _reach(np.minimum(np.cumsum(x), np.cumsum(y)), goal)
    kept = _refine_kept_subset(order, x, y, goal, prefix) or order[:prefix]
    bits = (len(kept) - 1).bit_length() + 1
    return TruncatedMessagePlan(
        kept_outcomes=tuple(kept),
        epsilon=float(epsilon),
        bits=bits,
        retained_prob_psi=float(sum(p_psi[i] for i in kept)),
        retained_prob_phi=float(sum(p_phi[i] for i in kept)),
    )


def _reach(running: np.ndarray, goal: float) -> int:
    """How many terms of a running sum it takes to reach ``goal``; all of them if it never does."""
    hits = np.flatnonzero(running >= goal)
    return int(hits[0]) + 1 if hits.size else len(running)


# Refinement limits: past these the greedy prefix stands unrefined.  The
# prefix overshoots the optimum only when the two probability profiles
# rank outcomes differently, and then rarely by more than one outcome, so
# the search below almost always terminates within a handful of nodes.
_REFINE_MAX_OUTCOMES = 256
_REFINE_NODE_BUDGET = 100_000


def _refine_kept_subset(order, x, y, goal, prefix_size):
    """Smallest subset meeting both retention goals, or None to keep the prefix.

    ``x`` and ``y`` are the two outcome profiles in ``order``.  Searches
    sizes below the greedy prefix size with a depth-first scan in greedy
    order, pruning on the best still-reachable retention for each state
    and for x + y (sums of the largest remaining probabilities).
    """
    n = len(order)
    if n > _REFINE_MAX_OUTCOMES or prefix_size <= 1:
        return None
    # A kept set needs as many outcomes as the largest x, y and x + y take to reach
    # goal, goal and 2 * goal: meeting both goals means x + y carries 2 * goal.
    bounds = ((x, goal), (y, goal), (x + y, 2.0 * goal))
    lower = max(_reach(np.cumsum(np.sort(v)[::-1]), g) for v, g in bounds)
    if lower >= prefix_size:
        return None

    smax = prefix_size - 1
    # top_x[pos][k]: sum of the k largest x values in order positions pos..n-1.
    top_x = _suffix_top_sums(x, smax)
    top_y = _suffix_top_sums(y, smax)
    top_xy = _suffix_top_sums(x + y, smax)
    x, y = x.tolist(), y.tolist()
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
        # With one goal met, x + y prunes no more than the other state's own table.
        if need_x > 0.0 and need_y > 0.0 and top_xy[pos][left] < need_x + need_y:
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


def _suffix_top_sums(vals: np.ndarray, smax: int) -> list[list[float]]:
    """table[pos][k] = sum of the k largest of vals[pos:], for k <= min(smax, len(vals) - pos)."""
    n = len(vals)
    # Row pos: vals[pos:] sorted descending, then -inf where the suffix has run out.
    rows = np.sort(np.where(np.arange(n) >= np.arange(n + 1)[:, None], vals, -np.inf), axis=1)
    sums = np.cumsum(np.hstack([np.zeros((n + 1, 1)), rows[:, ::-1][:, :smax]]), axis=1)
    return sums.tolist()


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
    orthogonal_overlap(psi, phi)
    root = _synthesize_tree(psi.amplitudes, phi.amplitudes, psi.dims)
    return MultipartiteProtocol(dims=psi.dims, root=root)


def _synthesize_tree(a_psi: np.ndarray, a_phi: np.ndarray, dims: tuple[int, ...]):
    """Tree for a normalized pair of flat amplitude arrays over ``dims``, built level by level.

    The B live nodes at depth k hold normalized pairs over dims[k:], so one
    (2, B, dims[k], rest) stack and one :func:`_measure` serve the level.
    Its live outcome rows, normalized, in node then outcome order, are the
    next level's stack; the last two factors make the Protocol leaves, and
    the BranchNodes are built bottom-up.
    """
    pairs = np.stack([a_psi, a_phi])[:, None]
    # Children by kind: 0 dead, 1 only psi lives (guess psi), 2 only phi lives, 3 both live.
    guesses = (None, GuessLeaf("psi"), GuessLeaf("phi"))
    levels = []
    for k, d in enumerate(dims[:-2]):
        u, _, cond, probs = _measure(pairs.reshape(2, pairs.shape[1], d, math.prod(dims[k + 1 :])))
        norms = np.sqrt(probs)
        kinds = (norms[0] > TAU_ZERO) + 2 * (norms[1] > TAU_ZERO)
        levels.append((u, kinds))
        pairs = cond[:, kinds == 3] / norms[:, kinds == 3, None]
    # Orthogonality holds by construction below the root; the input pair
    # was checked before the tree was started.
    overlaps = [complex(np.vdot(b, a)) for a, b in zip(*pairs)]
    nodes = _protocols(pairs.reshape(2, len(overlaps), *dims[-2:]), overlaps)
    for d, (u, kinds) in zip(reversed(dims[:-2]), reversed(levels)):
        below = iter(nodes)
        nodes = [
            BranchNode(
                alice_vectors=u[k],
                padded_dim=u.shape[1],
                original_dim=d,
                children=tuple(next(below) if kind == 3 else guesses[kind] for kind in row),
            )
            for k, row in enumerate(kinds)
        ]
    return nodes[0]
