"""Protocol evaluation: exact scoring of protocols and trees, truncation plans."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import bell_pair, random_orthogonal_pair, random_unitary
from loccsynth import (
    BranchNode,
    DimensionMismatchError,
    GuessLeaf,
    MultipartiteProtocol,
    Protocol,
    StateVector,
    TruncatedMessagePlan,
    epsilon_truncate,
    multipartite_success_probability,
    success_probability,
    synthesize,
    synthesize_multipartite,
)


def coin_flip_protocol(scale_u=1.0, scale_b=1.0):
    """Deliberately useless fixture: measure in the computational basis and
    always project onto |0> on the decoding side.  Against a Bell pair this
    is a fair coin.  A scale other than 1 makes it no measurement at all."""
    e0 = np.array([scale_b, 0.0], dtype=np.complex128)
    return Protocol(
        alice_vectors=scale_u * np.eye(2, dtype=np.complex128),
        bob_projectors=(e0, e0),
        outcome_probs_psi=np.array([0.5, 0.5]),
        outcome_probs_phi=np.array([0.5, 0.5]),
        padded_dim_a=2,
        original_dim_a=2,
        dim_b=2,
    )


def greedy_prefix_plans(protocol):
    """Truncation plans for every prefix of the outcome ranking, smallest
    retention first, built directly rather than through epsilon_truncate."""
    p_psi = protocol.outcome_probs_psi
    p_phi = protocol.outcome_probs_phi
    order = sorted(
        range(protocol.padded_dim_a),
        key=lambda i: (-min(p_psi[i], p_phi[i]), -(p_psi[i] + p_phi[i]), i),
    )
    plans = []
    for size in range(1, len(order) + 1):
        kept = tuple(order[:size])
        plans.append(
            TruncatedMessagePlan(
                kept_outcomes=kept,
                epsilon=1.0,
                bits=(size - 1).bit_length() + 1,
                retained_prob_psi=float(sum(p_psi[i] for i in kept)),
                retained_prob_phi=float(sum(p_phi[i] for i in kept)),
            )
        )
    return plans


class TestSuccessProbability:
    def test_bell_report(self):
        psi, phi = bell_pair()
        report = success_probability(psi, phi, synthesize(psi, phi))
        assert report.success_prob >= 1 - 1e-12
        assert len(report.per_outcome_success) == 2
        for weight, conditional in report.per_outcome_success:
            assert weight == pytest.approx(0.5, abs=1e-12)
            assert conditional == pytest.approx(1.0, abs=1e-12)
        assert report.max_orthogonality_residual <= 1e-12
        assert report.elapsed_s >= 0.0
        assert set(report.tolerances) == {"tau_zero", "tau_norm", "tau_orth"}

    def test_coin_flip_protocol_scores_one_half(self):
        psi, phi = bell_pair()
        report = success_probability(psi, phi, coin_flip_protocol())
        assert report.success_prob == pytest.approx(0.5, abs=1e-12)
        for weight, conditional in report.per_outcome_success:
            assert weight == pytest.approx(0.5, abs=1e-12)
            assert conditional == pytest.approx(0.5, abs=1e-12)
        # And the conditional decoder states are far from orthogonal.
        assert report.max_orthogonality_residual == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "scale_u, scale_b, message",
        [
            (3.0, 3.0, "orthonormal"),
            (1.0, 3.0, "decoder 0"),
            (np.nan, 1.0, "orthonormal"),
            (1.0, np.nan, "decoder 0"),
        ],
    )
    def test_rejects_protocol_that_is_not_a_measurement(self, scale_u, scale_b, message):
        # Scored as if valid, 3 I with decoders 3 e0 reaches 22.5 on the Bell pair.
        psi, phi = bell_pair()
        with pytest.raises(ValueError, match=message):
            success_probability(psi, phi, coin_flip_protocol(scale_u, scale_b))

    def test_score_ignores_stored_diagnostics(self):
        # The evaluator must recompute everything from the measurement data;
        # corrupting the cached distributions cannot change the verdict.
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        tampered = Protocol(
            alice_vectors=protocol.alice_vectors,
            bob_projectors=protocol.bob_projectors,
            outcome_probs_psi=np.array([0.9, 0.1]),
            outcome_probs_phi=np.array([0.0, 1.0]),
            padded_dim_a=protocol.padded_dim_a,
            original_dim_a=protocol.original_dim_a,
            dim_b=protocol.dim_b,
        )
        a = success_probability(psi, phi, protocol).success_prob
        b = success_probability(psi, phi, tampered).success_prob
        assert a == b

    def test_swapped_protocol_reorients_states(self):
        rng = np.random.default_rng(401)
        psi, phi = random_orthogonal_pair(rng, (5, 2))
        protocol = synthesize(psi, phi)
        assert protocol.swapped
        assert success_probability(psi, phi, protocol).success_prob >= 1 - 1e-9

    def test_dimension_mismatch_rejected(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        rng = np.random.default_rng(402)
        other_psi, other_phi = random_orthogonal_pair(rng, (3, 2))
        with pytest.raises(DimensionMismatchError):
            success_probability(other_psi, other_phi, protocol)
        with pytest.raises(DimensionMismatchError):
            success_probability(psi, other_phi, protocol)

    def test_plan_masks_dropped_outcomes(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        full = TruncatedMessagePlan((0, 1), 1.0, 2, 1.0, 1.0)
        half = TruncatedMessagePlan((0,), 1.0, 1, 0.5, 0.5)
        assert success_probability(psi, phi, protocol, full).success_prob >= 1 - 1e-12
        assert success_probability(psi, phi, protocol, half).success_prob == pytest.approx(
            0.5, abs=1e-12
        )

    def test_truncated_success_meets_budget(self):
        rng = np.random.default_rng(403)
        for _ in range(15):
            psi, phi = random_orthogonal_pair(rng, (4, 4))
            protocol = synthesize(psi, phi)
            for eps in (0.5, 0.1, 0.01):
                plan = epsilon_truncate(protocol, eps)
                report = success_probability(psi, phi, protocol, plan)
                assert report.success_prob >= 1 - eps - 1e-9
                retained = 0.5 * (plan.retained_prob_psi + plan.retained_prob_phi)
                assert report.success_prob == pytest.approx(retained, abs=1e-9)

    def test_success_grows_with_prefix_length(self):
        rng = np.random.default_rng(404)
        for dims in ((4, 4), (5, 3), (8, 2)):
            psi, phi = random_orthogonal_pair(rng, dims)
            protocol = synthesize(psi, phi)
            last = 0.0
            for plan in greedy_prefix_plans(protocol):
                got = success_probability(psi, phi, protocol, plan).success_prob
                assert got >= last - 1e-12
                last = got
            assert last >= 1 - 1e-9  # full prefix keeps everything


class TestMultipartiteSuccessProbability:
    @staticmethod
    def tree():
        psi, phi = random_orthogonal_pair(np.random.default_rng(502), (2, 2, 2))
        tree = synthesize_multipartite(psi, phi)
        assert all(isinstance(child, Protocol) for child in tree.root.children)
        assert multipartite_success_probability(psi, phi, tree) >= 1 - 1e-9
        return psi, phi, tree

    def test_rejects_scaled_root(self):
        # Scored as if valid, the root basis times 3 reaches 9.0.
        psi, phi, tree = self.tree()
        root = replace(tree.root, alice_vectors=3.0 * tree.root.alice_vectors)
        with pytest.raises(ValueError, match="orthonormal"):
            multipartite_success_probability(psi, phi, replace(tree, root=root))

    def test_rejects_nan_leaf_decoder(self):
        psi, phi, tree = self.tree()
        leaf = tree.root.children[1]
        decoders = list(leaf.bob_projectors)
        slot = next(i for i, b in enumerate(decoders) if b is not None)
        decoders[slot] = np.full(leaf.dim_b, np.nan, dtype=np.complex128)
        children = (tree.root.children[0], replace(leaf, bob_projectors=tuple(decoders)))
        root = replace(tree.root, children=children)
        with pytest.raises(ValueError, match="decoder"):
            multipartite_success_probability(psi, phi, replace(tree, root=root))

    def test_rejects_branch_without_a_child_per_outcome(self):
        # With one child for two outcomes the tree scored a plausible 0.39.
        psi, phi, tree = self.tree()
        root = replace(tree.root, children=tree.root.children[:1])
        with pytest.raises(ValueError, match="children"):
            multipartite_success_probability(psi, phi, replace(tree, root=root))


def ghz_pair(parties):
    """GHZ+ and GHZ- on ``parties`` qubits, as flat amplitude arrays."""
    plus = np.zeros(2**parties, dtype=np.complex128)
    plus[[0, -1]] = 1 / np.sqrt(2)
    minus = plus.copy()
    minus[-1] = -minus[-1]
    return plus, minus


class TestTreePlacement:
    """Each node must act on the factors left at its depth; the walk scored these as perfect."""

    def test_rejects_bipartite_root_over_three_parties(self):
        # One decoder measured parties 2 and 3 jointly; scored 0.9999999999999997.
        plus, minus = ghz_pair(3)
        leaf = synthesize(StateVector((2, 4), plus), StateVector((2, 4), minus), swap_roles=False)
        tree = MultipartiteProtocol((2, 2, 2), leaf)
        with pytest.raises(ValueError, match="depth 0"):
            multipartite_success_probability(
                StateVector((2, 2, 2), plus), StateVector((2, 2, 2), minus), tree
            )

    def test_rejects_leaves_over_three_factors(self):
        # Leaves on (2, 4) below a 4-party root; scored 0.9999999999999999.
        plus, minus = ghz_pair(4)
        psi, phi = StateVector((2,) * 4, plus), StateVector((2,) * 4, minus)
        tree = synthesize_multipartite(psi, phi)
        rows = tree.root.alice_vectors.conj() @ np.stack([plus, minus]).reshape(2, 2, 8)
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        leaves = tuple(
            synthesize(StateVector((2, 4), x), StateVector((2, 4), y), swap_roles=False)
            for x, y in zip(*rows)
        )
        tree = replace(tree, root=replace(tree.root, children=leaves))
        with pytest.raises(ValueError, match="depth 1"):
            multipartite_success_probability(psi, phi, tree)

    def test_rejects_swapped_leaf(self):
        # The walk read a swapped leaf's rows in the unswapped order.
        psi, phi, tree = TestMultipartiteSuccessProbability.tree()
        children = (replace(tree.root.children[0], swapped=True), *tree.root.children[1:])
        tree = replace(tree, root=replace(tree.root, children=children))
        with pytest.raises(ValueError, match="depth 1"):
            multipartite_success_probability(psi, phi, tree)


def reference_leaf_masses(leaf, c_psi, c_phi):
    """(q_psi, q_phi, ok_psi, ok_phi) of each outcome of a leaf, from its outcome rows."""
    masses = []
    for b, x, y in zip(leaf.bob_projectors, c_psi, c_phi):
        q_psi, q_phi = np.vdot(x, x).real, np.vdot(y, y).real
        if b is None:
            masses.append((q_psi, q_phi, 0.0, q_phi))
        else:
            masses.append((q_psi, q_phi, abs(np.vdot(b, x)) ** 2, q_phi - abs(np.vdot(b, y)) ** 2))
    return masses


def reference_tree_success(node, a_psi, a_phi, dims):
    """Correct-guess masses of a subtree, walked one node at a time."""
    if node is None:
        return 0.0, 0.0
    if isinstance(node, GuessLeaf):
        masses = (np.vdot(a_psi, a_psi).real, np.vdot(a_phi, a_phi).real)
        return (masses[0], 0.0) if node.guess == "psi" else (0.0, masses[1])
    rows = node.alice_vectors[:, : dims[0]].conj()
    c_psi = rows @ a_psi.reshape(dims[0], -1)
    c_phi = rows @ a_phi.reshape(dims[0], -1)
    if isinstance(node, Protocol):
        masses = reference_leaf_masses(node, c_psi, c_phi)
        return sum(m[2] for m in masses), sum(m[3] for m in masses)
    parts = [reference_tree_success(*z, dims[1:]) for z in zip(node.children, c_psi, c_phi)]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def reference_success(psi, phi, tree):
    return 0.5 * sum(reference_tree_success(tree.root, psi.amplitudes, phi.amplitudes, tree.dims))


class TestTreeLevels:
    """Levels with pruned children and with mixed basis shapes, against the node-by-node walk."""

    def test_pruned_level(self):
        # The overlap matrix is zero: outcome 0 leaves only psi, outcome 2
        # neither, and the padding outcome 3 never occurs.
        a_psi = np.zeros(12, dtype=np.complex128)
        a_psi[[0, 5]] = np.sqrt([0.3, 0.7])
        a_phi = np.zeros(12, dtype=np.complex128)
        a_phi[6] = 1.0
        psi, phi = StateVector((3, 2, 2), a_psi), StateVector((3, 2, 2), a_phi)
        tree = synthesize_multipartite(psi, phi)
        children = tree.root.children
        assert [type(c) for c in children] == [GuessLeaf, Protocol, type(None), type(None)]
        assert children[0].guess == "psi"
        success = multipartite_success_probability(psi, phi, tree)
        assert abs(success - reference_success(psi, phi, tree)) <= 1e-12
        assert success >= 1 - 1e-12

    def test_mixed_basis_shapes_at_one_level(self):
        # Depth 1 holds a 3 x 3 unpadded leaf, a 4 x 4 padded leaf, a 4 x 4
        # padded branch node and a guess; the score need not be 1.
        rng = np.random.default_rng(911)
        psi, phi = random_orthogonal_pair(rng, (3, 3, 2))

        def unit():
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return v / np.linalg.norm(v)

        def leaf(n):
            return Protocol(
                alice_vectors=random_unitary(rng, n),
                bob_projectors=(unit(), None, *[unit() for _ in range(n - 2)]),
                outcome_probs_psi=np.full(n, 1 / n),
                outcome_probs_phi=np.full(n, 1 / n),
                padded_dim_a=n,
                original_dim_a=3,
                dim_b=2,
            )

        last = BranchNode(random_unitary(rng, 2), 2, 2, (GuessLeaf("psi"), GuessLeaf("phi")))
        branch = BranchNode(random_unitary(rng, 4), 4, 3, (last, GuessLeaf("psi"), None, None))
        root = BranchNode(random_unitary(rng, 4), 4, 3, (leaf(3), leaf(4), branch, GuessLeaf("phi")))
        tree = MultipartiteProtocol((3, 3, 2), root)
        success = multipartite_success_probability(psi, phi, tree)
        assert abs(success - reference_success(psi, phi, tree)) <= 1e-12
        assert 0.0 < success < 1.0


class TestProtocolAgainstReference:
    """A bipartite report, scored as a one-node level, against the outcome-by-outcome walk."""

    @staticmethod
    def check(psi, phi, protocol, plan=None):
        mats = [s.amplitudes.reshape(s.dims) for s in (psi, phi)]
        mats = [m.T for m in mats] if protocol.swapped else mats
        dims = (protocol.original_dim_a, protocol.dim_b)
        rows = protocol.alice_vectors[:, : dims[0]].conj()
        masses = reference_leaf_masses(protocol, rows @ mats[0], rows @ mats[1])
        kept = range(len(masses)) if plan is None else plan.kept_outcomes
        report = success_probability(psi, phi, protocol, plan)
        success = 0.5 * sum(masses[i][2] + masses[i][3] for i in kept)
        assert abs(report.success_prob - success) <= 1e-12
        if plan is None:
            walked = reference_tree_success(protocol, *(m.reshape(-1) for m in mats), dims)
            assert abs(report.success_prob - 0.5 * sum(walked)) <= 1e-12
        for i, (q_psi, q_phi, ok_psi, ok_phi) in enumerate(masses):
            got = report.per_outcome_success[i]
            weight = 0.5 * (q_psi + q_phi)
            conditional = 0.5 * (ok_psi + ok_phi) / weight if i in kept else 0.0
            assert np.max(np.abs(np.subtract(got, (weight, conditional)))) <= 1e-12
        kept_mass = [sum(masses[i][k] for i in kept) for k in (0, 1)]
        assert np.max(np.abs(np.subtract(report.kept_mass, kept_mass))) <= 1e-12
        return report

    def test_hand_built_swapped_protocol_with_phi_answers(self):
        # The second factor measures through a padded 4 x 4 basis; two outcomes answer phi.
        rng = np.random.default_rng(931)
        psi, phi = random_orthogonal_pair(rng, (4, 3))

        def unit():
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            return v / np.linalg.norm(v)

        protocol = Protocol(
            alice_vectors=random_unitary(rng, 4),
            bob_projectors=(unit(), None, unit(), None),
            outcome_probs_psi=np.full(4, 0.25),
            outcome_probs_phi=np.full(4, 0.25),
            padded_dim_a=4,
            original_dim_a=3,
            dim_b=4,
            swapped=True,
        )
        report = self.check(psi, phi, protocol)
        assert 0.0 < report.success_prob < 1.0

    def test_unpadded_three_outcome_basis(self):
        rng = np.random.default_rng(932)
        psi, phi = random_orthogonal_pair(rng, (3, 2))
        decoders = []
        for _ in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            decoders.append(v / np.linalg.norm(v))
        protocol = Protocol(
            alice_vectors=random_unitary(rng, 3),
            bob_projectors=tuple(decoders),
            outcome_probs_psi=np.full(3, 1 / 3),
            outcome_probs_phi=np.full(3, 1 / 3),
            padded_dim_a=3,
            original_dim_a=3,
            dim_b=2,
        )
        self.check(psi, phi, protocol)

    def test_synthesized_protocol_with_a_plan(self):
        psi, phi = random_orthogonal_pair(np.random.default_rng(933), (6, 5))
        protocol = synthesize(psi, phi)
        plan = epsilon_truncate(protocol, 0.3)
        assert 0 < len(plan.kept_outcomes) < protocol.padded_dim_a
        report = self.check(psi, phi, protocol, plan)
        dropped = set(range(protocol.padded_dim_a)) - set(plan.kept_outcomes)
        assert all(report.per_outcome_success[i][1] == 0.0 for i in dropped)
