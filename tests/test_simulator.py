"""Protocol evaluation: exact scoring, truncation plans, sampling."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import bell_pair, random_orthogonal_pair
from loccsynth import (
    DimensionMismatchError,
    Protocol,
    StateVector,
    TruncatedMessagePlan,
    epsilon_truncate,
    multipartite_success_probability,
    sample_run,
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


class TestSampleRun:
    def test_perfect_protocol_never_misses(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        assert sample_run(psi, protocol, seed=7, shots=10_000, truth="psi") == 1.0
        assert sample_run(phi, protocol, seed=7, shots=10_000, truth="phi") == 1.0

    def test_coin_flip_frequency(self):
        psi, _ = bell_pair()
        freq = sample_run(psi, coin_flip_protocol(), seed=42, shots=100_000, truth="psi")
        assert abs(freq - 0.5) <= 0.008  # five sigma at this sample size

    def test_single_shot_is_binary(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        assert sample_run(psi, protocol, seed=1, shots=1) in (0.0, 1.0)

    def test_reproducible_from_seed(self):
        psi, _ = bell_pair()
        protocol = coin_flip_protocol()
        a = sample_run(psi, protocol, seed=99, shots=1000)
        b = sample_run(psi, protocol, seed=99, shots=1000)
        assert a == b

    @pytest.mark.parametrize(
        "scale_u, scale_b, message",
        [(3.0, 3.0, "orthonormal"), (1.0, 3.0, "decoder 0"), (np.nan, 1.0, "orthonormal")],
    )
    def test_rejects_protocol_that_is_not_a_measurement(self, scale_u, scale_b, message):
        # Unchecked, 3 I with decoders 3 e0 samples a plausible 0.507 on the Bell pair.
        psi, _ = bell_pair()
        with pytest.raises(ValueError, match=message):
            sample_run(psi, coin_flip_protocol(scale_u, scale_b), seed=1, shots=1000)

    def test_rejects_bad_arguments(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        with pytest.raises(ValueError):
            sample_run(psi, protocol, seed=1, shots=0)
        with pytest.raises(ValueError):
            sample_run(psi, protocol, seed=1, shots=10, truth="maybe")

    def test_unnormalized_state_rejected(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        crooked = StateVector((2, 2), [1, 0, 0, 1])
        from loccsynth import NotNormalizedError

        with pytest.raises(NotNormalizedError):
            sample_run(crooked, protocol, seed=1, shots=10)


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
