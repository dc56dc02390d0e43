"""Protocol synthesis: overlap matrices, the main construction, truncation,
and the multipartite recursion."""

import itertools

import numpy as np
import pytest

from conftest import (
    apply_on_first_factor,
    bell_pair,
    conditional_slice,
    random_orthogonal_pair,
    random_state,
    random_unitary,
)
from loccsynth import (
    TAU_NORM,
    TAU_ZERO,
    BranchNode,
    DimensionMismatchError,
    GuessLeaf,
    NonOrthogonalInputError,
    NotNormalizedError,
    Protocol,
    StateVector,
    epsilon_truncate,
    overlap_matrix,
    success_probability,
    synthesis,
    synthesize,
    synthesize_multipartite,
)

S = 1 / np.sqrt(2)


def make_probs_protocol(p_psi, p_phi):
    """Bare protocol carrying only the outcome distributions; enough for
    exercising truncation planning in isolation."""
    n = len(p_psi)
    return Protocol(
        alice_vectors=np.eye(n, dtype=np.complex128),
        bob_projectors=(None,) * n,
        outcome_probs_psi=np.asarray(p_psi, dtype=np.float64),
        outcome_probs_phi=np.asarray(p_phi, dtype=np.float64),
        padded_dim_a=n,
        original_dim_a=n,
        dim_b=1,
    )


def brute_min_subset_size(p_psi, p_phi, goal):
    n = len(p_psi)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if sum(p_psi[i] for i in combo) >= goal and sum(p_phi[i] for i in combo) >= goal:
                return size
    return n


class TestOverlapMatrix:
    def test_disjoint_product_states(self):
        psi = StateVector((2, 2), [1, 0, 0, 0])
        phi = StateVector((2, 2), [0, 0, 0, 1])
        assert np.array_equal(overlap_matrix(psi, phi), np.zeros((2, 2)))

    def test_bell_pair(self):
        psi, phi = bell_pair()
        assert np.allclose(overlap_matrix(psi, phi), np.diag([0.5, -0.5]), atol=1e-15)

    def test_equal_states_have_unit_trace(self):
        rng = np.random.default_rng(301)
        psi = random_state(rng, (3, 4))
        m = overlap_matrix(psi, psi)
        assert abs(np.trace(m) - 1.0) <= 1e-12

    def test_entries_are_conditional_overlaps(self):
        rng = np.random.default_rng(302)
        for dims in ((2, 2), (3, 5), (5, 3), (4, 1)):
            psi = random_state(rng, dims)
            phi = random_state(rng, dims)
            m = overlap_matrix(psi, phi)
            d_a = dims[0]
            assert m.shape == (d_a, d_a)
            for ip in range(d_a):
                for i in range(d_a):
                    want = np.vdot(conditional_slice(phi, ip), conditional_slice(psi, i))
                    assert abs(m[ip, i] - want) <= 1e-12

    def test_trace_is_state_overlap(self):
        rng = np.random.default_rng(303)
        for _ in range(30):
            psi = random_state(rng, (4, 3))
            phi = random_state(rng, (4, 3))
            assert abs(np.trace(overlap_matrix(psi, phi)) - phi.overlap(psi)) <= 1e-12

    def test_local_rotation_conjugates(self):
        # A first-factor rotation by conj(U) conjugates M by U, which is
        # what lets a flattening unitary act through the overlap matrix.
        rng = np.random.default_rng(304)
        for _ in range(20):
            psi = random_state(rng, (4, 3))
            phi = random_state(rng, (4, 3))
            u = random_unitary(rng, 4)
            m_rot = overlap_matrix(
                apply_on_first_factor(np.conj(u), psi),
                apply_on_first_factor(np.conj(u), phi),
            )
            want = u @ overlap_matrix(psi, phi) @ u.conj().T
            assert np.max(np.abs(m_rot - want)) <= 1e-11

    def test_unvec_carries_first_factor_rotations(self):
        rng = np.random.default_rng(305)
        for _ in range(50):
            d_a = int(rng.integers(1, 9))
            d_b = int(rng.integers(1, 9))
            psi = random_state(rng, (d_a, d_b))
            u = random_unitary(rng, d_a)
            lhs = apply_on_first_factor(np.conj(u), psi).amplitudes.reshape(d_a, d_b).T
            rhs = psi.amplitudes.reshape(d_a, d_b).T @ u.conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rejects_mismatched_or_nonbipartite(self):
        psi = StateVector((2, 2), [1, 0, 0, 0])
        with pytest.raises(DimensionMismatchError):
            overlap_matrix(psi, StateVector((2, 3), [0, 0, 0, 0, 0, 1]))
        tri = StateVector((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DimensionMismatchError):
            overlap_matrix(tri, tri)


class TestSynthesize:
    def test_bell_pair_protocol(self):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        assert protocol.padded_dim_a == 2
        assert not protocol.swapped
        assert np.allclose(protocol.alice_vectors, [[S, S], [-S, S]], atol=1e-12)
        assert np.allclose(protocol.outcome_probs_psi, [0.5, 0.5], atol=1e-12)
        assert np.allclose(protocol.outcome_probs_phi, [0.5, 0.5], atol=1e-12)
        assert np.allclose(np.abs(protocol.bob_projectors[0]), [S, S], atol=1e-9)
        assert np.allclose(np.abs(protocol.bob_projectors[1]), [S, S], atol=1e-9)
        report = success_probability(psi, phi, protocol)
        assert report.success_prob >= 1 - 1e-12

    def test_disjoint_product_states(self):
        psi = StateVector((2, 2), [1, 0, 0, 0])
        phi = StateVector((2, 2), [0, 0, 0, 1])
        protocol = synthesize(psi, phi)
        assert np.allclose(protocol.alice_vectors, np.eye(2), atol=1e-12)
        assert np.allclose(protocol.bob_projectors[0], [1, 0], atol=1e-12)
        assert protocol.bob_projectors[1] is None
        assert np.array_equal(protocol.outcome_probs_psi, [1.0, 0.0])
        assert np.array_equal(protocol.outcome_probs_phi, [0.0, 1.0])
        assert success_probability(psi, phi, protocol).success_prob == 1.0

    def test_invariants_across_shapes(self):
        rng = np.random.default_rng(306)
        for dims in ((2, 2), (2, 3), (3, 2), (3, 5), (4, 4), (5, 3), (3, 1), (1, 4)):
            for _ in range(5):
                psi, phi = random_orthogonal_pair(rng, dims)
                protocol = synthesize(psi, phi)
                d_pad = protocol.padded_dim_a
                # Measurement basis is unitary on the padded space.
                gram = protocol.alice_vectors @ protocol.alice_vectors.conj().T
                assert np.linalg.norm(gram - np.eye(d_pad)) <= TAU_ZERO * d_pad
                # Outcome distributions are genuine distributions.
                for p in (protocol.outcome_probs_psi, protocol.outcome_probs_phi):
                    assert p.shape == (d_pad,)
                    assert np.all(p >= -TAU_ZERO)
                    assert abs(p.sum() - 1.0) <= TAU_NORM
                for i, b in enumerate(protocol.bob_projectors):
                    if b is None:
                        assert protocol.outcome_probs_psi[i] <= TAU_ZERO
                    else:
                        assert abs(np.linalg.norm(b) - 1.0) <= 1e-9
                # Swap bookkeeping: the smaller factor measures first.
                if dims[0] > dims[1]:
                    assert protocol.swapped
                    assert protocol.original_dim_a == dims[1]
                else:
                    assert not protocol.swapped
                    assert protocol.original_dim_a == dims[0]
                assert success_probability(psi, phi, protocol).success_prob >= 1 - 1e-9

    def test_conditional_states_stay_orthogonal(self):
        # The core guarantee behind perfect discrimination: whenever both
        # states can produce an outcome, their leftover second-factor
        # states are orthogonal.
        rng = np.random.default_rng(307)
        for _ in range(20):
            psi, phi = random_orthogonal_pair(rng, (4, 5))
            protocol = synthesize(psi, phi)
            for i in range(protocol.padded_dim_a):
                row = protocol.alice_vectors[i, :4].conj()
                cond_psi = row @ psi.amplitudes.reshape(4, 5)
                cond_phi = row @ phi.amplitudes.reshape(4, 5)
                n_psi = np.linalg.norm(cond_psi)
                n_phi = np.linalg.norm(cond_phi)
                if n_psi > TAU_ZERO and n_phi > TAU_ZERO:
                    assert abs(np.vdot(cond_phi, cond_psi)) / (n_psi * n_phi) <= 1e-9

    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (5, 3), (6, 2)])
    def test_outcomes_match_kronecker_selectors(self, dims):
        # Definition: outcome i leaves the second party in (<i| u_bar tensor 1_B)
        # applied to the padded state, with the selector built explicitly.
        # (4, 4) is square, (3, 5) pads 3 to 4, (5, 3) swaps and pads, (6, 2) swaps.
        rng = np.random.default_rng([312, *dims])
        psi, phi = random_orthogonal_pair(rng, dims)
        protocol = synthesize(psi, phi)
        d_pad, d_b = protocol.padded_dim_a, protocol.dim_b
        selectors = [np.kron(row[None, :], np.eye(d_b)) for row in protocol.alice_vectors.conj()]
        for state, probs in ((psi, protocol.outcome_probs_psi), (phi, protocol.outcome_probs_phi)):
            amps = state.amplitudes.reshape(dims)
            if protocol.swapped:
                amps = amps.T
            padded = np.zeros((d_pad, d_b), dtype=np.complex128)
            padded[: amps.shape[0]] = amps
            conds = [sel @ padded.reshape(-1) for sel in selectors]
            want = np.array([np.vdot(c, c).real for c in conds])
            assert np.max(np.abs(probs - want)) <= 1e-12
            if state is psi:
                for cond, b in zip(conds, protocol.bob_projectors, strict=True):
                    norm = np.linalg.norm(cond)
                    if norm > TAU_ZERO:
                        assert np.max(np.abs(b - cond / norm)) <= 1e-12
                    else:
                        assert b is None

    def test_swap_roles_can_be_disabled(self):
        rng = np.random.default_rng(308)
        psi, phi = random_orthogonal_pair(rng, (5, 2))
        forced = synthesize(psi, phi, swap_roles=False)
        assert not forced.swapped
        assert forced.original_dim_a == 5
        assert forced.padded_dim_a == 8
        assert success_probability(psi, phi, forced).success_prob >= 1 - 1e-9

    def test_rejects_bad_pairs(self):
        psi = StateVector((2, 2), [1, 0, 0, 0])
        with pytest.raises(NonOrthogonalInputError) as info:
            synthesize(psi, psi)
        assert "1.000e+00" in str(info.value)  # magnitude of the offending overlap
        with pytest.raises(NotNormalizedError):
            synthesize(StateVector((2, 2), [1, 0, 0, 1]), psi)
        with pytest.raises(DimensionMismatchError):
            synthesize(psi, StateVector((2, 3), [0, 0, 0, 0, 0, 1]))

    def test_nearly_parallel_pair_detected(self):
        rng = np.random.default_rng(309)
        psi = random_state(rng, (2, 2))
        amps = psi.amplitudes + 1e-4 * rng.standard_normal(4)
        phi = StateVector((2, 2), amps / np.linalg.norm(amps))
        with pytest.raises(NonOrthogonalInputError):
            synthesize(psi, phi)


class TestEpsilonTruncate:
    def test_symmetric_profile(self):
        protocol = make_probs_protocol([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        plan = epsilon_truncate(protocol, 0.25)
        assert plan.kept_outcomes == (0, 1)
        assert plan.bits == 2
        assert plan.retained_prob_psi == pytest.approx(0.8)
        plan = epsilon_truncate(protocol, 0.5)
        assert plan.kept_outcomes == (0,)
        assert plan.bits == 1

    def test_epsilon_one_keeps_single_top_outcome(self):
        protocol = make_probs_protocol([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        plan = epsilon_truncate(protocol, 1.0)
        assert plan.kept_outcomes == (0,)
        assert plan.bits == 1

    def test_tiny_epsilon_keeps_everything(self):
        protocol = make_probs_protocol([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        plan = epsilon_truncate(protocol, 1e-12)
        assert sorted(plan.kept_outcomes) == [0, 1, 2]
        assert plan.bits == 3

    def test_mismatched_profiles_need_refinement(self):
        # Ranking by min probability alone keeps four outcomes here; the
        # true optimum at epsilon = 0.5 is three.
        p_psi = [0.1126, 0.1938, 0.129, 0.0533, 0.0833, 0.047, 0.1359, 0.2452]
        p_phi = [0.196, 0.2284, 0.1173, 0.0502, 0.1006, 0.0806, 0.0798, 0.1469]
        plan = epsilon_truncate(make_probs_protocol(p_psi, p_phi), 0.5)
        assert sorted(plan.kept_outcomes) == [0, 1, 7]
        assert plan.retained_prob_psi >= 0.5
        assert plan.retained_prob_phi >= 0.5
        assert plan.bits == 3

    def test_node_budget_spent_keeps_the_greedy_prefix(self, monkeypatch):
        monkeypatch.setattr(synthesis, "_REFINE_NODE_BUDGET", 3)
        p_psi = [0.1126, 0.1938, 0.129, 0.0533, 0.0833, 0.047, 0.1359, 0.2452]
        p_phi = [0.196, 0.2284, 0.1173, 0.0502, 0.1006, 0.0806, 0.0798, 0.1469]
        plan = epsilon_truncate(make_probs_protocol(p_psi, p_phi), 0.5)
        assert plan.kept_outcomes == (1, 7, 2, 0)
        assert plan.retained_prob_psi >= 0.5
        assert plan.retained_prob_phi >= 0.5

    def test_small_budget_still_reaches_a_smallest_set(self, monkeypatch):
        # Trials 52, 83 and 181 (16 outcomes each) find their smallest set within
        # 200 nodes only with the bound on x + y; on x and y apart they keep all 16.
        monkeypatch.setattr(synthesis, "_REFINE_NODE_BUDGET", 200)
        rng = np.random.default_rng(2024)
        kept, smallest = [], []
        for _ in range(200):
            n = rng.integers(12, 17)
            p_psi = rng.random(n) ** 3
            p_phi = rng.random(n) ** 3
            p_psi, p_phi = p_psi / p_psi.sum(), p_phi / p_phi.sum()
            plan = epsilon_truncate(make_probs_protocol(p_psi, p_phi), 0.05)
            kept.append(len(plan.kept_outcomes))
            # Every subset at once, one row of 0/1 weights per subset.
            masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            meets = (masks @ p_psi >= 0.95) & (masks @ p_phi >= 0.95)
            smallest.append(int(masks[meets].sum(axis=1).min()))
        assert [smallest[t] for t in (52, 83, 181)] == [15, 13, 12]
        assert [kept[t] for t in (52, 83, 181)] == [15, 13, 12]
        assert kept == smallest

    def test_more_outcomes_than_the_search_takes_keep_the_prefix(self):
        # The profile above, padded with empty outcomes past the search's 256.
        p_psi = [0.1126, 0.1938, 0.129, 0.0533, 0.0833, 0.047, 0.1359, 0.2452] + [0.0] * 292
        p_phi = [0.196, 0.2284, 0.1173, 0.0502, 0.1006, 0.0806, 0.0798, 0.1469] + [0.0] * 292
        plan = epsilon_truncate(make_probs_protocol(p_psi, p_phi), 0.5)
        assert plan.kept_outcomes == (1, 7, 2, 0)

    def test_profile_short_of_the_goal_keeps_every_outcome(self):
        # No subset reaches 1 - 1e-12, so neither the prefix nor the search stops early.
        protocol = make_probs_protocol([0.5, 0.3, 0.2 - 1e-9], [0.2 - 1e-9, 0.3, 0.5])
        plan = epsilon_truncate(protocol, 1e-12)
        assert sorted(plan.kept_outcomes) == [0, 1, 2]
        assert plan.bits == 3

    def test_minimal_cardinality_against_exhaustion(self):
        rng = np.random.default_rng(310)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            p_psi = rng.random(n)
            p_psi /= p_psi.sum()
            p_phi = rng.random(n)
            p_phi /= p_phi.sum()
            protocol = make_probs_protocol(p_psi, p_phi)
            eps = (0.5, 0.25, 0.1, 0.01)[trial % 4]
            plan = epsilon_truncate(protocol, eps)
            goal = 1.0 - eps
            assert sum(p_psi[i] for i in plan.kept_outcomes) >= goal - 1e-12
            assert sum(p_phi[i] for i in plan.kept_outcomes) >= goal - 1e-12
            assert len(plan.kept_outcomes) == brute_min_subset_size(p_psi, p_phi, goal)
            assert plan.bits == (len(plan.kept_outcomes) - 1).bit_length() + 1

    def test_rejects_out_of_range_epsilon(self):
        protocol = make_probs_protocol([1.0], [1.0])
        for eps in (0.0, -0.1, 1.1, 2.0):
            with pytest.raises(ValueError):
                epsilon_truncate(protocol, eps)


class TestDimensionFields:
    """Protocol types refuse dimension fields that disagree with their arrays."""

    E0 = np.array([1.0, 0.0])

    @pytest.mark.parametrize(
        "fields, message",
        [
            # Unchecked, this one raised IndexError inside success_probability.
            (
                {"padded_dim_a": 3, "bob_projectors": (E0,) * 3, "outcome_probs_psi": [0.5] * 3},
                "padded_dim_a 3",
            ),
            ({"original_dim_a": 3}, "original_dim_a 3"),
            ({"original_dim_a": 0}, "original_dim_a 0"),
            ({"bob_projectors": (E0,)}, "bob_projectors"),
            ({"bob_projectors": (E0, np.ones(3))}, "bob_projectors"),
            ({"outcome_probs_phi": [1.0]}, "outcome_probs_phi"),
        ],
    )
    def test_protocol_rejects(self, fields, message):
        coin = {
            "alice_vectors": np.eye(2),
            "bob_projectors": (self.E0, None),
            "outcome_probs_psi": [0.5, 0.5],
            "outcome_probs_phi": [0.5, 0.5],
            "padded_dim_a": 2,
            "original_dim_a": 2,
            "dim_b": 2,
        }
        with pytest.raises(DimensionMismatchError, match=message):
            Protocol(**{**coin, **fields})

    @pytest.mark.parametrize("padded_dim, original_dim", [(4, 2), (2, 3)])
    def test_branch_node_rejects(self, padded_dim, original_dim):
        with pytest.raises(DimensionMismatchError):
            BranchNode(np.eye(2), padded_dim, original_dim, children=(None, None))


class TestMultipartite:
    def test_ghz_pair(self):
        ghz_plus = StateVector((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        ghz_minus = StateVector((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, -1]) / np.sqrt(2))
        tree = synthesize_multipartite(ghz_plus, ghz_minus)
        assert tree.dims == (2, 2, 2)
        root = tree.root
        assert isinstance(root, BranchNode)
        assert root.padded_dim == 2
        assert np.allclose(root.alice_vectors, [[S, S], [-S, S]], atol=1e-9)
        # Both branches hand the remaining two parties a Bell-type pair,
        # discriminated by the same rotated basis.
        for child in root.children:
            assert isinstance(child, Protocol)
            assert np.allclose(child.alice_vectors, [[S, S], [-S, S]], atol=1e-9)
            assert np.allclose(child.outcome_probs_psi, [0.5, 0.5], atol=1e-9)
        assert np.allclose(np.abs(root.children[0].bob_projectors[0]), [S, S], atol=1e-9)
        assert np.allclose(np.abs(root.children[0].bob_projectors[1]), [S, S], atol=1e-9)
        from loccsynth import multipartite_success_probability

        assert multipartite_success_probability(ghz_plus, ghz_minus, tree) >= 1 - 1e-12

    def test_disjoint_product_states_guess_immediately(self):
        psi = StateVector((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0])
        phi = StateVector((2, 2, 2), [0, 0, 0, 0, 0, 0, 0, 1])
        tree = synthesize_multipartite(psi, phi)
        assert np.allclose(tree.root.alice_vectors, np.eye(2), atol=1e-12)
        kinds = [type(c) for c in tree.root.children]
        assert kinds == [GuessLeaf, GuessLeaf]
        assert tree.root.children[0].guess == "psi"
        assert tree.root.children[1].guess == "phi"
        from loccsynth import multipartite_success_probability

        assert multipartite_success_probability(psi, phi, tree) == 1.0

    def test_random_trees_discriminate(self):
        from loccsynth import multipartite_success_probability

        rng = np.random.default_rng(311)
        for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)):
            for _ in range(5):
                psi, phi = random_orthogonal_pair(rng, dims)
                tree = synthesize_multipartite(psi, phi)
                assert tree.dims == dims
                assert multipartite_success_probability(psi, phi, tree) >= 1 - 1e-8

    def test_rejects_bipartite_input(self):
        psi, phi = bell_pair()
        with pytest.raises(DimensionMismatchError):
            synthesize_multipartite(psi, phi)

    def test_rejects_non_orthogonal(self):
        psi = StateVector((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(NonOrthogonalInputError):
            synthesize_multipartite(psi, psi)
