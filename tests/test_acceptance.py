"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, so a verbose
run prints exactly one pass/fail line per criterion.  Everything random is
seeded; nothing here depends on the other test modules.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    conditional_slice,
    random_kraus_ops,
    random_orthogonal_pair,
    random_state,
    random_unitary,
)
from loccsynth import (
    BranchNode,
    KrausChannel,
    NonOrthogonalInputError,
    Protocol,
    StateVector,
    build_env_code,
    epsilon_truncate,
    multipartite_success_probability,
    overlap_matrix,
    success_probability,
    synthesize,
    synthesize_multipartite,
    uflatgen,
    verify_flat,
)


def test_criterion_01_synthesized_protocols_discriminate_perfectly():
    start = time.perf_counter()
    worst = 1.0
    for d_a, d_b in ((2, 2), (3, 5), (4, 4), (7, 11), (16, 16)):
        rng = np.random.default_rng([11, d_a, d_b])
        for _ in range(100):
            psi, phi = random_orthogonal_pair(rng, (d_a, d_b))
            protocol = synthesize(psi, phi)
            worst = min(worst, success_probability(psi, phi, protocol).success_prob)
    elapsed = time.perf_counter() - start
    assert worst >= 1 - 1e-9, f"worst success {worst!r}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_flattening_residual_and_unitarity():
    start = time.perf_counter()
    for d in (2, 3, 4, 5, 8, 13, 16, 32, 64, 128):
        rng = np.random.default_rng([22, d])
        for _ in range(50):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m -= np.trace(m) / d * np.eye(d)
            result = uflatgen(m)
            fro = np.linalg.norm(m, "fro")
            assert verify_flat(m, result) <= 1e-9 * (1 + fro)
            u = result.unitary
            defect = np.linalg.norm(u @ u.conj().T - np.eye(result.padded_dim), "fro")
            assert defect <= 1e-9 * result.padded_dim
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_nonzero_trace_lands_every_diagonal_on_the_average():
    for d in (2, 3, 5, 7, 8, 12, 16, 33):
        rng = np.random.default_rng([33, d])
        for _ in range(20):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m[0, 0] += 2.0 + 1.0j  # keep tr(M) away from zero
            result = uflatgen(m)
            padded = np.zeros((result.padded_dim,) * 2, dtype=np.complex128)
            padded[:d, :d] = m
            flat = result.unitary @ padded @ result.unitary.conj().T
            target = np.trace(m) / result.padded_dim
            fro = np.linalg.norm(m, "fro")
            worst = np.max(np.abs(np.diagonal(flat) - target))
            assert worst <= 1e-9 * (1 + fro)


def run_bench_single_thread(operation):
    # The growth windows describe single-thread operation counts, and BLAS
    # reads its thread count only when numpy loads, so the gate runs in a
    # fresh interpreter with every BLAS pool pinned to one thread.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "loccsynth", "bench", operation],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_04_scaling_benchmarks_land_in_their_windows():
    for operation in ("flatten", "synthesize"):
        proc = run_bench_single_thread(operation)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_criterion_05_overlap_matrix_matches_amplitude_slices():
    for dims in ((2, 2), (3, 5), (5, 3), (4, 4), (8, 2), (2, 8)):
        rng = np.random.default_rng([55, *dims])
        for _ in range(20):
            psi = random_state(rng, dims)
            phi = random_state(rng, dims)
            m = overlap_matrix(psi, phi)
            d_a = dims[0]
            for ip in range(d_a):
                for i in range(d_a):
                    want = np.vdot(conditional_slice(phi, ip), conditional_slice(psi, i))
                    assert abs(m[ip, i] - want) <= 1e-12
            assert abs(np.trace(m) - phi.overlap(psi)) <= 1e-12


def test_criterion_06_first_factor_rotations_act_by_right_multiplication():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        d_a = int(rng.integers(1, 9))
        d_b = int(rng.integers(1, 9))
        psi = random_state(rng, (d_a, d_b))
        u = random_unitary(rng, d_a)
        rotated = StateVector(
            (d_a, d_b), (np.conj(u) @ psi.amplitudes.reshape(d_a, d_b)).reshape(-1)
        )
        lhs = rotated.amplitudes.reshape(d_a, d_b).T
        rhs = psi.amplitudes.reshape(d_a, d_b).T @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_07_truncation_is_minimal_and_meets_its_budget():
    rng = np.random.default_rng(77)
    epsilons = (0.5, 0.25, 0.1, 0.01)
    for trial in range(200):
        d_a = 2 + trial % 7  # 2..8
        d_b = int(rng.integers(2, 9))
        psi, phi = random_orthogonal_pair(rng, (d_a, d_b))
        protocol = synthesize(psi, phi)
        eps = epsilons[trial % 4]
        plan = epsilon_truncate(protocol, eps)
        goal = 1.0 - eps

        p_psi = protocol.outcome_probs_psi
        p_phi = protocol.outcome_probs_phi
        assert sum(p_psi[i] for i in plan.kept_outcomes) >= goal - 1e-12
        assert sum(p_phi[i] for i in plan.kept_outcomes) >= goal - 1e-12

        best = None
        n = protocol.padded_dim_a
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                if (
                    sum(p_psi[i] for i in combo) >= goal
                    and sum(p_phi[i] for i in combo) >= goal
                ):
                    best = size
                    break
            if best is not None:
                break
        assert len(plan.kept_outcomes) == best
        assert plan.bits == math.ceil(math.log2(len(plan.kept_outcomes))) + 1

        report = success_probability(psi, phi, protocol, plan)
        assert report.success_prob >= 1 - eps - 1e-9


def test_criterion_08_multipartite_trees_discriminate():
    s = 1 / np.sqrt(2)
    for dims in ((2, 2, 2), (2, 3, 2)):
        rng = np.random.default_rng([88, *dims])
        for _ in range(100):
            psi, phi = random_orthogonal_pair(rng, dims)
            tree = synthesize_multipartite(psi, phi)
            assert multipartite_success_probability(psi, phi, tree) >= 1 - 1e-8

    ghz_plus = StateVector((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
    ghz_minus = StateVector((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, -1]) / np.sqrt(2))
    tree = synthesize_multipartite(ghz_plus, ghz_minus)
    root = tree.root
    assert isinstance(root, BranchNode)
    assert np.allclose(root.alice_vectors, [[s, s], [-s, s]], atol=1e-9)
    for child in root.children:
        assert isinstance(child, Protocol)
        assert np.allclose(child.alice_vectors, [[s, s], [-s, s]], atol=1e-9)
        assert np.allclose(child.outcome_probs_psi, [0.5, 0.5], atol=1e-9)
        assert np.allclose(child.outcome_probs_phi, [0.5, 0.5], atol=1e-9)
    assert multipartite_success_probability(ghz_plus, ghz_minus, tree) >= 1 - 1e-12


def test_criterion_09_environment_assisted_codes_are_zero_error():
    rng = np.random.default_rng(99)
    for trial in range(100):
        d_b = (2, 3, 4)[trial % 3]
        n_k = 1 + trial % 5
        ops = random_kraus_ops(rng, 2, d_b, n_k)
        channel = KrausChannel(2, d_b, tuple(ops))
        assert build_env_code(channel).error_prob <= 1e-9
        # A redundant dilation of the same channel must code just as well.
        dilated = KrausChannel(
            2, d_b, tuple(ops) + (np.zeros((d_b, 2), dtype=np.complex128),)
        )
        assert build_env_code(dilated).error_prob <= 1e-9


def test_criterion_10_bad_inputs_are_rejected_and_null_protocols_score_half():
    rng = np.random.default_rng(110)
    psi = random_state(rng, (2, 2))
    tilted = psi.amplitudes + 0.05 * rng.standard_normal(4)
    phi = StateVector((2, 2), tilted / np.linalg.norm(tilted))
    with pytest.raises(NonOrthogonalInputError):
        synthesize(psi, phi)

    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    flipped = StateVector((2, 2), np.array([1, 0, 0, -1]) / np.sqrt(2))
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    coin = Protocol(
        alice_vectors=np.eye(2, dtype=np.complex128),
        bob_projectors=(e0, e0),
        outcome_probs_psi=np.array([0.5, 0.5]),
        outcome_probs_phi=np.array([0.5, 0.5]),
        padded_dim_a=2,
        original_dim_a=2,
        dim_b=2,
    )
    report = success_probability(bell, flipped, coin)
    assert abs(report.success_prob - 0.5) <= 1e-9
