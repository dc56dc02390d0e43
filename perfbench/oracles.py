"""Correctness oracles for the benchmark, in plain numpy.

Nothing here calls ``loccsynth.simulator``, ``loccsynth.formats`` or
``verify_flat``: protocol files are parsed with the standard ``json``
module and every success probability is recomputed from the raw states.
Each oracle returns a list of problems; an empty list means the output is
correct.  They run outside the timed region.
"""

from __future__ import annotations

import json

import numpy as np

SUCCESS_TOL = 1e-9  # required per-protocol success: at least 1 - SUCCESS_TOL
UNIT_TOL = 1e-9  # allowed deviation from orthonormal rows and unit decoders
MASS_SLACK = 1e-12  # rounding slack on the kept-mass goal 1 - epsilon


def _complex(raw) -> np.ndarray:
    pairs = np.asarray(raw, dtype=np.float64).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _unitary_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def _outcome_masses(u, decoders, m_psi, m_phi):
    """Per-outcome masses (q_psi, q_phi) and correct-guess masses (ok_psi, ok_phi)."""
    cond_psi = u.conj() @ m_psi
    cond_phi = u.conj() @ m_phi
    q_psi = np.sum(np.abs(cond_psi) ** 2, axis=1)
    q_phi = np.sum(np.abs(cond_phi) ** 2, axis=1)
    ok_psi = np.zeros(len(decoders))
    ok_phi = q_phi.copy()
    for i, b in enumerate(decoders):
        if b is not None:
            ok_psi[i] = abs(np.vdot(b, cond_psi[i])) ** 2
            ok_phi[i] = q_phi[i] - abs(np.vdot(b, cond_phi[i])) ** 2
    return q_psi, q_phi, ok_psi, ok_phi


def _measurement_problems(u, decoders, d_b) -> list[str]:
    problems = []
    defect = _unitary_defect(u)
    if defect > UNIT_TOL:
        problems.append(f"measurement rows are not orthonormal (defect {defect:.3e})")
    for i, b in enumerate(decoders):
        if b is None:
            continue
        if b.size != d_b:
            problems.append(f"decoder {i} has {b.size} entries, want {d_b}")
        elif abs(np.linalg.norm(b) - 1.0) > UNIT_TOL:
            problems.append(f"decoder {i} has norm {np.linalg.norm(b):.12f}")
    return problems


def protocol_problems(doc: dict, psi: np.ndarray, phi: np.ndarray, dims, epsilon=None):
    """Check a bipartite protocol document against the states it was built for.

    Returns (problems, truncated_success).  The protocol must reach success
    1 - SUCCESS_TOL on all outcomes.  With ``epsilon`` (the budget the
    benchmark asked for, never the one in the file) the file must carry
    unique in-range kept outcomes whose mass is at least 1 - epsilon under
    both states.  ``truncated_success`` is the success restricted to the
    kept outcomes, or the full success when there is no truncation.
    """
    d_pad = int(doc["padded_dim_a"])
    d_a = int(doc["original_dim_a"])
    d_b = int(doc["dim_b"])
    a_psi = np.asarray(psi).reshape(dims)
    a_phi = np.asarray(phi).reshape(dims)
    if doc.get("swapped", False):
        a_psi, a_phi = a_psi.T, a_phi.T
    if a_psi.shape != (d_a, d_b) or d_pad < d_a:
        return [f"protocol on ({d_a}, {d_b}) padded to {d_pad} does not fit dims {dims}"], 0.0
    u = _complex(doc["alice_vectors"])
    if u.size != d_pad * d_pad:
        return [f"alice_vectors has {u.size} entries, want {d_pad * d_pad}"], 0.0
    u = u.reshape(d_pad, d_pad)
    decoders = [None if b is None else _complex(b) for b in doc["bob_projectors"]]
    if len(decoders) != d_pad:
        return [f"{len(decoders)} decoders for {d_pad} outcomes"], 0.0
    problems = _measurement_problems(u, decoders, d_b)
    if problems:
        return problems, 0.0

    m_psi = np.zeros((d_pad, d_b), dtype=np.complex128)
    m_psi[:d_a] = a_psi
    m_phi = np.zeros((d_pad, d_b), dtype=np.complex128)
    m_phi[:d_a] = a_phi
    q_psi, q_phi, ok_psi, ok_phi = _outcome_masses(u, decoders, m_psi, m_phi)
    success = 0.5 * float(ok_psi.sum() + ok_phi.sum())
    if not 1.0 - SUCCESS_TOL <= success <= 1.0 + SUCCESS_TOL:
        problems.append(f"success {success:.12f} is not 1 within {SUCCESS_TOL}")

    truncation = doc.get("truncation")
    if epsilon is None:
        return problems, success
    if truncation is None:
        return problems + ["no truncation in a file synthesized with --epsilon"], success
    kept = [int(i) for i in truncation["kept_outcomes"]]
    if len(set(kept)) != len(kept) or any(not 0 <= i < d_pad for i in kept):
        return problems + [f"kept outcomes {kept} are not unique indices below {d_pad}"], 0.0
    goal = 1.0 - epsilon - MASS_SLACK
    mass_psi = float(q_psi[kept].sum())
    mass_phi = float(q_phi[kept].sum())
    if mass_psi < goal or mass_phi < goal:
        problems.append(f"kept mass ({mass_psi:.12f}, {mass_phi:.12f}) is below 1 - {epsilon}")
    return problems, 0.5 * float(ok_psi[kept].sum() + ok_phi[kept].sum())


def env_code_problems(doc: dict, kraus) -> list[str]:
    """Check an environment-assisted code document against its channel."""
    e0 = _complex(doc["encoder_states"][0])
    e1 = _complex(doc["encoder_states"][1])
    gram = np.array([[np.vdot(e0, e0), np.vdot(e0, e1)], [np.vdot(e1, e0), np.vdot(e1, e1)]])
    if np.max(np.abs(gram - np.eye(2))) > UNIT_TOL:
        return ["encoder states are not orthonormal"]
    # Code words on (environment, output): row k is K_k applied to the input.
    d_e, d_b = len(kraus), kraus[0].shape[0]
    word0 = np.stack([k @ e0 for k in kraus]).reshape(-1)
    word1 = np.stack([k @ e1 for k in kraus]).reshape(-1)
    problems, success = protocol_problems(doc["protocol"], word0, word1, (d_e, d_b))
    if float(doc["error_prob"]) > SUCCESS_TOL:
        problems.append(f"declared error_prob {doc['error_prob']} exceeds {SUCCESS_TOL}")
    if abs((1.0 - float(doc["error_prob"])) - success) > SUCCESS_TOL:
        problems.append(f"declared error_prob {doc['error_prob']} disagrees with success {success}")
    return problems


def flatten_problems(m: np.ndarray, unitary: np.ndarray, reported: float) -> list[str]:
    """Diagonal residual of U M_pad U* within 1e-9 (1 + ||M||_F), and U unitary."""
    n = unitary.shape[0]
    d = m.shape[0]
    padded = np.zeros((n, n), dtype=np.complex128)
    padded[:d, :d] = m
    bound = SUCCESS_TOL * (1.0 + float(np.linalg.norm(m)))
    problems = []
    if n < d or n & (n - 1):
        problems.append(f"unitary of size {n} for a matrix of size {d}")
        return problems
    defect = _unitary_defect(unitary)
    if defect > UNIT_TOL:
        problems.append(f"flattening unitary defect {defect:.3e}")
    diagonal = np.sum((unitary @ padded) * unitary.conj(), axis=1)
    residual = float(np.max(np.abs(diagonal - np.trace(m) / n)))
    if residual > bound:
        problems.append(f"diagonal residual {residual:.3e} exceeds {bound:.3e}")
    if abs(reported - residual) > bound:
        problems.append(f"verify_flat reported {reported:.3e}, oracle finds {residual:.3e}")
    return problems


def tree_problems(root, dims, psi, phi, reported: float) -> list[str]:
    """Walk a multipartite protocol tree and recompute its success."""
    problems: list[str] = []

    def walk(node, a_psi, a_phi, dims):
        if node is None:
            return 0.0, 0.0
        if hasattr(node, "guess"):
            mass_psi = float(np.vdot(a_psi, a_psi).real)
            mass_phi = float(np.vdot(a_phi, a_phi).real)
            return (mass_psi, 0.0) if node.guess == "psi" else (0.0, mass_phi)
        leaf = hasattr(node, "bob_projectors")
        d_pad = node.padded_dim_a if leaf else node.padded_dim
        rest = dims[1:]
        r = int(np.prod(rest))
        u = np.asarray(node.alice_vectors)
        m_psi = np.zeros((d_pad, r), dtype=np.complex128)
        m_psi[: dims[0]] = np.asarray(a_psi).reshape(dims[0], r)
        m_phi = np.zeros((d_pad, r), dtype=np.complex128)
        m_phi[: dims[0]] = np.asarray(a_phi).reshape(dims[0], r)
        if leaf:
            decoders = list(node.bob_projectors)
            found = _measurement_problems(u, decoders, r)
            if found or node.swapped:
                problems.extend(found or ["a tree leaf must not swap roles"])
                return 0.0, 0.0
            _, _, ok_psi, ok_phi = _outcome_masses(u, decoders, m_psi, m_phi)
            return float(ok_psi.sum()), float(ok_phi.sum())
        defect = _unitary_defect(u)
        if defect > UNIT_TOL or len(node.children) != d_pad:
            problems.append(f"branch node at dims {dims} is not a measurement")
            return 0.0, 0.0
        cond_psi = u.conj() @ m_psi
        cond_phi = u.conj() @ m_phi
        total_psi = total_phi = 0.0
        for i, child in enumerate(node.children):
            s_psi, s_phi = walk(child, cond_psi[i], cond_phi[i], rest)
            total_psi += s_psi
            total_phi += s_phi
        return total_psi, total_phi

    ok_psi, ok_phi = walk(root, psi, phi, tuple(dims))
    success = 0.5 * (ok_psi + ok_phi)
    if not 1.0 - SUCCESS_TOL <= success <= 1.0 + SUCCESS_TOL:
        problems.append(f"tree success {success:.12f} is not 1 within {SUCCESS_TOL}")
    if abs(success - reported) > SUCCESS_TOL:
        problems.append(f"simulator reported {reported:.12f}, oracle finds {success:.12f}")
    return problems
