"""JSON file formats for states, matrices, channels, protocols and codes.

Complex numbers are stored as two-element ``[re, im]`` arrays; matrices
are stored row-major.  Every file carries a ``schema_version`` field.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .envcode import EnvCode, KrausChannel
from .flatten import FlatteningResult
from .linalg import StateVector
from .synthesis import Protocol, TruncatedMessagePlan

SCHEMA_VERSION = 1


def _pairs(values: np.ndarray) -> list[list[float]]:
    z = np.asarray(values, dtype=np.complex128).reshape(-1)
    return np.column_stack((z.real, z.imag)).tolist()


def _unpairs(raw: Any, name: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs")
    if not raw:
        return np.empty(0, dtype=np.complex128)
    try:
        pairs = np.array(raw)
    except ValueError:  # ragged nesting
        raise ValueError(_first_bad_pair(raw, name)) from None
    numeric = pairs.shape == (len(raw), 2) and pairs.dtype.kind in "iuf"
    if not numeric or not np.isfinite(pairs).all():
        raise ValueError(_first_bad_pair(raw, name))
    return pairs.astype(np.float64).view(np.complex128).reshape(-1)


def _first_bad_pair(raw: list, name: str) -> str:
    """Message naming the first entry of ``raw`` that is not a finite [re, im] pair."""
    for idx, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            return f"{name}[{idx}] is not a [re, im] pair"
        for x in item:
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
                return f"{name}[{idx}] holds {x!r}, not a finite number"
    return f"{name} is not a list of finite [re, im] pairs"


def _integer(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer; booleans, floats and null are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _required(doc: dict, key: str, where: str = "") -> Any:
    """``doc[key]``, or a ValueError naming the missing field as ``where + key``."""
    if key not in doc:
        raise ValueError(f"protocol file is missing {where}{key}")
    return doc[key]


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    return doc


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def save_state(path: str, state: StateVector) -> None:
    _write(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "dims": list(state.dims),
            "amplitudes": _pairs(state.amplitudes),
        },
    )


def load_state(path: str) -> StateVector:
    doc = _read(path)
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims:
        raise ValueError("state file needs a non-empty dims list")
    dims = tuple(_integer(d, f"dims[{idx}]") for idx, d in enumerate(dims))
    state = StateVector(dims, _unpairs(doc.get("amplitudes"), "amplitudes"))
    state.require_normalized()
    return state


def save_matrix(path: str, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    _write(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "rows": m.shape[0],
            "cols": m.shape[1],
            "entries": _pairs(m),
        },
    )


def load_matrix(path: str) -> np.ndarray:
    doc = _read(path)
    rows = _integer(doc.get("rows"), "rows")
    cols = _integer(doc.get("cols"), "cols")
    if rows < 1 or cols < 1:
        raise ValueError("matrix file needs positive rows and cols")
    entries = _unpairs(doc.get("entries"), "entries")
    if entries.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {entries.size}")
    return entries.reshape(rows, cols)


def load_channel(path: str) -> KrausChannel:
    doc = _read(path)
    d_a = _integer(doc.get("input_dim"), "input_dim")
    d_b = _integer(doc.get("output_dim"), "output_dim")
    raw_kraus = doc.get("kraus")
    if not isinstance(raw_kraus, list) or not raw_kraus:
        raise ValueError("channel file needs a non-empty kraus list")
    ops = []
    for idx, raw in enumerate(raw_kraus):
        flat = _unpairs(raw, f"kraus[{idx}]")
        if flat.size != d_b * d_a:
            raise ValueError(f"kraus[{idx}] must have {d_b * d_a} entries, got {flat.size}")
        ops.append(flat.reshape(d_b, d_a))
    return KrausChannel(input_dim=d_a, output_dim=d_b, kraus=tuple(ops))


def save_channel(path: str, channel: KrausChannel) -> None:
    _write(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "input_dim": channel.input_dim,
            "output_dim": channel.output_dim,
            "kraus": [_pairs(k) for k in channel.kraus],
        },
    )


def _protocol_doc(protocol: Protocol, plan: TruncatedMessagePlan | None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "padded_dim_a": protocol.padded_dim_a,
        "original_dim_a": protocol.original_dim_a,
        "dim_b": protocol.dim_b,
        "swapped": protocol.swapped,
        "alice_vectors": _pairs(protocol.alice_vectors),
        "bob_projectors": [None if b is None else _pairs(b) for b in protocol.bob_projectors],
        "outcome_probs_psi": protocol.outcome_probs_psi.tolist(),
        "outcome_probs_phi": protocol.outcome_probs_phi.tolist(),
        "input_overlap": [protocol.input_overlap.real, protocol.input_overlap.imag],
        "flatten_residual": protocol.flatten_residual,
    }
    if plan is not None:
        doc["truncation"] = {
            "kept_outcomes": list(plan.kept_outcomes),
            "epsilon": plan.epsilon,
            "bits": plan.bits,
            "retained_prob_psi": plan.retained_prob_psi,
            "retained_prob_phi": plan.retained_prob_phi,
        }
    return doc


def save_protocol(path: str, protocol: Protocol, plan: TruncatedMessagePlan | None = None) -> None:
    _write(path, _protocol_doc(protocol, plan))


def load_protocol(path: str) -> tuple[Protocol, TruncatedMessagePlan | None]:
    doc = _read(path)
    d_pad = _integer(doc.get("padded_dim_a"), "padded_dim_a")
    d_a = _integer(doc.get("original_dim_a"), "original_dim_a")
    d_b = _integer(doc.get("dim_b"), "dim_b")
    alice = _unpairs(_required(doc, "alice_vectors"), "alice_vectors")
    if alice.size != d_pad * d_pad:
        raise ValueError(f"alice_vectors must have {d_pad * d_pad} entries, got {alice.size}")
    raw_bobs = _required(doc, "bob_projectors")
    if not isinstance(raw_bobs, list) or len(raw_bobs) != d_pad:
        raise ValueError(f"bob_projectors must list {d_pad} outcomes")
    bobs = []
    for idx, raw in enumerate(raw_bobs):
        if raw is None:
            bobs.append(None)
            continue
        b = _unpairs(raw, f"bob_projectors[{idx}]")
        if b.size != d_b:
            raise ValueError(f"bob_projectors[{idx}] must have {d_b} entries, got {b.size}")
        bobs.append(b)
    overlap_pair = doc.get("input_overlap", [0.0, 0.0])
    protocol = Protocol(
        alice_vectors=alice.reshape(d_pad, d_pad),
        bob_projectors=tuple(bobs),
        outcome_probs_psi=np.asarray(_required(doc, "outcome_probs_psi"), dtype=np.float64),
        outcome_probs_phi=np.asarray(_required(doc, "outcome_probs_phi"), dtype=np.float64),
        padded_dim_a=d_pad,
        original_dim_a=d_a,
        dim_b=d_b,
        swapped=bool(doc.get("swapped", False)),
        input_overlap=complex(float(overlap_pair[0]), float(overlap_pair[1])),
        flatten_residual=float(doc.get("flatten_residual", 0.0)),
    )
    plan = None
    raw_plan = doc.get("truncation")
    if raw_plan is not None:
        epsilon = float(_required(raw_plan, "epsilon", "truncation."))
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"truncation epsilon must lie in (0, 1], got {epsilon}")
        kept = raw_plan.get("kept_outcomes")
        if not isinstance(kept, list):
            raise ValueError("truncation needs a kept_outcomes list")
        plan = TruncatedMessagePlan(
            kept_outcomes=tuple(_integer(i, f"kept_outcomes[{idx}]") for idx, i in enumerate(kept)),
            epsilon=epsilon,
            bits=_integer(raw_plan.get("bits"), "bits"),
            retained_prob_psi=float(_required(raw_plan, "retained_prob_psi", "truncation.")),
            retained_prob_phi=float(_required(raw_plan, "retained_prob_phi", "truncation.")),
        )
    return protocol, plan


def save_flattening(path: str, result: FlatteningResult) -> None:
    _write(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "original_dim": result.original_dim,
            "padded_dim": result.padded_dim,
            "residual": result.residual,
            "unitary": _pairs(result.unitary),
        },
    )


def save_env_code(path: str, code: EnvCode) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "encoder_states": [_pairs(e) for e in code.encoder_states],
        "error_prob": code.error_prob,
        "protocol": _protocol_doc(code.protocol, None),
    }
    _write(path, doc)
