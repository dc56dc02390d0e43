"""JSON file formats for states, matrices, channels, protocols and codes.

Every file carries a ``schema_version`` field, and matrices are stored
row-major.  In version 1 a complex array is a list of ``[re, im]`` pairs; in
version 2 it is a string holding the base64 of its little-endian complex128
bytes, which loads bit for bit and far faster than decimal text.  States,
matrices and channels, the inputs every command loads, are written as
version 2.  Protocols, environment codes and flattenings are results that
independent checkers read with plain ``json``, so they stay version 1.
Scalars and real lists are JSON numbers in both versions, and both load.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import sys
from typing import Any

import numpy as np

from .envcode import EnvCode, KrausChannel
from .flatten import FlatteningResult
from .linalg import StateVector
from .synthesis import Protocol, TruncatedMessagePlan

INPUT_VERSION = 2  # states, matrices and channels
RESULT_VERSION = 1  # protocols, environment codes and flattenings


def _payload(values: np.ndarray, version: int) -> list[list[float]] | str:
    """``values`` flattened into a version-``version`` complex array field."""
    z = np.asarray(values, dtype="<c16").reshape(-1)
    if version == 1:
        return np.column_stack((z.real, z.imag)).tolist()
    return base64.b64encode(z.tobytes()).decode("ascii")


def _array(raw: Any, name: str, version: int) -> np.ndarray:
    """The finite complex entries of the version-``version`` array field ``raw``."""
    if version == 2:
        if not isinstance(raw, str):
            raise ValueError(f"{name} must be a base64 string in schema_version 2")
        try:
            data = base64.b64decode(raw, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ValueError(f"{name} is not valid base64: {exc}") from None
        if len(data) % 16:
            raise ValueError(f"{name} holds {len(data)} bytes, not a multiple of 16")
        z = np.frombuffer(data, dtype="<c16").astype(np.complex128)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            raise ValueError(f"{name}[{bad[0]}] holds {complex(z[bad[0]])}, not a finite number")
        return z
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs")
    if not raw:
        return np.empty(0, dtype=np.complex128)
    try:
        # Screened by type first: numpy would read a boolean or a numeric string as a number.
        numbers = set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}
        pairs = np.array(raw, dtype=np.float64) if numbers else None
    except (TypeError, ValueError, OverflowError):  # not nested lists, ragged, or beyond floats
        pairs = None
    if pairs is None or pairs.shape != (len(raw), 2) or not np.isfinite(pairs).all():
        raise ValueError(_first_bad_pair(raw, name))
    return pairs.view(np.complex128).reshape(-1)


def _shaped(raw: Any, name: str, version: int, shape: tuple[int, ...]) -> np.ndarray:
    """The array field ``raw`` read by :func:`_array`, refused unless it fills ``shape``."""
    flat = _array(raw, name, version)
    size = math.prod(shape)
    if flat.size != size:
        raise ValueError(f"{name} must have {size} entries, got {flat.size}")
    return flat.reshape(shape)


def _first_bad_pair(raw: list, name: str) -> str:
    """Message naming the first entry of ``raw`` that is not a finite [re, im] pair."""
    for idx, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            return f"{name}[{idx}] is not a [re, im] pair"
        for x in item:
            if not _finite(x):
                return f"{name}[{idx}] holds {x!r}, not a finite number"
    return f"{name} is not a list of finite [re, im] pairs"


def _finite(value: Any) -> bool:
    """Whether ``value`` is a JSON number (not a boolean) within the float range."""
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    return number and abs(value) <= sys.float_info.max


def _integer(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer; booleans, floats and null are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value: Any, name: str) -> float:
    """``value`` if it is a finite JSON number; booleans, strings and null are refused."""
    if not _finite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(doc: dict, key: str) -> np.ndarray:
    """The required list ``doc[key]``, each entry read by :func:`_number`."""
    raw = _required(doc, key)
    if not isinstance(raw, list):
        raise ValueError(f"{key} must be a list of numbers, got {raw!r}")
    return np.array([_number(x, f"{key}[{idx}]") for idx, x in enumerate(raw)], dtype=np.float64)


def _required(doc: dict, key: str, where: str = "") -> Any:
    """``doc[key]``, or a ValueError naming the missing field as ``where + key``."""
    if key not in doc:
        raise ValueError(f"protocol file is missing {where}{key}")
    return doc[key]


def _read(path: str) -> tuple[dict, int]:
    """The JSON object in ``path`` and its schema version, 1 or 2."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    version = _integer(doc.get("schema_version"), "schema_version")
    if version not in (1, 2):
        raise ValueError(f"unsupported schema_version {version!r}")
    return doc, version


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


# Each record's fields in file order: this table, not the record, fixes a document's keys.
_FIELDS: dict[type, tuple[str, ...]] = {
    StateVector: (
        "dims",
        "amplitudes",
    ),
    KrausChannel: (
        "input_dim",
        "output_dim",
        "kraus",
    ),
    Protocol: (
        "padded_dim_a",
        "original_dim_a",
        "dim_b",
        "swapped",
        "alice_vectors",
        "bob_projectors",
        "outcome_probs_psi",
        "outcome_probs_phi",
        "input_overlap",
        "flatten_residual",
    ),
    TruncatedMessagePlan: (
        "kept_outcomes",
        "epsilon",
        "bits",
        "retained_prob_psi",
        "retained_prob_phi",
    ),
    FlatteningResult: (
        "original_dim",
        "padded_dim",
        "residual",
        "unitary",
    ),
    EnvCode: (
        "encoder_states",
        "error_prob",
        "protocol",
    ),
}


def _encode(value: Any, version: int | None) -> Any:
    """``value`` as JSON: a record as its schema_version (unless None), then its fields."""
    fields = _FIELDS.get(type(value))
    if fields is not None:
        doc = {} if version is None else {"schema_version": version}
        for name in fields:
            doc[name] = _encode(getattr(value, name), version)
        return doc
    if isinstance(value, np.ndarray):
        return _payload(value, version) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(item, version) for item in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def save_state(path: str, state: StateVector) -> None:
    _write(path, _encode(state, INPUT_VERSION))


def load_state(path: str) -> StateVector:
    doc, version = _read(path)
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims:
        raise ValueError("state file needs a non-empty dims list")
    dims = tuple(_integer(d, f"dims[{idx}]") for idx, d in enumerate(dims))
    state = StateVector(dims, _array(doc.get("amplitudes"), "amplitudes", version))
    state.require_normalized()
    return state


def save_matrix(path: str, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    _write(
        path,
        {
            "schema_version": INPUT_VERSION,
            "rows": m.shape[0],
            "cols": m.shape[1],
            "entries": _payload(m, INPUT_VERSION),
        },
    )


def load_matrix(path: str) -> np.ndarray:
    doc, version = _read(path)
    rows = _integer(doc.get("rows"), "rows")
    cols = _integer(doc.get("cols"), "cols")
    if rows < 1 or cols < 1:
        raise ValueError("matrix file needs positive rows and cols")
    return _shaped(doc.get("entries"), "entries", version, (rows, cols))


def load_channel(path: str) -> KrausChannel:
    doc, version = _read(path)
    d_a = _integer(doc.get("input_dim"), "input_dim")
    d_b = _integer(doc.get("output_dim"), "output_dim")
    raw_kraus = doc.get("kraus")
    if not isinstance(raw_kraus, list) or not raw_kraus:
        raise ValueError("channel file needs a non-empty kraus list")
    ops = tuple(
        _shaped(raw, f"kraus[{idx}]", version, (d_b, d_a)) for idx, raw in enumerate(raw_kraus)
    )
    return KrausChannel(input_dim=d_a, output_dim=d_b, kraus=ops)


def save_channel(path: str, channel: KrausChannel) -> None:
    _write(path, _encode(channel, INPUT_VERSION))


def save_protocol(path: str, protocol: Protocol, plan: TruncatedMessagePlan | None = None) -> None:
    doc = _encode(protocol, RESULT_VERSION)
    if plan is not None:
        doc["truncation"] = _encode(plan, None)
    _write(path, doc)


def load_protocol(path: str) -> tuple[Protocol, TruncatedMessagePlan | None]:
    doc, version = _read(path)
    d_pad = _integer(doc.get("padded_dim_a"), "padded_dim_a")
    d_a = _integer(doc.get("original_dim_a"), "original_dim_a")
    d_b = _integer(doc.get("dim_b"), "dim_b")
    alice = _shaped(_required(doc, "alice_vectors"), "alice_vectors", version, (d_pad, d_pad))
    raw_bobs = _required(doc, "bob_projectors")
    if not isinstance(raw_bobs, list):
        raise ValueError("bob_projectors must be a list")
    bobs = [
        None if raw is None else _array(raw, f"bob_projectors[{idx}]", version)
        for idx, raw in enumerate(raw_bobs)
    ]
    swapped = doc.get("swapped", False)
    if not isinstance(swapped, bool):
        raise ValueError(f"swapped must be true or false, got {swapped!r}")
    # input_overlap is a pair of JSON numbers in both versions.
    (overlap,) = _array([doc.get("input_overlap", [0.0, 0.0])], "input_overlap", 1)
    # The constructor checks the decoders and outcome probabilities against the dimensions.
    protocol = Protocol(
        alice_vectors=alice,
        bob_projectors=tuple(bobs),
        outcome_probs_psi=_numbers(doc, "outcome_probs_psi"),
        outcome_probs_phi=_numbers(doc, "outcome_probs_phi"),
        padded_dim_a=d_pad,
        original_dim_a=d_a,
        dim_b=d_b,
        swapped=swapped,
        input_overlap=complex(overlap),
        flatten_residual=_number(doc.get("flatten_residual", 0.0), "flatten_residual"),
    )
    plan = None
    raw_plan = doc.get("truncation")
    if raw_plan is not None:
        if not isinstance(raw_plan, dict):
            raise ValueError(f"truncation must be an object, got {raw_plan!r}")
        epsilon, retained_psi, retained_phi = (
            _number(_required(raw_plan, key, "truncation."), f"truncation.{key}")
            for key in ("epsilon", "retained_prob_psi", "retained_prob_phi")
        )
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"truncation epsilon must lie in (0, 1], got {epsilon}")
        kept = _required(raw_plan, "kept_outcomes", "truncation.")
        if not isinstance(kept, list):
            raise ValueError("truncation needs a kept_outcomes list")
        plan = TruncatedMessagePlan(
            kept_outcomes=tuple(_integer(i, f"kept_outcomes[{idx}]") for idx, i in enumerate(kept)),
            epsilon=epsilon,
            bits=_integer(_required(raw_plan, "bits", "truncation."), "bits"),
            retained_prob_psi=retained_psi,
            retained_prob_phi=retained_phi,
        )
    return protocol, plan


def save_flattening(path: str, result: FlatteningResult) -> None:
    _write(path, _encode(result, RESULT_VERSION))


def save_env_code(path: str, code: EnvCode) -> None:
    _write(path, _encode(code, RESULT_VERSION))
