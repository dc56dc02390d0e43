"""JSON persistence: exact round trips, schema gating, malformed input."""

import base64
import json
import pathlib
import pickle
import re

import numpy as np
import pytest

from conftest import bell_pair, random_kraus_ops, random_orthogonal_pair
from loccsynth import (
    KrausChannel,
    NotNormalizedError,
    StateVector,
    epsilon_truncate,
    formats,
    synthesize,
    uflatgen,
)
from loccsynth.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))


def read_json(path):
    return json.loads(pathlib.Path(path).read_text())


class TestStateFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(601)
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = StateVector((2, 3), amps / np.linalg.norm(amps))
        p = tmp_path / "state.json"
        formats.save_state(str(p), state)
        loaded = formats.load_state(str(p))
        assert loaded.dims == state.dims
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_second_save_is_byte_identical(self, tmp_path):
        state, _ = bell_pair()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        formats.save_state(str(a), state)
        formats.save_state(str(b), formats.load_state(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unnormalized(self, tmp_path):
        p = tmp_path / "state.json"
        write_json(
            p,
            {"schema_version": 1, "dims": [2], "amplitudes": [[1.0, 0.0], [1.0, 0.0]]},
        )
        with pytest.raises(NotNormalizedError):
            formats.load_state(str(p))

    def test_rejects_wrong_schema_version(self, tmp_path):
        p = tmp_path / "state.json"
        for version in (0, 3, None, "1", True, 1.0):
            write_json(p, {"schema_version": version, "dims": [1], "amplitudes": [[1.0, 0.0]]})
            with pytest.raises(ValueError):
                formats.load_state(str(p))

    def test_rejects_malformed_documents(self, tmp_path):
        p = tmp_path / "state.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            formats.load_state(str(p))
        write_json(p, {"schema_version": 1, "amplitudes": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            formats.load_state(str(p))
        write_json(p, {"schema_version": 1, "dims": [2], "amplitudes": [[1.0], [0.0]]})
        with pytest.raises(ValueError):
            formats.load_state(str(p))
        p.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            formats.load_state(str(p))


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(602)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        p = tmp_path / "m.json"
        formats.save_matrix(str(p), m)
        assert np.array_equal(formats.load_matrix(str(p)), m)

    def test_rejects_entry_count_mismatch(self, tmp_path):
        p = tmp_path / "m.json"
        write_json(p, {"schema_version": 1, "rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            formats.load_matrix(str(p))

    def test_rejects_nonpositive_shape(self, tmp_path):
        p = tmp_path / "m.json"
        write_json(p, {"schema_version": 1, "rows": 0, "cols": 2, "entries": []})
        with pytest.raises(ValueError):
            formats.load_matrix(str(p))


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        channel = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        p = tmp_path / "c.json"
        formats.save_channel(str(p), channel)
        loaded = formats.load_channel(str(p))
        assert loaded.input_dim == 2
        assert loaded.output_dim == 2
        assert len(loaded.kraus) == 2
        for got, want in zip(loaded.kraus, channel.kraus):
            assert np.array_equal(got, want)

    def test_rejects_flat_size_mismatch(self, tmp_path):
        p = tmp_path / "c.json"
        write_json(
            p,
            {
                "schema_version": 1,
                "input_dim": 2,
                "output_dim": 2,
                "kraus": [[[1.0, 0.0], [0.0, 0.0]]],
            },
        )
        with pytest.raises(ValueError):
            formats.load_channel(str(p))


class TestProtocolFiles:
    def test_round_trip_with_null_decoder_entries(self, tmp_path):
        psi = StateVector((2, 2), [1, 0, 0, 0])
        phi = StateVector((2, 2), [0, 0, 0, 1])
        protocol = synthesize(psi, phi)  # has a None bob projector
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol)
        loaded, plan = formats.load_protocol(str(p))
        assert plan is None
        assert loaded.padded_dim_a == protocol.padded_dim_a
        assert loaded.original_dim_a == protocol.original_dim_a
        assert loaded.dim_b == protocol.dim_b
        assert loaded.swapped == protocol.swapped
        assert np.array_equal(loaded.alice_vectors, protocol.alice_vectors)
        assert loaded.bob_projectors[1] is None
        assert np.array_equal(loaded.bob_projectors[0], protocol.bob_projectors[0])
        assert np.array_equal(loaded.outcome_probs_psi, protocol.outcome_probs_psi)
        assert np.array_equal(loaded.outcome_probs_phi, protocol.outcome_probs_phi)
        assert loaded.input_overlap == protocol.input_overlap

    def test_round_trip_with_truncation_plan(self, tmp_path):
        rng = np.random.default_rng(603)
        psi, phi = random_orthogonal_pair(rng, (4, 4))
        protocol = synthesize(psi, phi)
        plan = epsilon_truncate(protocol, 0.25)
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol, plan)
        _, loaded_plan = formats.load_protocol(str(p))
        assert loaded_plan == plan

    def test_swapped_flag_survives(self, tmp_path):
        rng = np.random.default_rng(604)
        psi, phi = random_orthogonal_pair(rng, (5, 2))
        protocol = synthesize(psi, phi)
        assert protocol.swapped
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol)
        loaded, _ = formats.load_protocol(str(p))
        assert loaded.swapped

    def test_rejects_decoder_list_of_wrong_length(self, tmp_path):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol)
        doc = json.loads(p.read_text())
        doc["bob_projectors"] = doc["bob_projectors"][:1]
        write_json(p, doc)
        with pytest.raises(ValueError):
            formats.load_protocol(str(p))

    def test_rejects_alice_size_mismatch(self, tmp_path):
        psi, phi = bell_pair()
        protocol = synthesize(psi, phi)
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol)
        doc = json.loads(p.read_text())
        doc["alice_vectors"] = doc["alice_vectors"][:3]
        write_json(p, doc)
        with pytest.raises(ValueError):
            formats.load_protocol(str(p))


def same_bits(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBitExactRoundTrips:
    """Save then load returns every float bit for bit, signed zeros and
    subnormals included, from a document written on one line."""

    def test_state(self, tmp_path):
        rng = np.random.default_rng(605)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amps[[3, 7]] = 0.0
        amps /= np.linalg.norm(amps)
        amps[3] = complex(-0.0, 5e-324)
        amps[7] = complex(0.0, -0.0)
        state = StateVector((3, 4), amps)
        p = tmp_path / "state.json"
        formats.save_state(str(p), state)
        assert p.read_text().count("\n") == 1
        assert same_bits(formats.load_state(str(p)).amplitudes, state.amplitudes)

    def test_protocol(self, tmp_path):
        rng = np.random.default_rng(606)
        psi, phi = random_orthogonal_pair(rng, (3, 5))
        protocol = synthesize(psi, phi)
        plan = epsilon_truncate(protocol, 0.2)
        p = tmp_path / "p.json"
        formats.save_protocol(str(p), protocol, plan)
        assert p.read_text().count("\n") == 1
        loaded, loaded_plan = formats.load_protocol(str(p))
        assert loaded_plan == plan
        assert same_bits(loaded.alice_vectors, protocol.alice_vectors)
        for got, want in zip(loaded.bob_projectors, protocol.bob_projectors, strict=True):
            assert same_bits(got, want)
        assert same_bits(loaded.outcome_probs_psi, protocol.outcome_probs_psi)
        assert same_bits(loaded.outcome_probs_phi, protocol.outcome_probs_phi)
        assert same_bits(loaded.input_overlap, protocol.input_overlap)
        assert loaded.flatten_residual == protocol.flatten_residual

    def test_channel(self, tmp_path):
        rng = np.random.default_rng(607)
        ops = random_kraus_ops(rng, 3, 4, 2)
        signed = (np.diag([1.0, -0.0]), np.diag([-0.0, 1.0]))
        for channel in (KrausChannel(3, 4, tuple(ops)), KrausChannel(2, 2, signed)):
            p = tmp_path / "c.json"
            formats.save_channel(str(p), channel)
            assert p.read_text().count("\n") == 1
            loaded = formats.load_channel(str(p))
            for got, want in zip(loaded.kraus, channel.kraus, strict=True):
                assert same_bits(got, want)


class TestResultFiles:
    def test_flattening_document_fields(self, tmp_path):
        result = uflatgen(np.diag([1.0, 0.0, -1.0]).astype(np.complex128))
        p = tmp_path / "f.json"
        formats.save_flattening(str(p), result)
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == 1
        assert doc["original_dim"] == 3
        assert doc["padded_dim"] == 4
        assert doc["residual"] == result.residual
        assert len(doc["unitary"]) == 16

    def test_env_code_document_fields(self, tmp_path):
        from loccsynth import build_env_code

        channel = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        code = build_env_code(channel)
        p = tmp_path / "e.json"
        formats.save_env_code(str(p), code)
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == 1
        assert doc["error_prob"] == code.error_prob
        assert len(doc["encoder_states"]) == 2
        assert doc["protocol"]["padded_dim_a"] == code.protocol.padded_dim_a


def encode(values, version):
    """A complex array field as version 1 [re, im] pairs or version 2 base64 <c16 bytes."""
    z = np.asarray(values, dtype=np.complex128).reshape(-1)
    if version == 1:
        return np.column_stack((z.real, z.imag)).tolist()
    return base64.b64encode(z.astype("<c16").tobytes()).decode("ascii")


def decode(raw):
    """The complex entries of a field in either version, bit for bit."""
    if isinstance(raw, str):
        return np.frombuffer(base64.b64decode(raw), dtype="<c16").astype(np.complex128)
    return np.array(raw, dtype=np.float64).reshape(-1, 2).view(np.complex128).reshape(-1)


def as_version(doc, version):
    """A copy of ``doc`` with every complex array field re-encoded in ``version``."""
    doc = json.loads(json.dumps(doc))
    doc["schema_version"] = version
    for key in ("amplitudes", "entries", "alice_vectors"):
        if key in doc:
            doc[key] = encode(decode(doc[key]), version)
    for key in ("kraus", "bob_projectors"):
        if key in doc:
            doc[key] = [None if raw is None else encode(decode(raw), version) for raw in doc[key]]
    return doc


def input_files(tmp_path):
    """A Bell pair, a matrix, a channel and a protocol for the pair, saved by formats."""
    psi, phi = bell_pair()
    files = {name: str(tmp_path / f"{name}.json") for name in FIELDS}
    files["phi"] = str(tmp_path / "phi.json")
    formats.save_state(files["state"], psi)
    formats.save_state(files["phi"], phi)
    formats.save_matrix(files["matrix"], np.diag([1.0, -1.0]).astype(np.complex128))
    channel = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    formats.save_channel(files["channel"], channel)
    formats.save_protocol(files["protocol"], synthesize(psi, phi))
    return files


# Each input kind: the key path of the complex array field corrupted below, its
# name in error messages, its loader, and the command that reads it.
FIELDS = {
    "state": (("amplitudes",), "amplitudes"),
    "matrix": (("entries",), "entries"),
    "channel": (("kraus", 0), "kraus[0]"),
    "protocol": (("alice_vectors",), "alice_vectors"),
}
LOADERS = {
    "state": formats.load_state,
    "matrix": formats.load_matrix,
    "channel": formats.load_channel,
    "protocol": formats.load_protocol,
}
COMMANDS = {
    "state": lambda f: ["synthesize", f["state"], f["phi"]],
    "matrix": lambda f: ["flatten", f["matrix"]],
    "channel": lambda f: ["envcode", f["channel"]],
    "protocol": lambda f: ["verify", f["state"], f["phi"], f["protocol"]],
}


def with_entry(z, value):
    z = z.copy()
    z[1] = value
    return z


def unpadded(payload):
    assert payload.endswith("=")
    return payload.rstrip("=")


# Each corruption maps the field's valid entries to (schema_version, field value).
CORRUPTIONS = {
    # Inserted, so a decoder that skipped the character would read the right bytes.
    "non-base64 characters": lambda z: (2, "*" + encode(z, 2)),
    "non-ASCII characters": lambda z: (2, "\u00e9" + encode(z, 2)),
    "bad padding": lambda z: (2, unpadded(encode(z, 2))),
    "bytes not a multiple of 16": lambda z: (
        2,
        base64.b64encode(z.astype("<c16").tobytes() + bytes(8)).decode("ascii"),
    ),
    "entry count": lambda z: (2, encode(z[:-1], 2)),
    "nan": lambda z: (2, encode(with_entry(z, complex(np.nan, 0.0)), 2)),
    "+inf": lambda z: (2, encode(with_entry(z, complex(0.0, np.inf)), 2)),
    "-inf": lambda z: (2, encode(with_entry(z, complex(-np.inf, 0.0)), 2)),
    "list payload in version 2": lambda z: (2, encode(z, 1)),
    "string payload in version 1": lambda z: (1, encode(z, 2)),
    # numpy reads a boolean beside numbers as 0 or 1.
    "boolean in a version 1 pair": lambda z: (1, [[True, 0.0], *encode(z, 1)[1:]]),
}


class TestVersion2Payloads:
    def test_input_writers_emit_version_2_and_results_stay_version_1(self, tmp_path):
        docs = {kind: read_json(path) for kind, path in input_files(tmp_path).items()}
        assert [docs[kind]["schema_version"] for kind in FIELDS] == [2, 2, 2, 1]
        assert isinstance(docs["state"]["amplitudes"], str)
        assert isinstance(docs["matrix"]["entries"], str)
        assert all(isinstance(k, str) for k in docs["channel"]["kraus"])
        assert isinstance(docs["protocol"]["alice_vectors"], list)

    @pytest.mark.parametrize("kind", list(FIELDS))
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_payload_names_the_field(self, tmp_path, capsys, kind, corruption):
        files = input_files(tmp_path)
        keys, name = FIELDS[kind]
        doc = read_json(files[kind])
        version, value = CORRUPTIONS[corruption](decode(self._field(doc, keys)))
        doc = as_version(doc, version)
        self._field(doc, keys[:-1])[keys[-1]] = value
        write_json(tmp_path / f"{kind}.json", doc)
        with pytest.raises(ValueError, match=re.escape(name)):
            LOADERS[kind](files[kind])
        capsys.readouterr()
        assert main(COMMANDS[kind](files)) == 1
        assert name in capsys.readouterr().err

    @staticmethod
    def _field(doc, keys):
        for key in keys:
            doc = doc[key]
        return doc

    @pytest.mark.parametrize("kind", list(FIELDS))
    def test_both_versions_load_the_same_arrays(self, tmp_path, kind):
        files = input_files(tmp_path)
        doc = read_json(files[kind])
        loaded = []
        for version in (1, 2):
            write_json(tmp_path / "doc.json", as_version(doc, version))
            # Pickles hold every array's raw bytes, so equal pickles mean equal bits.
            loaded.append(pickle.dumps(LOADERS[kind](str(tmp_path / "doc.json"))))
        assert loaded[0] == loaded[1]

    def test_version_1_pairs_load_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(608)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amps[[3, 7]] = 0.0
        amps /= np.linalg.norm(amps)
        amps[3] = complex(-0.0, 5e-324)
        amps[7] = complex(0.0, -0.0)
        p = tmp_path / "state.json"
        write_json(p, {"schema_version": 1, "dims": [3, 4], "amplitudes": encode(amps, 1)})
        assert same_bits(formats.load_state(str(p)).amplitudes, amps)
        ops = (np.diag([1.0, -0.0]), np.diag([complex(-0.0, 5e-324), 1.0]))
        kraus = [encode(k, 1) for k in ops]
        write_json(p, {"schema_version": 1, "input_dim": 2, "output_dim": 2, "kraus": kraus})
        for got, want in zip(formats.load_channel(str(p)).kraus, ops, strict=True):
            assert same_bits(got, want.astype(np.complex128))

    def test_version_1_integer_beyond_64_bits_loads_like_its_float_twin(self, tmp_path, capsys):
        # numpy made an object array of 2**64, and the entries were refused unnamed.
        outputs = []
        for big in (2**64, float(2**64)):
            entries = [[big, 0], [0, 0], [0, 0], [-big, 0]]
            doc = {"schema_version": 1, "rows": 2, "cols": 2, "entries": entries}
            write_json(tmp_path / "m.json", doc)
            capsys.readouterr()
            assert main(["flatten", str(tmp_path / "m.json"), "--out", str(tmp_path / "u.json")]) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / "u.json").read_text()))
        assert outputs[0] == outputs[1]

    def test_version_2_protocol_verifies_like_its_version_1_twin(self, tmp_path, capsys):
        rng = np.random.default_rng(609)
        psi, phi = random_orthogonal_pair(rng, (3, 5))
        protocol = synthesize(psi, phi)
        paths = [str(tmp_path / name) for name in ("psi.json", "phi.json", "v1.json", "v2.json")]
        formats.save_state(paths[0], psi)
        formats.save_state(paths[1], phi)
        formats.save_protocol(paths[2], protocol, epsilon_truncate(protocol, 0.2))
        write_json(tmp_path / "v2.json", as_version(read_json(paths[2]), 2))
        reports = []
        for path in paths[2:]:
            capsys.readouterr()
            assert main(["verify", paths[0], paths[1], path]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["elapsed_s"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["success_prob"] >= 1.0 - 1e-9
