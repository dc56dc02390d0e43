"""JSON persistence: exact round trips, schema gating, malformed input."""

import json

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


def write_json(path, doc):
    path.write_text(json.dumps(doc))


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
        for version in (0, 2, None, "1"):
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
