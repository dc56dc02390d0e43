"""Command line behavior, exercised through real subprocesses.

Exit codes are part of the contract: 0 success, 1 bad input or usage,
2 inputs violating a mathematical precondition, 3 verification failure.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import bell_pair, random_orthogonal_pair
from loccsynth import (
    KrausChannel,
    Protocol,
    StateVector,
    TruncatedMessagePlan,
    cli,
    formats,
    synthesize,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "loccsynth", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def bell_files(tmp_path):
    psi, phi = bell_pair()
    psi_path = tmp_path / "psi.json"
    phi_path = tmp_path / "phi.json"
    formats.save_state(str(psi_path), psi)
    formats.save_state(str(phi_path), phi)
    return str(psi_path), str(phi_path)


class TestSynthesize:
    def test_bell_pair(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        proc = run_cli("synthesize", psi_path, phi_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "success=1.000000000" in proc.stdout
        assert "outcomes=2" in proc.stdout
        protocol, plan = formats.load_protocol(out)
        assert plan is None
        assert protocol.padded_dim_a == 2

    def test_epsilon_flag_embeds_plan(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        proc = run_cli("synthesize", psi_path, phi_path, "--epsilon", "0.6", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "kept=1" in proc.stdout
        assert "bits=1" in proc.stdout
        _, plan = formats.load_protocol(out)
        assert plan is not None
        assert plan.epsilon == 0.6

    def test_identical_states_exit_2(self, bell_files):
        psi_path, _ = bell_files
        proc = run_cli("synthesize", psi_path, psi_path)
        assert proc.returncode == 2
        assert "orthogonality" in proc.stderr

    def test_malformed_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        proc = run_cli("synthesize", str(bad), str(bad))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_three_factor_states_exit_1(self, tmp_path):
        rng = np.random.default_rng(702)
        psi, phi = random_orthogonal_pair(rng, (2, 2, 2))
        psi_path = str(tmp_path / "psi.json")
        phi_path = str(tmp_path / "phi.json")
        formats.save_state(psi_path, psi)
        formats.save_state(phi_path, phi)
        proc = run_cli("synthesize", psi_path, phi_path)
        assert proc.returncode == 1
        assert "synthesize_multipartite" in proc.stderr

    def test_missing_file_exit_1(self, tmp_path):
        proc = run_cli("synthesize", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
        assert proc.returncode == 1

    def test_integer_beyond_float_range_names_the_entry(self, tmp_path):
        # A JSON integer like 1e400 used to raise OverflowError in the finiteness check.
        bad = tmp_path / "bad.json"
        huge = "1" + "0" * 400
        bad.write_text(f'{{"schema_version": 1, "dims": [1, 1], "amplitudes": [[{huge}, 0]]}}')
        proc = run_cli("synthesize", str(bad), str(bad))
        assert proc.returncode == 1
        assert "amplitudes[0]" in proc.stderr

    def test_version_1_and_2_inputs_give_the_same_run(self, tmp_path):
        rng = np.random.default_rng(703)
        psi, phi = random_orthogonal_pair(rng, (3, 4))
        runs = []
        for version in (1, 2):
            paths = [tmp_path / f"{name}{version}.json" for name in ("psi", "phi", "p")]
            for path, state in zip(paths, (psi, phi)):
                if version == 1:
                    amps = np.column_stack((state.amplitudes.real, state.amplitudes.imag))
                    doc = {"schema_version": 1, "dims": [3, 4], "amplitudes": amps.tolist()}
                    path.write_text(json.dumps(doc))
                else:
                    formats.save_state(str(path), state)
            psi_path, phi_path, out = map(str, paths)
            made = run_cli("synthesize", psi_path, phi_path, "--epsilon", "0.3", "--out", out)
            checked = run_cli("verify", psi_path, phi_path, out)
            report = json.loads(checked.stdout)
            del report["elapsed_s"]
            runs.append((made.returncode, made.stdout, paths[2].read_bytes()))
            runs.append((checked.returncode, report))
        assert runs[0][0] == 0 and runs[1][0] == 0
        assert runs[0] == runs[2] and runs[1] == runs[3]

    @pytest.mark.parametrize("epsilon", ["2", "0", "nan"])
    def test_epsilon_out_of_range_exit_1(self, bell_files, tmp_path, epsilon):
        psi_path, phi_path = bell_files
        out = tmp_path / "protocol.json"
        proc = run_cli("synthesize", psi_path, phi_path, "--epsilon", epsilon, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "epsilon" in proc.stderr
        assert not out.exists()


class TestVerify:
    def test_perfect_protocol(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert run_cli("synthesize", psi_path, phi_path, "--out", out).returncode == 0
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["success_prob"] >= 1 - 1e-9
        assert len(report["per_outcome_success"]) == 2

    def test_useless_protocol_exit_3(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
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
        coin_path = str(tmp_path / "coin.json")
        formats.save_protocol(coin_path, coin)
        proc = run_cli("verify", psi_path, phi_path, coin_path)
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert abs(report["success_prob"] - 0.5) <= 1e-9

    def test_scaled_measurement_exit_1(self, bell_files, tmp_path):
        # 3 I and 3 e0 would score 22.5 if the verifier took them as a measurement.
        psi_path, phi_path = bell_files
        e0 = np.array([3.0, 0.0], dtype=np.complex128)
        fake = Protocol(
            alice_vectors=3.0 * np.eye(2, dtype=np.complex128),
            bob_projectors=(e0, e0),
            outcome_probs_psi=np.array([0.5, 0.5]),
            outcome_probs_phi=np.array([0.5, 0.5]),
            padded_dim_a=2,
            original_dim_a=2,
            dim_b=2,
        )
        fake_path = str(tmp_path / "fake.json")
        formats.save_protocol(fake_path, fake)
        proc = run_cli("verify", psi_path, phi_path, fake_path)
        assert proc.returncode == 1
        assert "orthonormal" in proc.stderr

    @pytest.mark.parametrize("kept", [(-1,), (5,), (0, 0)])
    def test_bad_kept_outcomes_exit_1(self, bell_files, tmp_path, kept):
        psi_path, phi_path = bell_files
        psi, phi = bell_pair()
        plan = TruncatedMessagePlan(kept, 0.5, 1, 0.5, 0.5)
        out = str(tmp_path / "protocol.json")
        formats.save_protocol(out, synthesize(psi, phi), plan)
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 1
        assert "kept outcomes" in proc.stderr

    def test_coin_flip_with_declared_budget_exit_3(self, bell_files, tmp_path):
        # A plan keeping both outcomes at epsilon 0.5 must not excuse a coin flip:
        # the budget covers dropped outcomes, not wrong answers on kept ones.
        psi_path, phi_path = bell_files
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
        coin_path = str(tmp_path / "coin.json")
        formats.save_protocol(coin_path, coin, TruncatedMessagePlan((0, 1), 0.5, 2, 1.0, 1.0))
        proc = run_cli("verify", psi_path, phi_path, coin_path)
        assert proc.returncode == 3
        assert "kept outcome 0" in proc.stderr

    def test_kept_mass_below_declared_budget_exit_3(self, bell_files, tmp_path):
        # One Bell outcome carries mass 1/2, so epsilon 0.1 is a false claim
        # even though the declared retained masses say otherwise.
        psi_path, phi_path = bell_files
        psi, phi = bell_pair()
        out = str(tmp_path / "protocol.json")
        plan = TruncatedMessagePlan((0,), 0.1, 1, 1.0, 1.0)
        formats.save_protocol(out, synthesize(psi, phi), plan)
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 3
        assert "kept outcomes carry mass" in proc.stderr

    @pytest.mark.parametrize("epsilon", [0.0, 1.5])
    def test_epsilon_out_of_range_exit_1(self, bell_files, tmp_path, epsilon):
        # Plans exist for epsilon in (0, 1]; above 1 the budget would excuse every outcome.
        psi_path, phi_path = bell_files
        psi, phi = bell_pair()
        out = str(tmp_path / "protocol.json")
        formats.save_protocol(out, synthesize(psi, phi), TruncatedMessagePlan((), epsilon, 1, 0, 0))
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 1
        assert "epsilon" in proc.stderr

    @pytest.mark.parametrize("entry", ["null", "NaN", "Infinity", "[0.0]"])
    def test_corrupt_number_exit_1(self, bell_files, tmp_path, entry):
        psi_path, phi_path = bell_files
        psi, phi = bell_pair()
        out = tmp_path / "protocol.json"
        formats.save_protocol(str(out), synthesize(psi, phi))
        doc = json.loads(out.read_text())
        doc["alice_vectors"][1][0] = "CORRUPT"
        out.write_text(json.dumps(doc).replace('"CORRUPT"', entry))
        proc = run_cli("verify", psi_path, phi_path, str(out))
        assert proc.returncode == 1
        assert "alice_vectors[1]" in proc.stderr

    def test_dimension_mismatch_exit_1(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert run_cli("synthesize", psi_path, phi_path, "--out", out).returncode == 0
        rng = np.random.default_rng(701)
        big_psi, big_phi = random_orthogonal_pair(rng, (3, 2))
        big_psi_path = str(tmp_path / "big_psi.json")
        big_phi_path = str(tmp_path / "big_phi.json")
        formats.save_state(big_psi_path, big_psi)
        formats.save_state(big_phi_path, big_phi)
        proc = run_cli("verify", big_psi_path, big_phi_path, out)
        assert proc.returncode == 1

    def test_truncated_protocol_uses_relaxed_threshold(self, bell_files, tmp_path):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert (
            run_cli(
                "synthesize", psi_path, phi_path, "--epsilon", "0.6", "--out", out
            ).returncode
            == 0
        )
        # Keeping one Bell outcome scores 1/2, but the plan's budget covers it.
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert abs(report["success_prob"] - 0.5) <= 1e-9


def _edit_json(path, keys, value):
    """Set doc[keys[0]][keys[1]]... to value, or delete it when value is None."""
    doc = json.loads(pathlib.Path(path).read_text())
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    if value is None:
        del inner[keys[-1]]
    else:
        inner[keys[-1]] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)


class TestIntegerFields:
    """Integer fields must be JSON integers: no truncated floats, no booleans."""

    @pytest.mark.parametrize("dims", [[2.7, 2], [True, 4]])
    def test_state_dims_exit_1(self, bell_files, dims):
        for path in bell_files:
            _edit_json(path, ["dims"], dims)
        proc = run_cli("synthesize", *bell_files)
        assert proc.returncode == 1
        assert "dims[0] must be an integer" in proc.stderr

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (["truncation", "kept_outcomes"], [0.9], "kept_outcomes[0]"),
            (["truncation", "bits"], 1.0, "bits"),
            (["padded_dim_a"], None, "padded_dim_a"),
            (["dim_b"], True, "dim_b"),
        ],
    )
    def test_protocol_fields_exit_1(self, bell_files, tmp_path, keys, value, field):
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert run_cli("synthesize", psi_path, phi_path, "--epsilon", "0.6", "--out", out).returncode == 0
        _edit_json(out, keys, value)
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 1
        assert f"{field} must be an integer" in proc.stderr

    def test_matrix_rows_exit_1(self, tmp_path):
        m_path = str(tmp_path / "m.json")
        formats.save_matrix(m_path, np.diag([1.0, -1.0]).astype(np.complex128))
        _edit_json(m_path, ["rows"], 2.0)
        proc = run_cli("flatten", m_path)
        assert proc.returncode == 1
        assert "rows must be an integer" in proc.stderr

    def test_channel_input_dim_exit_1(self, tmp_path):
        c_path = str(tmp_path / "c.json")
        formats.save_channel(c_path, KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
        _edit_json(c_path, ["input_dim"], True)
        proc = run_cli("envcode", c_path)
        assert proc.returncode == 1
        assert "input_dim must be an integer" in proc.stderr


class TestTypedProtocolFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("swapped", "false"),
            ("swapped", "no"),
            ("swapped", 0),
            ("swapped", None),
            ("swapped", [1]),
            ("input_overlap", 0),
            ("input_overlap", [1]),
            ("input_overlap", [1, "x"]),
            ("input_overlap", [True, 0]),
            ("input_overlap", None),
        ],
    )
    def test_malformed_field_exit_1(self, bell_files, tmp_path, field, value):
        # bool(...) read each of these swapped values as a verdict-neutral flag
        # and verify exited 0; a bad input_overlap failed without naming the field.
        psi_path, phi_path = bell_files
        out = tmp_path / "protocol.json"
        formats.save_protocol(str(out), synthesize(*bell_pair()))
        doc = json.loads(out.read_text())
        doc[field] = value
        out.write_text(json.dumps(doc))
        proc = run_cli("verify", psi_path, phi_path, str(out))
        assert proc.returncode == 1
        assert field in proc.stderr

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (["truncation", "epsilon"], True, "truncation.epsilon"),
            (["truncation", "epsilon"], "0.6", "truncation.epsilon"),
            (["truncation", "retained_prob_psi"], "abc", "truncation.retained_prob_psi"),
            (["flatten_residual"], True, "flatten_residual"),
            (["outcome_probs_psi"], ["0.5", "0.5"], "outcome_probs_psi[0]"),
            (["outcome_probs_psi"], [True, False], "outcome_probs_psi[0]"),
            (["outcome_probs_phi"], 0.5, "outcome_probs_phi"),
            (["bob_projectors", 0, 0], [True, 0], "bob_projectors[0]"),
        ],
    )
    def test_malformed_number_exit_1(self, bell_files, tmp_path, keys, value, field):
        # float(...) read booleans and numeric strings, so verify exited 0 on
        # all but "abc", which failed without naming its field.
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert run_cli("synthesize", psi_path, phi_path, "--epsilon", "0.6", "--out", out).returncode == 0
        _edit_json(out, keys, value)
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 1
        assert field in proc.stderr

    def test_original_dim_beyond_basis_exit_1(self, tmp_path):
        # A Bell protocol edited to original_dim_a 3 used to load, and verify on a
        # (3, 2) pair then printed only numpy's matmul message.
        psi, phi = random_orthogonal_pair(np.random.default_rng(702), (3, 2))
        paths = [str(tmp_path / name) for name in ("psi.json", "phi.json", "protocol.json")]
        formats.save_state(paths[0], psi)
        formats.save_state(paths[1], phi)
        formats.save_protocol(paths[2], synthesize(*bell_pair()))
        _edit_json(paths[2], ["original_dim_a"], 3)
        proc = run_cli("verify", *paths)
        assert proc.returncode == 1
        assert "original_dim_a 3" in proc.stderr and "padded_dim_a 2" in proc.stderr
        assert "matmul" not in proc.stderr


class TestMissingFields:
    @pytest.mark.parametrize(
        "keys",
        [
            ["alice_vectors"],
            ["bob_projectors"],
            ["outcome_probs_psi"],
            ["outcome_probs_phi"],
            ["truncation", "epsilon"],
            ["truncation", "retained_prob_psi"],
            ["truncation", "retained_prob_phi"],
        ],
    )
    def test_protocol_field_exit_1(self, bell_files, tmp_path, keys):
        # Read unchecked, a missing epsilon made verify print only "error: 'epsilon'".
        psi_path, phi_path = bell_files
        out = str(tmp_path / "protocol.json")
        assert run_cli("synthesize", psi_path, phi_path, "--epsilon", "0.6", "--out", out).returncode == 0
        _edit_json(out, keys, None)
        proc = run_cli("verify", psi_path, phi_path, out)
        assert proc.returncode == 1
        assert f"protocol file is missing {'.'.join(keys)}" in proc.stderr


class TestFlatten:
    def test_sign_matrix(self, tmp_path):
        m_path = str(tmp_path / "m.json")
        out = str(tmp_path / "u.json")
        formats.save_matrix(m_path, np.diag([1.0, -1.0]).astype(np.complex128))
        proc = run_cli("flatten", m_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "flattened 2 -> 2" in proc.stdout
        assert "residual=" in proc.stdout
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["padded_dim"] == 2
        assert len(doc["unitary"]) == 4

    def test_zero_matrix_has_zero_residual(self, tmp_path):
        m_path = str(tmp_path / "m.json")
        formats.save_matrix(m_path, np.zeros((2, 2), dtype=np.complex128))
        proc = run_cli("flatten", m_path)
        assert proc.returncode == 0
        assert "residual=0.000e+00" in proc.stdout

    def test_odd_dimension_pads(self, tmp_path):
        m_path = str(tmp_path / "m.json")
        rng = np.random.default_rng(702)
        formats.save_matrix(m_path, rng.standard_normal((5, 5)).astype(np.complex128))
        proc = run_cli("flatten", m_path)
        assert proc.returncode == 0
        assert "flattened 5 -> 8" in proc.stdout

    def test_scalar_matrix_exit_1(self, tmp_path):
        m_path = str(tmp_path / "m.json")
        formats.save_matrix(m_path, np.array([[3.0]], dtype=np.complex128))
        proc = run_cli("flatten", m_path)
        assert proc.returncode == 1

    def test_huge_entries_keep_a_finite_bound(self, tmp_path):
        # |M|_F squared the entries and overflowed, so the check read bound=inf.
        m_path = str(tmp_path / "m.json")
        formats.save_matrix(m_path, np.array([[1e160, 2e160], [-1e160, 3e159]], dtype=np.complex128))
        proc = run_cli("flatten", m_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        bound = float(proc.stdout.split("bound=")[1])
        assert np.isfinite(bound) and bound <= 1e-10 * 3e160


class TestEnvcode:
    def test_dephasing_channel(self, tmp_path):
        c_path = str(tmp_path / "c.json")
        out = str(tmp_path / "code.json")
        channel = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        formats.save_channel(c_path, channel)
        proc = run_cli("envcode", c_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "env_dim=2" in proc.stdout
        assert "error_prob=" in proc.stdout
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["error_prob"] <= 1e-9

    def test_one_dimensional_input_exit_2(self, tmp_path):
        c_path = str(tmp_path / "c.json")
        channel = KrausChannel(1, 2, (np.array([[1.0], [0.0]]),))
        formats.save_channel(c_path, channel)
        proc = run_cli("envcode", c_path)
        assert proc.returncode == 2

    def test_non_trace_preserving_exit_1(self, tmp_path):
        c_path = str(tmp_path / "c.json")
        # Bypass the constructor check by writing the document directly.
        doc = {
            "schema_version": 1,
            "input_dim": 2,
            "output_dim": 2,
            "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]],
        }
        (tmp_path / "c.json").write_text(json.dumps(doc))
        proc = run_cli("envcode", c_path)
        assert proc.returncode == 1
        assert "trace preserving" in proc.stderr


class TestBench:
    def test_too_few_repeats_exit_1(self):
        proc = run_cli("bench", "flatten", "--sizes", "8,16", "--repeats", "2")
        assert proc.returncode == 1
        assert "repeats" in proc.stderr

    def test_single_size_exit_1(self):
        proc = run_cli("bench", "flatten", "--sizes", "16", "--repeats", "5")
        assert proc.returncode == 1

    def test_no_doubling_step_exit_1(self):
        proc = run_cli("bench", "flatten", "--sizes", "8,24", "--repeats", "5")
        assert proc.returncode == 1
        assert "doubling" in proc.stderr

    def test_record_stream_shape(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = str(tmp_path / "bench.jsonl")
        proc = run_cli(
            "bench", "flatten", "--sizes", "4,8", "--repeats", "5", "--out", out
        )
        # Tiny sizes sit well outside the asymptotic window, so only the
        # record format is checked here, not the verdict.
        assert proc.returncode in (0, 3)
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        records = [r for r in lines if "median_ns" in r]
        assert [r["d"] for r in records] == [4, 8]
        assert all(r["repeats"] == 5 for r in records)
        assert all(r["min_ns"] <= r["median_ns"] for r in records)
        min_ns = {r["d"]: r["min_ns"] for r in records}
        ratios = [r for r in lines if "ratio" in r]
        assert [(r["ratio_from"], r["ratio_to"]) for r in ratios] == [(4, 8)]
        for r in ratios:
            assert r["ratio"] == round(min_ns[r["ratio_to"]] / min_ns[r["ratio_from"]], 3)
        verdict = lines[-1]
        assert verdict["window"] == [3.0, 6.0]
        assert isinstance(verdict["ok"], bool)
        assert verdict["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }
        saved = [json.loads(line) for line in pathlib.Path(out).read_text().splitlines()]
        assert saved == records


class TestExitCodes:
    def test_protocol_below_the_bar_exits_3_and_writes_nothing(
        self, bell_files, tmp_path, monkeypatch, capsys
    ):
        # Measuring in the computational basis and always answering phi is a coin flip.
        coin_flip = Protocol(
            alice_vectors=np.eye(2),
            bob_projectors=(None, None),
            outcome_probs_psi=[0.5, 0.5],
            outcome_probs_phi=[0.5, 0.5],
            padded_dim_a=2,
            original_dim_a=2,
            dim_b=2,
        )
        monkeypatch.setattr(cli, "synthesize", lambda psi, phi: coin_flip)
        out = tmp_path / "protocol.json"
        assert cli.main(["synthesize", *bell_files, "--out", str(out)]) == 3
        assert "only reaches success 0.500000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_1_without_a_traceback(self, bell_files, tmp_path):
        # Saving ran outside every handler, so the error surfaced as a traceback.
        proc = run_cli("synthesize", *bell_files, "--out", str(tmp_path / "missing" / "p.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_bench_overlap_prints_the_record_stream(self):
        proc = run_cli("bench", "overlap", "--sizes", "64,128", "--repeats", "5")
        # Small sizes sit outside the asymptotic window; only the records are checked.
        assert proc.returncode in (0, 3), proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["d"] for r in lines if "median_ns" in r] == [64, 128]
        assert [(r["ratio_from"], r["ratio_to"]) for r in lines if "ratio" in r] == [(64, 128)]
        assert lines[-1]["operation"] == "overlap"
        assert lines[-1]["window"] == [1.6, 2.6]


class TestUsage:
    def test_in_process_main_matches_subprocess(self, tmp_path, capsys):
        from loccsynth.cli import main

        m_path = str(tmp_path / "m.json")
        formats.save_matrix(m_path, np.diag([1.0, -1.0]).astype(np.complex128))
        assert main(["flatten", m_path]) == 0
        assert "flattened" in capsys.readouterr().out

    def test_help_lists_subcommands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("synthesize", "verify", "flatten", "envcode", "bench"):
            assert name in proc.stdout
