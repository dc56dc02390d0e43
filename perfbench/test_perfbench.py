"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import run  # first: pins BLAS before numpy loads

run.import_program()

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from loccsynth import Protocol, StateVector, formats, synthesize  # noqa: E402

BELL_PSI = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
BELL_PHI = np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2)


def scaled_identity_protocol(d_a: int, d_b: int) -> Protocol:
    """alice_vectors = 3 I and every decoder 3 e0: not a measurement at all."""
    e0 = np.zeros(d_b)
    e0[0] = 1.0
    return Protocol(
        alice_vectors=3 * np.eye(d_a),
        bob_projectors=tuple(3 * e0 for _ in range(d_a)),
        outcome_probs_psi=np.full(d_a, 1.0 / d_a),
        outcome_probs_phi=np.full(d_a, 1.0 / d_a),
        padded_dim_a=d_a,
        original_dim_a=d_a,
        dim_b=d_b,
    )


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(tmp_path, cls):
    first = cls(7, str(tmp_path)).inputs()
    again = cls(7, str(tmp_path)).inputs()
    other = cls(8, str(tmp_path)).inputs()
    assert len(first) == len(again) == len(other)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


def test_oracle_fails_the_scaled_bell_protocol(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    formats.save_protocol(str(good), synthesize(StateVector((2, 2), BELL_PSI), StateVector((2, 2), BELL_PHI)))
    formats.save_protocol(str(bad), scaled_identity_protocol(2, 2))
    assert oracles.protocol_problems(oracles.read_json(good), BELL_PSI, BELL_PHI, (2, 2)) == ([], pytest.approx(1.0))
    problems, _ = oracles.protocol_problems(oracles.read_json(bad), BELL_PSI, BELL_PHI, (2, 2))
    assert problems


def test_pair_files_fails_synthesize_and_verify_on_a_corrupted_protocol(tmp_path):
    session = workloads.PairFiles(5, str(tmp_path))
    session.write()
    shape = (16, 64)
    synth, verify = workloads.Op("synthesize", (shape, 0)), workloads.Op("verify", (shape, 0))
    output, _ = session.run(synth)
    formats.save_protocol(session.protocol_path(shape), scaled_identity_protocol(*shape))
    assert session.check(synth, output)
    # Whatever exit code verify gives, its report must match the oracle.
    output, _ = session.run(verify)
    assert session.check(verify, output)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
def test_every_printed_metric_is_named_in_benchmark_json(capsys, cls, trace):
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)
    named = {m["name"]: m["unit"] for m in manifest["end_to_end" if trace == 0 else "per_layer"]}

    result = run.benchmark(cls, 1, 0.0, trace, min_ops=1, setup_repeats=1)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    printed = capsys.readouterr().out.splitlines()
    for name, unit in named.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in printed), name
