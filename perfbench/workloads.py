"""The three benchmark workloads: inputs, ops, traced replays and oracles.

Each workload turns ``--seed`` into its inputs, writes any files the ops
read, and hands out ops one cycle at a time.  Every cycle holds the same
ops, so a run of whole cycles has a fixed mix.  The mix of each cycle is
chosen so that the median and the 90th percentile of op time fall inside
a group of like ops rather than on the edge between two groups, where
they would jump from run to run.

``run`` executes an op untraced for the end-to-end figures and returns
its output with the time of each phase; ``run_traced`` executes it with a
span around each public call, for the per-layer figures.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import oracles
from loccsynth import (
    GuessLeaf,
    KrausChannel,
    Protocol,
    StateVector,
    build_env_code,
    cli,
    epsilon_truncate,
    formats,
    multipartite_success_probability,
    overlap_matrix,
    success_probability,
    synthesize,
    synthesize_multipartite,
    uflatgen,
    verify_flat,
)

SUCCESS_TOLERANCE = 1e-9  # the threshold cmd_synthesize applies


@dataclass(frozen=True)
class Op:
    name: str
    key: tuple


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def random_state(rng: np.random.Generator, dims) -> np.ndarray:
    n = math.prod(dims)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amps / np.linalg.norm(amps)


def orthogonal_pair(rng: np.random.Generator, dims) -> tuple[np.ndarray, np.ndarray]:
    psi = random_state(rng, dims)
    raw = random_state(rng, dims)
    raw -= np.vdot(psi, raw) * psi
    return psi, raw / np.linalg.norm(raw)


def random_kraus(rng: np.random.Generator, d_in: int, d_out: int, n_k: int) -> list[np.ndarray]:
    """Kraus operators sliced from a random isometry, so they are trace preserving."""
    g = rng.standard_normal((d_out * n_k, d_in)) + 1j * rng.standard_normal((d_out * n_k, d_in))
    q, _ = np.linalg.qr(g)
    return [q[k::n_k, :] for k in range(n_k)]


def _timed(fn, *args):
    start = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - start


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _pool_entries(items, c: int, pool: int) -> list[tuple]:
    """(item, input index) for cycle c; repeats of an item take the next inputs."""
    seen: dict = {}
    entries = []
    for item in items:
        seen[item] = seen.get(item, -1) + 1
        entries.append((item, (c + seen[item]) % pool))
    return entries


def _pad_rows(amps: np.ndarray, rows: int, d_pad: int) -> np.ndarray:
    mat = np.zeros((d_pad, amps.size // rows), dtype=np.complex128)
    mat[:rows] = amps.reshape(rows, -1)
    return mat


def _probe_flatten(tracer, parent: int, psi: np.ndarray, phi: np.ndarray, d_a: int, d_pad: int):
    """Replay the overlap matrix and flatten of one synthesis on its padded pair."""
    p = _pad_rows(psi, d_a, d_pad)
    q = _pad_rows(phi, d_a, d_pad)
    shape = p.shape
    with tracer.span("synthesis", "overlap_matrix", parent=parent):
        m = overlap_matrix(StateVector(shape, p), StateVector(shape, q))
    if d_pad > 1:
        _flatten_span(tracer, m, parent)


def _flatten_span(tracer, m: np.ndarray, parent: int | None = None):
    n = 1 << (m.shape[0] - 1).bit_length()
    k = n.bit_length() - 1
    with tracer.span("flatten", "uflatgen", parent=parent) as rec:
        result = uflatgen(m, on_layer=tracer.layer_timer(rec))
    # Computed from sizes, not measured: uflatgen forms three dense n x n
    # complex products per layer, each 8 n^3 flops (a complex multiply-add
    # is 8 flops) over 48 n^2 bytes (two operands and one result).
    rec["counts"] = {"flatten.calls": 1, "flatten.flops": 24 * k * n**3, "flatten.bytes": 144 * k * n**2}
    return result


class PairFiles:
    """The CLI session: synthesize then verify on JSON files, plus envcode."""

    name = "pair_files"
    shapes = ((16, 64), (32, 128), (64, 64), (128, 32), (40, 100))
    # Fifteen ops a cycle: synthesize and verify per shape, with the fastest
    # (16, 64) and the slowest (40, 100) shapes twice, and envcode every
    # cycle rather than one cycle in five.  An odd number of synthesize and
    # of verify ops keeps each p50 inside a group; the op median falls in
    # the verify (64, 64) and (40, 100) group and p90 inside the
    # synthesize (40, 100) group.
    cycle_shapes = shapes + ((16, 64), (40, 100))
    phases = {"synthesize": "build", "verify": "check", "envcode": "other"}
    epsilon = 0.05
    channel_dims = (8, 64, 32)  # input, output, Kraus operators
    pool = 2  # inputs per shape

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = _rng(seed, self.name)
        self.pairs = {s: [orthogonal_pair(rng, s) for _ in range(self.pool)] for s in self.shapes}
        self.kraus = [random_kraus(rng, *self.channel_dims) for _ in range(self.pool)]
        self._expected: dict[tuple, float] = {}

    def inputs(self) -> list[np.ndarray]:
        return [a for s in self.shapes for pair in self.pairs[s] for a in pair] + [
            k for ops in self.kraus for k in ops
        ]

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".json")

    def _state_paths(self, shape, j) -> tuple[str, str]:
        tag = f"{shape[0]}x{shape[1]}_{j}"
        return self._path(f"psi_{tag}"), self._path(f"phi_{tag}")

    def write(self) -> None:
        for shape in self.shapes:
            for j, (psi, phi) in enumerate(self.pairs[shape]):
                p, q = self._state_paths(shape, j)
                formats.save_state(p, StateVector(shape, psi))
                formats.save_state(q, StateVector(shape, phi))
        d_in, d_out, _ = self.channel_dims
        for j, ops in enumerate(self.kraus):
            formats.save_channel(self._path(f"channel_{j}"), KrausChannel(d_in, d_out, tuple(ops)))

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for shape, j in _pool_entries(self.cycle_shapes, c, self.pool):
            ops.append(Op("synthesize", (shape, j)))
            ops.append(Op("verify", (shape, j)))
        ops.append(Op("envcode", (c % self.pool,)))
        return ops

    def protocol_path(self, shape) -> str:
        return self._path(f"protocol_{shape[0]}x{shape[1]}")

    def _files(self, op: Op) -> tuple[tuple[str, ...], str]:
        """The files an op reads and the file it writes."""
        if op.name == "envcode":
            return (self._path(f"channel_{op.key[0]}"),), self._path("envcode")
        return self._state_paths(*op.key), self.protocol_path(op.key[0])

    def run(self, op: Op):
        """Run one command through cli.main; returns (output, {phase: ns})."""
        inputs, out = self._files(op)
        if op.name == "synthesize":
            argv = ["synthesize", *inputs, "--epsilon", str(self.epsilon), "--out", out]
        elif op.name == "verify":
            argv = ["verify", *inputs, out]
        else:
            argv = ["envcode", *inputs, "--out", out]
        output, ns = _timed(_run_cli, argv)
        return output, {self.phases[op.name]: ns}

    def run_traced(self, op: Op, tracer):
        inputs, out = self._files(op)
        replay = {
            "synthesize": self._traced_synthesize,
            "verify": self._traced_verify,
            "envcode": self._traced_envcode,
        }[op.name]
        return replay(tracer, *inputs, out)

    # The traced replays make the same public calls, in the same order, as
    # cmd_synthesize, cmd_verify and cmd_envcode in loccsynth/cli.py.

    def _load_state(self, tracer, path):
        with tracer.span("formats", "load_state") as rec:
            state = formats.load_state(path)
        rec["counts"] = {"formats.bytes_read": os.path.getsize(path)}
        return state

    def _traced_synthesize(self, tracer, p, q, out):
        with tracer.op("cli", "synthesize"):
            psi = self._load_state(tracer, p)
            phi = self._load_state(tracer, q)
            with tracer.span("synthesis", "synthesize") as synth:
                protocol = synthesize(psi, phi)
            with tracer.span("synthesis", "epsilon_truncate"):
                plan = epsilon_truncate(protocol, self.epsilon)
            with tracer.span("simulator", "success_probability"):
                report = success_probability(psi, phi, protocol)
            if report.success_prob < 1.0 - SUCCESS_TOLERANCE:
                return 3, ""
            with tracer.span("formats", "save_protocol") as rec:
                formats.save_protocol(out, protocol, plan)
            rec["counts"] = {"formats.bytes_written": os.path.getsize(out)}
            text = (
                f"synthesized ({protocol.original_dim_a}, {protocol.dim_b}) protocol: "
                f"outcomes={protocol.padded_dim_a} swapped={protocol.swapped} "
                f"success={report.success_prob:.9f} kept={len(plan.kept_outcomes)} bits={plan.bits}\n"
            )
        a_psi, a_phi = psi.amplitudes, phi.amplitudes
        d_a, d_b = psi.dims
        if protocol.swapped:
            a_psi = a_psi.reshape(d_a, d_b).T.reshape(-1)
            a_phi = a_phi.reshape(d_a, d_b).T.reshape(-1)
        _probe_flatten(tracer, synth["id"], a_psi, a_phi, protocol.original_dim_a, protocol.padded_dim_a)
        return 0, text

    def _traced_verify(self, tracer, p, q, path):
        with tracer.op("cli", "verify"):
            psi = self._load_state(tracer, p)
            phi = self._load_state(tracer, q)
            with tracer.span("formats", "load_protocol") as rec:
                protocol, plan = formats.load_protocol(path)
            rec["counts"] = {"formats.bytes_read": os.path.getsize(path)}
            with tracer.span("simulator", "success_probability"):
                report = success_probability(psi, phi, protocol, plan)
            doc = {
                "success_prob": report.success_prob,
                "per_outcome_success": [list(pair) for pair in report.per_outcome_success],
                "max_orthogonality_residual": report.max_orthogonality_residual,
                "elapsed_s": report.elapsed_s,
                "tolerances": report.tolerances,
            }
            text = json.dumps(doc, indent=1) + "\n"
            threshold = 1.0 - SUCCESS_TOLERANCE - (plan.epsilon if plan is not None else 0.0)
            return (0 if report.success_prob >= threshold else 3), text

    def _traced_envcode(self, tracer, path, out):
        with tracer.op("cli", "envcode"):
            with tracer.span("formats", "load_channel") as rec:
                channel = formats.load_channel(path)
            rec["counts"] = {"formats.bytes_read": os.path.getsize(path)}
            with tracer.span("envcode", "build_env_code"):
                code = build_env_code(channel)
            with tracer.span("formats", "save_env_code") as rec:
                formats.save_env_code(out, code)
            rec["counts"] = {"formats.bytes_written": os.path.getsize(out)}
            text = (
                f"environment-assisted code: env_dim={channel.env_dim} "
                f"output_dim={channel.output_dim} error_prob={code.error_prob:.3e}\n"
            )
            return (0 if code.error_prob <= SUCCESS_TOLERANCE else 3), text

    def check(self, op: Op, output) -> list[str]:
        rc, text = output
        if rc != 0:
            return [f"{op.name} exited with {rc}"]
        if op.name == "envcode":
            doc = oracles.read_json(self._path("envcode"))
            return oracles.env_code_problems(doc, self.kraus[op.key[0]])
        shape, j = op.key
        if op.name == "synthesize":
            psi, phi = self.pairs[shape][j]
            doc = oracles.read_json(self.protocol_path(shape))
            problems, truncated = oracles.protocol_problems(doc, psi, phi, shape, self.epsilon)
            self._expected[shape] = truncated if not problems else math.nan
            return problems
        # verify: its exit code is not trusted, its number must match the oracle's.
        reported = float(json.loads(text)["success_prob"])
        expected = self._expected.pop(shape, math.nan)
        if not abs(reported - expected) <= oracles.SUCCESS_TOL:
            return [f"verify reported {reported!r}, oracle expects {expected!r}"]
        return []


class FlattenDense:
    """uflatgen then verify_flat on dense random matrices, no JSON or synthesis."""

    name = "flatten_dense"
    # 200 and 256 pad to 256, 300 and 512 pad to 512.  The two sizes that
    # pad to 256 run twice a cycle, so the median op sits inside the
    # 256 group and the 90th percentile inside the 512 group.
    cycle_sizes = (200, 256, 300, 512, 200, 256)
    pool = 2

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, self.name)
        self.matrices = {
            n: [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(self.pool)]
            for n in sorted(set(self.cycle_sizes))
        }

    def inputs(self) -> list[np.ndarray]:
        return [m for n in sorted(self.matrices) for m in self.matrices[n]]

    def write(self) -> None:
        pass

    def cycle(self, c: int) -> list[Op]:
        return [Op("flatten", entry) for entry in _pool_entries(self.cycle_sizes, c, self.pool)]

    def run(self, op: Op):
        n, j = op.key
        m = self.matrices[n][j]
        result, build = _timed(uflatgen, m)
        residual, check = _timed(verify_flat, m, result)
        return (result, residual), {"build": build, "check": check}

    def run_traced(self, op: Op, tracer):
        n, j = op.key
        m = self.matrices[n][j]
        with tracer.op("bench", f"flatten_{n}"):
            result = _flatten_span(tracer, m)
            with tracer.span("flatten", "verify_flat") as rec:
                residual = verify_flat(m, result)
        p = result.padded_dim
        rec["counts"] = {"flatten.flops": 16 * p**3, "flatten.bytes": 96 * p**2}
        return result, residual

    def check(self, op: Op, output) -> list[str]:
        n, j = op.key
        result, residual = output
        return oracles.flatten_problems(self.matrices[n][j], result.unitary, residual)


class TreeSmall:
    """Multipartite trees: hundreds of tiny synthesis and flatten calls per op."""

    name = "tree_small"
    # (2,)*9 runs twice a cycle: it is the many-tiny-calls case, and five
    # ops a cycle put the median in the middle of the (3,)*5 group and the
    # 90th percentile inside the (2,)*9 group.
    cycle_dims = ((2,) * 9, (3,) * 5, (4,) * 4, (2, 3, 4, 5), (2,) * 9)
    pool = 2

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, self.name)
        self.pairs = {d: [orthogonal_pair(rng, d) for _ in range(self.pool)] for d in dict.fromkeys(self.cycle_dims)}

    def inputs(self) -> list[np.ndarray]:
        return [a for d in self.pairs for pair in self.pairs[d] for a in pair]

    def write(self) -> None:
        pass

    def cycle(self, c: int) -> list[Op]:
        return [Op("tree", entry) for entry in _pool_entries(self.cycle_dims, c, self.pool)]

    def _states(self, op: Op):
        dims, j = op.key
        psi, phi = self.pairs[dims][j]
        return StateVector(dims, psi), StateVector(dims, phi)

    def run(self, op: Op):
        psi, phi = self._states(op)
        protocol, build = _timed(synthesize_multipartite, psi, phi)
        success, check = _timed(multipartite_success_probability, psi, phi, protocol)
        return (protocol, success), {"build": build, "check": check}

    def run_traced(self, op: Op, tracer):
        psi, phi = self._states(op)
        with tracer.op("bench", "tree"):
            with tracer.span("synthesis", "synthesize_multipartite") as synth:
                protocol = synthesize_multipartite(psi, phi)
            with tracer.span("simulator", "multipartite_success_probability"):
                success = multipartite_success_probability(psi, phi, protocol)
        synth["counts"] = {"synthesis.tree_nodes": self._probe_tree(tracer, synth["id"], psi, phi, protocol)}
        return protocol, success

    def _probe_tree(self, tracer, parent: int, psi, phi, protocol) -> int:
        """Replay each node's overlap matrix and flatten; return the node count."""

        def walk(node, a_psi, a_phi, dims) -> int:
            if node is None or isinstance(node, GuessLeaf):
                return 0
            d_pad = node.padded_dim_a if isinstance(node, Protocol) else node.padded_dim
            _probe_flatten(tracer, parent, a_psi, a_phi, dims[0], d_pad)
            if isinstance(node, Protocol):
                return 1
            cond_psi = node.alice_vectors.conj() @ _pad_rows(a_psi, dims[0], d_pad)
            cond_phi = node.alice_vectors.conj() @ _pad_rows(a_phi, dims[0], d_pad)
            nodes = 1
            for i, child in enumerate(node.children):
                if child is not None and not isinstance(child, GuessLeaf):
                    n_psi = float(np.linalg.norm(cond_psi[i]))
                    n_phi = float(np.linalg.norm(cond_phi[i]))
                    nodes += walk(child, cond_psi[i] / n_psi, cond_phi[i] / n_phi, dims[1:])
            return nodes

        return walk(protocol.root, psi.amplitudes, phi.amplitudes, psi.dims)

    def check(self, op: Op, output) -> list[str]:
        protocol, success = output
        psi, phi = self._states(op)
        return oracles.tree_problems(protocol.root, psi.dims, psi.amplitudes, phi.amplitudes, success)


WORKLOADS = {w.name: w for w in (PairFiles, FlattenDense, TreeSmall)}
