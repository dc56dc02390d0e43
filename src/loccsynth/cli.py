"""Command line front end.

Subcommands: synthesize, verify, flatten, envcode, bench.  Exit codes:
0 success, 1 bad usage, parse or validation failure, 2 domain precondition
violation (non-orthogonal states, channel input too small), 3 verification
failure.  The commands return 0, 3 and their own checks' codes; :func:`main`
turns NonOrthogonalInputError into 2 and any other error into 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from . import formats
from .envcode import build_env_code
from .flatten import uflatgen, verify_flat
from .linalg import TAU_ZERO, NonOrthogonalInputError, StateVector
from .simulator import success_probability
from .synthesis import epsilon_truncate, overlap_matrix, synthesize

SUCCESS_TOLERANCE = 1e-9
DEFAULT_SEED = 1234
# Per operation: the default sizes, where the stated cost dominates the fixed
# per-call and per-layer cost (flatten O(d^2 log d), overlap O(d) on (8, d) pairs,
# synthesize O(d_A^2 d_B + d^2 log d)), and the window for the largest doubling
# step's ratio.
_BENCH_CASES = {
    "flatten": ((128, 256, 512), (3.0, 6.0)),
    "overlap": ((16384, 32768, 65536), (1.6, 2.6)),
    "synthesize": ((128, 256, 512), (3.0, 8.0)),
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_synthesize(args) -> int:
    psi = formats.load_state(args.psi)
    phi = formats.load_state(args.phi)
    protocol = synthesize(psi, phi)
    plan = epsilon_truncate(protocol, args.epsilon) if args.epsilon is not None else None
    report = success_probability(psi, phi, protocol)
    if report.success_prob < 1.0 - SUCCESS_TOLERANCE:
        return _fail(
            f"synthesized protocol only reaches success {report.success_prob:.12f}", 3
        )
    if args.out:
        formats.save_protocol(args.out, protocol, plan)
    note = f" kept={len(plan.kept_outcomes)} bits={plan.bits}" if plan is not None else ""
    print(
        f"synthesized ({protocol.original_dim_a}, {protocol.dim_b}) protocol: "
        f"outcomes={protocol.padded_dim_a} swapped={protocol.swapped} "
        f"success={report.success_prob:.9f}{note}"
    )
    return 0


def cmd_verify(args) -> int:
    psi = formats.load_state(args.psi)
    phi = formats.load_state(args.phi)
    protocol, plan = formats.load_protocol(args.protocol)
    report = success_probability(psi, phi, protocol, plan)
    print(json.dumps(dataclasses.asdict(report), indent=1))
    problem = _verification_problem(report, plan)
    return 0 if problem is None else _fail(problem, 3)


def _verification_problem(report, plan) -> str | None:
    """Why a report misses the success bar, or None when it meets it.

    Without a plan the protocol must succeed with probability 1 - 1e-9.  A
    plan's epsilon is a claim, not a discount: every kept outcome that
    occurs must succeed with conditional probability 1 - 1e-9, and the kept
    outcomes, weighed from the states, must carry mass 1 - epsilon under
    both hypotheses.  The plan's bits must be 1 + ceil(log2 k) for its k kept
    outcomes, and its retained masses must match that weighed mass to 1e-9.
    """
    if plan is None:
        if not report.success_prob >= 1.0 - SUCCESS_TOLERANCE:
            return f"success {report.success_prob:.12f} is below 1 - {SUCCESS_TOLERANCE}"
        return None
    for i in plan.kept_outcomes:
        weight, conditional = report.per_outcome_success[i]
        # Outcomes below TAU_ZERO**2 are rounding noise; together they weigh
        # too little to move the success probability.
        if weight > TAU_ZERO**2 and not conditional >= 1.0 - SUCCESS_TOLERANCE:
            return f"kept outcome {i} succeeds with probability {conditional:.12f}"
    goal = 1.0 - plan.epsilon - SUCCESS_TOLERANCE
    mass_psi, mass_phi = report.kept_mass
    if not (mass_psi >= goal and mass_phi >= goal):
        return (
            f"kept outcomes carry mass {mass_psi:.12f} under psi and {mass_phi:.12f} "
            f"under phi, below 1 - epsilon = {1.0 - plan.epsilon}"
        )
    # Derived here, not imported from synthesis, so a wrong rule there shows.
    k = len(plan.kept_outcomes)
    if plan.bits != (k - 1).bit_length() + 1:
        return f"truncation.bits is {plan.bits}, but {k} kept outcomes cost 1 + ceil(log2 {k})"
    claimed = (plan.retained_prob_psi, plan.retained_prob_phi)
    for name, retained, mass in zip(("psi", "phi"), claimed, report.kept_mass):
        if not abs(retained - mass) <= SUCCESS_TOLERANCE:
            return f"truncation.retained_prob_{name} is {retained!r}, but the kept mass is {mass!r}"
    return None


def cmd_flatten(args) -> int:
    matrix = formats.load_matrix(args.matrix)
    result = uflatgen(matrix)
    residual = verify_flat(matrix, result)
    if args.out:
        formats.save_flattening(args.out, result)
    # |M|_F taken on M / max|M_ij|, since squaring entries near 1e155 overflows.
    top = float(np.max(np.abs(matrix)))
    fro = top * float(np.linalg.norm(matrix / top)) if top > 0.0 else 0.0
    bound = TAU_ZERO * (1.0 + fro)
    print(
        f"flattened {result.original_dim} -> {result.padded_dim}: "
        f"residual={residual:.3e} bound={bound:.3e}"
    )
    return 0 if residual <= bound else 3


def cmd_envcode(args) -> int:
    channel = formats.load_channel(args.channel)
    if channel.input_dim < 2:
        return _fail(f"channel input dimension {channel.input_dim} cannot carry a bit", 2)
    code = build_env_code(channel)
    if args.out:
        formats.save_env_code(args.out, code)
    print(
        f"environment-assisted code: env_dim={channel.env_dim} "
        f"output_dim={channel.output_dim} error_prob={code.error_prob:.3e}"
    )
    return 0 if code.error_prob <= SUCCESS_TOLERANCE else 3


def _random_state(rng, dims) -> StateVector:
    n = int(np.prod(dims))
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))


def _random_orthogonal_pair(rng, dims) -> tuple[StateVector, StateVector]:
    psi = _random_state(rng, dims)
    raw = rng.standard_normal(psi.amplitudes.size) + 1j * rng.standard_normal(psi.amplitudes.size)
    raw -= np.vdot(psi.amplitudes, raw) * psi.amplitudes
    return psi, StateVector(tuple(dims), raw / np.linalg.norm(raw))


def _bench_case(operation: str, d: int, seed: int):
    rng = np.random.default_rng([seed, d])
    if operation == "flatten":
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m -= np.trace(m) / d * np.eye(d)
        return lambda: uflatgen(m)
    if operation == "overlap":
        psi = _random_state(rng, (8, d))
        phi = _random_state(rng, (8, d))
        return lambda: overlap_matrix(psi, phi)
    psi, phi = _random_orthogonal_pair(rng, (d, d))
    return lambda: synthesize(psi, phi)


def cmd_bench(args) -> int:
    operation = args.operation
    default_sizes, (low, high) = _BENCH_CASES[operation]
    sizes = args.sizes or default_sizes
    if args.repeats < 5:
        return _fail(f"need at least 5 repeats per size, got {args.repeats}", 1)
    if len(sizes) < 2:
        return _fail(f"need at least 2 sizes to measure growth, got {list(sizes)}", 1)
    steps = [(a, b) for a, b in zip(sizes, sizes[1:]) if b == 2 * a]
    if not steps:
        return _fail("sizes must contain at least one consecutive doubling step", 1)

    runs = [_bench_case(operation, d, args.seed) for d in sizes]
    for run in runs:
        run()  # warmup
    # Repeats go round-robin across the sizes so that a slow spell on the host
    # lands on every size alike; the gate takes each size's minimum because
    # interference only ever adds time.
    samples = [[] for _ in sizes]
    for _ in range(args.repeats):
        for run, times in zip(runs, samples):
            begin = time.perf_counter_ns()
            run()
            times.append(time.perf_counter_ns() - begin)
    records = [
        {
            "operation": operation,
            "d": d,
            "median_ns": int(statistics.median(times)),
            "min_ns": min(times),
            "repeats": args.repeats,
        }
        for d, times in zip(sizes, samples)
    ]
    lines = "".join(json.dumps(record) + "\n" for record in records)
    print(lines, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(lines)

    by_d = {r["d"]: r["min_ns"] for r in records}
    ratios = [(a, b, by_d[b] / by_d[a]) for a, b in steps if by_d[a] > 0]
    if not ratios:
        return _fail("no doubling step produced a measurable ratio", 1)
    for a, b, ratio in ratios:
        print(json.dumps({"ratio_from": a, "ratio_to": b, "ratio": round(ratio, 3)}))
    _, largest_to, largest_ratio = ratios[-1]
    verdict = low <= largest_ratio <= high
    print(
        json.dumps(
            {
                "operation": operation,
                "largest_step_to": largest_to,
                "largest_step_ratio": round(largest_ratio, 3),
                "window": [low, high],
                "ok": verdict,
                # The windows assume one BLAS thread; record what this run had.
                "blas_threads": {
                    var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                },
            }
        )
    )
    return 0 if verdict else 3


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if any(s < 2 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must all be >= 2")
    return sizes


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loccsynth",
        description="Synthesize and verify one-way discrimination protocols "
        "for orthogonal pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="build a protocol from two state files")
    p_syn.add_argument("psi", help="state JSON for the first hypothesis")
    p_syn.add_argument("phi", help="state JSON for the second hypothesis")
    p_syn.add_argument("--out", help="write the protocol JSON here")
    p_syn.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="also embed a message truncation plan at this failure budget",
    )
    p_syn.set_defaults(func=cmd_synthesize)

    p_ver = sub.add_parser("verify", help="re-evaluate a protocol against two states")
    p_ver.add_argument("psi")
    p_ver.add_argument("phi")
    p_ver.add_argument("protocol", help="protocol JSON produced by synthesize")
    p_ver.set_defaults(func=cmd_verify)

    p_fla = sub.add_parser("flatten", help="equalize the diagonal of a square matrix")
    p_fla.add_argument("matrix", help="matrix JSON")
    p_fla.add_argument("--out", help="write unitary and residual here")
    p_fla.set_defaults(func=cmd_flatten)

    p_env = sub.add_parser("envcode", help="build an environment-assisted one-bit code")
    p_env.add_argument("channel", help="channel JSON with a Kraus operator list")
    p_env.add_argument("--out", help="write the code JSON here")
    p_env.set_defaults(func=cmd_envcode)

    p_ben = sub.add_parser("bench", help="measure runtime growth under size doubling")
    p_ben.add_argument("operation", choices=tuple(_BENCH_CASES))
    p_ben.add_argument(
        "--sizes",
        type=_sizes_arg,
        default=None,
        help="comma separated sizes, e.g. 64,128,256 (defaults depend on the operation)",
    )
    p_ben.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timed runs per size (>= 5), taken round-robin across the sizes; "
        "the gate compares each size's minimum",
    )
    p_ben.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input generation seed")
    p_ben.add_argument("--out", help="also write the record lines to this JSONL file")
    p_ben.set_defaults(func=cmd_bench)
    return parser


# main's parser: built on the first call, then kept for the life of the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NonOrthogonalInputError as exc:
        return _fail(str(exc), 2)
    except Exception as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
