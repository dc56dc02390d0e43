"""One-shot zero-error classical coding through a channel with a helper.

A noisy channel hides a perfect classical bit whenever its environment
cooperates: dilate the channel to an isometry, note that the two code
words it produces on orthogonal inputs stay orthogonal on the joint
output-environment system, and hand the environment the measuring role of
a one-way discrimination protocol.  The receiver then decodes the bit
from the announced measurement outcome without error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    TAU_ZERO,
    DimensionMismatchError,
    StateVector,
    as_complex_array,
    frozen,
    orthogonal_overlap,
)
from .simulator import success_probability
from .synthesis import Protocol, synthesize


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Every operator maps the input space (dimension ``input_dim``) to the
    output space (dimension ``output_dim``); trace preservation
    sum_k K_k* K_k = 1 is enforced on construction.
    """

    input_dim: int
    output_dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("channel dimensions must be positive")
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for idx, k in enumerate(self.kraus):
            k = as_complex_array(k, f"kraus[{idx}]")
            if k.shape != (self.output_dim, self.input_dim):
                raise DimensionMismatchError(
                    f"kraus[{idx}] has shape {k.shape}, expected "
                    f"({self.output_dim}, {self.input_dim})"
                )
            ops.append(frozen(k))
        object.__setattr__(self, "kraus", tuple(ops))
        gram = sum(k.conj().T @ k for k in ops)
        defect = np.linalg.norm(gram - np.eye(self.input_dim), ord="fro")
        if defect > TAU_ZERO * self.input_dim:
            raise ValueError(
                f"Kraus operators are not trace preserving: |sum K*K - 1|_F = {defect:.3e}"
            )

    @property
    def env_dim(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True)
class EnvCode:
    """A zero-error one-bit code assisted by the channel environment.

    ``protocol`` is the discrimination protocol on (environment, output)
    with the environment measuring first; ``error_prob`` is recomputed by
    the simulator, never assumed.
    """

    encoder_states: tuple[np.ndarray, np.ndarray]
    protocol: Protocol
    error_prob: float


def stinespring(channel: KrausChannel) -> np.ndarray:
    """Dilate a channel to an isometry V by stacking its Kraus operators.

    V is (d_B * d_E) x d_A.  Row index is ``j * d_E + k`` for output basis j
    and environment basis k, so tracing out the environment of V rho V*
    recovers the channel.
    """
    d_e = channel.env_dim
    v = np.zeros((channel.output_dim * d_e, channel.input_dim), dtype=np.complex128)
    for k, op in enumerate(channel.kraus):
        v[k::d_e, :] = op
    return v


def _checked_encoders(channel: KrausChannel, encoder_states) -> tuple[np.ndarray, np.ndarray]:
    """The two encoder states, |0> and |1> by default, once they are orthonormal in C^input_dim."""
    d_a = channel.input_dim
    if encoder_states is None:
        encoder_states = np.eye(2, d_a)
    if len(encoder_states) != 2:
        raise ValueError("encoder_states must be a pair of vectors")
    e0, e1 = (StateVector((d_a,), e) for e in encoder_states)
    orthogonal_overlap(e0, e1)
    return e0.amplitudes, e1.amplitudes


def build_env_code(channel: KrausChannel, encoder_states=None) -> EnvCode:
    """Construct the assisted one-bit code for a channel.

    The two code words enter as orthogonal pure states of the input space
    (computational |0>, |1> by default).  The returned protocol always has
    the environment in the measuring role, whatever its dimension.
    """
    if channel.input_dim < 2:
        raise ValueError(
            f"cannot encode a bit through input dimension {channel.input_dim}; need >= 2"
        )
    e0, e1 = _checked_encoders(channel, encoder_states)
    v = stinespring(channel)
    word0 = v @ e0
    word1 = v @ e1

    # Reorder from (output, environment) to (environment, output) so the
    # environment occupies the measuring slot.
    d_b, d_e = channel.output_dim, channel.env_dim
    psi = StateVector((d_e, d_b), word0.reshape(d_b, d_e).T.reshape(-1))
    phi = StateVector((d_e, d_b), word1.reshape(d_b, d_e).T.reshape(-1))
    protocol = synthesize(psi, phi, swap_roles=False)
    report = success_probability(psi, phi, protocol)
    error = max(0.0, 1.0 - report.success_prob)
    return EnvCode(encoder_states=(e0, e1), protocol=protocol, error_prob=error)
