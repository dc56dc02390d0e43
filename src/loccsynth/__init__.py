"""Constructive synthesis of perfect one-way discrimination protocols.

Any two orthogonal pure states shared between two parties can be told
apart perfectly with a single round of classical communication: the first
party measures in a basis that flattens the diagonal of the pair's
conditional-overlap matrix, and the second party finishes with a
two-outcome projective measurement.  This package builds those protocols
explicitly, verifies them by independent simulation, and applies them to
zero-error classical coding through a channel whose environment helps.
"""

from .envcode import (
    EnvCode,
    KrausChannel,
    build_env_code,
    stinespring,
)
from .flatten import FlatteningResult, uflat2, uflatgen, verify_flat
from .linalg import (
    TAU_NORM,
    TAU_ORTH,
    TAU_ZERO,
    DimensionMismatchError,
    NonOrthogonalInputError,
    NotNormalizedError,
    StateVector,
)
from .simulator import (
    VerificationReport,
    multipartite_success_probability,
    success_probability,
)
from .synthesis import (
    BranchNode,
    GuessLeaf,
    MultipartiteProtocol,
    Protocol,
    TruncatedMessagePlan,
    epsilon_truncate,
    overlap_matrix,
    synthesize,
    synthesize_multipartite,
)

__version__ = "0.1.0"

__all__ = [
    "BranchNode",
    "DimensionMismatchError",
    "EnvCode",
    "FlatteningResult",
    "GuessLeaf",
    "KrausChannel",
    "MultipartiteProtocol",
    "NonOrthogonalInputError",
    "NotNormalizedError",
    "Protocol",
    "StateVector",
    "TAU_NORM",
    "TAU_ORTH",
    "TAU_ZERO",
    "TruncatedMessagePlan",
    "VerificationReport",
    "build_env_code",
    "epsilon_truncate",
    "multipartite_success_probability",
    "overlap_matrix",
    "stinespring",
    "success_probability",
    "synthesize",
    "synthesize_multipartite",
    "uflat2",
    "uflatgen",
    "verify_flat",
]
