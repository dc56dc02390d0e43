"""Dense complex linear algebra primitives shared by every other module.

Everything operates on ``complex128`` numpy arrays.  State vectors carry
their tensor factor dimensions alongside the flat amplitude array; the
flat index of a bipartite amplitude is ``i * d_B + j`` for basis vector
``|i>_A |j>_B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shared tolerances.  TAU_ZERO is relative to the Frobenius norm of the
# operand it guards; TAU_ORTH is the looser gate applied to user-supplied
# state pairs, so nearly-orthogonal input is not rejected for float dust.
TAU_ZERO = 1e-10
TAU_NORM = 1e-8
TAU_ORTH = 1e-8


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class NotNormalizedError(ValueError):
    """A vector that must be unit norm is not."""


class NonOrthogonalInputError(ValueError):
    """A state pair that must be orthogonal is not."""


def as_complex_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    # isfinite on complex checks both components, and unlike a float64
    # reinterpret it tolerates non-contiguous views (e.g. a transpose).
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen(values, dtype=np.complex128) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``, for immutable records."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state on a tensor product of finite-dimensional factors.

    ``dims`` lists the factor dimensions left to right; ``amplitudes`` is
    the flat coefficient array in row-major order over those factors.
    Normalization is not enforced here because intermediate (conditional)
    vectors are legitimately subnormalized; call :meth:`require_normalized`
    at the points where unit norm is a precondition.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        amps = frozen(as_complex_array(self.amplitudes, "amplitudes").reshape(-1))
        if amps.size != math.prod(dims):
            raise DimensionMismatchError(
                f"expected {math.prod(dims)} amplitudes for dims {dims}, got {amps.size}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self, tol: float = TAU_NORM) -> None:
        if abs(self.norm - 1.0) > tol:
            raise NotNormalizedError(f"state norm {self.norm!r} differs from 1 beyond {tol}")

    def overlap(self, other: "StateVector") -> complex:
        """<self|other> with the conjugate on self."""
        if self.dims != other.dims:
            raise DimensionMismatchError(f"dims {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def pair_overlap(psi: StateVector, phi: StateVector) -> complex:
    """<phi|psi> for two states on the same factors, once both pass their norm check."""
    if psi.dims != phi.dims:
        raise DimensionMismatchError(f"dims {psi.dims} vs {phi.dims}")
    psi.require_normalized()
    phi.require_normalized()
    return phi.overlap(psi)


def orthogonal_overlap(psi: StateVector, phi: StateVector) -> complex:
    """:func:`pair_overlap`, refused with NonOrthogonalInputError beyond TAU_ORTH."""
    ov = pair_overlap(psi, phi)
    if abs(ov) > TAU_ORTH:
        raise NonOrthogonalInputError(
            f"|<phi|psi>| = {abs(ov):.3e} exceeds the orthogonality tolerance {TAU_ORTH}"
        )
    return ov


def check_basis(name: str, basis: np.ndarray, padded: int, original: int, suffix: str = "") -> None:
    """Refuse a basis that is not padded x padded, or an original dimension outside 1..padded."""
    if basis.shape != (padded, padded) or not 1 <= original <= padded:
        raise DimensionMismatchError(
            f"{name} of shape {basis.shape} does not fit padded_dim{suffix} {padded} "
            f"and original_dim{suffix} {original}"
        )
