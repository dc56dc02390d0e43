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
    # reinterpret it tolerates non-contiguous views (e.g. unvec output).
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
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
        amps = as_complex_array(self.amplitudes, "amplitudes").reshape(-1).copy()
        if amps.size != math.prod(dims):
            raise DimensionMismatchError(
                f"expected {math.prod(dims)} amplitudes for dims {dims}, got {amps.size}"
            )
        amps.setflags(write=False)
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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product with an explicit shape check."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError("adjoint expects a 2-D operand")
    return a.conj().T


def unvec(state: StateVector) -> np.ndarray:
    """Reshape a bipartite state into its coefficient matrix.

    Returns the d_B x d_A matrix M with ``M[j, i] = amplitudes[i * d_B + j]``,
    i.e. the state equals ``sum_ij M[j, i] |j><i|`` read as an operator from
    the A factor to the B factor.  This is a constant-time view.
    """
    if len(state.dims) != 2:
        raise DimensionMismatchError(f"unvec expects a bipartite state, got dims {state.dims}")
    d_a, d_b = state.dims
    return state.amplitudes.reshape(d_a, d_b).T


def vec(matrix: np.ndarray, dims: tuple[int, int] | None = None) -> StateVector:
    """Inverse of :func:`unvec`: fold a d_B x d_A matrix back into a state.

    No norm check is applied; intermediate vectors may be unnormalized.
    """
    m = as_complex_array(matrix, "matrix")
    if m.ndim != 2:
        raise DimensionMismatchError("vec expects a 2-D matrix")
    d_b, d_a = m.shape
    if dims is not None and tuple(dims) != (d_a, d_b):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not match dims {dims}")
    return StateVector((d_a, d_b), m.T.reshape(-1))


def pad_rows(amplitudes: np.ndarray, rows: int, d_pad: int) -> np.ndarray:
    """Amplitudes as a (rows, cols) matrix, zero padded to (d_pad, cols).

    Row i holds the coefficients that go with basis vector i of the first
    factor; the padded rows belong to basis vectors the state never uses.
    """
    padded = np.zeros((d_pad, amplitudes.size // rows), dtype=np.complex128)
    padded[:rows] = amplitudes.reshape(rows, -1)
    return padded


# ---- closed-form 2x2 eigensolver ----
#
# The only eigendecomposition the synthesis pipeline needs.  Works lane by
# lane on aligned entry arrays, so a butterfly layer of the flattening
# solves all its 2x2 subproblems in one call; lanes that take a different
# branch are masked with where().

# Relative width of the "equal to working precision" band used when
# ordering eigenvalues.  A traceless matrix has roots +-lam whose computed
# moduli differ by rounding noise only; without the band the modulus
# comparison would resolve that tie at random instead of falling through
# to the real-part rule.
TIE_REL = 1e-12


def _modulus_greater(x, y):
    # Elementwise lexicographic (|.|, Re, Im) comparison inside the
    # working-precision tie band.
    ax = np.abs(x)
    ay = np.abs(y)
    tie = TIE_REL * np.maximum(ax, ay)
    by_mod = np.abs(ax - ay) > tie
    by_re = np.abs(x.real - y.real) > tie
    return np.where(
        by_mod, ax > ay, np.where(by_re, x.real > y.real, (np.abs(x.imag - y.imag) > tie) & (x.imag > y.imag))
    )


def _eigvec_batch(a, b, c, d, lam, fro):
    # The eigenvector annihilates both rows of (m - lam I) under the
    # unconjugated pairing; build it from whichever row is larger.
    r00 = a - lam
    r01 = b
    r10 = c
    r11 = d - lam
    n0 = np.abs(r00) ** 2 + np.abs(r01) ** 2
    n1 = np.abs(r10) ** 2 + np.abs(r11) ** 2
    take0 = n0 >= n1
    p = np.where(take0, r00, r10)
    q = np.where(take0, r01, r11)
    nrm2 = np.where(take0, n0, n1)
    # m is lam I to working precision; every vector qualifies.
    tiny = nrm2 <= (TAU_ZERO * fro) ** 2
    v0 = -q
    v1 = p
    nrm = np.sqrt(np.abs(v0) ** 2 + np.abs(v1) ** 2)
    safe = np.where(tiny, 1.0, nrm)
    v0 = np.where(tiny, 1.0 + 0.0j, v0 / safe)
    v1 = np.where(tiny, 0.0 + 0.0j, v1 / safe)
    # Canonical phase: largest component real positive.
    lead = np.where(np.abs(v0) >= np.abs(v1), v0, v1)
    alead = np.abs(lead)
    ph = np.where(alead > 0.0, lead / np.where(alead > 0.0, alead, 1.0), 1.0 + 0.0j)
    return v0 * ph.conjugate(), v1 * ph.conjugate()


def eig2x2_batch(a, b, c, d):
    """Eigenpairs of the matrices [[a, b], [c, d]] over aligned 1-D entry arrays.

    Returns ``(l0, l1, w00, w01, w10, w11)``: per lane the eigenvalues
    ordered by ascending modulus (ties at working precision: ascending real
    part, then ascending imaginary part) and the unit eigenvectors
    ``(w00, w01)`` for l0 and ``(w10, w11)`` for l1.  A defective matrix
    yields the same eigenvector twice.
    """
    fro = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2)
    tr = a + d
    det = a * d - b * c
    sq = np.sqrt(tr * tr - 4.0 * det)
    # Add the square root with the sign that avoids cancellation, then
    # recover the other root from the determinant.
    sq = np.where((tr.real * sq.real + tr.imag * sq.imag) < 0.0, -sq, sq)
    big = 0.5 * (tr + sq)
    degen = big == 0.0
    small = np.where(degen, 0.0 + 0.0j, det / np.where(degen, 1.0, big))
    big = np.where(degen, 0.0 + 0.0j, big)
    swap = _modulus_greater(small, big)
    l0 = np.where(swap, big, small)
    l1 = np.where(swap, small, big)
    w00, w01 = _eigvec_batch(a, b, c, d, l0, fro)
    w10, w11 = _eigvec_batch(a, b, c, d, l1, fro)
    return l0, l1, w00, w01, w10, w11


def eig2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 complex matrix.

    Returns ``(eigvals, eigvecs)`` where ``eigvals`` has the smaller-modulus
    eigenvalue first (ties broken by ascending real, then imaginary part)
    and ``eigvecs[:, k]`` is the unit eigenvector for ``eigvals[k]``.
    """
    m = as_complex_array(m, "matrix")
    if m.shape != (2, 2):
        raise DimensionMismatchError(f"eig2x2 expects a 2x2 matrix, got {m.shape}")
    l0, l1, w00, w01, w10, w11 = eig2x2_batch(m[0, 0:1], m[0, 1:2], m[1, 0:1], m[1, 1:2])
    vals = np.concatenate([l0, l1])
    vecs = np.array([[w00[0], w10[0]], [w01[0], w11[0]]], dtype=np.complex128)
    return vals, vecs
