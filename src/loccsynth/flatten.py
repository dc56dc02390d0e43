"""Unitary diagonal flattening.

Given a square complex matrix M, produce a unitary U such that every
diagonal entry of U M U* equals tr(M) / d_pad, where d_pad is M padded up
to the next power of two.  For a 2x2 the unitary is written down from the
numerical range of M in closed form, with no eigenvectors; larger sizes
are handled by pairing diagonal entries layer by layer, butterfly style,
so exactly ceil(log2 d) layers run and each layer only ever solves
independent 2x2 subproblems.  The loop keeps the one-sided product
U M_pad, so a layer is one rotation of its paired rows; the 2x2 entries of
U M_pad U* that the next layer needs are read from it and from U's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DimensionMismatchError, as_complex_array, check_basis, frozen

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass(frozen=True)
class FlatteningResult:
    """Outcome of :func:`uflatgen`.

    ``unitary`` is d_pad x d_pad; ``residual`` is the max deviation of the
    transformed diagonal from tr(M) / d_pad, measured on the incrementally
    updated product U M_pad.  Use :func:`verify_flat` for an independent check.
    Construction checks the unitary's shape against the dimensions.
    """

    unitary: np.ndarray
    padded_dim: int
    original_dim: int
    residual: float

    def __post_init__(self):
        u = frozen(as_complex_array(self.unitary, "unitary"))
        object.__setattr__(self, "unitary", u)
        check_basis("unitary", u, self.padded_dim, self.original_dim)


def _uflat2_batch(m00, m01, m10, m11):
    """Columns (u, v) of the 2x2 flattening unitaries over aligned 1-D entry arrays.

    Builds every 2x2 rotation of a butterfly layer in one shot.  The
    traceless part T = [[a, b], [c, -a]] of M has a convex numerical range
    (Toeplitz-Hausdorff) holding a and -a, hence 0.  For u = (1, w) / |(1, w)|
    with w = t zeta, t real, |zeta| = 1, <u|T|u> |(1, w)|^2 is
    a (1 - t^2) + t (b zeta + c conj(zeta)).  zeta = z / |z| with
    z = a conj(b) - conj(a) c makes s = conj(a) (b zeta + c conj(zeta))
    real, so <u|T|u> = 0 is |a|^2 t^2 - s t - |a|^2 = 0; its roots multiply
    to -1 and t is the one with |t| <= 1 (0 when a = 0), computed without
    cancellation.  v = (-conj(w), 1) / |(1, w)|
    completes the basis.  Both diagonal entries of U* M U then equal
    tr(M) / 2.  Returns the column entries (u0, u1, v0, v1).
    """
    a = 0.5 * (m00 - m11)
    # u depends on T only up to a positive factor; scaling each lane to
    # unit size keeps the products below from overflowing or underflowing.
    # Dividing by a subnormal overflows, so subnormal r and z read as zero.
    r = np.maximum(np.maximum(np.abs(a), np.abs(m01)), np.abs(m10))
    r = np.where(r >= _TINY, r, 1.0)
    a = a / r
    b = m01 / r
    c = m10 / r
    z = a * b.conjugate() - a.conjugate() * c
    az = np.abs(z)
    zeta = np.where(az >= _TINY, z / np.where(az >= _TINY, az, 1.0), 1.0)
    s = (a.conjugate() * (b * zeta + c * zeta.conjugate())).real
    a2 = 2.0 * (a.real * a.real + a.imag * a.imag)
    den = np.abs(s) + np.hypot(s, a2)
    t = np.where(s > 0.0, -a2, a2) / np.where(den > 0.0, den, 1.0)
    norm = 1.0 / np.sqrt(1.0 + t * t)
    u1 = t * zeta * norm
    return norm, u1, -u1.conjugate(), norm


def uflat2(m: np.ndarray) -> np.ndarray:
    """Unitary U = [u v] equalizing the diagonal of a 2x2: diag(U* M U) = tr(M)/2.

    u is a unit vector with <u|M|u> = tr(M)/2, found in closed form from
    the numerical range of M; v is its orthogonal complement.
    """
    m = as_complex_array(m, "matrix")
    if m.shape != (2, 2):
        raise DimensionMismatchError(f"uflat2 expects a 2x2 matrix, got {m.shape}")
    u0, u1, v0, v1 = _uflat2_batch(m[0, 0:1], m[0, 1:2], m[1, 0:1], m[1, 1:2])
    return np.array([[u0[0], v0[0]], [u1[0], v1[0]]], dtype=np.complex128)


def uflatgen(
    m: np.ndarray, on_layer: Callable[[int, np.ndarray], None] | None = None
) -> FlatteningResult:
    """Flatten the diagonal of a d x d matrix, d >= 2, as a stack of one for :func:`uflatgen_stack`.

    M is zero padded there to d_pad = 2**ceil(log2 d), the only padding in
    the package: callers hand over unpadded matrices and read d_pad from
    the result, whose unitary is d_pad x d_pad.  ``on_layer`` is called
    with (p, product) after each layer, for instrumentation: a read-only
    (d_pad, d) view of the live product U M_pad[:, :d] with U the unitary
    built so far, which later layers overwrite, so a callback that keeps
    it must copy it.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or len(m) < 2:
        raise DimensionMismatchError(f"uflatgen expects a square matrix >= 2 x 2, got {m.shape}")
    hook = None if on_layer is None else lambda p, prod: on_layer(p, prod[0])
    (u,), (residual,) = uflatgen_stack(m[None], hook)
    return FlatteningResult(u, len(u), len(m), float(residual))


def uflatgen_stack(
    ms: np.ndarray, on_layer: Callable[[int, np.ndarray], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the diagonal of each matrix in a (B, d, d) stack, d >= 1, in one layer loop.

    Returns ``(unitaries, residuals)``: the (B, d_pad, d_pad) unitaries and
    each one's max deviation of the transformed diagonal from tr(M) / d_pad.
    Each matrix is zero padded to d_pad = 2**ceil(log2 d).  Layer p pairs
    diagonal positions i and i + 2**p within aligned blocks of width
    2**(p + 1) and equalizes each pair with :func:`uflat2`; after the last
    layer every diagonal entry of U M_pad U* equals tr(M) / d_pad.  Each
    layer L is a direct sum of 2x2 rotations on disjoint index pairs.  The
    loop keeps P = U M_pad, not U M_pad U*: a layer rotates P's paired rows
    in place (P <- L* P), O(d_pad d) per layer and matrix, every matrix of
    the stack at once, and reads the pairs' 2x2 entries of U M_pad U* from
    P and the blocks of U.  d = 1 runs no layer and gives the 1 x 1 identity
    with residual 0.  ``on_layer`` is called with (p, product) after each
    layer, where the product is a read-only (B, d_pad, d) view of the live P
    (P's columns past d are zero).
    """
    ms = as_complex_array(ms, "matrices")
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise DimensionMismatchError(f"uflatgen expects square matrices, got shape {ms.shape}")
    b, d = ms.shape[:2]
    if d < 1:
        raise DimensionMismatchError("uflatgen needs dimension >= 1")

    k = (d - 1).bit_length()
    n = 1 << k
    # P = U M_pad, where U is the unitary built so far.  M_pad is zero past
    # column d and so is P: only P's first d columns are rotated, in rows of
    # width n whose zero tail lets each diagonal block of P be read whole.
    work = np.zeros((b, n, n), dtype=np.complex128)
    prod = work[:, :, :d]
    prod[:, :d] = ms
    payload = prod.view()
    payload.setflags(write=False)
    target = np.trace(ms, axis1=1, axis2=2) / n

    # Before layer p each accumulated unitary is block diagonal with blocks
    # of width 2**p, so only those blocks are stored: (B, n >> p, 2**p, 2**p).
    blocks = np.ones((b, n, 1, 1), dtype=np.complex128)
    for p in range(k):
        step = 1 << p
        pairs = n >> (p + 1)
        # Entry (i, j) of X = U M_pad U* is row i of P against conj(row j of U),
        # and row j of U is zero outside its block.  So for i = (2q + a) step + r
        # and j = (2q + c) step + r, X[i, j] is row i of P's diagonal block q
        # against conj(row r of U's block 2q + c): x[:, a, c] is (B, pairs, step).
        x = np.einsum(
            "bqarqcs,bqcrs->bacqr",
            work.reshape(b, pairs, 2, step, pairs, 2, step),
            blocks.reshape(b, pairs, 2, step, step).conj(),
        )
        u0, u1, v0, v1 = _uflat2_batch(x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1])
        # L has columns u0 e_i + u1 e_j and v0 e_i + v1 e_j on each pair (i, j);
        # entry (a, c) of its 2x2 adjoint is lstar[a, c], a (B, pairs, step) array.
        lstar = np.array([[u0, u1], [v0, v1]]).conj()
        # P <- L* P: one batched 2x2 product on the paired rows of P's first d columns.
        rows = work.reshape(b, pairs, 2, step, n)[..., :d].swapaxes(2, 3)
        rows[...] = lstar.transpose(2, 3, 4, 0, 1) @ rows
        # U <- L* U: in the merged block, row a step + r holds lstar[a, c] times
        # row r of block c, for c = 0 (left) and 1 (right).  Written into a
        # C-ordered array, so that the next layer's reshape is a view, not a copy.
        halves = blocks.reshape(b, pairs, 2, step, step).swapaxes(2, 3)
        blocks = np.empty((b, pairs, 2, step, 2, step), dtype=np.complex128)
        np.multiply(lstar.transpose(2, 3, 0, 4, 1)[..., None], halves[:, :, None], out=blocks)
        if on_layer is not None:
            on_layer(p, payload)

    unitaries = blocks.reshape(b, n, n)
    diagonal = np.einsum("bik,bik->bi", prod, unitaries[:, :, :d].conj())
    deviation = np.abs(diagonal - target[:, None])
    return unitaries, np.max(deviation, axis=1)


def verify_flat(m: np.ndarray, result: FlatteningResult) -> float:
    """Recompute the flattening residual by direct conjugation.

    Independent of the incremental updates inside :func:`uflatgen`.  M_pad
    is zero outside M, so diag(U M_pad U*)_i = sum_k (U[:, :d] M)_ik conj(U_ik):
    one product on U's first d columns.  Returns its max deviation from tr(M) / d_pad.
    """
    m = as_complex_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"verify_flat expects a square matrix, got {m.shape}")
    if m.shape[0] != result.original_dim:
        raise DimensionMismatchError(
            f"matrix of dimension {m.shape[0]} does not match result for {result.original_dim}"
        )
    u = result.unitary[:, : m.shape[0]]
    diagonal = np.einsum("ij,ij->i", u @ m, u.conj())
    return float(np.max(np.abs(diagonal - np.trace(m) / result.padded_dim)))
