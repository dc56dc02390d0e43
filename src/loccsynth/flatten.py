"""Unitary diagonal flattening.

Given a square complex matrix M, produce a unitary U such that every
diagonal entry of U M U* equals tr(M) / d_pad, where d_pad is M padded up
to the next power of two.  For a 2x2 the unitary comes from a closed-form
eigenbasis rotation; larger sizes are handled by pairing diagonal entries
layer by layer, butterfly style, so exactly ceil(log2 d) layers run and
each layer only ever solves independent 2x2 subproblems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import TAU_ZERO, TIE_REL, DimensionMismatchError, as_complex_array, eig2x2_batch


@dataclass(frozen=True)
class FlatteningResult:
    """Outcome of :func:`uflatgen`.

    ``unitary`` is d_pad x d_pad; ``residual`` is the max deviation of the
    transformed diagonal from tr(M) / d_pad, measured on the incrementally
    updated matrix.  Use :func:`verify_flat` for an independent check.
    """

    unitary: np.ndarray
    padded_dim: int
    original_dim: int
    residual: float

    def __post_init__(self):
        u = as_complex_array(self.unitary, "unitary").copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)


def _uflat2_batch(m00, m01, m10, m11):
    """Columns (u, v) of the 2x2 flattening unitaries over aligned 1-D entry arrays.

    Builds every 2x2 rotation of a butterfly layer in one shot.  u is built
    so <u| (M - tr(M)/2 I) |u> = 0; v is the remaining basis vector.  Both
    diagonal entries of U* M U then equal tr(M) / 2.  Returns the column
    entries (u0, u1, v0, v1).
    """
    half_tr = 0.5 * (m00 + m11)
    t00 = m00 - half_tr
    t11 = m11 - half_tr
    fro = np.sqrt(
        np.abs(t00) ** 2 + np.abs(m01) ** 2 + np.abs(m10) ** 2 + np.abs(t11) ** 2
    )
    l0, _l1, w00, w01, w10, w11 = eig2x2_batch(t00, m01, m10, t11)

    # Zero eigenvalue: the eigenvector itself already has a vanishing
    # diagonal expectation, pair it with its orthogonal complement.
    zero = np.abs(l0) <= TAU_ZERO * fro

    # Distinct eigenvalues +-l0: mix the eigenvectors with the phase that
    # makes the cross terms cancel.  For a normal matrix the eigenvectors
    # are orthogonal and any phase works; the inner product is then pure
    # rounding noise, so read it as zero and use phase 1.
    ip = w10.conjugate() * w00 + w11.conjugate() * w01
    aip = np.abs(ip)
    sig = aip > TIE_REL
    e = np.where(sig, ip.conjugate() / np.where(sig, aip, 1.0), 1.0 + 0.0j)
    xp0 = e * w00 + w10
    xp1 = e * w01 + w11
    npl = np.sqrt(np.abs(xp0) ** 2 + np.abs(xp1) ** 2)
    npl = np.where(npl == 0.0, 1.0, npl)
    gu0 = xp0 / npl
    gu1 = xp1 / npl
    xm0 = e * w00 - w10
    xm1 = e * w01 - w11
    nm = np.sqrt(np.abs(xm0) ** 2 + np.abs(xm1) ** 2)
    collapsed = nm == 0.0
    nm = np.where(collapsed, 1.0, nm)
    gv0 = xm0 / nm
    gv1 = xm1 / nm
    # One re-orthogonalization pass keeps U unitary to working precision
    # even when the eigenvectors are nearly parallel.
    ov = gu0.conjugate() * gv0 + gu1.conjugate() * gv1
    gv0 = gv0 - ov * gu0
    gv1 = gv1 - ov * gu1
    nv = np.sqrt(np.abs(gv0) ** 2 + np.abs(gv1) ** 2)
    bad = collapsed | (nv == 0.0)
    nv = np.where(nv == 0.0, 1.0, nv)
    gv0 = np.where(bad, -gu1.conjugate(), gv0 / nv)
    gv1 = np.where(bad, gu0.conjugate(), gv1 / nv)

    u0 = np.where(zero, w00, gu0)
    u1 = np.where(zero, w01, gu1)
    v0 = np.where(zero, -w01.conjugate(), gv0)
    v1 = np.where(zero, w00.conjugate(), gv1)
    return u0, u1, v0, v1


def uflat2(m: np.ndarray) -> np.ndarray:
    """Unitary U = [u v] equalizing the diagonal of a 2x2: diag(U* M U) = tr(M)/2."""
    m = as_complex_array(m, "matrix")
    if m.shape != (2, 2):
        raise DimensionMismatchError(f"uflat2 expects a 2x2 matrix, got {m.shape}")
    u0, u1, v0, v1 = _uflat2_batch(m[0, 0:1], m[0, 1:2], m[1, 0:1], m[1, 1:2])
    return np.array([[u0[0], v0[0]], [u1[0], v1[0]]], dtype=np.complex128)


def _mix_pairs(a: np.ndarray, b: np.ndarray, c00, c01, c10, c11) -> None:
    """Overwrite the paired slices (a, b) with (c00 a + c01 b, c10 a + c11 b)."""
    new_b = c10 * a
    new_b += c11 * b
    a *= c00
    a += c01 * b
    b[...] = new_b


def uflatgen(
    m: np.ndarray,
    d: int | None = None,
    on_layer: Callable[[int, np.ndarray], None] | None = None,
) -> FlatteningResult:
    """Flatten the diagonal of a d x d matrix, d >= 2.

    M is zero padded to d_pad = 2**ceil(log2 d).  Layer p pairs diagonal
    positions i and i + 2**p within aligned blocks of width 2**(p + 1) and
    equalizes each pair with :func:`uflat2`; after the last layer every
    diagonal entry of U M_pad U* equals tr(M) / d_pad.  Each layer is a
    direct sum of 2x2 rotations on disjoint index pairs, so it is applied
    to the paired rows and columns in place, O(d_pad^2) per layer.
    ``on_layer`` is called with (p, current matrix) after each layer, for
    instrumentation; the matrix is the live working array, which later
    layers overwrite, so a callback that keeps it must copy it.
    """
    m = as_complex_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"uflatgen expects a square matrix, got {m.shape}")
    if d is None:
        d = m.shape[0]
    if d != m.shape[0]:
        raise DimensionMismatchError(f"declared dimension {d} does not match shape {m.shape}")
    if d < 2:
        raise DimensionMismatchError("uflatgen needs dimension >= 2")

    k = (d - 1).bit_length()
    n = 1 << k
    cur = np.zeros((n, n), dtype=np.complex128)
    cur[:d, :d] = m
    target = np.trace(m) / n

    # Before layer p the accumulated unitary is block diagonal with blocks
    # of width 2**p, so only those blocks are stored: (n >> p, 2**p, 2**p).
    blocks = np.ones((n, 1, 1), dtype=np.complex128)
    for p in range(k):
        step = 1 << p
        pairs = n >> (p + 1)
        base = np.arange(pairs) << (p + 1)
        ii = (base[:, None] + np.arange(step)[None, :]).reshape(-1)
        jj = ii + step
        u0, u1, v0, v1 = _uflat2_batch(cur[ii, ii], cur[ii, jj], cur[jj, ii], cur[jj, jj])
        # cur <- L* cur L, where L has columns u0 e_i + u1 e_j and v0 e_i + v1 e_j
        # on each pair (i, j): mix the paired columns, then the paired rows.
        cols = cur.reshape(n, pairs, 2, step)
        c = [x.reshape(pairs, step) for x in (u0, u1, v0, v1)]
        _mix_pairs(cols[:, :, 0], cols[:, :, 1], *c)
        rows = cur.reshape(pairs, 2, step, n)
        r = [x.conj().reshape(pairs, step, 1) for x in (u0, u1, v0, v1)]
        _mix_pairs(rows[:, 0], rows[:, 1], *r)
        # U <- L* U: row i of the merged block is conj(u0) row i of the left
        # block beside conj(u1) row j of the right one, row j likewise with v.
        halves = blocks.reshape(pairs, 2, step, step)
        merged = np.empty((pairs, 2 * step, 2 * step), dtype=np.complex128)
        merged[:, :step, :step] = r[0] * halves[:, 0]
        merged[:, :step, step:] = r[1] * halves[:, 1]
        merged[:, step:, :step] = r[2] * halves[:, 0]
        merged[:, step:, step:] = r[3] * halves[:, 1]
        blocks = merged
        if on_layer is not None:
            on_layer(p, cur)

    residual = float(np.max(np.abs(np.diagonal(cur) - target)))
    return FlatteningResult(unitary=blocks[0], padded_dim=n, original_dim=d, residual=residual)


def verify_flat(m: np.ndarray, result: FlatteningResult) -> float:
    """Recompute the flattening residual by direct conjugation.

    Independent of the incremental updates inside :func:`uflatgen`: pads M,
    forms U M_pad U* with two dense products and returns the max deviation
    of its diagonal from tr(M) / d_pad.
    """
    m = as_complex_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"verify_flat expects a square matrix, got {m.shape}")
    if m.shape[0] != result.original_dim:
        raise DimensionMismatchError(
            f"matrix of dimension {m.shape[0]} does not match result for {result.original_dim}"
        )
    n = result.padded_dim
    padded = np.zeros((n, n), dtype=np.complex128)
    padded[: m.shape[0], : m.shape[0]] = m
    u = result.unitary
    transformed = u @ padded @ u.conj().T
    target = np.trace(m) / n
    return float(np.max(np.abs(np.diagonal(transformed) - target)))
