"""Dense linear-algebra kernels: orthonormalization, a reference SVD oracle,
Gram matrices, subspace distances, and basis-alignment transforms.

Matrices are plain float64 ``numpy.ndarray`` values. An "orthonormal basis"
is a d x r array Q with ``Q.T @ Q == I_r`` up to rounding; functions
here either produce such bases or expect them as inputs. All operations are
pure and safe to call concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonFinite, RankDeficient

__all__ = [
    "RANK_TOL",
    "SvdResult",
    "as_matrix",
    "gram",
    "orth",
    "procrustes",
    "projection_distance",
    "sign_fix",
    "sin_theta_k",
    "svd",
    "top_eigenpairs",
]

# A QR pivot below RANK_TOL * ||y||_2 (= ||R||_2) marks the input as rank deficient.
RANK_TOL = 1e-12


class SvdResult(NamedTuple):
    """Thin SVD ``a = u @ diag(singular_values) @ v.T``.

    ``u`` and ``v`` hold left/right singular vectors as columns;
    ``singular_values`` is nonnegative and non-increasing.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array (no copy when already one)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {m.shape}")
    return m


def _as_stack(a) -> np.ndarray:
    """Coerce ``a`` to one float64 matrix (2-D) or a stack of them (any leading axes)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return m


def _require_finite(a: np.ndarray, action: str) -> None:
    bad = ~np.isfinite(a).all(axis=(-2, -1))
    if bad.any():
        where = f" (slices {np.flatnonzero(bad).tolist()})" if a.ndim > 2 else ""
        raise NonFinite(f"cannot {action} an array with NaN or infinite entries{where}")


def orth(y, require_full_rank: bool = True) -> np.ndarray:
    """Orthonormalize the columns of ``y`` via QR factorization.

    ``y`` is one d x r matrix or a stack of shape (..., d, r); a stack is
    factorized slice by slice in one call, with the same result per slice
    (slices are numbered in C order in error messages).
    The factorization is deterministic: column signs of Q are flipped so the
    diagonal of R is nonnegative. With ``require_full_rank`` (the default) a
    diagonal entry of R below ``RANK_TOL * ||y||_2`` raises
    :class:`RankDeficient`; ``||y||_2`` is taken as ``||R||_2``, equal in
    exact arithmetic, which is an r x r SVD in place of a d x r one. Passing
    ``require_full_rank=False`` returns the (still orthonormal) Q
    unconditionally, which the iteration engine needs when a shard has fewer
    rows than the iteration rank. NaN or infinite input raises
    :class:`NonFinite` instead of yielding a NaN basis.
    """
    y = _as_stack(y)
    if y.shape[-2] < y.shape[-1]:
        raise DimensionMismatch(f"cannot orthonormalize {y.shape}: more columns than rows")
    _require_finite(y, "orthonormalize")
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if require_full_rank:
        scale = np.linalg.norm(r, 2, axis=(-2, -1))
        pivot = np.abs(diag).min(axis=-1)
        bad = (scale == 0.0) | (pivot < RANK_TOL * scale)
        if bad.any():
            i = int(np.argmax(bad))
            p, limit = float(pivot.flat[i]), RANK_TOL * float(scale.flat[i])
            raise RankDeficient(
                f"pivot {p:.3e} under threshold {RANK_TOL:.1e} * ||y||_2 = {limit:.3e}"
                + (f" in slice {i}" if y.ndim > 2 else "")
            )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs[..., None, :]


def gram(shard) -> np.ndarray:
    """Sample second-moment matrix ``shard.T @ shard / rows``.

    Squares that overflow give infinite entries without a numpy warning; the
    caller that needs a finite Gram checks for them.
    """
    shard = as_matrix(shard)
    if shard.shape[0] < 1:
        raise DimensionMismatch("shard must contain at least one row")
    with np.errstate(over="ignore", invalid="ignore"):
        return (shard.T @ shard) / shard.shape[0]


def svd(a) -> SvdResult:
    """Thin SVD of a dense matrix, or of each slice of a (..., m, n) stack,
    via LAPACK; deterministic for fixed input.

    Raises :class:`NonFinite` on NaN or infinite entries and
    :class:`ConvergenceFailure` if the underlying iteration does not
    converge (never silently returns garbage).
    """
    a = _as_stack(a)
    _require_finite(a, "factorize")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(u, s, np.swapaxes(vt, -1, -2))


def top_eigenpairs(sym, k: int) -> SvdResult:
    """Top-k eigenpairs of a symmetric PSD matrix as an :class:`SvdResult`
    whose ``u`` and ``v`` are the same contiguous d x k eigenbasis (for such
    a matrix the singular vectors are eigenvectors)."""
    res = svd(sym)
    basis = np.ascontiguousarray(res.u[:, :k])
    return SvdResult(basis, res.singular_values[:k].copy(), basis)


def _complement_norm(u: np.ndarray, v: np.ndarray) -> float:
    # ||(I - u u^T) v||_2 without forming the d x d projector.
    resid = v - u @ (u.T @ v)
    return float(np.linalg.norm(resid, 2))


def projection_distance(u, v) -> float:
    """Spectral-norm distance ``||u u^T - v v^T||_2`` between two subspaces.

    Both arguments must be d x k orthonormal bases of the same shape. The
    value lies in [0, 1] and is symmetric in its arguments by construction.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"subspace bases differ in shape: {u.shape} vs {v.shape}")
    a = _complement_norm(u, v)
    b = _complement_norm(v, u)
    return min(max(a, b), 1.0)


def sin_theta_k(z, v, k: int | None = None) -> float:
    """``||(I - z z^T) v[:, :k]||_2``: how much of the reference subspace
    escapes the span of ``z``.

    ``z`` is d x r, ``v`` is d x k with r >= k; for r == k this coincides
    with :func:`projection_distance`.
    """
    z = as_matrix(z)
    v = as_matrix(v)
    if k is not None:
        if k > v.shape[1]:
            raise DimensionMismatch(f"k={k} exceeds reference width {v.shape[1]}")
        v = v[:, :k]
    if z.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"ambient dimensions differ: {z.shape[0]} vs {v.shape[0]}")
    if z.shape[1] < v.shape[1]:
        raise DimensionMismatch(f"basis rank {z.shape[1]} below reference rank {v.shape[1]}")
    return min(_complement_norm(z, v), 1.0)


def _alignment_operands(z_i, z_base):
    z_i = _as_stack(z_i)
    z_base = _as_stack(z_base)
    if z_i.shape[-2:] != z_base.shape[-2:]:
        raise DimensionMismatch(f"alignment operands differ in shape: {z_i.shape} vs {z_base.shape}")
    return z_i, z_base


def procrustes(z_i, z_base) -> np.ndarray:
    """Orthogonal r x r matrix minimizing ``||z_i @ D - z_base||_F``.

    Closed form: with ``z_i.T @ z_base = W1 diag(s) W2.T``, the minimizer is
    ``D = W1 @ W2.T``. A rank-deficient cross-Gram is fine: the SVD supplies
    an orthogonal completion of the zero directions (any completion is
    optimal); LAPACK's W1 and W2 are orthogonal to rounding either way, and
    so is D.
    Stacks broadcast over their leading axes: a ``z_i`` of shape (..., d, r)
    is aligned to one ``z_base`` (or to a stack that broadcasts against it)
    with one stacked SVD and gives a (..., r, r) stack.
    """
    z_i, z_base = _alignment_operands(z_i, z_base)
    res = svd(np.swapaxes(z_i, -1, -2) @ z_base)
    return res.u @ np.swapaxes(res.v, -1, -2)


def sign_fix(z_i, z_base) -> np.ndarray:
    """Diagonal +-1 matrix minimizing ``||z_i @ D - z_base||_F`` over sign
    flips: ``D[j, j] = sgn(<z_i[:, j], z_base[:, j]>)``.

    A zero inner product resolves to +1 so the result is stable and
    idempotent. Runs in O(d r) time. Stacks broadcast as in
    :func:`procrustes`, giving a (..., r, r) stack of diagonal matrices.
    """
    z_i, z_base = _alignment_operands(z_i, z_base)
    ips = np.einsum("...ij,...ij->...j", z_i, z_base)
    r = ips.shape[-1]
    d = np.zeros(ips.shape + (r,))
    d[..., np.arange(r), np.arange(r)] = np.where(ips < 0.0, -1.0, 1.0)
    return d
