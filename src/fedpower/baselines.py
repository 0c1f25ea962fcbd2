"""Reference algorithms: the single-machine power method and three one-shot
baselines (unweighted and weighted local-eigenspace averaging, and
distributed randomized SVD)."""

from __future__ import annotations

import numpy as np

from . import linalg, privacy
from .data import ShardedDataset
from .engine import initial_basis
from .errors import DimensionMismatch
from .linalg import SvdResult

__all__ = [
    "dr_svd",
    "power_method",
    "uda",
    "wda",
]


def power_method(m_matrix, r: int, num_iterations: int, seed: int) -> np.ndarray:
    """Block power iteration ``y = M z; z = orth(y)`` from a seeded start."""
    m_matrix = linalg.as_matrix(m_matrix)
    z = initial_basis(m_matrix.shape[1], r, seed)
    for _ in range(num_iterations):
        z = linalg.orth(m_matrix @ z)
    return z


def _averaged_eigenspaces(dataset: ShardedDataset, k: int, weighted: bool) -> SvdResult:
    """Top-k eigenpairs of the shards' mean ``v_hat v_hat.T``, or ``v_hat diag(s) v_hat.T`` if ``weighted``.

    The sum over shards is one ``np.tensordot`` over the shard and column axes
    of the (m, d, k) eigenvector stack."""
    if k > dataset.d:
        raise DimensionMismatch(f"k={k} exceeds d={dataset.d}")
    vecs, vals = dataset.local_eigenpairs(k)
    left = vecs * vals[:, None, :] if weighted else vecs
    return linalg.top_eigenpairs(np.tensordot(left, vecs, axes=([0, 2], [0, 2])) / dataset.m, k)


def uda(dataset: ShardedDataset, k: int) -> SvdResult:
    """One-shot unweighted averaging of local rank-k eigenspaces.

    Each shard contributes the projector of its top-k eigenvectors; the
    server averages the projectors and returns the top-k eigenpairs of the
    average.
    """
    return _averaged_eigenspaces(dataset, k, weighted=False)


def wda(dataset: ShardedDataset, k: int) -> SvdResult:
    """Like :func:`uda` but each local eigenvector is weighted by its
    eigenvalue: the server averages ``v_hat diag(s) v_hat.T``."""
    return _averaged_eigenspaces(dataset, k, weighted=True)


def dr_svd(dataset: ShardedDataset, k: int, seed: int) -> SvdResult:
    """One-shot distributed randomized SVD with sketch rank
    ``r = k + (d - k) // 4``.

    The sketch ``Y = A (A^T (A Omega))`` is formed right-to-left to avoid any
    n x n product. ``B = Q^T A``, the sum over shards ``sum_i Q_i^T A_i``, is
    one product with the assembled matrix. Note the range-finding step works
    on the assembled matrix, so unlike the iterative protocols this baseline
    does move raw data to one place.
    """
    d = dataset.d
    r = k + (d - k) // 4
    if dataset.n < r:
        raise DimensionMismatch(f"need n >= sketch rank {r}, got n={dataset.n}")
    omega = privacy.standard_gaussian(d, r, seed, (privacy.STREAM_INIT, 0, 1))
    a = dataset.stacked()
    y = a @ (a.T @ (a @ omega))
    q = linalg.orth(y, require_full_rank=False)
    res = linalg.svd(q.T @ a)
    u_hat = q @ res.u
    return SvdResult(
        np.ascontiguousarray(u_hat[:, :k]),
        res.singular_values[:k].copy(),
        np.ascontiguousarray(res.v[:, :k]),
    )
