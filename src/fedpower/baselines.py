"""Reference algorithms: the single-machine power method, its exactly
equivalent distributed form, and three one-shot baselines (unweighted and
weighted local-eigenspace averaging, and distributed randomized SVD)."""

from __future__ import annotations

import numpy as np

from . import linalg, privacy
from .data import ShardedDataset
from .engine import initial_basis
from .errors import DimensionMismatch
from .linalg import SvdResult

__all__ = [
    "distributed_power",
    "dr_svd",
    "power_method",
    "uda",
    "wda",
]


def _power_iterates(m_matrix, z0, steps):
    z = z0
    for _ in range(steps):
        z = linalg.orth(m_matrix @ z)
        yield z


def _distributed_iterates(grams, weights, z0, steps):
    z = z0
    for _ in range(steps):
        y = np.zeros_like(z)
        for w, g in zip(weights, grams):
            y += float(w) * (g @ z)
        z = linalg.orth(y)
        yield z


def power_method(m_matrix, r: int, num_iterations: int, seed: int) -> np.ndarray:
    """Block power iteration ``y = M z; z = orth(y)`` from a seeded start."""
    m_matrix = linalg.as_matrix(m_matrix)
    z = initial_basis(m_matrix.shape[1], r, seed)
    for z in _power_iterates(m_matrix, z, num_iterations):
        pass
    return z


def distributed_power(dataset: ShardedDataset, r: int, num_iterations: int, seed: int) -> np.ndarray:
    """Power method with the matrix product fanned out per shard.

    Every iteration aggregates ``sum_i p_i M_i z``, which equals the global
    ``M z``, so the trajectory matches :func:`power_method` on the assembled
    second-moment matrix up to floating-point summation order.
    """
    z = initial_basis(dataset.d, r, seed)
    for z in _distributed_iterates(dataset.shard_grams, dataset.weights, z, num_iterations):
        pass
    return z


def uda(dataset: ShardedDataset, k: int) -> SvdResult:
    """One-shot unweighted averaging of local rank-k eigenspaces.

    Each shard contributes the projector of its top-k eigenvectors; the
    server averages the projectors and returns the top-k eigenpairs of the
    average.
    """
    if k > dataset.d:
        raise DimensionMismatch(f"k={k} exceeds d={dataset.d}")
    vecs, _ = dataset.local_eigenpairs(k)
    acc = np.zeros((dataset.d, dataset.d))
    for v_hat in vecs:
        acc += v_hat @ v_hat.T
    return linalg.top_eigenpairs(acc / dataset.m, k)


def wda(dataset: ShardedDataset, k: int) -> SvdResult:
    """Like :func:`uda` but each local eigenvector is weighted by its
    eigenvalue: the server averages ``v_hat diag(s) v_hat.T``."""
    if k > dataset.d:
        raise DimensionMismatch(f"k={k} exceeds d={dataset.d}")
    vecs, vals = dataset.local_eigenpairs(k)
    acc = np.zeros((dataset.d, dataset.d))
    for v_hat, s_hat in zip(vecs, vals):
        acc += (v_hat * s_hat) @ v_hat.T
    return linalg.top_eigenpairs(acc / dataset.m, k)


def dr_svd(dataset: ShardedDataset, k: int, seed: int) -> SvdResult:
    """One-shot distributed randomized SVD with sketch rank
    ``r = k + (d - k) // 4``.

    The sketch ``Y = A (A^T (A Omega))`` is formed right-to-left to avoid any
    n x n product. ``B = Q^T A`` is assembled shard by shard as
    ``sum_i Q_i^T A_i``. Note the range-finding step works on the assembled
    matrix, so unlike the iterative protocols this baseline does move raw
    data to one place.
    """
    d = dataset.d
    r = k + (d - k) // 4
    if dataset.n < r:
        raise DimensionMismatch(f"need n >= sketch rank {r}, got n={dataset.n}")
    omega = privacy.standard_gaussian(d, r, seed, (privacy.STREAM_INIT, 0, 1))
    a = dataset.stacked()
    y = a @ (a.T @ (a @ omega))
    q = linalg.orth(y, require_full_rank=False)
    b = np.zeros((r, d))
    offset = 0
    for shard in dataset.shards:
        rows = shard.shape[0]
        b += q[offset:offset + rows].T @ shard
        offset += rows
    res = linalg.svd(b)
    u_hat = q @ res.u
    return SvdResult(
        np.ascontiguousarray(u_hat[:, :k]),
        res.singular_values[:k].copy(),
        np.ascontiguousarray(res.v[:, :k]),
    )
