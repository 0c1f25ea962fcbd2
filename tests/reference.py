"""Test helpers that only tests use: the power iterates of any product,
the distributed power method, the oracle the engine's every-step-sync runs
are checked against, and an orthonormality check."""

from __future__ import annotations

import numpy as np

from fedpower import linalg
from fedpower.data import ShardedDataset
from fedpower.engine import initial_basis

# Maximum entrywise deviation of Q.T @ Q from the identity for a basis to count as orthonormal.
ORTHO_TOL = 1e-10


def is_orthonormal(q) -> bool:
    q = np.asarray(q, dtype=np.float64)
    return bool(np.abs(q.T @ q - np.eye(q.shape[1])).max() <= ORTHO_TOL)


def power_iterates(apply, z0, steps):
    """Yield ``z <- orth(apply(z))`` ``steps`` times, from ``z0``."""
    z = z0
    for _ in range(steps):
        z = linalg.orth(apply(z))
        yield z


def sharded_product(dataset: ShardedDataset, z: np.ndarray) -> np.ndarray:
    """``sum_i p_i M_i z``, each ``M_i z`` formed by :meth:`ShardedDataset.local_products`."""
    return np.tensordot(dataset.weights, dataset.local_products(np.broadcast_to(z, (dataset.m, *z.shape))), axes=1)


def distributed_power(dataset: ShardedDataset, r: int, num_iterations: int, seed: int) -> np.ndarray:
    """Power method with the matrix product fanned out per shard.

    Every iteration aggregates ``sum_i p_i M_i z``, which equals the global
    ``M z``, so the trajectory matches ``baselines.power_method`` on the
    assembled second-moment matrix up to floating-point summation order. Each
    ``M_i z`` comes from :meth:`ShardedDataset.local_products`, as in the
    engine.
    """
    z = initial_basis(dataset.d, r, seed)
    for z in power_iterates(lambda y: sharded_product(dataset, y), z, num_iterations):
        pass
    return z
