import numpy as np
import pytest

from fedpower import baselines, data, linalg
from fedpower.data import ShardedDataset, SyntheticSpec
from fedpower.engine import initial_basis
from fedpower.errors import DimensionMismatch
from reference import distributed_power, is_orthonormal, power_iterates, sharded_product


def random_orthonormal(rng, rows, cols):
    return linalg.orth(rng.standard_normal((rows, cols)))


# ---------------------------------------------------------------- power method


def test_power_method_identity_fixed_point():
    z0 = initial_basis(5, 2, seed=4)
    z_t = baselines.power_method(np.eye(5), 2, 25, seed=4)
    assert linalg.projection_distance(z_t, z0) <= 1e-10


def test_power_method_two_eigenvalue_decay():
    z_t = baselines.power_method(np.diag([9.0, 1.0]), 1, 30, seed=6)
    e1 = np.array([[1.0], [0.0]])
    assert linalg.sin_theta_k(z_t, e1) <= (1.0 / 9.0) ** 30 + 1e-12


def test_power_method_constructed_spectrum():
    rng = np.random.default_rng(44)
    v = random_orthonormal(rng, 10, 10)
    lam = np.array([8.0, 6.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.01])
    m = (v * lam) @ v.T
    z_t = baselines.power_method(m, 3, 100, seed=1)
    assert linalg.sin_theta_k(z_t, v[:, :3]) <= 1e-10


# ---------------------------------------------------------------- distributed power


def test_distributed_power_single_shard_exact():
    rng = np.random.default_rng(45)
    a = rng.standard_normal((40, 6))
    ds = data.partition(a, 1)
    z_d = distributed_power(ds, 2, 20, seed=3)
    z_p = baselines.power_method(ds.global_gram(), 2, 20, seed=3)
    np.testing.assert_array_equal(z_d, z_p)


def test_distributed_power_replicated_shards():
    rng = np.random.default_rng(46)
    block = rng.standard_normal((12, 5))
    ds = ShardedDataset((block.copy(), block.copy(), block.copy()))
    z_d = distributed_power(ds, 2, 25, seed=8)
    z_p = baselines.power_method(linalg.gram(block), 2, 25, seed=8)
    assert np.abs(z_d - z_p).max() <= 1e-12


def test_distributed_power_random_split_per_iteration():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((60, 8))
    ds = data.partition(a, 5, mode="shuffled", seed=12)
    z0 = initial_basis(8, 3, seed=21)
    m_global = ds.global_gram()
    for z_d, z_p in zip(
        power_iterates(lambda z: sharded_product(ds, z), z0, 30),
        power_iterates(m_global.__matmul__, z0, 30),
    ):
        assert np.abs(z_d - z_p).max() <= 1e-12


def test_distributed_power_applies_short_shards_through_their_rows():
    # 20 shards of 6 rows with d = 30: every shard is shorter than d/2, so no Gram stack is built.
    rng = np.random.default_rng(49)
    a = rng.standard_normal((120, 30)) * np.geomspace(4.0, 0.1, 30)
    ds = data.partition(a, 20, mode="shuffled", seed=13)
    z_final = distributed_power(ds, 4, 40, seed=22)
    assert "shard_grams" not in vars(ds)
    z0 = initial_basis(30, 4, seed=22)
    for z_d, z_p in zip(
        power_iterates(lambda z: sharded_product(ds, z), z0, 40),
        power_iterates(ds.global_gram().__matmul__, z0, 40),
    ):
        assert np.abs(z_d - z_p).max() <= 1e-12
    np.testing.assert_array_equal(z_final, z_d)


# ---------------------------------------------------------------- one-shot averaging


def test_uda_single_shard_matches_local_subspace():
    rng = np.random.default_rng(48)
    a = rng.standard_normal((30, 6))
    ds = data.partition(a, 1)
    res = baselines.uda(ds, 2)
    local = linalg.svd(linalg.gram(a)).u[:, :2]
    assert linalg.projection_distance(res.u, local) <= 1e-10


def test_uda_identical_shards():
    rng = np.random.default_rng(49)
    block = rng.standard_normal((15, 5))
    ds = ShardedDataset((block.copy(), block.copy()))
    res = baselines.uda(ds, 2)
    local = linalg.svd(linalg.gram(block)).u[:, :2]
    assert linalg.projection_distance(res.u, local) <= 1e-10


def aligned_eigen_shards(rng, d, k, eigenvalue_sets):
    """Shards sharing one eigenbasis, with per-shard top-k eigenvalues.

    Each shard is sqrt(s) * Q diag(sqrt(lam)) V.T with orthonormal Q, so its
    second-moment matrix is exactly V diag(lam) V.T.
    """
    v = random_orthonormal(rng, d, d)
    shards = []
    for lam_top in eigenvalue_sets:
        lam = np.concatenate([lam_top, np.geomspace(1e-2, 1e-3, d - k)])
        s = 2 * d
        q = random_orthonormal(rng, s, d)
        shards.append(np.sqrt(s) * q @ (np.sqrt(lam)[:, None] * v.T))
    return v, ShardedDataset(tuple(shards))


def test_wda_single_shard_exact_local_pairs():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((25, 5))
    ds = data.partition(a, 1)
    res = baselines.wda(ds, 3)
    local = linalg.svd(linalg.gram(a))
    assert linalg.projection_distance(res.u, local.u[:, :3]) <= 1e-10
    np.testing.assert_allclose(res.singular_values, local.singular_values[:3], rtol=1e-10)


def test_wda_matches_uda_on_aligned_top_subspaces():
    rng = np.random.default_rng(51)
    d, k = 6, 2
    v, ds = aligned_eigen_shards(
        rng, d, k, eigenvalue_sets=[np.array([5.0, 3.0]), np.array([4.0, 2.5]), np.array([6.0, 3.5])]
    )
    res_u = baselines.uda(ds, k)
    res_w = baselines.wda(ds, k)
    assert linalg.projection_distance(res_u.u, v[:, :k]) <= 1e-9
    assert linalg.projection_distance(res_w.u, res_u.u) <= 1e-9


def test_uda_wda_average_is_symmetric_psd():
    rng = np.random.default_rng(52)
    a = rng.standard_normal((40, 6))
    ds = data.partition(a, 4, mode="shuffled", seed=3)
    for algo in (baselines.uda, baselines.wda):
        res = algo(ds, 2)
        assert np.all(res.singular_values >= 0.0)
        assert np.all(np.diff(res.singular_values) <= 1e-12)


# ---------------------------------------------------------------- randomized svd


def test_dr_svd_recovers_exact_low_rank():
    spec = SyntheticSpec(n=120, d=24, singular_values=(5.0, 4.0, 3.0, 2.0, 1.0), seed=13)
    a = data.synth(spec)
    truth = linalg.svd(a).v[:, :5]
    ds = data.partition(a, 6, mode="shuffled", seed=14)
    res = baselines.dr_svd(ds, 5, seed=15)
    assert linalg.projection_distance(res.v, truth) <= 1e-9
    assert np.all(np.diff(res.singular_values) <= 1e-12)
    assert np.all(res.singular_values >= 0.0)
    assert is_orthonormal(res.u) and is_orthonormal(res.v)


def test_dr_svd_block_sum_identity():
    rng = np.random.default_rng(53)
    a = rng.standard_normal((50, 7))
    ds = data.partition(a, 4, mode="shuffled", seed=16)
    stacked = ds.stacked()
    q = random_orthonormal(rng, 50, 3)
    assembled = np.zeros((3, 7))
    offset = 0
    for shard in ds.shards:
        assembled += q[offset:offset + shard.shape[0]].T @ shard
        offset += shard.shape[0]
    np.testing.assert_allclose(assembled, q.T @ stacked, atol=1e-12)


def test_dr_svd_requires_enough_rows():
    a = np.random.default_rng(54).standard_normal((4, 30))
    ds = data.partition(a, 2)
    with pytest.raises(Exception):
        baselines.dr_svd(ds, 2, seed=1)


# ---------------------------------------------------------------- library guards

GUARDS = {
    "uda k above d": (lambda: baselines.uda(data.partition(np.eye(3), 1), 4), DimensionMismatch, "k=4 exceeds d=3"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
