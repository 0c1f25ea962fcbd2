import math

import numpy as np
import pytest

from fedpower import linalg
from fedpower.errors import ConvergenceFailure, DimensionMismatch, FedPowerError, NonFinite, RankDeficient
from reference import is_orthonormal


def gram_schmidt(y):
    """Independent modified Gram-Schmidt oracle for column orthonormalization."""
    y = np.array(y, dtype=float)
    q = np.zeros_like(y)
    for j in range(y.shape[1]):
        v = y[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        for i in range(j):  # second pass for numerical safety
            v -= (q[:, i] @ v) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


def random_basis(rng, d, r):
    return linalg.orth(rng.standard_normal((d, r)))


# ---------------------------------------------------------------- orth


def test_orth_identity_columns_unchanged():
    y = np.eye(3)[:, :2]
    np.testing.assert_allclose(linalg.orth(y), y, atol=1e-15)


def test_orth_removes_diagonal_scaling():
    y = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(linalg.orth(y), expected, atol=1e-15)


def test_orth_matches_gram_schmidt_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        y = rng.standard_normal((5, 2))
        q = linalg.orth(y)
        oracle = gram_schmidt(y)
        assert linalg.projection_distance(q, oracle) <= 1e-10
        assert is_orthonormal(q)


def test_orth_deterministic_with_nonnegative_pivots():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((8, 4))
    q1 = linalg.orth(y)
    q2 = linalg.orth(y.copy())
    np.testing.assert_array_equal(q1, q2)
    r = q1.T @ y
    assert np.all(np.diagonal(r) >= 0.0)


def test_orth_rank_deficient_raises():
    y = np.ones((4, 2))  # second column repeats the first
    with pytest.raises(RankDeficient):
        linalg.orth(y)
    with pytest.raises(RankDeficient):
        linalg.orth(np.zeros((3, 2)))
    # lenient mode still returns an orthonormal basis
    q = linalg.orth(y, require_full_rank=False)
    assert is_orthonormal(q)


def test_orth_rank_check_scales_with_the_norm_of_y():
    # The threshold is RANK_TOL * ||R||_2, equal to RANK_TOL * ||y||_2 in exact arithmetic; the small
    # cases are in test_orth_rank_deficient_raises and test_orth_stack_rank_check_names_the_slice.
    rng = np.random.default_rng(82)
    tall = rng.standard_normal((2000, 3))
    tall[:, 2] = tall[:, 0] - 2.0 * tall[:, 1]
    for y in (tall, 3.0 * np.diag([1.0, 0.5e-12])):
        with pytest.raises(RankDeficient):
            linalg.orth(y)
    assert is_orthonormal(linalg.orth(3.0 * np.diag([1.0, 2e-12])))  # just above the threshold
    stack = rng.standard_normal((4, 2000, 3))
    stack[3] = tall
    with pytest.raises(RankDeficient, match="slice 3"):
        linalg.orth(stack)


def test_orth_rejects_wide_input():
    with pytest.raises(DimensionMismatch):
        linalg.orth(np.ones((2, 3)))


# ---------------------------------------------------------------- gram


def test_gram_identity():
    np.testing.assert_allclose(linalg.gram(np.eye(2)), 0.5 * np.eye(2), atol=1e-15)


def test_gram_small_example():
    shard = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(linalg.gram(shard), [[5.0, 7.0], [7.0, 10.0]], atol=1e-12)


def test_gram_zero():
    np.testing.assert_array_equal(linalg.gram(np.zeros((3, 2))), np.zeros((2, 2)))


def test_gram_symmetric_psd():
    rng = np.random.default_rng(3)
    g = linalg.gram(rng.standard_normal((9, 4)))
    assert np.abs(g - g.T).max() <= 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-12


# ---------------------------------------------------------------- svd


def test_svd_diagonal():
    res = linalg.svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(res.u), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(res.v), np.eye(3), atol=1e-12)


def test_svd_rank_one():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    res = linalg.svd(np.outer(u, v))
    assert abs(res.singular_values[0] - 1.0) <= 1e-12
    assert res.singular_values[1:].max() <= 1e-12


def test_svd_reconstruction_and_ordering():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 4))
    res = linalg.svd(a)
    recon = res.u @ np.diag(res.singular_values) @ res.v.T
    scale = np.linalg.norm(a, 2)
    assert np.linalg.norm(a - recon, 2) <= 1e-9 * scale
    sv = res.singular_values
    assert np.all(sv >= 0.0)
    assert np.all(np.diff(sv) <= 0.0)


def test_svd_failure_is_signalled(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(ConvergenceFailure):
        linalg.svd(np.eye(2))


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------- subspace distances


def test_projection_distance_identical():
    rng = np.random.default_rng(5)
    u = random_basis(rng, 6, 2)
    assert linalg.projection_distance(u, u) <= 1e-14


def test_projection_distance_orthogonal_subspaces():
    u = np.array([[1.0], [0.0]])
    v = np.array([[0.0], [1.0]])
    assert abs(linalg.projection_distance(u, v) - 1.0) <= 1e-14


def test_projection_distance_plane_angle():
    theta = 0.3
    u = np.array([[1.0], [0.0]])
    v = np.array([[math.cos(theta)], [math.sin(theta)]])
    assert abs(linalg.projection_distance(u, v) - math.sin(theta)) <= 1e-12


def test_projection_distance_matches_projector_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = random_basis(rng, 7, 3)
        v = random_basis(rng, 7, 3)
        direct = np.linalg.norm(u @ u.T - v @ v.T, 2)
        got = linalg.projection_distance(u, v)
        assert abs(got - direct) <= 1e-10
        assert 0.0 <= got <= 1.0


def test_projection_distance_is_a_metric():
    rng = np.random.default_rng(9)
    for _ in range(30):
        u = random_basis(rng, 6, 2)
        v = random_basis(rng, 6, 2)
        w = random_basis(rng, 6, 2)
        assert linalg.projection_distance(u, v) == linalg.projection_distance(v, u)
        duv = linalg.projection_distance(u, v)
        duw = linalg.projection_distance(u, w)
        dwv = linalg.projection_distance(w, v)
        assert duv <= duw + dwv + 1e-10


def test_projection_distance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.projection_distance(np.eye(3)[:, :1], np.eye(3)[:, :2])


def test_sin_theta_contained_and_orthogonal():
    rng = np.random.default_rng(10)
    v = random_basis(rng, 6, 2)
    z = linalg.orth(np.hstack([v, rng.standard_normal((6, 2))]))  # span(z) contains span(v)
    assert linalg.sin_theta_k(z, v) <= 1e-10
    u = np.eye(4)[:, :2]
    w = np.eye(4)[:, 2:]
    assert abs(linalg.sin_theta_k(u, w) - 1.0) <= 1e-14


def test_sin_theta_matches_projector_oracle():
    rng = np.random.default_rng(13)
    z = random_basis(rng, 6, 3)
    v = random_basis(rng, 6, 2)
    oracle = np.linalg.norm((np.eye(6) - z @ z.T) @ v, 2)
    assert abs(linalg.sin_theta_k(z, v, k=2) - oracle) <= 1e-12


def test_sin_theta_equals_projection_distance_for_equal_rank():
    rng = np.random.default_rng(14)
    z = random_basis(rng, 8, 3)
    v = random_basis(rng, 8, 3)
    assert abs(linalg.sin_theta_k(z, v) - linalg.projection_distance(z, v)) <= 1e-10


def test_sin_theta_rank_validation():
    with pytest.raises(DimensionMismatch):
        linalg.sin_theta_k(np.eye(4)[:, :1], np.eye(4)[:, :2])


# ---------------------------------------------------------------- alignment


def test_procrustes_identity_and_reflection():
    rng = np.random.default_rng(15)
    z = random_basis(rng, 5, 3)
    np.testing.assert_allclose(linalg.procrustes(z, z), np.eye(3), atol=1e-12)
    flip = np.diag([1.0, -1.0, 1.0])
    np.testing.assert_allclose(linalg.procrustes(z @ flip, z), flip, atol=1e-12)


def sweep_candidates(samples=3600):
    """All 2x2 rotations and reflections on a parameter grid."""
    angles = np.linspace(0.0, 2.0 * math.pi, samples // 2, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    rotations = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    reflections = np.stack([np.stack([c, s], axis=1), np.stack([s, -c], axis=1)], axis=1)
    return np.concatenate([rotations, reflections], axis=0)


def test_procrustes_beats_orthogonal_sweep():
    rng = np.random.default_rng(16)
    candidates = sweep_candidates()
    for _ in range(10):
        z_i = random_basis(rng, 4, 2)
        z_b = random_basis(rng, 4, 2)
        d = linalg.procrustes(z_i, z_b)
        best = np.linalg.norm(z_i @ d - z_b, "fro")
        objective = np.linalg.norm(np.einsum("ij,cjk->cik", z_i, candidates) - z_b, axis=(1, 2))
        assert best <= objective.min() + 1e-12
        assert is_orthonormal(d)


def test_procrustes_rank_deficient_cross_gram():
    # orthogonal subspaces give a zero cross-Gram; result must still be orthogonal
    z_i = np.eye(6)[:, :2]
    z_b = np.eye(6)[:, 2:4]
    d = linalg.procrustes(z_i, z_b)
    assert is_orthonormal(d)


def _deficient_cross_grams(rng, d, r, ranks):
    """A (len(ranks), d, r) stack of orthonormal bases and one base z_b, the cross-Gram
    ``z_i.T @ z_b`` of slice i having rank ``ranks[i]`` < r."""
    q = random_basis(rng, d, 2 * r)
    z_b = q[:, :r] @ random_basis(rng, r, r)
    zs = np.stack([np.hstack([q[:, :k], q[:, r:2 * r - k]]) @ random_basis(rng, r, r) for k in ranks])
    return zs, z_b


def test_procrustes_is_orthogonal_to_rounding_on_deficient_cross_grams():
    # LAPACK's singular vectors are orthogonal to rounding whatever the rank, so D = W1 @ W2.T needs no
    # second orthonormalization; the bound is far tighter than ORTHO_TOL.
    rng = np.random.default_rng(84)
    for _ in range(300):
        r = int(rng.integers(1, 9))
        zs, z_b = _deficient_cross_grams(rng, 2 * r + int(rng.integers(0, 6)), r, [int(rng.integers(0, r))])
        d = linalg.procrustes(zs[0], z_b)
        assert np.abs(d.T @ d - np.eye(r)).max() <= 1e-14
    for r in range(1, 9):
        zs, z_b = _deficient_cross_grams(rng, 2 * r + 3, r, range(r))
        ds = linalg.procrustes(zs, z_b)
        assert np.abs(np.swapaxes(ds, 1, 2) @ ds - np.eye(r)).max() <= 1e-14


def test_sign_fix_examples():
    rng = np.random.default_rng(17)
    z = random_basis(rng, 5, 3)
    np.testing.assert_array_equal(linalg.sign_fix(z, z), np.eye(3))
    flip = np.diag([1.0, -1.0, 1.0])
    np.testing.assert_array_equal(linalg.sign_fix(z @ flip, z), flip)
    # zero inner product on a column breaks the tie toward +1
    z_i = np.eye(4)[:, :2]
    z_b = np.hstack([np.eye(4)[:, :1], np.eye(4)[:, 2:3]])
    d = linalg.sign_fix(z_i, z_b)
    assert d[1, 1] == 1.0


def test_procrustes_dominates_sign_fix_in_frobenius():
    rng = np.random.default_rng(18)
    for _ in range(50):
        z_i = random_basis(rng, 6, 3)
        z_b = random_basis(rng, 6, 3)
        d_opt = linalg.procrustes(z_i, z_b)
        d_sgn = linalg.sign_fix(z_i, z_b)
        f_opt = np.linalg.norm(z_i @ d_opt - z_b, "fro")
        f_sgn = np.linalg.norm(z_i @ d_sgn - z_b, "fro")
        assert f_opt <= f_sgn + 1e-12


def test_aligned_spectral_distance_sandwich():
    # dist(u, v) <= ||u - v @ procrustes(v, u)||_2 <= sqrt(2) dist(u, v)
    rng = np.random.default_rng(19)
    for _ in range(50):
        d_dim = int(rng.integers(3, 12))
        r = int(rng.integers(1, min(4, d_dim)))
        u = random_basis(rng, d_dim, r)
        v = random_basis(rng, d_dim, r)
        dist = linalg.projection_distance(u, v)
        aligned = np.linalg.norm(u - v @ linalg.procrustes(v, u), 2)
        assert dist <= aligned + 1e-9
        assert aligned <= math.sqrt(2.0) * dist + 1e-9


# ---------------------------------------------------------------- stacks


def _stack_with_deficient_slice(rng, k=5, d=8, r=3):
    y = rng.standard_normal((k, d, r))
    y[2, :, 2] = y[2, :, 0] + y[2, :, 1]  # rank 2 < r
    return y


def test_orth_stack_matches_slices_bit_for_bit():
    rng = np.random.default_rng(80)
    y = _stack_with_deficient_slice(rng)
    q = linalg.orth(y, require_full_rank=False)
    assert q.shape == y.shape
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(q[i], linalg.orth(y[i], require_full_rank=False))


def test_orth_stack_rank_check_names_the_slice():
    rng = np.random.default_rng(81)
    with pytest.raises(RankDeficient, match="slice 2"):
        linalg.orth(_stack_with_deficient_slice(rng))


def test_procrustes_stack_matches_slices_bit_for_bit():
    rng = np.random.default_rng(82)
    d, r = 8, 3
    z_b = np.eye(d)[:, :r]
    zs = np.stack([random_basis(rng, d, r) for _ in range(4)])
    zs[1] = np.eye(d)[:, r:2 * r]  # orthogonal to z_b: zero cross-Gram
    zs[3] = np.hstack([z_b[:, :1], np.eye(d)[:, r:r + 2]])  # cross-Gram of rank 1
    aligned = linalg.procrustes(zs, z_b)
    assert aligned.shape == (4, r, r)
    for i in range(zs.shape[0]):
        np.testing.assert_array_equal(aligned[i], linalg.procrustes(zs[i], z_b))
        assert is_orthonormal(aligned[i])


def test_sign_fix_stack_matches_slices_bit_for_bit():
    rng = np.random.default_rng(83)
    z_b = random_basis(rng, 6, 3)
    zs = np.stack([z_b @ np.diag(s) for s in ([1, -1, 1], [-1, -1, 1])])
    zs = np.concatenate([zs, random_basis(rng, 6, 3)[None]])
    zs[2, :, 1] = 0.0  # zero inner product resolves to +1
    signs = linalg.sign_fix(zs, z_b)
    assert signs[2, 1, 1] == 1.0
    for i in range(zs.shape[0]):
        np.testing.assert_array_equal(signs[i], linalg.sign_fix(zs[i], z_b))


def test_stacks_with_two_leading_axes_match_slices_bit_for_bit():
    # A (B, m, d, r) stack: one (m, d, r) stack of worker bases per privacy budget, each aligned
    # to its own baseline of shape (B, 1, d, r).
    rng = np.random.default_rng(84)
    zs = np.stack([np.stack([random_basis(rng, 7, 3) for _ in range(4)]) for _ in range(2)])
    bases = zs[:, 2, None]
    q = linalg.orth(zs + 0.1)
    svd = linalg.svd(zs)
    aligned = {fn: fn(zs, bases) for fn in (linalg.procrustes, linalg.sign_fix)}
    for b in range(2):
        for i in range(4):
            np.testing.assert_array_equal(q[b, i], linalg.orth(zs[b, i] + 0.1))
            for got, want in zip(svd, linalg.svd(zs[b, i])):
                np.testing.assert_array_equal(got[b, i], want)
            for fn, stack in aligned.items():
                np.testing.assert_array_equal(stack[b, i], fn(zs[b, i], zs[b, 2]))
    zs[1, 2, 0, 0] = np.nan
    with pytest.raises(NonFinite, match=r"slices \[6\]"):  # numbered in C order
        linalg.orth(zs)


def test_orth_and_svd_reject_non_finite_with_named_error():
    y = np.ones((3, 4, 2))
    y[1, 0, 0] = np.inf
    with pytest.raises(NonFinite, match=r"slices \[1\]"):
        linalg.orth(y, require_full_rank=False)
    with pytest.raises(NonFinite):
        linalg.orth(np.full((4, 2), np.nan), require_full_rank=False)
    with pytest.raises(NonFinite):
        linalg.svd(y)
    assert issubclass(NonFinite, FedPowerError)


# ---------------------------------------------------------------- library guards

GUARDS = {
    "vector as matrix": (lambda: linalg.as_matrix(np.ones(3)), DimensionMismatch,
                         "expected a 2-D array, got shape (3,)"),
    "orth of a vector": (lambda: linalg.orth(np.ones(3)), DimensionMismatch,
                         "expected a matrix or a stack of matrices, got shape (3,)"),
    "gram of no rows": (lambda: linalg.gram(np.ones((0, 3))), DimensionMismatch, "shard must contain at least one row"),
    "k above the reference": (lambda: linalg.sin_theta_k(np.eye(3)[:, :2], np.eye(3)[:, :2], k=3), DimensionMismatch,
                              "k=3 exceeds reference width 2"),
    "ambient dimensions": (lambda: linalg.sin_theta_k(np.eye(4)[:, :2], np.eye(3)[:, :2]), DimensionMismatch,
                           "ambient dimensions differ: 4 vs 3"),
    "alignment operands": (lambda: linalg.procrustes(np.eye(3)[:, :2], np.eye(3)), DimensionMismatch,
                           "alignment operands differ in shape: (3, 2) vs (3, 3)"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
