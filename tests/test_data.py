import gzip

import numpy as np
import pytest

from fedpower import data, linalg
from fedpower.data import ShardedDataset, SyntheticSpec
from fedpower.errors import IndexOutOfRange, ParseError, TooManyShards


# ---------------------------------------------------------------- libsvm


def test_parse_basic_row(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("1 1:0.5 3:-1.2\n")
    matrix, labels = data.parse_libsvm(path, d=3)
    np.testing.assert_array_equal(matrix, [[0.5, 0.0, -1.2]])
    np.testing.assert_array_equal(labels, [1.0])


def test_parse_label_only_row(tmp_path):
    path = tmp_path / "empty.libsvm"
    path.write_text("0\n")
    matrix, labels = data.parse_libsvm(path, d=2)
    np.testing.assert_array_equal(matrix, [[0.0, 0.0]])
    np.testing.assert_array_equal(labels, [0.0])


def test_parse_infers_width(tmp_path):
    path = tmp_path / "w.libsvm"
    path.write_text("1 2:1.0\n-1 5:2.0\n")
    matrix, _ = data.parse_libsvm(path)
    assert matrix.shape == (2, 5)
    assert matrix[1, 4] == 2.0


def test_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    original = rng.standard_normal((20, 6))
    original[rng.random((20, 6)) < 0.3] = 0.0  # exercise sparsity
    labels = rng.integers(0, 2, 20).astype(float)
    path = tmp_path / "round.libsvm"
    data.write_libsvm(path, original, labels)
    matrix, got_labels = data.parse_libsvm(path, d=6)
    np.testing.assert_array_equal(matrix, original)
    np.testing.assert_array_equal(got_labels, labels)


def test_parse_gzip_transparent(tmp_path):
    path = tmp_path / "z.libsvm.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1 1:2.0\n")
    matrix, _ = data.parse_libsvm(path)
    np.testing.assert_array_equal(matrix, [[2.0]])


def test_parse_error_reports_line_and_offset(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("1 1:0.5\n1 oops\n")
    with pytest.raises(ParseError) as err:
        data.parse_libsvm(path)
    assert err.value.line == 2
    assert err.value.offset == len("1 1:0.5\n")


def test_parse_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "order.libsvm"
    path.write_text("1 2:1.0 2:2.0\n")
    with pytest.raises(ParseError):
        data.parse_libsvm(path)
    path.write_text("1 0:1.0\n")
    with pytest.raises(ParseError):
        data.parse_libsvm(path)


def test_parse_index_out_of_range(tmp_path):
    path = tmp_path / "wide.libsvm"
    path.write_text("1 4:1.0\n")
    with pytest.raises(IndexOutOfRange):
        data.parse_libsvm(path, d=3)


# ---------------------------------------------------------------- scaling


def test_scale_features_examples():
    a = np.array([[-5.0, 0.0, 0.0], [5.0, 10.0, 0.0]])
    scaled = data.scale_features(a)
    np.testing.assert_array_equal(scaled[:, 0], [-1.0, 1.0])
    np.testing.assert_array_equal(scaled[:, 1], [0.0, 1.0])
    np.testing.assert_array_equal(scaled[:, 2], [0.0, 0.0])
    assert np.abs(scaled).max() <= 1.0


def test_scale_features_idempotent():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((15, 4)) * 7.0
    once = data.scale_features(a)
    twice = data.scale_features(once)
    np.testing.assert_array_equal(once, twice)


# ---------------------------------------------------------------- partitioning


def test_partition_remainder_rule():
    a = np.arange(30.0).reshape(10, 3)
    ds = data.partition(a, 3)
    assert ds.sizes == (4, 3, 3)
    np.testing.assert_array_equal(ds.stacked(), a)  # contiguous keeps order


def test_partition_single_shard():
    a = np.arange(8.0).reshape(4, 2)
    ds = data.partition(a, 1)
    np.testing.assert_array_equal(ds.shards[0], a)


def test_partition_shuffled_deterministic_and_preserves_rows():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((11, 2))
    ds1 = data.partition(a, 4, mode="shuffled", seed=5)
    ds2 = data.partition(a, 4, mode="shuffled", seed=5)
    for s1, s2 in zip(ds1.shards, ds2.shards):
        np.testing.assert_array_equal(s1, s2)
    # multiset of rows preserved
    original = sorted(map(tuple, a))
    scattered = sorted(map(tuple, ds1.stacked()))
    assert original == scattered


def test_partition_too_many_shards():
    with pytest.raises(TooManyShards):
        data.partition(np.ones((3, 2)), 4)


def test_partition_shuffled_requires_seed():
    with pytest.raises(ValueError):
        data.partition(np.ones((4, 2)), 2, mode="shuffled")


def test_weights_and_gram_identity():
    rng = np.random.default_rng(34)
    a = rng.standard_normal((23, 5))
    ds = data.partition(a, 4, mode="shuffled", seed=2)
    assert abs(ds.weights.sum() - 1.0) <= 1e-12
    # sum of weighted shard grams equals the global second-moment matrix
    assembled = sum(w * linalg.gram(s) for w, s in zip(ds.weights, ds.shards))
    direct = (a.T @ a) / a.shape[0]
    assert np.abs(assembled - direct).max() <= 1e-12


def test_global_gram_is_the_weighted_sum_of_shard_grams():
    a = np.random.default_rng(35).standard_normal((61, 7)) * np.geomspace(10.0, 0.1, 7)
    ds = data.partition(a, 5, mode="shuffled", seed=3)
    direct = linalg.gram(ds.stacked())
    assert np.abs(ds.global_gram() - direct).max() <= 1e-12 * np.abs(direct).max()


# ---------------------------------------------------------------- synthetic


def test_synth_matches_spectrum():
    spec = SyntheticSpec(n=6, d=4, singular_values=(3.0, 2.0, 1.0), seed=1)
    a = data.synth(spec)
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sv[:3], [3.0, 2.0, 1.0], rtol=1e-9)
    assert sv[3] <= 1e-9


def test_synth_rank_one():
    a = data.synth(SyntheticSpec(n=5, d=3, singular_values=(1.0,), seed=2))
    sv = np.linalg.svd(a, compute_uv=False)
    assert abs(sv[0] - 1.0) <= 1e-10
    assert sv[1:].max() <= 1e-10


def test_synth_deterministic():
    spec = SyntheticSpec(n=7, d=5, singular_values=(2.0, 1.0), seed=9)
    np.testing.assert_array_equal(data.synth(spec), data.synth(spec))


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=4, d=4, singular_values=(1.0, 2.0))  # increasing
    with pytest.raises(ValueError):
        SyntheticSpec(n=4, d=4, singular_values=(1.0, -1.0))
    with pytest.raises(Exception):
        SyntheticSpec(n=2, d=2, singular_values=(3.0, 2.0, 1.0))  # too many


def test_sharded_dataset_validation():
    with pytest.raises(Exception):
        ShardedDataset((np.ones((2, 3)), np.ones((2, 4))))
    with pytest.raises(Exception):
        ShardedDataset(())
