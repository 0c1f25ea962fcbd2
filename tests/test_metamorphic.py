"""Metamorphic invariants: transformations of the data that the maths says
leave a run's diagnostics unchanged (scaling) or map its bases exactly
(rotating the features by an orthogonal Q)."""

import math

import numpy as np
import pytest

from fedpower import baselines, engine, linalg
from fedpower.data import ShardedDataset, SyntheticSpec, partition, synth
from fedpower.privacy import PrivacyConfig

MATRIX = synth(SyntheticSpec(n=300, d=12, singular_values=tuple(np.geomspace(8.0, 0.1, 12)), seed=9))


def _dataset(matrix):
    return partition(matrix, 6, mode="shuffled", seed=4)


def _noiseless(alignment: str, p: int = 4, horizon: int = 40) -> engine.RunConfig:
    schedule = engine.SyncSchedule.fixed(p, horizon)
    return engine.RunConfig(
        k=3, r=4, schedule=schedule, privacy=PrivacyConfig.for_schedule(math.inf, 1e-5, schedule),
        alignment=alignment, seed=5, record_every_step=True,
    )


def _diagnostics(matrix, cfg) -> np.ndarray:
    trace = engine.run(_dataset(matrix), cfg)
    return np.array([(r.sin_theta_k, r.rho_t, trace.eta) for r in trace.records])


@pytest.mark.parametrize("alignment", ["none", "sign_fix", "opt"])
def test_scaling_the_data_leaves_every_diagnostic_unchanged(alignment):
    cfg = _noiseless(alignment)
    base = _diagnostics(MATRIX, cfg)
    assert np.array_equal(_diagnostics(2.0 * MATRIX, cfg), base)  # a power of two is exact
    assert np.abs(_diagnostics(3.0 * MATRIX, cfg) - base).max() <= 1e-12


def _rotation(d: int) -> np.ndarray:
    return linalg.orth(np.random.default_rng(13).standard_normal((d, d)))


def test_rotating_features_keeps_eta_and_maps_one_shot_bases():
    q = _rotation(MATRIX.shape[1])
    plain, rotated = _dataset(MATRIX), _dataset(MATRIX @ q)
    assert abs(rotated.eta - plain.eta) <= 1e-12
    for method in (baselines.uda, baselines.wda):
        want, got = method(plain, 3), method(rotated, 3)
        assert linalg.projection_distance(got.u, q.T @ want.u) <= 1e-10
        assert np.abs(got.singular_values - want.singular_values).max() <= 1e-10


def test_rotating_features_keeps_the_converged_error():
    q = _rotation(MATRIX.shape[1])
    cfg = _noiseless(engine.ALIGN_OPT, p=2, horizon=200)
    plain = engine.run(_dataset(MATRIX), cfg).records[-1].sin_theta_k
    rotated = engine.run(_dataset(MATRIX @ q), cfg).records[-1].sin_theta_k
    assert abs(rotated - plain) <= 1e-10


def test_permuting_shards_leaves_the_global_gram_unchanged():
    plain = _dataset(MATRIX)
    order = np.random.default_rng(17).permutation(plain.m)
    permuted = ShardedDataset(tuple(plain.shards[i] for i in order))
    want = plain.global_gram()
    assert np.abs(permuted.global_gram() - want).max() <= 1e-12 * np.abs(want).max()
