"""Metamorphic invariants: transformations of the data or the schedule that
the maths says leave a run's diagnostics unchanged (scaling, doubling every
shard's rows, the period of identical shards) or map its bases exactly
(rotating the features by an orthogonal Q). That a run of one worker is the
power method at any period is a row of test_engine's reference table."""

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
        alignment=alignment, seed=5, record_every_step=True, keep_basis_history=True,
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


def _records(trace) -> np.ndarray:
    return np.array([(r.t, r.sin_theta_k, r.rho_t) for r in trace.records])


def _history(trace) -> np.ndarray:
    return np.array([z for _, z in trace.basis_history])


@pytest.mark.parametrize("alignment", ["none", "sign_fix", "opt"])
def test_identical_shards_give_the_same_noiseless_trace_at_any_period(alignment):
    # eta = 0: every worker's local step is the global power step, so rounds change nothing.
    ds = ShardedDataset(tuple(MATRIX[:60].copy() for _ in range(3)))
    traces = [engine.run(ds, _noiseless(alignment, p, horizon=20)) for p in (1, 2, 5, 50)]
    for trace in traces[1:]:
        assert np.abs(_records(trace) - _records(traces[0])).max() <= 1e-12
        assert np.abs(_history(trace) - _history(traces[0])).max() <= 1e-12


# Four shards of 60 rows with d = 12 (Gram path), and ten of 6-7 rows with d = 30, whose doubled shards
# of 12-14 rows stay shorter than d/2 (row path).
DOUBLED = {
    "gram": lambda: partition(MATRIX[:240], 4),
    "rows": lambda: partition(synth(SyntheticSpec(n=65, d=30, singular_values=tuple(np.geomspace(8.0, 0.1, 30)),
                                                  seed=11)), 10, mode="shuffled", seed=12),
}


@pytest.mark.parametrize("alignment", ["none", "sign_fix", "opt"])
@pytest.mark.parametrize("shards", DOUBLED.values(), ids=DOUBLED.keys())
def test_doubling_every_shards_rows_leaves_the_noiseless_trace_unchanged(shards, alignment):
    # [A_i; A_i] has the second moment A_i^T A_i / n_i and the data weight of A_i.
    plain = shards()
    doubled = ShardedDataset(tuple(np.vstack([s, s]) for s in plain.shards))
    cfg = _noiseless(alignment, p=3, horizon=12)
    want, got = engine.run(plain, cfg), engine.run(doubled, cfg)
    assert ("_row_factor" in vars(doubled)) == (2 * max(doubled.sizes) < doubled.d)
    assert np.abs(_records(got) - _records(want)).max() <= 1e-12
    assert np.abs(_history(got) - _history(want)).max() <= 1e-12
    assert abs(got.eta - want.eta) <= 1e-12
