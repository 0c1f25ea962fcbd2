"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured margin. Run with ``pytest tests/test_acceptance.py -v -s``."""

import math

import numpy as np

from fedpower import baselines, cli, data, engine, linalg, privacy
from fedpower.cli import ExperimentConfig
from fedpower.data import SyntheticSpec
from fedpower.engine import RunConfig, SyncSchedule
from fedpower.privacy import PrivacyConfig
from reference import power_iterates, sharded_product


def noiseless(schedule):
    return PrivacyConfig.for_schedule(math.inf, 1e-5, schedule)


def drifting_matrix(n, d, k, seed, drift, sig, tail):
    """Rows whose covariance frame rotates steadily with the row index, so a
    contiguous split yields genuinely heterogeneous shards (rows arrive
    sorted by the drift key)."""
    rng = np.random.default_rng(seed)
    base = linalg.orth(rng.standard_normal((d, d)))
    scales = np.concatenate([np.geomspace(sig[0], sig[1], k), np.geomspace(tail[0], tail[1], d - k)])
    y = rng.standard_normal((n, d)) * scales
    f = np.linspace(-0.5, 0.5, n) * drift
    c, s = np.cos(f), np.sin(f)
    for a, b in ((0, k), (1, k + 1)):
        ya, yb = y[:, a].copy(), y[:, b].copy()
        y[:, a] = c * ya - s * yb
        y[:, b] = s * ya + c * yb
    return y @ base.T


def top_k_reference(matrix, k):
    return linalg.svd(linalg.gram(matrix)).u[:, :k]


def test_c01_distributed_power_matches_assembled_power_method():
    spec = SyntheticSpec(n=400, d=30, singular_values=tuple(np.geomspace(6.0, 0.2, 30)), seed=77)
    a = data.synth(spec)
    worst = 0.0
    for split in range(5):
        ds = data.partition(a, 4 + split, mode="shuffled", seed=split)
        z0 = engine.initial_basis(30, 5, seed=split + 7)
        m_global = ds.global_gram()
        for z_dist, z_power in zip(
            power_iterates(lambda z: sharded_product(ds, z), z0, 50),
            power_iterates(m_global.__matmul__, z0, 50),
        ):
            worst = max(worst, float(np.abs(z_dist - z_power).max()))
    assert worst <= 1e-12
    print(f"[acceptance] C01 PASS: per-iteration deviation {worst:.3e} <= 1e-12")


def test_c02_noiseless_convergence_every_step_sync():
    sv = tuple(np.geomspace(9.0, 3.0, 5)) + tuple(np.geomspace(1.0, 0.05, 45))
    assert abs(sv[4] / sv[5] - 3.0) < 1e-12  # gap pinned at 3
    a = data.synth(SyntheticSpec(n=1000, d=50, singular_values=sv, seed=11))
    ds = data.partition(a, 10, mode="shuffled", seed=12)
    schedule = SyncSchedule.fixed(1, 200)
    cfg = RunConfig(k=5, r=5, schedule=schedule, privacy=noiseless(schedule),
                    alignment="sign_fix", seed=13)
    trace = engine.run_full(ds, cfg, reference=top_k_reference(a, 5))
    final = trace.records[-1].sin_theta_k
    assert final <= 1e-10
    print(f"[acceptance] C02 PASS: final sin theta {final:.3e} <= 1e-10")


def test_c03_housing_scale_decaying_schedule():
    # 506 x 13 with 100 workers: shards of five or six rows, so local products
    # are rank deficient and the decaying schedule has to recover the rest
    sv = (10.0, 8.0, 6.5, 5.0, 4.0, 1.2, 0.9, 0.7, 0.5, 0.35, 0.25, 0.15, 0.1)
    a = data.scale_features(data.synth(SyntheticSpec(n=506, d=13, singular_values=sv, seed=21)))
    ds = data.partition(a, 100, mode="shuffled", seed=22)
    assert ds.min_shard_size == 5
    schedule = SyncSchedule.decaying(4, 40)
    cfg = RunConfig(k=5, r=10, schedule=schedule, privacy=noiseless(schedule),
                    alignment="sign_fix", seed=23)
    trace = engine.run_full(ds, cfg, reference=top_k_reference(a, 5))
    min_sin = min(rec.sin_theta_k for rec in trace.records)
    assert min_sin <= 1e-10
    print(f"[acceptance] C03 PASS: min sin theta over 40 iterations {min_sin:.3e} <= 1e-10")


def test_c04_local_iteration_tradeoff():
    early = {1: [], 8: []}
    final = {1: [], 8: []}
    for seed in range(10):
        a = drifting_matrix(1000, 20, 5, seed=seed + 100, drift=0.6,
                            sig=(3.0, 1.5), tail=(1.2, 0.05))
        ds = data.partition(a, 20, mode="contiguous")
        reference = top_k_reference(a, 5)
        for p in (1, 8):
            schedule = SyncSchedule.fixed(p, 200)
            cfg = RunConfig(k=5, r=5, schedule=schedule, privacy=noiseless(schedule),
                            alignment="sign_fix", seed=seed + 500)
            trace = engine.run_full(ds, cfg, reference=reference)
            early[p].append(next(r.sin_theta_k for r in trace.records if r.comm_count == 3))
            final[p].append(trace.records[-1].sin_theta_k)
    early_1, early_8 = np.median(early[1]), np.median(early[8])
    final_1, final_8 = np.median(final[1]), np.median(final[8])
    assert early_8 <= early_1  # more local work converges faster per communication
    assert final_1 <= final_8  # but p=1 wins eventually (no residual floor)
    print(
        "[acceptance] C04 PASS: after 3 comms err(p=8)="
        f"{early_8:.3f} <= err(p=1)={early_1:.3f}; final err(p=1)={final_1:.2e}"
        f" <= err(p=8)={final_8:.2e}"
    )


def test_c05_partial_full_cohort_reduction():
    a = data.synth(SyntheticSpec(n=240, d=16, singular_values=tuple(np.geomspace(7.0, 0.3, 16)), seed=31))
    ds = data.partition(a, 6, mode="shuffled", seed=32)  # equal shard sizes
    schedule = SyncSchedule.fixed(3, 30)
    common = dict(k=4, r=4, schedule=schedule, privacy=noiseless(schedule),
                  alignment="sign_fix", seed=33, keep_basis_history=True)
    trace_full = engine.run_full(ds, RunConfig(**common))
    trace_part = engine.run_partial(
        ds, RunConfig(participation=engine.Participation("partial", 6, 2), **common)
    )
    worst = max(
        float(np.abs(zf - zp).max())
        for (_, zf), (_, zp) in zip(trace_full.basis_history, trace_part.basis_history)
    )
    assert worst <= 1e-12
    print(f"[acceptance] C05 PASS: full-cohort scheme-2 trajectory deviation {worst:.3e} <= 1e-12")


def test_c06_scheme1_sampling_unbiased():
    rng_state = np.random.default_rng(62)
    m, d, r, count = 6, 5, 2, 3
    weights = rng_state.random(m) + 0.2
    weights /= weights.sum()
    ys = [rng_state.standard_normal((d, r)) for _ in range(m)]
    target = sum(w * y for w, y in zip(weights, ys))
    draws = 10_000
    rng = privacy.stream(41, (privacy.STREAM_SAMPLER, 0, 0))
    agg = np.empty((draws, d, r))
    for it in range(draws):
        ids = engine.draw_participants(1, count, weights, rng)
        agg[it] = sum(ys[i] for i in ids) / count
    deviation = np.abs(agg.mean(axis=0) - target)
    stderr = agg.std(axis=0) / math.sqrt(draws)
    assert np.all(deviation <= 4.0 * stderr)
    worst = float((deviation / stderr).max())
    print(f"[acceptance] C06 PASS: worst entry deviation {worst:.2f} standard errors (<= 4)")


def test_c07_procrustes_closed_form_optimal():
    rng = np.random.default_rng(71)
    angles = np.linspace(0.0, 2.0 * math.pi, 1800, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    rotations = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    reflections = np.stack([np.stack([c, s], axis=1), np.stack([s, -c], axis=1)], axis=1)
    candidates = np.concatenate([rotations, reflections], axis=0)  # 3600 orthogonal 2x2
    margin = -np.inf
    for _ in range(100):
        z_i = linalg.orth(rng.standard_normal((6, 2)))
        z_b = linalg.orth(rng.standard_normal((6, 2)))
        d_opt = linalg.procrustes(z_i, z_b)
        best = np.linalg.norm(z_i @ d_opt - z_b, "fro")
        swept = np.linalg.norm(np.einsum("ij,cjk->cik", z_i, candidates) - z_b, axis=(1, 2))
        sign_obj = np.linalg.norm(z_i @ linalg.sign_fix(z_i, z_b) - z_b, "fro")
        assert best <= swept.min() + 1e-12
        assert best <= sign_obj + 1e-12
        margin = max(margin, best - swept.min())
    print(f"[acceptance] C07 PASS: closed form beats 3600-candidate sweep (max excess {margin:.2e})")


def test_c08_aligned_distance_sandwich():
    rng = np.random.default_rng(81)
    checked = 0
    worst_low, worst_high = 0.0, 0.0
    while checked < 200:
        for d_dim in (4, 10, 30):
            for r in (1, 3):
                u = linalg.orth(rng.standard_normal((d_dim, r)))
                v = linalg.orth(rng.standard_normal((d_dim, r)))
                dist = linalg.projection_distance(u, v)
                aligned = float(np.linalg.norm(u - v @ linalg.procrustes(v, u), 2))
                assert dist <= aligned + 1e-9
                assert aligned <= math.sqrt(2.0) * dist + 1e-9
                worst_low = max(worst_low, dist - aligned)
                worst_high = max(worst_high, aligned - math.sqrt(2.0) * dist)
                checked += 1
    print(
        f"[acceptance] C08 PASS: sandwich on {checked} pairs "
        f"(slack {worst_low:.2e} / {worst_high:.2e} within 1e-9)"
    )


def test_c09_noise_calibration_and_accounting():
    # local scale formula, hand evaluated
    cfg = PrivacyConfig(epsilon=1.0, delta=1.25 / math.e, rounds=1)
    scales = privacy.scales_full(cfg, min_shard=1, max_weight=0.5)
    assert abs(scales.sigma_local - math.sqrt(2.0)) <= 1e-12
    assert abs(scales.sigma_server - 0.5 * math.sqrt(2.0)) <= 1e-12
    # partial-participation scales, hand evaluated (log argument 25)
    weights = np.concatenate([[0.1], np.full(11, 0.9 / 11)])
    cfg_p = PrivacyConfig(epsilon=1.0, delta=0.01, rounds=2)
    sc = privacy.scales_partial(cfg_p, min_shard=10, weights=weights, count=3, scheme=1)
    assert abs(sc.sigma_local - 0.2 * math.sqrt(2.0 * math.log(25.0))) <= 1e-12
    root = math.sqrt(2.0 * math.log(1.25 * 2 / 0.01))
    assert abs(sc.sigma_server - 2.0 / 30.0 * root) <= 1e-12
    sc2 = privacy.scales_partial(cfg_p, min_shard=10, weights=weights, count=3, scheme=2)
    assert abs(sc2.sigma_server - 2.0 * 12 * 0.1 / 30.0 * root) <= 1e-12
    # sampled noise standard deviation over 1e6 draws
    draws = privacy.sample_noise(1000, 1000, 1.0, seed=2024, key=(1, 0, 0))
    std = float(draws.std())
    assert 0.9986 <= std <= 1.0014
    # end-of-run accounting composes to (2 eps, 2 delta)
    acct = PrivacyConfig(epsilon=0.8, delta=1e-4, rounds=6)
    assert privacy.account(acct) == (1.6, 2e-4)
    print(f"[acceptance] C09 PASS: scale formulas exact, empirical std {std:.5f}, account=(2eps, 2delta)")


def test_c10_one_shot_methods_trail_converged_runs():
    etas, fed, one_u, one_w = [], [], [], []
    for seed in range(10):
        a = drifting_matrix(1000, 20, 5, seed=seed, drift=0.6, sig=(3.0, 1.5), tail=(0.35, 0.05))
        ds = data.partition(a, 20, mode="contiguous")
        etas.append(engine.local_approx_eta(ds))
        reference = top_k_reference(a, 5)
        schedule = SyncSchedule.decaying(4, 150)
        cfg = RunConfig(k=5, r=5, schedule=schedule, privacy=noiseless(schedule),
                        alignment="opt", seed=seed + 50)
        fed.append(engine.run_full(ds, cfg, reference=reference).records[-1].sin_theta_k)
        one_u.append(linalg.projection_distance(baselines.uda(ds, 5).u, reference))
        one_w.append(linalg.projection_distance(baselines.wda(ds, 5).u, reference))
    assert min(etas) >= 0.3
    fed_mean, uda_mean, wda_mean = np.mean(fed), np.mean(one_u), np.mean(one_w)
    assert fed_mean <= 0.5 * uda_mean
    assert fed_mean <= 0.5 * wda_mean
    print(
        f"[acceptance] C10 PASS: eta >= {min(etas):.2f}; converged error {fed_mean:.2e} "
        f"vs UDA {uda_mean:.2e} and WDA {wda_mean:.2e}"
    )


def test_c11_dr_svd_exact_low_rank():
    spec = SyntheticSpec(n=300, d=40, singular_values=(9.0, 7.0, 5.0, 3.0, 2.0), seed=91)
    a = data.synth(spec)
    ds = data.partition(a, 5, mode="shuffled", seed=92)
    res = baselines.dr_svd(ds, 5, seed=93)
    truth = linalg.svd(a).v[:, :5]
    err = linalg.projection_distance(res.v, truth)
    assert err <= 1e-9
    print(f"[acceptance] C11 PASS: rank-5 recovery distance {err:.3e} <= 1e-9")


def test_c12_experiment_csv_bytes_reproducible(tmp_path):
    doc = {
        "dataset": {"synthetic": {"n": 300, "d": 12,
                                  "singular_values": list(np.geomspace(6.0, 0.1, 12)), "seed": 3}},
        "m": 5,
        "partition": "shuffled",
        "k": 3,
        "r": 4,
        "T": 24,
        "schedule": {"kind": "fixed", "p": 2},
        "alignment": "opt",
        "privacy": {"epsilon": 2.0, "delta": 1e-3},
        "participation": {"kind": "partial", "K": 3, "scheme": 2},
        "repeats": 2,
        "seed": 17,
    }
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        cfg = ExperimentConfig.from_dict({**doc, "out": str(path)})
        cli.run_experiment(cfg)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    print(f"[acceptance] C12 PASS: identical config twice -> byte-identical CSV ({len(first)} bytes)")
