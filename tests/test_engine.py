import dataclasses
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from fedpower import baselines, data, engine, linalg, privacy
from fedpower.cli import CsvTrace, ExperimentConfig
from fedpower.data import ShardedDataset, SyntheticSpec
from fedpower.engine import (
    ALIGN_NONE,
    ALIGN_OPT,
    ALIGN_SIGN,
    Participation,
    RunConfig,
    SyncSchedule,
)
from fedpower.errors import DegenerateData, DimensionMismatch, InvalidBudget, NonFinite
from reference import is_orthonormal, power_iterates
from tables import table_test


def noiseless(schedule):
    return privacy.PrivacyConfig.for_schedule(math.inf, 1e-5, schedule)


def make_config(k, r, schedule, **kw):
    kw.setdefault("privacy", noiseless(schedule))
    return RunConfig(k=k, r=r, schedule=schedule, **kw)


def small_dataset(seed=0, n=120, d=10, m=4):
    spec = SyntheticSpec(n=n, d=d, singular_values=tuple(np.geomspace(8.0, 0.5, d)), seed=seed)
    return data.partition(data.synth(spec), m, mode="shuffled", seed=seed + 1)


# ---------------------------------------------------------------- schedules


def test_fixed_schedule_every_step():
    assert SyncSchedule.fixed(1, 5).steps == (1, 2, 3, 4, 5)


def test_fixed_schedule_multiples():
    assert SyncSchedule.fixed(3, 10).steps == (3, 6, 9)


def test_decaying_schedule_partial_sums():
    assert SyncSchedule.decaying(4, 12).steps == (4, 7, 9, 10, 11, 12)


def test_fixed_schedule_excludes_zero_and_may_be_empty():
    steps = SyncSchedule.fixed(10, 5).steps
    assert steps == ()
    assert 0 not in SyncSchedule.fixed(2, 8).steps


def test_build_schedule_dispatch():
    assert engine.build_schedule("fixed", 6, p=2).steps == (2, 4, 6)
    assert engine.build_schedule("decaying", 12, p=4).steps == (4, 7, 9, 10, 11, 12)
    assert engine.build_schedule("explicit", 9, steps=[2, 5, 7]).steps == (2, 5, 7)
    for steps in ([0, 2], [5, 2, 7], [2, 2, 5]):  # out of range, decreasing, repeated: none is reordered
        with pytest.raises(ValueError):
            engine.build_schedule("explicit", 9, steps=steps)


# ---------------------------------------------------------------- engine against a per-worker reference
# One harness checks every run of REFERENCE_RUNS against _per_worker_reference, record by record. The table
# groups its runs by what they show; a group's cases keep the ids they had as a test function.


def _per_worker_reference(ds, cfg):
    """``(t, comm_count, sin_theta_k, rho_t, eps_spent, delta_spent, basis)`` at each step a run of ``cfg``
    records, one worker at a time (a stacked ``orth`` gives each slice a lone call's result). Between rounds
    every worker takes its own local step ``orth(M_i z_i)``; the output is the last round's participants'
    bases aligned to its baseline, weighted and summed in worker order, and ``rho_t`` is
    ``max_i ||z_i D_i - z_b||_2`` with z_b the heaviest worker's basis. At a round each participant uploads
    ``(M_i z_i) D_i`` plus its local noise from its own stream; the uploads are weighted and summed in worker
    order, the server noise is added, and ``orth`` gives the basis every worker takes (``rho_t`` 0). The
    budget spent is ``privacy.account`` of the rounds so far."""
    part, scales = cfg.participation, engine.noise_scales(ds, cfg)
    align = {ALIGN_NONE: lambda z, base: np.eye(cfg.r), ALIGN_SIGN: linalg.sign_fix, ALIGN_OPT: linalg.procrustes}
    align = align[cfg.alignment]
    grams = [linalg.gram(s) for s in ds.shards]
    v, heaviest = ds.reference_basis(cfg.k), int(np.argmax(ds.weights))
    zs = np.stack([engine.initial_basis(ds.d, cfg.r, cfg.seed)] * ds.m)  # worker i's basis is zs[i]
    ids, coefs, base = np.arange(ds.m), ds.weights, heaviest
    comm = 0
    for t in range(1, cfg.horizon + 1):
        if t not in cfg.schedule.steps:
            zs = linalg.orth(np.stack([g @ z for g, z in zip(grams, zs)]), require_full_rank=False)
            if not (cfg.record_every_step or t == cfg.horizon):
                continue
            z_out = linalg.orth(sum(coef * (zs[i] @ align(zs[i], zs[base])) for coef, i in zip(coefs, ids)),
                                require_full_rank=False)
            rho = np.linalg.norm(zs @ align(zs, zs[heaviest]) - zs[heaviest], 2, axis=(-2, -1)).max()
        else:
            ids, coefs, base = np.arange(ds.m), ds.weights, heaviest
            if part.kind == "partial":
                rng = privacy.stream(cfg.seed, (privacy.STREAM_SAMPLER, comm, 0))
                ids, counts = np.unique(engine.draw_participants(part.scheme, part.count, ds.weights, rng),
                                        return_counts=True)
                coefs = counts / part.count if part.scheme == 1 else ds.m / part.count * ds.weights[ids]
                base = int(ids[0])
            agg = np.zeros((ds.d, cfg.r))
            aligned_max = 0.0
            for coef, i in zip(coefs, ids):
                d_mat = align(zs[i], zs[base])
                y = (grams[i] @ zs[i]) @ d_mat
                y += privacy.sample_noise(ds.d, cfg.r, np.abs(zs[i]).max() * scales.sigma_local, cfg.seed,
                                          (privacy.STREAM_LOCAL, comm, int(i)))
                agg += coef * y
                aligned_max = max(aligned_max, np.abs(zs[i] @ d_mat).max())
            agg += privacy.sample_noise(ds.d, cfg.r, aligned_max * scales.sigma_server, cfg.seed,
                                        (privacy.STREAM_SERVER, comm, 0))
            z_out = linalg.orth(agg, require_full_rank=False)
            zs, rho, comm = np.stack([z_out] * ds.m), 0.0, comm + 1
        sin = min(np.linalg.norm(v - z_out @ (z_out.T @ v), 2), 1.0)
        yield (t, comm, sin, rho, *privacy.account(cfg.privacy, comm), z_out)


@dataclasses.dataclass(frozen=True)
class Run:
    """One ``engine.run`` on ``REFERENCE_DATASETS[dataset]``; ``budget`` is None (noiseless), a total epsilon
    or an ``eps_split`` pair, with delta 1e-5."""

    dataset: str
    schedule: SyncSchedule
    participation: Participation = engine.FULL_PARTICIPATION
    budget: float | tuple | None = None
    alignment: str = ALIGN_SIGN
    every_step: bool = False
    k: int = 3
    r: int = 3
    seed: int = 9

    def config(self) -> RunConfig:
        split = self.budget if isinstance(self.budget, tuple) else None
        epsilon = math.inf if self.budget is None or split else self.budget
        return make_config(self.k, self.r, self.schedule, alignment=self.alignment, participation=self.participation,
                           seed=self.seed, record_every_step=self.every_step, keep_basis_history=True,
                           privacy=privacy.PrivacyConfig.for_schedule(epsilon, 1e-5, self.schedule, eps_split=split))


REFERENCE_DATASETS = {
    # One worker: every run on it is the power method on its Gram.
    "one-worker-50x8": lambda: data.partition(np.random.default_rng(60).standard_normal((50, 8)), 1),
    "one-worker-30x6": lambda: data.partition(np.random.default_rng(61).standard_normal((30, 6)), 1),
    # 4 shards of 30 rows with d = 10; at n = 122 the shard weights, and so the schemes' coefficients, differ.
    "equal-shards": lambda: small_dataset(seed=5),
    "unequal-shards": lambda: small_dataset(seed=5, n=122),
    "rows-d30": lambda: small_dataset(seed=6, n=62, d=30, m=6),  # M_i applied through the shards' rows
    # d = 20 with r = 4: shards of 3-4 rows (some below r), of 6-7 rows (between r and d/2, so local steps
    # run in the shards' row spaces) and of 10-11 rows (at or above d/2: the Gram stack).
    "below_r": lambda: small_dataset(seed=38, n=38, d=20, m=12),
    "row_space": lambda: small_dataset(seed=62, n=62, d=20, m=9),
    "gram": lambda: small_dataset(seed=103, n=103, d=20, m=10),
    "short-shards": lambda: short_shard_dataset(seed=26),
}


def check_against_reference(run: Run) -> None:
    """``engine.run`` of ``run`` records what ``_per_worker_reference`` does: the same steps, round counts and
    budget spent, and ``sin_theta_k``, ``rho_t`` and every basis within 1e-12. A shard of fewer than r rows
    gives a rank-deficient local step, whose missing directions orth completes from rounding noise, so on
    such a dataset those three from the first local step on are left out."""
    ds, cfg = REFERENCE_DATASETS[run.dataset](), run.config()
    trace, priv = engine.run(ds, cfg), cfg.privacy
    applied = [sigma > 0.0 for sigma in (trace.scales.sigma_local, trace.scales.sigma_server)]
    assert applied == [math.isfinite(eps) for eps in priv.eps_split or (priv.epsilon,) * 2], run
    want = list(_per_worker_reference(ds, cfg))
    assert [(rec.t, rec.comm_count, rec.eps_spent, rec.delta_spent) for rec in trace.records] == [
        (t, comm, eps, delta) for t, comm, _, _, eps, delta, _ in want], run
    assert [t for t, _ in trace.basis_history] == [rec.t for rec in trace.records]
    assert np.array_equal(trace.final_basis, trace.basis_history[-1][1])
    first_local = min(set(range(1, cfg.horizon + 1)) - set(cfg.schedule.steps), default=cfg.horizon + 1)
    kept = [(rec, z, ref) for rec, (t, z), ref in zip(trace.records, trace.basis_history, want)
            if ds.min_shard_size >= cfg.r or t < first_local]
    assert kept or first_local == 1
    for rec, z_bar, (t, _, sin, rho, _, _, z_ref) in kept:
        gap = max(abs(rec.sin_theta_k - sin), abs(rec.rho_t - rho), np.abs(z_bar - z_ref).max())
        assert gap <= 1e-12, (run, t, gap)
    if ds.m == 1 and priv.noiseless:  # with one worker, any schedule gives the centralized power method
        z0 = engine.initial_basis(ds.d, cfg.r, cfg.seed)
        power = list(power_iterates(ds.global_gram().__matmul__, z0, cfg.horizon))
        assert all(np.abs(z_bar - power[t - 1]).max() <= 1e-12 for t, z_bar in trace.basis_history), run
    assert ("_row_factor" in vars(ds)) == (2 * max(ds.sizes) < ds.d)  # the route the local products took


ALIGNMENTS = (ALIGN_NONE, ALIGN_SIGN, ALIGN_OPT)
# Horizon 12: every third step, gaps shrinking from 4, and explicit rounds whose horizon is no round.
SCHEDULES = {"fixed": SyncSchedule.fixed(3, 12), "decaying": SyncSchedule.decaying(4, 12),
             "explicit": SyncSchedule.explicit((1, 2, 5, 9), 12)}


def _participations(count: int) -> dict:
    return {"full": engine.FULL_PARTICIPATION, "scheme1": Participation("partial", count, 1),
            "scheme2": Participation("partial", count, 2)}


def _shard_height_runs(dataset: str, schedule: SyncSchedule) -> list:
    # Twelve runs, each with its own seed, taking the alignments in turn.
    cases = [(part, eps, every) for part in _participations(4).values() for eps in (None, 20.0)
             for every in (False, True)]
    return [Run(dataset, schedule, part, eps, ALIGNMENTS[i % 3], every, r=4, seed=i)
            for i, (part, eps, every) in enumerate(cases)]


REFERENCE_RUNS = {
    # With one worker, whatever the period, a run is the power method.
    "test_single_worker_matches_power_method_per_step": {"": [
        Run("one-worker-50x8", SyncSchedule.fixed(p, 15), alignment=a, every_step=True, k=2, r=2, seed=17)
        for p in (1, 3, 7) for a in ALIGNMENTS]},
    "test_partial_single_worker_matches_power_method": {"": [
        Run("one-worker-30x6", SyncSchedule.fixed(2, 12), Participation("partial", 1, 2), alignment=ALIGN_NONE,
            k=2, r=2, seed=3)]},
    # Every round of a p = 1 run starts from the broadcast basis: noiseless and under full participation it
    # is the distributed power method.
    "test_every_step_sync_matches_distributed_power": {"": [
        *[Run("equal-shards", SyncSchedule.fixed(1, 20), alignment=a) for a in ALIGNMENTS],
        *[Run("unequal-shards", SyncSchedule.fixed(1, 20), part, eps, a)
          for part in _participations(3).values() for eps in (None, 20.0) for a in ALIGNMENTS]]},
    # At p = 3 the workers' bases differ when a round starts, so each participant's (M_i z_i) D_i is its own.
    "test_rounds_from_differing_bases_match_a_per_worker_reference": {"": [
        Run(dataset, SyncSchedule.fixed(3, 12), part, eps, a, every_step=True)
        for dataset in ("unequal-shards", "rows-d30") for part in _participations(3).values()
        for eps in (None, 20.0) for a in ALIGNMENTS]},
    "test_runs_match_the_per_worker_reference_on_every_shard_height": {
        f"{dataset}-{name}": _shard_height_runs(dataset, schedule)
        for dataset in ("below_r", "row_space", "gram") for name, schedule in SCHEDULES.items()},
    # Local steps and rounds from differing bases on shards shorter than d/2: both row-path products run.
    "test_short_shard_runs_match_the_gram_product": {
        f"{name}-{a}": [Run("short-shards", SyncSchedule.fixed(3, 12), part, 5.0, a, every_step=True, r=4, seed=5)]
        for name, part in _participations(4).items() for a in ALIGNMENTS},
    # k < r at p = 4, noiseless: rho_t is 0 at every round.
    "test_noiseless_sync_rounds_have_zero_residual": {"": [
        Run("equal-shards", SyncSchedule.fixed(4, 16), alignment=ALIGN_OPT, k=2, r=3, seed=5)]},
    # A horizon of 17, past the last round at 15: the final record counts 5 rounds and their whole budget.
    "test_output_basis_orthonormal_and_counters": {"": [
        Run("equal-shards", SyncSchedule.fixed(3, 17), budget=1.5, k=2, r=3, seed=8)]},
    # Partial participation recorded at every step: comm_count reads 0 before the first round at 5.
    "test_partial_with_sync_notes_no_fallback": {"": [
        Run("unequal-shards", SyncSchedule.fixed(5, 10), Participation("partial", 3, 1), every_step=True, k=2, r=2,
            seed=15)]},
    # Per-round budgets (full participation only); an infinite one zeroes its site's noise.
    "test_split_budgets_match_the_per_worker_reference": {
        f"{name}-{a}-{'every-step' if every else 'sync-steps'}-{split[0]:g},{split[1]:g}": [
            Run("row_space", schedule, budget=split, alignment=a, every_step=every, r=4)]
        for name, schedule in SCHEDULES.items() for a in ALIGNMENTS for every in (False, True)
        for split in ((2.0, 3.0), (math.inf, 2.0), (4.0, math.inf))},
}


globals().update({name: table_test(check_against_reference, cases) for name, cases in REFERENCE_RUNS.items()})


# ---------------------------------------------------------------- reductions


def test_replicated_diagonal_converges_to_leading_axis():
    block = np.diag([4.0, 3.0, 2.0, 1.0])
    ds = ShardedDataset((block.copy(), block.copy()))  # two equal shards, M_i = M
    schedule = SyncSchedule.fixed(2, 40)
    cfg = make_config(1, 1, schedule, alignment=ALIGN_SIGN, seed=2)
    trace = engine.run_full(ds, cfg)
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    assert linalg.sin_theta_k(trace.final_basis, e1) <= 1e-8


def test_partial_full_cohort_scheme2_equals_full():
    ds = small_dataset(seed=6, n=120, m=4)  # equal shard sizes
    schedule = SyncSchedule.fixed(3, 21)
    cfg_full = make_config(3, 4, schedule, alignment=ALIGN_SIGN, seed=13, keep_basis_history=True)
    cfg_part = make_config(
        3, 4, schedule, alignment=ALIGN_SIGN, seed=13, keep_basis_history=True,
        participation=Participation("partial", 4, 2),
    )
    trace_full = engine.run_full(ds, cfg_full)
    trace_part = engine.run_partial(ds, cfg_part)
    for (tf, zf), (tp, zp) in zip(trace_full.basis_history, trace_part.basis_history):
        assert tf == tp
        assert np.abs(zf - zp).max() <= 1e-12
    for rf, rp in zip(trace_full.records, trace_part.records):
        assert abs(rf.sin_theta_k - rp.sin_theta_k) <= 1e-12


# ---------------------------------------------------------------- sampling


def test_draw_participants_schemes():
    weights = np.array([0.5, 0.3, 0.2])
    rng = privacy.stream(7, (privacy.STREAM_SAMPLER, 0, 0))
    with_repl = engine.draw_participants(1, 5, weights, rng)
    assert with_repl.shape == (5,)
    assert np.all(np.diff(with_repl) >= 0)  # sorted
    rng = privacy.stream(7, (privacy.STREAM_SAMPLER, 1, 0))
    without = engine.draw_participants(2, 3, weights, rng)
    assert sorted(without.tolist()) == [0, 1, 2]


def test_scheme1_aggregation_unbiased():
    rng_state = np.random.default_rng(62)
    m, d, r, count = 6, 5, 2, 3
    weights = rng_state.random(m) + 0.2
    weights /= weights.sum()
    ys = [rng_state.standard_normal((d, r)) for _ in range(m)]
    target = sum(w * y for w, y in zip(weights, ys))
    draws = 10_000
    rng = privacy.stream(11, (privacy.STREAM_SAMPLER, 0, 0))
    agg = np.zeros((draws, d, r))
    for it in range(draws):
        ids = engine.draw_participants(1, count, weights, rng)
        agg[it] = sum(ys[i] for i in ids) / count
    mean = agg.mean(axis=0)
    stderr = agg.std(axis=0) / math.sqrt(draws)
    assert np.all(np.abs(mean - target) <= 4.0 * stderr + 1e-12)


# ---------------------------------------------------------------- diagnostics


def test_residual_rho_identical_workers():
    rng = np.random.default_rng(63)
    z = linalg.orth(rng.standard_normal((6, 2)))
    assert engine.residual_rho([z, z.copy(), z.copy()]) <= 1e-15


def test_residual_rho_negated_column():
    rng = np.random.default_rng(64)
    z = linalg.orth(rng.standard_normal((6, 2)))
    flipped = z @ np.diag([1.0, -1.0])
    assert engine.residual_rho([z, flipped], ALIGN_SIGN) <= 1e-12
    assert engine.residual_rho([z, flipped], ALIGN_OPT) <= 1e-12
    assert abs(engine.residual_rho([z, flipped], ALIGN_NONE) - 2.0) <= 1e-12


def drifted_round_states(seed, steps):
    """Per-round worker states: a converged shared basis that each worker then
    advances locally for ``steps`` iterations (the state the engine sees when
    it records the residual between two synchronizations)."""
    ds = small_dataset(seed=seed, n=200, d=8, m=5)
    shared = baselines.power_method(ds.global_gram(), 3, 25, seed=seed + 7)
    states = []
    for shard in ds.shards:
        z = shared
        for _ in range(steps):
            z = linalg.orth(linalg.gram(shard) @ z, require_full_rank=False)
        states.append(z)
    return states


def test_alignment_dominance_per_round():
    # The residual under Procrustes alignment is never worse than under
    # sign-fixing, which is never worse than no alignment, on the per-round
    # states the engine actually visits.
    for seed in range(8):
        for steps in (1, 2, 4):
            states = drifted_round_states(seed, steps)
            rho_opt = engine.residual_rho(states, ALIGN_OPT)
            rho_sgn = engine.residual_rho(states, ALIGN_SIGN)
            rho_none = engine.residual_rho(states, ALIGN_NONE)
            assert rho_opt <= rho_sgn + 1e-12
            assert rho_sgn <= rho_none + 1e-12


def test_alignment_dominance_frobenius_any_states():
    # On arbitrary states the nesting of feasible sets guarantees dominance of
    # the alignment objective itself (Frobenius norm).
    rng = np.random.default_rng(67)
    for _ in range(25):
        z_i = linalg.orth(rng.standard_normal((8, 3)))
        z_b = linalg.orth(rng.standard_normal((8, 3)))
        f_opt = np.linalg.norm(z_i @ linalg.procrustes(z_i, z_b) - z_b, "fro")
        f_sgn = np.linalg.norm(z_i @ linalg.sign_fix(z_i, z_b) - z_b, "fro")
        f_none = np.linalg.norm(z_i - z_b, "fro")
        assert f_opt <= f_sgn + 1e-12 <= f_none + 2e-12


def test_local_approx_eta_cases():
    rng = np.random.default_rng(65)
    block = rng.standard_normal((20, 4))
    replicated = ShardedDataset((block.copy(), block.copy(), block.copy()))
    assert engine.local_approx_eta(replicated) <= 1e-14
    single = data.partition(block, 1)
    assert engine.local_approx_eta(single) == 0.0
    axes = ShardedDataset((np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    assert abs(engine.local_approx_eta(axes) - 1.0) <= 1e-12
    with pytest.raises(DegenerateData):
        engine.local_approx_eta(ShardedDataset((np.zeros((2, 2)),)))


def test_round_members_baseline_cases():
    full = engine.FULL_PARTICIPATION
    # The heaviest worker is the baseline, and a tie goes to the lowest index.
    assert engine._round_members(full, np.array([0.2, 0.5, 0.3]), 0, 0)[2] == 1
    assert engine._round_members(full, np.array([0.2, 0.4, 0.4]), 0, 0)[2] == 1
    assert engine._round_members(full, np.full(4, 0.25), 0, 0)[2] == 0
    # Under partial participation the baseline is the lowest sampled id, whatever the weights.
    weights = np.array([0.05, 0.05, 0.4, 0.05, 0.05, 0.1, 0.1, 0.2])
    for scheme in (1, 2):
        bases = set()
        for round_idx in range(8):
            ids, _coefs, base = engine._round_members(Participation("partial", 3, scheme), weights, 5, round_idx)
            assert base == ids.min() and np.all(np.diff(ids) > 0)
            bases.add(base)
        assert len(bases) > 1  # the baseline follows the sample from round to round


@pytest.mark.parametrize("alignment", [ALIGN_NONE, ALIGN_SIGN, ALIGN_OPT])
def test_partial_matches_full_before_the_first_round(alignment):
    # Shard 0 is not the heaviest, so a baseline other than the heaviest worker would show.
    rng = np.random.default_rng(66)
    shards = tuple(rng.standard_normal((n, 6)) @ np.diag(np.geomspace(4.0, 0.5, 6)) for n in (10, 30, 20))
    ds = ShardedDataset(shards)
    kw = dict(alignment=alignment, seed=4, record_every_step=True)
    # The second schedule has no round at all, so every record comes before the first round.
    for schedule in (SyncSchedule.fixed(5, 10), SyncSchedule.fixed(50, 4)):
        full = engine.run(ds, make_config(2, 3, schedule, **kw))
        part = engine.run(ds, make_config(2, 3, schedule, participation=Participation("partial", 2, 2), **kw))
        before = [(rec.t, rec.sin_theta_k, rec.rho_t) for rec in full.records if rec.t < 5]
        assert [rec.t for rec in full.records[:4]] == [1, 2, 3, 4]
        assert [(rec.t, rec.sin_theta_k, rec.rho_t) for rec in part.records if rec.t < 5] == before
    # comm_count 0 on every row marks the run without rounds; its repeat lines carry nothing more.
    assert [rec.comm_count for rec in full.records + part.records] == [0] * 8
    header = ExperimentConfig(synthetic=SyntheticSpec(60, 6, (1.0,)), k=2, r=3, horizon=4, alignment=alignment)
    text = CsvTrace("trace", header, repeats=[full, part]).render()
    assert [line for line in text.splitlines() if line.startswith("# repeat=")] == [
        f"# repeat={i} seed={privacy.derive_seed(0, i)} eta={ds.eta!r}" for i in range(2)
    ]


# ---------------------------------------------------------------- trace invariants


def test_run_is_deterministic():
    ds = small_dataset(seed=8)
    schedule = SyncSchedule.fixed(2, 14)
    priv = privacy.PrivacyConfig.for_schedule(2.0, 1e-3, schedule)
    cfg = RunConfig(k=2, r=3, schedule=schedule, privacy=priv, alignment=ALIGN_OPT, seed=21)
    t1 = engine.run_full(ds, cfg)
    t2 = engine.run_full(ds, cfg)
    assert [r.sin_theta_k for r in t1.records] == [r.sin_theta_k for r in t2.records]
    assert [r.rho_t for r in t1.records] == [r.rho_t for r in t2.records]
    np.testing.assert_array_equal(t1.final_basis, t2.final_basis)


def test_single_worker_error_monotone_after_burn_in():
    rng = np.random.default_rng(66)
    a = rng.standard_normal((60, 8))
    ds = data.partition(a, 1)
    schedule = SyncSchedule.fixed(1, 30)
    cfg = make_config(2, 3, schedule, seed=12)
    trace = engine.run_full(ds, cfg)
    sins = [rec.sin_theta_k for rec in trace.records]
    for prev, cur in zip(sins[3:], sins[4:]):
        assert cur <= prev + 1e-12


def test_noise_actually_perturbs():
    ds = small_dataset(seed=11)
    schedule = SyncSchedule.fixed(2, 10)
    quiet = make_config(2, 2, schedule, seed=4)
    loud = RunConfig(
        k=2, r=2, schedule=schedule, seed=4,
        privacy=privacy.PrivacyConfig.for_schedule(1.0, 1e-3, schedule),
    )
    t_quiet = engine.run_full(ds, quiet)
    t_loud = engine.run_full(ds, loud)
    assert t_quiet.records[-1].sin_theta_k != t_loud.records[-1].sin_theta_k
    assert t_quiet.records[-1].eps_spent == 0.0
    assert t_loud.records[-1].eps_spent == 2.0


def test_partial_runs_with_noise_both_schemes():
    ds = small_dataset(seed=12, n=90, m=6)
    schedule = SyncSchedule.fixed(2, 8)
    for scheme in (1, 2):
        cfg = RunConfig(
            k=2, r=2, schedule=schedule, seed=6,
            privacy=privacy.PrivacyConfig.for_schedule(5.0, 1e-3, schedule),
            participation=Participation("partial", 3, scheme),
            alignment=ALIGN_OPT,
        )
        trace = engine.run_partial(ds, cfg)
        assert is_orthonormal(trace.final_basis)
        assert trace.records[-1].eps_spent == 10.0


def test_trace_scales_are_the_applied_calibration():
    ds = small_dataset(seed=12, n=90, m=6)
    schedule = SyncSchedule.fixed(2, 8)  # 4 rounds
    partial = RunConfig(
        k=2, r=2, schedule=schedule, seed=6,
        privacy=privacy.PrivacyConfig.for_schedule(5.0, 1e-3, schedule),
        participation=Participation("partial", 3, 2),
    )
    scales = engine.run_partial(ds, partial).scales
    assert scales == privacy.scales_partial(partial.privacy, ds.min_shard_size, ds.weights, 3, scheme=2)
    base = 4.0 / (5.0 * ds.min_shard_size)
    root = math.sqrt(2.0 * math.log(1.25 * 4.0 / 1e-3))
    assert math.isclose(scales.sigma_local, base * math.sqrt(2.0 * math.log(1.25 * 4.0 / 6 / 1e-3)), rel_tol=1e-12)
    assert math.isclose(scales.sigma_server, base * 6 * ds.weights.max() / 3 * root, rel_tol=1e-12)
    # Per-round budgets: an infinite one zeroes its side.
    split = privacy.PrivacyConfig.for_schedule(1.0, 1e-3, schedule, eps_split=(math.inf, 2.0))
    scales = engine.run_full(ds, make_config(2, 2, schedule, seed=6, privacy=split)).scales
    root = math.sqrt(2.0 * math.log(1.25 / 1e-3))
    assert scales.sigma_local == 0.0
    assert math.isclose(scales.sigma_server, ds.weights.max() * root / (2.0 * ds.min_shard_size), rel_tol=1e-12)


def test_empty_schedule_runs_pure_local():
    ds = small_dataset(seed=13)
    schedule = SyncSchedule.fixed(50, 6)  # p > horizon: no communication at all
    cfg = make_config(2, 2, schedule, alignment=ALIGN_OPT, seed=14)
    trace = engine.run_full(ds, cfg)
    assert len(trace.records) == 1
    assert trace.records[0].comm_count == 0
    assert is_orthonormal(trace.final_basis)


def test_privacy_rounds_must_match_schedule():
    schedule = SyncSchedule.fixed(2, 10)  # 5 rounds
    bad = privacy.PrivacyConfig(epsilon=1.0, delta=1e-3, rounds=3)
    with pytest.raises(InvalidBudget):
        RunConfig(k=2, r=2, schedule=schedule, privacy=bad, seed=1)


def test_run_full_rejects_partial_config():
    ds = small_dataset(seed=16)
    schedule = SyncSchedule.fixed(2, 4)
    cfg = make_config(2, 2, schedule, participation=Participation("partial", 2, 1))
    with pytest.raises(ValueError):
        engine.run_full(ds, cfg)
    with pytest.raises(ValueError):
        engine.run_partial(ds, make_config(2, 2, schedule))


# ---------------------------------------------------------------- stacked engine


@pytest.mark.parametrize("alignment", [ALIGN_NONE, ALIGN_SIGN, ALIGN_OPT])
@pytest.mark.parametrize("participation", [
    engine.FULL_PARTICIPATION, Participation("partial", 3, 1), Participation("partial", 3, 2),
])
def test_rho_is_exactly_zero_at_every_sync_step(alignment, participation):
    ds = small_dataset(seed=20, n=120, m=6)
    schedule = SyncSchedule.fixed(3, 15)
    cfg = RunConfig(
        k=2, r=3, schedule=schedule, seed=4, alignment=alignment,
        privacy=privacy.PrivacyConfig.for_schedule(50.0, 1e-3, schedule),
        participation=participation, record_every_step=True,
    )
    trace = engine.run_partial(ds, cfg) if participation.kind == "partial" else engine.run_full(ds, cfg)
    sync = set(schedule.steps)
    assert [rec.rho_t for rec in trace.records if rec.t in sync] == [0.0] * len(sync)
    assert all(rec.rho_t > 0.0 for rec in trace.records if rec.t not in sync)


@pytest.mark.parametrize("alignment", [ALIGN_NONE, ALIGN_SIGN, ALIGN_OPT])
def test_permuting_workers_keeps_noiseless_errors(alignment):
    # Equal shard sizes: the baseline worker is shard 0, which stays put.
    ds = small_dataset(seed=21, n=120, m=6)
    order = [0, 4, 2, 5, 1, 3]
    permuted = ShardedDataset(tuple(ds.shards[i] for i in order))
    schedule = SyncSchedule.fixed(3, 20)
    cfg = make_config(2, 3, schedule, alignment=alignment, seed=5, record_every_step=True)
    reference = ds.reference_basis(2)
    a = engine.run_full(ds, cfg, reference=reference)
    b = engine.run_full(permuted, cfg, reference=reference)
    for ra, rb in zip(a.records, b.records):
        assert abs(ra.sin_theta_k - rb.sin_theta_k) <= 1e-12


def test_cached_eta_matches_a_fresh_dataset():
    ds = small_dataset(seed=22)
    schedule = SyncSchedule.fixed(2, 6)
    first = engine.run_full(ds, make_config(2, 2, schedule, seed=1))
    again = engine.run_full(ds, make_config(2, 2, schedule, seed=2, alignment=ALIGN_OPT))
    fresh = ShardedDataset(tuple(s.copy() for s in ds.shards))
    assert first.eta == again.eta == engine.local_approx_eta(fresh)
    assert ds.shard_grams is ds.shard_grams
    for g, shard in zip(fresh.shard_grams, ds.shards):
        np.testing.assert_array_equal(g, linalg.gram(shard))


def test_a_trace_computes_eta_on_first_read_and_then_keeps_no_dataset_alive():
    ds = small_dataset(seed=22)
    trace = engine.run_full(ds, make_config(2, 2, SyncSchedule.fixed(2, 6), seed=1))
    assert "eta" not in vars(ds)  # the run itself computes no eta
    eta = trace.eta
    assert eta == ds.eta
    # A sweep holds every repeat's traces until it writes them; they must not hold the shards too.
    alive = weakref.ref(ds)
    del ds
    assert alive() is None and trace.eta == eta


def test_partition_builds_no_grams():
    ds = small_dataset(seed=23)
    assert "shard_grams" not in vars(ds) and "eta" not in vars(ds)


def test_non_finite_aggregate_raises_named_error():
    ds = small_dataset(seed=24)
    schedule = SyncSchedule.fixed(2, 6)
    # A subnormal budget makes the noise scale, and so the aggregate, infinite.
    cfg = RunConfig(
        k=2, r=2, schedule=schedule, seed=3,
        privacy=privacy.PrivacyConfig.for_schedule(1e-320, 1e-5, schedule),
    )
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NonFinite):
        engine.run_full(ds, cfg)


def test_non_finite_local_iterate_raises_named_error():
    ds = small_dataset(seed=25)
    reference = ds.reference_basis(2)
    engine.local_approx_eta(ds)  # cached before the corruption below
    ds.shard_grams.flags.writeable = True  # the cache is read-only; unlock it to corrupt one shard Gram
    ds.shard_grams[1, 0, 0] = np.nan
    cfg = make_config(2, 2, SyncSchedule.fixed(50, 4), seed=3)  # local steps only
    with pytest.raises(NonFinite, match=r"slices \[1\]"):
        engine.run_full(ds, cfg, reference=reference)


def short_shard_dataset(seed=0):
    # 10 shards of 12 or 13 rows with d = 30: shorter than d/2, unequal, and taller than r.
    return small_dataset(seed=seed, n=125, d=30, m=10)


def test_only_short_shard_runs_build_the_row_factor_and_only_once(monkeypatch):
    prop = ShardedDataset.__dict__["_row_factor"]
    builds = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda ds: builds.append(ds) or real(ds))
    cfg = make_config(2, 3, SyncSchedule.fixed(3, 9), seed=1)
    tall, short = small_dataset(seed=27), short_shard_dataset(seed=27)
    for ds in (tall, tall, short, short):
        engine.run(ds, cfg)
    assert len(builds) == 1 and builds[0] is short


@pytest.mark.parametrize("shards", ["rows", "grams"])
@pytest.mark.parametrize("participation", [
    engine.FULL_PARTICIPATION, Participation("partial", 4, 1), Participation("partial", 4, 2),
], ids=["full", "scheme1", "scheme2"])
def test_a_round_applies_the_shards_of_its_members_only(participation, shards, monkeypatch):
    # Rounds at 1 and 2 start from the broadcast basis, rounds at 5 and 9 from differing bases.
    schedule = SyncSchedule.explicit([1, 2, 5, 9], 10)
    calls, products = [], ShardedDataset.local_products

    def counted(ds, zs, ids=None):
        calls.append((ids if ids is None else tuple(ids), zs.shape[-3]))
        return products(ds, zs, ids)

    monkeypatch.setattr(ShardedDataset, "local_products", counted)
    ds = short_shard_dataset(seed=31) if shards == "rows" else small_dataset(seed=31, m=6)
    cfg = make_config(2, 3, schedule, participation=participation, seed=8,
                      privacy=privacy.PrivacyConfig.for_schedule(5.0, 1e-5, schedule))
    engine.run(ds, cfg)
    # Every call without ids is a local step of every worker; a round names its members and passes
    # their bases, or the one basis they all hold.
    assert all(width == ds.m for ids, width in calls if ids is None)
    want = []
    for comm, t in enumerate(schedule.steps):
        ids = engine._round_members(participation, ds.weights, 8, comm)[0]
        shared = t == 1 or t - 1 in schedule.steps
        if participation.kind == "partial":
            assert len(ids) == len(set(ids)) <= participation.count
        else:
            assert list(ids) == list(range(ds.m))
        if not (shared and participation.kind == "full"):  # a full shared round is one global Gram product
            want.append((tuple(ids), 1 if shared else len(ids)))
    assert [call for call in calls if call[0] is not None] == want


def test_a_partial_run_on_short_shards_builds_no_gram():
    # Every round of a p = 1 run starts from the broadcast basis; its members' products come from the row factor.
    ds = short_shard_dataset(seed=32)
    schedule = SyncSchedule.fixed(1, 6)
    cfg = make_config(2, 3, schedule, participation=Participation("partial", 4, 2), seed=9,
                      privacy=privacy.PrivacyConfig.for_schedule(5.0, 1e-5, schedule))
    engine.run(ds, cfg, reference=engine.initial_basis(ds.d, 2, seed=10))
    assert "_row_factor" in vars(ds)
    assert "shard_grams" not in vars(ds) and "_global_gram" not in vars(ds)


# ---------------------------------------------------------------- budgets in one pass


def _plain(records):
    # wall_ms times the run itself, so it is the one field two runs of one config differ in.
    return [dataclasses.replace(rec, wall_ms=0.0) for rec in records]


@pytest.mark.parametrize("shards", ["rows", "grams"])
@pytest.mark.parametrize("every_step", [False, True], ids=["sync-steps", "every-step"])
@pytest.mark.parametrize("schedule", [
    SyncSchedule.fixed(3, 12), SyncSchedule.decaying(4, 12), SyncSchedule.explicit([1, 2, 5, 9], 12),
], ids=["fixed", "decaying", "explicit"])
@pytest.mark.parametrize("alignment", [ALIGN_NONE, ALIGN_SIGN, ALIGN_OPT])
@pytest.mark.parametrize("participation", [
    engine.FULL_PARTICIPATION, Participation("partial", 4, 1), Participation("partial", 4, 2),
], ids=["full", "scheme1", "scheme2"])
def test_run_budgets_equals_one_run_per_budget(participation, alignment, schedule, every_step, shards):
    # Shards of 12-13 rows with d = 30 take the row path; 20 rows with d = 10 the Gram path.
    ds = short_shard_dataset(seed=28) if shards == "rows" else small_dataset(seed=28, n=160, m=8)
    cfgs = [
        make_config(3, 4, schedule, alignment=alignment, participation=participation, seed=6,
                    record_every_step=every_step, keep_basis_history=True,
                    privacy=privacy.PrivacyConfig.for_schedule(eps, 1e-5, schedule))
        for eps in (math.inf, 5.0, 0.5)
    ]
    traces = engine.run_budgets(ds, cfgs)
    assert len(traces) == len(cfgs)
    for cfg, trace in zip(cfgs, traces):
        alone = engine.run(ds, cfg)
        assert _plain(trace.records) == _plain(alone.records)
        assert trace.final_basis.tobytes() == alone.final_basis.tobytes()
        assert trace.scales == alone.scales
        assert [(t, z.tobytes()) for t, z in trace.basis_history] == [
            (t, z.tobytes()) for t, z in alone.basis_history]
    # Every budget here calibrates under full participation; under sampling, a delta near 1 with
    # at most 6 rounds of q_i <= 0.125 puts the local formula's log argument below 1.
    if participation.kind == "partial":
        bad = dataclasses.replace(cfgs[1], privacy=privacy.PrivacyConfig.for_schedule(1.0, 0.99, schedule))
        with pytest.raises(InvalidBudget):
            engine.noise_scales(ds, bad)
        with pytest.raises(InvalidBudget):
            engine.run(ds, bad)
        with pytest.raises(InvalidBudget):
            engine.run_budgets(ds, [*cfgs, bad])


def test_run_budgets_takes_configs_that_differ_in_privacy_only():
    ds = small_dataset(seed=29)
    schedule = SyncSchedule.fixed(2, 6)
    cfg = make_config(2, 3, schedule, seed=1)
    assert engine.run_budgets(ds, []) == []
    for other in (dataclasses.replace(cfg, seed=2), dataclasses.replace(cfg, alignment=ALIGN_OPT),
                  dataclasses.replace(cfg, schedule=SyncSchedule.fixed(3, 6))):
        with pytest.raises(ValueError, match="differ in privacy only"):
            engine.run_budgets(ds, [cfg, other])


@pytest.mark.parametrize("every_step", [False, True], ids=["sync-steps", "every-step"])
@pytest.mark.parametrize("schedule", [
    SyncSchedule.fixed(3, 12), SyncSchedule.decaying(4, 12), SyncSchedule.explicit([3, 5, 9], 12),
], ids=["fixed", "decaying", "explicit"])
@pytest.mark.parametrize("participation", [engine.FULL_PARTICIPATION, Participation("partial", 4, 1)],
                         ids=["full", "scheme1"])
def test_run_budgets_steps_samples_and_draws_once_for_all_budgets(participation, schedule, every_step, monkeypatch):
    # Three budgets in one pass take exactly the local steps, samples and noise draws of one noisy run,
    # also before a first round that comes after step 1 (decaying, explicit).
    calls = []
    steps, sample, gaussian = ShardedDataset.local_steps, engine.draw_participants, privacy.standard_gaussian
    monkeypatch.setattr(ShardedDataset, "local_steps", lambda ds, zs, n: calls.append("steps") or steps(ds, zs, n))
    monkeypatch.setattr(engine, "draw_participants", lambda *args: calls.append("sample") or sample(*args))
    monkeypatch.setattr(privacy, "standard_gaussian",
                        lambda rows, cols, seed, key: calls.append(key) or gaussian(rows, cols, seed, key))
    ds = short_shard_dataset(seed=30)
    cfgs = [make_config(3, 4, schedule, participation=participation, seed=6, record_every_step=every_step,
                        privacy=privacy.PrivacyConfig.for_schedule(eps, 1e-5, schedule)) for eps in (5.0, math.inf, 0.5)]
    counts = []
    for budgets in (cfgs[:1], cfgs):
        calls.clear()
        engine.run_budgets(ds, budgets)
        counts.append(Counter(calls))
    one, three = counts
    assert one == three
    rounds = len(schedule.steps)
    assert one["steps"] == (schedule.horizon if every_step else len({*schedule.steps, schedule.horizon}))
    assert one["sample"] == (rounds if participation.kind == "partial" else 0)
    # One draw per (site, round, worker): the shared start, each distinct participant's local noise
    # and the server's noise.
    keys = [(privacy.STREAM_INIT, 0, 0)]
    for comm in range(rounds):
        ids = engine._round_members(participation, ds.weights, 6, comm)[0]
        keys += [(privacy.STREAM_LOCAL, comm, int(i)) for i in ids] + [(privacy.STREAM_SERVER, comm, 0)]
    assert {key: n for key, n in one.items() if isinstance(key, tuple)} == Counter(keys)


# ---------------------------------------------------------------- library guards

# Library callers skip the CLI's config checks, so the engine checks the same ranges again.
GUARDS = {
    "horizon 0": (lambda: SyncSchedule(0, ()), ValueError, "horizon must be >= 1, got 0"),
    "fixed p 0": (lambda: SyncSchedule.fixed(0, 5), ValueError, "p must be >= 1, got 0"),
    "decaying p 0": (lambda: SyncSchedule.decaying(0, 5), ValueError, "p0 must be >= 1, got 0"),
    "schedule kind": (lambda: engine.build_schedule("geometric", 5, p=2), ValueError,
                      "unknown schedule kind 'geometric'"),
    "participation kind": (lambda: Participation("some"), ValueError,
                           "participation kind must be 'full' or 'partial', got 'some'"),
    "count 0": (lambda: Participation("partial", 0, 1), ValueError, "partial participation needs count >= 1, got 0"),
    "participation scheme 3": (lambda: Participation("partial", 2, 3), ValueError, "scheme must be 1 or 2, got 3"),
    "k above r": (lambda: make_config(3, 2, SyncSchedule.fixed(2, 4)), ValueError, "need 1 <= k <= r, got k=3, r=2"),
    "run alignment": (lambda: make_config(2, 2, SyncSchedule.fixed(2, 4), alignment="procrustes"), ValueError,
                      f"alignment must be one of {engine.ALIGNMENTS}, got 'procrustes'"),
    "r above d": (lambda: engine.initial_basis(3, 4, seed=0), DimensionMismatch, "iteration rank 4 exceeds dimension 3"),
    "empty stack": (lambda: engine.residual_rho(np.zeros((0, 3, 2))), ValueError,
                    "need a non-empty stack of d x r worker bases"),
    "rho alignment": (lambda: engine.residual_rho(np.ones((2, 3, 2)), "procrustes"), ValueError,
                      "unknown alignment 'procrustes'"),
    "draw scheme 3": (lambda: engine.draw_participants(3, 2, [0.5, 0.5], np.random.default_rng(0)), ValueError,
                      "scheme must be 1 or 2, got 3"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
