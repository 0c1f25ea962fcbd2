"""Federated power-iteration engine.

Simulates m workers that hold row shards of one data matrix. Each worker
runs local power steps on its shard's second-moment matrix; at scheduled
rounds the workers' bases are aligned to a baseline worker (orthogonal
Procrustes or column sign-fixing), optionally perturbed with calibrated
Gaussian noise on both the worker and the server side, aggregated, and
broadcast back. Runs are bit-reproducible for a fixed seed: every random
draw comes from a dedicated counter-based stream keyed by (site, round,
worker), and every weighted sum over workers is one ``np.tensordot`` of the
coefficients and a stacked array. Its summation order is the BLAS kernel's,
so the bytes are fixed for one numpy build and one OpenBLAS kernel.

Every event (a round, the horizon, or every step under ``record_every_step``)
forms its basis by one rule and one ``linalg.orth``: the members' held bases
are aligned to the baseline's, weighted and summed. A round's members are
its participants; it sums their aligned local products, adds the noise and
broadcasts the result. Between rounds, the output basis is the last round's
aggregation applied to the workers' own aligned bases (before the first
round, every worker's by data weight).

Workers are conceptually concurrent. Their bases are one (B, m, d, r) stack,
slice b for budget b from step 0: :func:`run_budgets` runs B configs that
differ only in their privacy budget in one pass, with one draw of
participants per round and one standard-normal draw per (site, round,
worker) that each budget scales by its own noise scale, and :func:`run` is
that pass with B = 1. The plain steps before each event run in one
``ShardedDataset.local_steps`` call. A round's products come from one
``ShardedDataset.local_products`` call for its members only (except a full
round from a shared basis, below), and a round from differing bases adds
one batched QR and one stacked alignment. The QR and the alignment give
each slice exactly the arithmetic of a lone worker, and a member's product
has the bits of its slice of every worker's. The local products and steps
give each slice ``orth(M_i z_i)`` up to rounding only: when the shards are
shorter than d/2 they run through each shard's ``M_i = V_i diag(lam_i)
V_i.T`` (a run of local steps as one h x r QR per chunk of steps on ``V_i.T
z_i`` when every shard has r rows or more), and otherwise through the
cached Gram stack.

A round at step 1 or right after another starts from one basis z that every
worker holds, so it aligns z once, against itself (D). Under full
participation its aligned upload sum ``sum_i p_i (M_i z) D`` is formed as
``M z D``: one d x d product with the cached global Gram, which differs
from the per-worker form by floating-point summation order only. Under
partial participation its members' products ``M_i z`` come from
``local_products``, as on any other round. Each worker's local noise is
still drawn from its own stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, privacy
from .data import ShardedDataset
from .errors import DimensionMismatch, InvalidBudget

__all__ = [
    "ALIGN_NONE",
    "ALIGN_OPT",
    "ALIGN_SIGN",
    "FULL_PARTICIPATION",
    "Participation",
    "RunConfig",
    "RunTrace",
    "SyncRecord",
    "SyncSchedule",
    "build_schedule",
    "draw_participants",
    "initial_basis",
    "local_approx_eta",
    "noise_scales",
    "residual_rho",
    "run",
    "run_budgets",
    "run_full",
    "run_partial",
]

ALIGN_NONE = "none"
ALIGN_OPT = "opt"
ALIGN_SIGN = "sign_fix"
ALIGNMENTS = (ALIGN_NONE, ALIGN_OPT, ALIGN_SIGN)


@dataclass(frozen=True)
class SyncSchedule:
    """The set of iteration indices at which communication happens.

    ``steps`` is strictly increasing within [1, horizon]. Iteration 0 is
    never a member: no communication happens before the first local step.
    """

    horizon: int
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        prev = 0
        for t in self.steps:
            if not (isinstance(t, int) and prev < t <= self.horizon):
                raise ValueError(f"sync steps must be strictly increasing within [1, {self.horizon}]")
            prev = t

    @classmethod
    def fixed(cls, p: int, horizon: int) -> "SyncSchedule":
        """Communicate every p iterations: {p, 2p, ..., p * floor(T/p)}."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        return cls(horizon, tuple(range(p, horizon + 1, p)))

    @classmethod
    def decaying(cls, p0: int, horizon: int) -> "SyncSchedule":
        """Gaps shrink by one per round, from p0 down to 1, then stay 1."""
        if p0 < 1:
            raise ValueError(f"p0 must be >= 1, got {p0}")
        steps = []
        t = 0
        gap = p0
        while True:
            t += max(gap, 1)
            gap -= 1
            if t > horizon:
                break
            steps.append(t)
        return cls(horizon, tuple(steps))

    @classmethod
    def explicit(cls, steps, horizon: int) -> "SyncSchedule":
        return cls(horizon, tuple(int(t) for t in steps))


def build_schedule(kind: str, horizon: int, p: int | None = None, steps=None) -> SyncSchedule:
    if kind == "fixed":
        return SyncSchedule.fixed(p, horizon)
    if kind == "decaying":
        return SyncSchedule.decaying(p, horizon)
    if kind == "explicit":
        return SyncSchedule.explicit(steps or (), horizon)
    raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class Participation:
    """Which workers contribute to each aggregation round.

    "full" uses everyone. "partial" samples ``count`` devices per round:
    scheme 1 draws with replacement proportionally to the data weights and
    averages uniformly; scheme 2 draws uniformly without replacement and
    reweights by m/count * p_i.
    """

    kind: str = "full"
    count: int | None = None
    scheme: int | None = None

    def __post_init__(self):
        if self.kind not in ("full", "partial"):
            raise ValueError(f"participation kind must be 'full' or 'partial', got {self.kind!r}")
        if self.kind == "partial":
            if self.count is None or self.count < 1:
                raise ValueError(f"partial participation needs count >= 1, got {self.count}")
            if self.scheme not in (1, 2):
                raise ValueError(f"scheme must be 1 or 2, got {self.scheme}")


FULL_PARTICIPATION = Participation("full")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the dataset. A noisy budget that spans
    other than the schedule's rounds, or splits its epsilon under partial
    participation, raises :class:`InvalidBudget` here, before any data is read."""

    k: int
    r: int
    schedule: SyncSchedule
    privacy: privacy.PrivacyConfig
    alignment: str = ALIGN_SIGN
    participation: Participation = FULL_PARTICIPATION
    seed: int = 0
    record_every_step: bool = False
    keep_basis_history: bool = False

    def __post_init__(self):
        if self.k < 1 or self.r < self.k:
            raise ValueError(f"need 1 <= k <= r, got k={self.k}, r={self.r}")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"alignment must be one of {ALIGNMENTS}, got {self.alignment!r}")
        priv, rounds = self.privacy, len(self.schedule.steps)
        if not priv.noiseless and priv.rounds != rounds:
            raise InvalidBudget(f"privacy config spans {priv.rounds} rounds but the schedule has {rounds}")
        if not priv.noiseless and priv.eps_split is not None and self.participation.kind == "partial":
            raise InvalidBudget("per-round budget splitting is only calibrated for full participation")

    @property
    def horizon(self) -> int:
        return self.schedule.horizon


@dataclass(frozen=True)
class SyncRecord:
    t: int
    comm_count: int
    sin_theta_k: float
    rho_t: float
    eps_spent: float
    delta_spent: float
    wall_ms: float


@dataclass
class RunTrace:
    """Per-round metrics, the final orthonormalized basis and the applied noise scales.

    ``eta`` is one value per dataset, computed by :func:`local_approx_eta`
    when first read, not by the run, and kept; ``compare`` never reads it.
    """

    records: list[SyncRecord]
    final_basis: np.ndarray
    scales: privacy.NoiseScales
    _dataset: ShardedDataset | None = field(repr=False, compare=False)
    basis_history: list[tuple[int, np.ndarray]] | None = None

    @cached_property
    def eta(self) -> float:
        eta, self._dataset = local_approx_eta(self._dataset), None  # once read, the trace keeps no shard alive
        return eta


def initial_basis(d: int, r: int, seed: int) -> np.ndarray:
    """Shared starting basis: orthonormalized seeded Gaussian d x r."""
    if r > d:
        raise DimensionMismatch(f"iteration rank {r} exceeds dimension {d}")
    raw = privacy.standard_gaussian(d, r, seed, (privacy.STREAM_INIT, 0, 0))
    return linalg.orth(raw)


def local_approx_eta(dataset: ShardedDataset) -> float:
    """Smallest eta with ``||M_i - M||_2 <= eta ||M||_2`` over all shards.

    Purely diagnostic: large values mean shards are poor surrogates of the
    global second-moment matrix. Computed once per dataset, on its first
    read (:attr:`RunTrace.eta` reads it, :func:`run` does not), and cached.
    """
    return dataset.eta


def _alignment_matrix(mode: str, zs: np.ndarray, z_base: np.ndarray) -> np.ndarray:
    # (..., r, r) stack aligning each basis in zs to z_base (broadcast); "none" is the identity.
    if mode == ALIGN_NONE:
        r = zs.shape[-1]
        return np.broadcast_to(np.eye(r), zs.shape[:-2] + (r, r))
    if mode == ALIGN_OPT:
        return linalg.procrustes(zs, z_base)
    if mode == ALIGN_SIGN:
        return linalg.sign_fix(zs, z_base)
    raise ValueError(f"unknown alignment {mode!r}")


def residual_rho(zs, alignment: str = ALIGN_NONE, baseline: int = 0) -> float:
    """Worst-case aligned deviation from the baseline worker's basis,
    ``max_i ||z_i @ D_i - z_base||_2``, over a (m, d, r) stack (or a list)
    of worker bases."""
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 3 or zs.shape[0] == 0:
        raise ValueError("need a non-empty stack of d x r worker bases")
    z_base = zs[baseline]
    dev = zs @ _alignment_matrix(alignment, zs, z_base) - z_base
    return float(np.linalg.norm(dev, 2, axis=(-2, -1)).max())


def draw_participants(scheme: int, count: int, weights, rng: np.random.Generator) -> np.ndarray:
    """Sample the participant multiset for one round, sorted by index.

    Scheme 1: ``count`` i.i.d. draws, index i with probability p_i, repeats
    possible. Scheme 2: uniform without replacement.
    """
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.size
    if scheme == 1:
        picks = rng.choice(m, size=count, replace=True, p=weights)
    elif scheme == 2:
        picks = rng.choice(m, size=count, replace=False)
    else:
        raise ValueError(f"scheme must be 1 or 2, got {scheme}")
    return np.sort(picks)


def noise_scales(dataset: ShardedDataset, cfg: RunConfig) -> privacy.NoiseScales:
    """The two noise scales ``cfg``'s budget calibrates to on ``dataset``.

    Raises :class:`InvalidBudget` when the budget cannot be calibrated there,
    and ``ValueError`` for a sampled count above m.
    """
    part, weights = cfg.participation, dataset.weights
    if part.kind == "partial":
        return privacy.scales_partial(cfg.privacy, dataset.min_shard_size, weights, part.count, part.scheme)
    return privacy.scales_full(cfg.privacy, dataset.min_shard_size, float(weights.max()))


def run_full(dataset: ShardedDataset, cfg: RunConfig, reference=None) -> RunTrace:
    """:func:`run`, checking that the config asks for full participation."""
    if cfg.participation.kind != "full":
        raise ValueError("run_full requires full participation config")
    return run(dataset, cfg, reference)


def run_partial(dataset: ShardedDataset, cfg: RunConfig, reference=None) -> RunTrace:
    """:func:`run`, checking that the config asks for partial participation."""
    if cfg.participation.kind != "partial":
        raise ValueError("run_partial requires partial participation config")
    return run(dataset, cfg, reference)


def _round_members(part: Participation, weights, seed: int, round_idx: int):
    """(ids, coefficients, baseline) of one aggregation round.

    This is the one rule for who takes part and who the baseline is. Full
    participation: every worker, weighted by its data weight, aligned to the
    heaviest one (ties break to the lowest index). Partial: the distinct
    sampled workers, in index order, weighted count/K under scheme 1 and
    m/K * p_i under scheme 2, aligned to the lowest sampled id.
    """
    if part.kind == "full":
        return np.arange(weights.size), weights, int(np.argmax(weights))
    rng = privacy.stream(seed, (privacy.STREAM_SAMPLER, round_idx, 0))
    ids, counts = np.unique(draw_participants(part.scheme, part.count, weights, rng), return_counts=True)
    coefs = counts / part.count if part.scheme == 1 else (weights.size / part.count) * weights[ids]
    return ids, coefs, int(ids[0])


def run(dataset: ShardedDataset, cfg: RunConfig, reference=None) -> RunTrace:
    """Run the protocol with the config's participation, full or partial:
    :func:`run_budgets` with one budget.

    ``reference`` is the d x k (or wider) basis that ``sin_theta_k`` is
    measured against; by default ``dataset.reference_basis(cfg.k)``.
    """
    return run_budgets(dataset, [cfg], reference)[0]


def run_budgets(dataset: ShardedDataset, cfgs: list[RunConfig], reference=None) -> list[RunTrace]:
    """One trace per config, from one pass that advances every config together.

    The configs may differ in ``privacy`` only (else ``ValueError``), so they
    share the schedule, each round's participants and every standard-normal
    draw: each (site, round, worker) stream is drawn once and scaled per
    budget, which gives each trace exactly the bytes of its own run. The
    worker bases are one (B, m, d, r) stack from step 0, so budget b's trace
    reads slice b throughout. ``wall_ms`` times the whole pass.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    if any({**vars(c), "privacy": None} != {**vars(cfg), "privacy": None} for c in cfgs):
        raise ValueError("run_budgets needs configs that differ in privacy only")
    d = dataset.d
    zs = np.tile(initial_basis(d, cfg.r, cfg.seed), (len(cfgs), dataset.m, 1, 1))  # rejects r > d
    part = cfg.participation
    weights = dataset.weights
    sync_steps = frozenset(cfg.schedule.steps)
    scales = [noise_scales(dataset, c) for c in cfgs]

    if reference is None:
        reference = dataset.reference_basis(cfg.k)
    reference = linalg.as_matrix(reference)[:, : cfg.k]

    # Every event aggregates the last round's members (ids, coefficients, baseline). Before
    # any round, both kinds take every worker by data weight, as full participation does.
    ids, coefs, base = _round_members(FULL_PARTICIPATION, weights, cfg.seed, 0)
    base_full = base

    records: list[list[SyncRecord]] = [[] for _ in cfgs]
    histories = [[] if cfg.keep_basis_history else None for _ in cfgs]
    comm = 0
    started = time.perf_counter()

    # Each event (a sync step, the horizon, or every step under record_every_step)
    # writes a record; the plain steps before it run in one local_steps call.
    events = range(1, cfg.horizon + 1) if cfg.record_every_step else sorted(sync_steps | {cfg.horizon})
    for prev, t in zip((0, *events), events):
        synced = t in sync_steps
        zs = dataset.local_steps(zs, t - prev - synced)
        if synced:
            ids, coefs, base = _round_members(part, weights, cfg.seed, comm)
        # At a round at step 1 or right after another, every worker holds the same
        # basis; the round then aligns that one basis, else each member's own.
        shared = synced and (t == 1 or t - 1 in sync_steps)
        held = zs[:, :1] if shared else zs[:, ids]
        d_ids = _alignment_matrix(cfg.alignment, held, zs[:, base, None])
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing noise is NonFinite in orth below
            if shared and part.kind == "full":
                # sum_i p_i (M_i z) D = M z D: one d x d product with the global Gram.
                agg = dataset.global_gram() @ zs[:, 0] @ d_ids[:, 0]
            else:
                # A round sums its members' aligned products, any other event their aligned bases.
                terms = (dataset.local_products(held, ids) if synced else held) @ d_ids
                agg = np.stack([np.tensordot(coefs, x, axes=1) for x in terms])
            if synced:
                # Each (site, round, worker) stream is drawn once; budget b scales it by its own
                # sigma and by the max-abs entry of its own slice b of the held bases (one on a shared round).
                if any(sc.sigma_local > 0.0 for sc in scales):
                    draws = np.stack([privacy.standard_gaussian(d, cfg.r, cfg.seed, (privacy.STREAM_LOCAL, comm, int(i)))
                                      for i in ids])
                    held_max = np.abs(held).max(axis=(-2, -1))
                if any(sc.sigma_server > 0.0 for sc in scales):
                    draw = privacy.standard_gaussian(d, cfg.r, cfg.seed, (privacy.STREAM_SERVER, comm, 0))
                    upload_max = np.abs(held @ d_ids).max(axis=(-3, -2, -1))
                for b, sc in enumerate(scales):
                    if sc.sigma_local > 0.0:
                        agg[b] += np.tensordot(coefs, (held_max[b] * sc.sigma_local)[:, None, None] * draws, axes=1)
                    if sc.sigma_server > 0.0:
                        agg[b] += float(upload_max[b]) * sc.sigma_server * draw
        z_bar = linalg.orth(agg, require_full_rank=False)
        if synced:
            zs[:] = z_bar[:, None]
            comm += 1

        sins = [linalg.sin_theta_k(z, reference) for z in z_bar]
        # After a sync every worker holds the broadcast basis: rho is 0.
        rhos = [0.0] * len(zs) if synced else [residual_rho(z, cfg.alignment, base_full) for z in zs]
        wall = (time.perf_counter() - started) * 1000.0
        for b, c in enumerate(cfgs):
            records[b].append(SyncRecord(t, comm, sins[b], rhos[b], *privacy.account(c.privacy, comm), wall))
            if histories[b] is not None:
                histories[b].append((t, z_bar[b]))

    return [RunTrace(records=rec, final_basis=z_bar[b], scales=sc, _dataset=dataset, basis_history=hist)
            for b, (rec, sc, hist) in enumerate(zip(records, scales, histories))]
