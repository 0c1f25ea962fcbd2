"""Federated power-iteration engine.

Simulates m workers that hold row shards of one data matrix. Each worker
runs local power steps on its shard's second-moment matrix; at scheduled
rounds the workers' bases are aligned to a baseline worker (orthogonal
Procrustes or column sign-fixing), optionally perturbed with calibrated
Gaussian noise on both the worker and the server side, aggregated, and
broadcast back. Runs are bit-reproducible for a fixed seed: every random
draw comes from a dedicated counter-based stream keyed by (site, round,
worker), and aggregation always sums in worker-index order.

Workers are conceptually concurrent. The implementation holds their bases
in one (m, d, r) stack and advances them together (one batched product with
the dataset's cached Gram stack, one batched QR, one stacked alignment per
round), giving each slice exactly the arithmetic of a lone worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    "baseline_index",
    "build_schedule",
    "draw_participants",
    "initial_basis",
    "local_approx_eta",
    "reference_basis",
    "residual_rho",
    "run",
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

    kind: str
    horizon: int
    steps: tuple[int, ...]
    param: int | None = None

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
        return cls("fixed", horizon, tuple(range(p, horizon + 1, p)), p)

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
        return cls("decaying", horizon, tuple(steps), p0)

    @classmethod
    def explicit(cls, steps, horizon: int) -> "SyncSchedule":
        return cls("explicit", horizon, tuple(sorted(set(int(t) for t in steps))))


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
    """Everything a run needs besides the dataset."""

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

    @property
    def horizon(self) -> int:
        return self.schedule.horizon


@dataclass(frozen=True)
class SyncRecord:
    t: int
    comm_count: int
    sin_theta_k: float
    rho_t: float
    eta: float
    eps_spent: float
    delta_spent: float
    wall_ms: float


@dataclass
class RunTrace:
    """Per-round metrics plus the final orthonormalized output basis."""

    records: list[SyncRecord]
    final_basis: np.ndarray
    eta: float
    scales: privacy.NoiseScales
    notes: tuple[str, ...] = ()
    basis_history: list[tuple[int, np.ndarray]] | None = None


def initial_basis(d: int, r: int, seed: int) -> np.ndarray:
    """Shared starting basis: orthonormalized seeded Gaussian d x r."""
    if r > d:
        raise DimensionMismatch(f"iteration rank {r} exceeds dimension {d}")
    raw = privacy.standard_gaussian(d, r, seed, (privacy.STREAM_INIT, 0, 0))
    return linalg.orth(raw)


def reference_basis(dataset: ShardedDataset, k: int) -> np.ndarray:
    """Top-k eigenbasis of the dataset's global second-moment matrix."""
    return linalg.top_eigenpairs(dataset.global_gram(), k).u


def baseline_index(weights, active=None) -> int:
    """Baseline worker used for alignment.

    Full participation: the worker with the largest data weight (ties break
    to the lowest index). With an ``active`` set: its lowest index.
    """
    if active is not None:
        ids = sorted(int(i) for i in active)
        if not ids:
            raise ValueError("active set is empty")
        return ids[0]
    return int(np.argmax(np.asarray(weights)))


def local_approx_eta(dataset: ShardedDataset) -> float:
    """Smallest eta with ``||M_i - M||_2 <= eta ||M||_2`` over all shards.

    Purely diagnostic: large values mean shards are poor surrogates of the
    global second-moment matrix. Computed once per dataset and cached.
    """
    return dataset.eta


def _alignment_matrix(mode: str, zs: np.ndarray, z_base: np.ndarray):
    # Returns None for the identity so callers can skip the multiply.
    if mode == ALIGN_NONE:
        return None
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
    d = _alignment_matrix(alignment, zs, z_base)
    dev = (zs if d is None else zs @ d) - z_base
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


def _resolve_scales(dataset, cfg, n_rounds):
    priv = cfg.privacy
    if priv.noiseless:
        return privacy.NoiseScales(), 0.0, 0.0
    if n_rounds == 0:
        raise InvalidBudget("noise requested but the schedule has no communication rounds")
    if priv.rounds != n_rounds:
        raise InvalidBudget(
            f"privacy config spans {priv.rounds} rounds but the schedule has {n_rounds}"
        )
    part = cfg.participation
    if part.kind == "partial":
        scales = privacy.scales_partial(
            priv, dataset.min_shard_size, dataset.weights, part.count, part.scheme
        )
        server = scales.sigma_server_s1 if part.scheme == 1 else scales.sigma_server_s2
        return scales, scales.sigma_local_partial, server
    scales = privacy.scales_full(priv, dataset.min_shard_size, float(dataset.weights.max()))
    return scales, scales.sigma_local, scales.sigma_server_full


FALLBACK_NOTE = (
    "output-fallback: no synchronization occurred; aggregated all workers by data weight"
)


def _round_members(part: Participation, weights, seed: int, round_idx: int):
    """(ids, coefficients, baseline) of one aggregation round.

    Full participation: every worker, weighted by its data weight, aligned to
    the heaviest one. Partial: the distinct sampled workers, weighted count/K
    under scheme 1 and m/K * p_i under scheme 2, aligned to the lowest id.
    """
    if part.kind == "full":
        return np.arange(weights.size), weights, baseline_index(weights)
    rng = privacy.stream(seed, (privacy.STREAM_SAMPLER, round_idx, 0))
    ids, counts = np.unique(draw_participants(part.scheme, part.count, weights, rng), return_counts=True)
    coefs = counts / part.count if part.scheme == 1 else (weights.size / part.count) * weights[ids]
    return ids, coefs, baseline_index(weights, ids)


def _aggregate(coefs, stack: np.ndarray) -> np.ndarray:
    # Sums in worker-index order, which keeps runs bit-reproducible.
    acc = np.zeros(stack.shape[1:])
    for coef, item in zip(coefs, stack):
        acc += coef * item
    return acc


def _output_basis(zs, alignment, synced, ids, coefs, base):
    """Aggregate the listed worker bases per the protocol's output rule, then
    orthonormalize.

    At a synchronization step the bases are already aligned (they are all
    equal), so no transform is applied; otherwise each basis is aligned to
    the baseline worker first.
    """
    selected = zs[ids]
    if not synced:
        d = _alignment_matrix(alignment, selected, zs[base])
        if d is not None:
            selected = selected @ d
    return linalg.orth(_aggregate(coefs, selected), require_full_rank=False)


def run(dataset: ShardedDataset, cfg: RunConfig, reference=None) -> RunTrace:
    """Run the protocol with the config's participation, full or partial.

    ``reference`` is the d x k (or wider) basis that ``sin_theta_k`` is
    measured against; by default the dataset's :func:`reference_basis`.
    """
    d = dataset.d
    m = dataset.m
    if cfg.r > d:
        raise DimensionMismatch(f"iteration rank r={cfg.r} exceeds feature count d={d}")
    part = cfg.participation
    if part.kind == "partial" and part.count > m:
        raise ValueError(f"cannot sample {part.count} of {m} workers")
    weights = dataset.weights
    sync_steps = frozenset(cfg.schedule.steps)
    scales, sigma_local, sigma_server = _resolve_scales(dataset, cfg, len(cfg.schedule.steps))

    eta = local_approx_eta(dataset)
    if reference is None:
        reference = reference_basis(dataset, cfg.k)
    reference = linalg.as_matrix(reference)[:, : cfg.k]

    grams = dataset.shard_grams
    zs = np.repeat(initial_basis(d, cfg.r, cfg.seed)[None], m, axis=0)
    base_full = baseline_index(weights)
    # The output basis weights the last round's participants. Before any
    # round, partial participation falls back to every worker by data weight.
    out_ids, out_coefs, out_base = np.arange(m), weights, (base_full if part.kind == "full" else 0)

    records: list[SyncRecord] = []
    history: list[tuple[int, np.ndarray]] | None = [] if cfg.keep_basis_history else None
    notes: tuple[str, ...] = ()
    comm = 0
    z_bar = None
    started = time.perf_counter()

    for t in range(1, cfg.horizon + 1):
        ys = grams @ zs
        synced = t in sync_steps
        if synced:
            round_idx = comm
            ids, coefs, base = _round_members(part, weights, cfg.seed, round_idx)
            uploads = ys[ids]
            aligned = zs[ids]
            d_ids = _alignment_matrix(cfg.alignment, aligned, zs[base])
            if d_ids is not None:
                uploads = uploads @ d_ids
                aligned = aligned @ d_ids
            server_norm = float(np.abs(aligned).max())
            if sigma_local > 0.0:
                for j, i in enumerate(ids):
                    std = float(np.abs(zs[i]).max()) * sigma_local
                    uploads[j] += privacy.sample_noise(
                        d, cfg.r, std, cfg.seed, (privacy.STREAM_LOCAL, round_idx, int(i))
                    )
            agg = _aggregate(coefs, uploads)
            if sigma_server > 0.0:
                agg = agg + privacy.sample_noise(
                    d, cfg.r, server_norm * sigma_server, cfg.seed,
                    (privacy.STREAM_SERVER, round_idx, 0),
                )
            zs[:] = linalg.orth(agg, require_full_rank=False)
            comm += 1
            out_ids, out_coefs, out_base = ids, coefs, base
        else:
            zs = linalg.orth(ys, require_full_rank=False)

        if synced or t == cfg.horizon or cfg.record_every_step:
            if part.kind == "partial" and comm == 0:
                notes = (FALLBACK_NOTE,)
            z_bar = _output_basis(zs, cfg.alignment, synced, out_ids, out_coefs, out_base)
            sin_val = linalg.sin_theta_k(z_bar, reference)
            # After a sync every worker holds the broadcast basis: rho is 0.
            rho_val = 0.0 if synced else residual_rho(zs, cfg.alignment, base_full)
            eps_spent, delta_spent = privacy.account(cfg.privacy, comm)
            wall = (time.perf_counter() - started) * 1000.0
            records.append(
                SyncRecord(t, comm, sin_val, rho_val, eta, eps_spent, delta_spent, wall)
            )
            if history is not None:
                history.append((t, z_bar))

    return RunTrace(
        records=records,
        final_basis=z_bar,
        eta=eta,
        scales=scales,
        notes=notes,
        basis_history=history,
    )
