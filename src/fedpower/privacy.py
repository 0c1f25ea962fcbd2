"""Gaussian-mechanism noise calibration, counter-based noise streams, and
privacy-budget accounting for the federated iteration engine.

Every random draw in a run comes from its own Philox generator, keyed by a
(site, round, worker) tuple under one root seed. Distinct keys give
statistically independent streams, and a (seed, key, shape) triple always
reproduces the same matrix, so whole runs replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBudget

__all__ = [
    "NoiseScales",
    "PrivacyConfig",
    "STREAM_NOTE",
    "account",
    "sample_noise",
    "scales_full",
    "scales_partial",
    "standard_gaussian",
    "stream",
]

# Site codes for stream keys.
STREAM_INIT = 0
STREAM_LOCAL = 1
STREAM_SERVER = 2
STREAM_SAMPLER = 3
STREAM_REPEAT = 4

STREAM_NOTE = (
    "rng=philox(seed_sequence(root_seed, spawn_key=(site, round, worker))); "
    "sites: 0=shared-init 1=local-noise 2=server-noise 3=participant-sampler 4=repeat-seed"
)


@dataclass(frozen=True)
class PrivacyConfig:
    """Total (epsilon, delta) budget for a run with ``rounds`` communication
    rounds.

    ``epsilon = math.inf`` is first-class noiseless mode: every derived noise
    scale is zero and nothing is accounted. Only +inf is noiseless: -inf is
    a budget that is not positive, so it raises :class:`InvalidBudget`.
    ``eps_split`` optionally replaces the total budget with per-round budgets
    (eps_local, eps_server) for the worker-side and server-side
    perturbations; the per-round scale formulas for that mode are derived
    directly from the Gaussian mechanism (see :func:`scales_full`) and
    ``delta`` is then interpreted per round.
    """

    epsilon: float
    delta: float
    rounds: int
    eps_split: tuple[float, float] | None = None

    def __post_init__(self):
        # Checked before the noiseless shortcut: an empty split is "all infinite".
        if self.eps_split is not None and len(self.eps_split) != 2:
            raise InvalidBudget(f"eps_split needs two budgets [eps_local, eps_server], got {self.eps_split}")
        if self.noiseless:
            return
        if self.eps_split is None:
            if not self.epsilon > 0.0:
                raise InvalidBudget(f"epsilon must be positive, got {self.epsilon}")
        elif any(not e > 0.0 for e in self.eps_split):
            raise InvalidBudget(f"eps_split budgets must be positive, got {self.eps_split}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidBudget(f"delta must lie in (0, 1), got {self.delta}")
        if self.rounds < 1:
            raise InvalidBudget("at least one communication round is required when noise is enabled")

    @property
    def noiseless(self) -> bool:
        if self.eps_split is not None:
            return all(e == math.inf for e in self.eps_split)
        return self.epsilon == math.inf

    @classmethod
    def for_schedule(cls, epsilon, delta, schedule, eps_split=None) -> "PrivacyConfig":
        return cls(epsilon=epsilon, delta=delta, rounds=len(schedule.steps), eps_split=eps_split)


@dataclass(frozen=True)
class NoiseScales:
    """The two per-round Gaussian scale factors a run applies: ``sigma_local``
    to each uploading worker's update and ``sigma_server`` to the aggregate.
    Both are 0 in noiseless mode. At run time each scale is further
    multiplied by the max-abs entry of the basis being protected.
    """

    sigma_local: float = 0.0
    sigma_server: float = 0.0


def _check_shard_args(min_shard: int) -> None:
    if min_shard < 1:
        raise ValueError(f"min_shard must be >= 1, got {min_shard}")


def scales_full(cfg: PrivacyConfig, min_shard: int, max_weight: float) -> NoiseScales:
    """Noise scales for full participation, with R = cfg.rounds:

    sigma_local  = R / (eps * min_i s_i) * sqrt(2 ln(1.25 R / delta))
    sigma_server = sigma_local * max_i p_i

    With ``cfg.eps_split`` each round spends (eps_local, delta) worker-side
    and (eps_server, delta) server-side; the Gaussian mechanism with the same
    sensitivities (1/min_i s_i locally, max_i p_i / min_i s_i at the server)
    gives

    sigma_local  = 1 / (eps_local * min_i s_i) * sqrt(2 ln(1.25 / delta))
    sigma_server = max_i p_i / (eps_server * min_i s_i) * sqrt(2 ln(1.25 / delta))

    and an infinite budget zeroes its side. Noiseless mode gives zero scales.
    """
    _check_shard_args(min_shard)
    if not 0.0 < max_weight <= 1.0:
        raise ValueError(f"max_weight must lie in (0, 1], got {max_weight}")
    if cfg.noiseless:
        return NoiseScales()
    if cfg.eps_split is not None:
        eps_local, eps_server = cfg.eps_split
        root = math.sqrt(2.0 * math.log(1.25 / cfg.delta))
        sigma_l = 0.0 if math.isinf(eps_local) else root / (eps_local * min_shard)
        sigma_s = 0.0 if math.isinf(eps_server) else max_weight * root / (eps_server * min_shard)
        return NoiseScales(sigma_local=sigma_l, sigma_server=sigma_s)
    rounds = float(cfg.rounds)
    sigma = rounds / (cfg.epsilon * min_shard) * math.sqrt(2.0 * math.log(1.25 * rounds / cfg.delta))
    return NoiseScales(sigma_local=sigma, sigma_server=sigma * max_weight)


def scales_partial(cfg: PrivacyConfig, min_shard: int, weights, count: int, scheme: int) -> NoiseScales:
    """Noise scales for partial participation with ``count`` sampled devices
    under sampling ``scheme``.

    Scheme 1 samples device i with probability q_i = p_i (with replacement);
    scheme 2 samples uniformly without replacement, q_i = 1/m. The local
    scale uses max_i q_i inside the logarithm:

    sigma_local  = R / (eps * min_i s_i) * sqrt(2 ln(1.25 R max_i q_i / delta))
    sigma_server = R / (K eps min_i s_i) * sqrt(2 ln(1.25 R / delta))              (scheme 1)
    sigma_server = R m max_i p_i / (K eps min_i s_i) * sqrt(2 ln(1.25 R / delta))  (scheme 2)

    Raises :class:`InvalidBudget` when the local logarithm argument is <= 1
    (small q_i can push it there; there is no meaningful calibration then).
    """
    _check_shard_args(min_shard)
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.size
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    if not 1 <= count <= m:
        raise ValueError(f"count must lie in [1, {m}], got {count}")
    if scheme not in (1, 2):
        raise ValueError(f"scheme must be 1 or 2, got {scheme}")
    if cfg.noiseless:
        return NoiseScales()
    if cfg.eps_split is not None:
        raise InvalidBudget("per-round budget splitting is only calibrated for full participation")
    rounds = float(cfg.rounds)
    q_max = float(weights.max()) if scheme == 1 else 1.0 / m
    log_arg = 1.25 * rounds * q_max / cfg.delta
    if log_arg <= 1.0:
        raise InvalidBudget(
            f"local noise formula needs log argument > 1, got {log_arg:.6g} "
            f"(rounds={cfg.rounds}, max q={q_max:.6g}, delta={cfg.delta:.6g})"
        )
    base = rounds / (cfg.epsilon * min_shard)
    root_shared = math.sqrt(2.0 * math.log(1.25 * rounds / cfg.delta))
    server = base / count if scheme == 1 else base * m * float(weights.max()) / count
    return NoiseScales(base * math.sqrt(2.0 * math.log(log_arg)), server * root_shared)


def stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Counter-based generator for the stream ``key`` under ``seed``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.Philox(ss))


def standard_gaussian(rows: int, cols: int, seed: int, key: tuple[int, ...]) -> np.ndarray:
    return stream(seed, key).standard_normal((rows, cols))


def sample_noise(rows: int, cols: int, scale: float, seed: int, key: tuple[int, ...]) -> np.ndarray:
    """i.i.d. N(0, scale^2) matrix from the stream ``key``: exactly
    ``scale * standard_gaussian(rows, cols, seed, key)``, so one standard draw
    serves every scale (the engine scales it once per privacy budget).

    ``scale = 0`` returns exact zeros without touching the generator, and a
    fixed (seed, key, shape) always yields a bit-identical draw. A product
    that overflows is infinite, without a numpy warning.
    """
    if scale < 0.0:
        raise ValueError(f"noise scale must be nonnegative, got {scale}")
    if scale == 0.0:
        return np.zeros((rows, cols))
    with np.errstate(over="ignore"):
        return scale * standard_gaussian(rows, cols, seed, key)


def derive_seed(seed: int, index: int) -> int:
    """Stable derived root seed for repeat ``index`` of an experiment."""
    ss = np.random.SeedSequence(seed, spawn_key=(STREAM_REPEAT, int(index)))
    return int(ss.generate_state(2, np.uint64)[0])


def account(cfg: PrivacyConfig, rounds_completed: int | None = None) -> tuple[float, float]:
    """Cumulative (epsilon, delta) leakage after ``rounds_completed`` rounds.

    Each round perturbs twice (worker side and server side), each site
    spending 1/rounds of the per-site budget, so a full run composes to
    (2 epsilon, 2 delta). Noiseless mode spends nothing. In ``eps_split``
    mode each round composes to (eps_local + eps_server, 2 delta); an
    infinite component makes the composed epsilon infinite.
    """
    if cfg.noiseless:
        return (0.0, 0.0)
    done = cfg.rounds if rounds_completed is None else rounds_completed
    if not 0 <= done <= cfg.rounds:
        raise ValueError(f"rounds_completed must lie in [0, {cfg.rounds}], got {done}")
    if done == 0:
        return (0.0, 0.0)
    if cfg.eps_split is not None:
        eps_round = cfg.eps_split[0] + cfg.eps_split[1]
        return (eps_round * done, 2.0 * cfg.delta * done)
    frac = done / cfg.rounds
    return (2.0 * cfg.epsilon * frac, 2.0 * cfg.delta * frac)
