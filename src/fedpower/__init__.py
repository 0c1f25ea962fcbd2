"""Federated power-iteration truncated SVD with differential privacy,
device sampling, and reproducible experiment traces."""

from . import baselines, cli, data, engine, errors, linalg, privacy
from .data import ShardedDataset, SyntheticSpec, parse_libsvm, partition, scale_features, synth
from .engine import (
    ALIGN_NONE,
    ALIGN_OPT,
    ALIGN_SIGN,
    FULL_PARTICIPATION,
    Participation,
    RunConfig,
    RunTrace,
    SyncSchedule,
    build_schedule,
    run,
    run_budgets,
    run_full,
    run_partial,
)
from .linalg import SvdResult, orth, procrustes, projection_distance, sign_fix, sin_theta_k, svd
from .privacy import NoiseScales, PrivacyConfig, account, sample_noise, scales_full, scales_partial

__version__ = "0.1.0"
