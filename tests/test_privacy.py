import math

import numpy as np
import pytest
from scipy import stats

from fedpower import privacy
from fedpower.errors import InvalidBudget
from fedpower.privacy import NoiseScales, PrivacyConfig


def test_config_validation():
    with pytest.raises(InvalidBudget):
        PrivacyConfig(epsilon=0.0, delta=0.1, rounds=1)
    with pytest.raises(InvalidBudget):
        PrivacyConfig(epsilon=-1.0, delta=0.1, rounds=1)
    with pytest.raises(InvalidBudget):
        PrivacyConfig(epsilon=1.0, delta=1.0, rounds=1)
    with pytest.raises(InvalidBudget):
        PrivacyConfig(epsilon=1.0, delta=0.1, rounds=0)
    # noiseless mode tolerates a degenerate round count
    assert PrivacyConfig(epsilon=math.inf, delta=0.1, rounds=0).noiseless


@pytest.mark.parametrize("split", [(), (math.inf,), (1.0, 2.0, 3.0)])
def test_eps_split_needs_two_budgets(split):
    # An empty split would otherwise count as all-infinite and drop a finite epsilon's noise.
    with pytest.raises(InvalidBudget, match="two budgets"):
        PrivacyConfig(epsilon=5.0, delta=1e-5, rounds=3, eps_split=split)


@pytest.mark.parametrize("epsilon, split", [
    (-math.inf, None), (math.inf, (-math.inf, -math.inf)), (math.inf, (math.inf, -math.inf)),
], ids=["epsilon", "split", "half-split"])
def test_negative_infinite_budget_is_invalid_not_noiseless(epsilon, split):
    # Only +inf is noiseless; -inf ran without noise when noiseless meant "infinite".
    with pytest.raises(InvalidBudget, match="must be positive"):
        PrivacyConfig(epsilon=epsilon, delta=1e-5, rounds=3, eps_split=split)


# ---------------------------------------------------------------- full participation


def test_scales_full_hand_evaluated():
    # one round, unit shard, delta chosen so the log evaluates to exactly 1
    cfg = PrivacyConfig(epsilon=1.0, delta=1.25 / math.e, rounds=1)
    scales = privacy.scales_full(cfg, min_shard=1, max_weight=0.25)
    assert abs(scales.sigma_local - math.sqrt(2.0)) <= 1e-12
    assert abs(scales.sigma_server - 0.25 * math.sqrt(2.0)) <= 1e-12


def test_scales_full_linear_in_inverse_epsilon():
    lo = PrivacyConfig(epsilon=1.0, delta=1e-3, rounds=4)
    hi = PrivacyConfig(epsilon=2.0, delta=1e-3, rounds=4)
    s_lo = privacy.scales_full(lo, 10, 0.5)
    s_hi = privacy.scales_full(hi, 10, 0.5)
    assert abs(s_lo.sigma_local - 2.0 * s_hi.sigma_local) <= 1e-12
    assert abs(s_lo.sigma_server - 2.0 * s_hi.sigma_server) <= 1e-12


def test_scales_full_noiseless():
    cfg = PrivacyConfig(epsilon=math.inf, delta=1e-3, rounds=4)
    assert privacy.scales_full(cfg, 10, 0.5) == NoiseScales()


def test_scales_formula_inversion():
    # sigma * eps * min_shard / rounds recovers sqrt(2 ln(1.25 R / delta))
    cfg = PrivacyConfig(epsilon=0.7, delta=1e-4, rounds=9)
    scales = privacy.scales_full(cfg, min_shard=17, max_weight=0.3)
    recovered = scales.sigma_local * cfg.epsilon * 17 / cfg.rounds
    assert abs(recovered - math.sqrt(2.0 * math.log(1.25 * 9 / 1e-4))) <= 1e-12


def test_scales_monotone_in_rounds_and_budget():
    base = privacy.scales_full(PrivacyConfig(1.0, 1e-3, 4), 10, 0.5)
    more_rounds = privacy.scales_full(PrivacyConfig(1.0, 1e-3, 8), 10, 0.5)
    tighter = privacy.scales_full(PrivacyConfig(0.5, 1e-3, 4), 10, 0.5)
    assert more_rounds.sigma_local >= base.sigma_local
    assert tighter.sigma_local >= base.sigma_local
    assert base.sigma_local >= 0.0 and base.sigma_server >= 0.0


# ---------------------------------------------------------------- partial participation


def test_scales_partial_hand_evaluated():
    # R=2, eps=1, min shard 10, delta=0.01, scheme-1 max weight 0.1:
    # log argument is 1.25 * 2 * 0.1 / 0.01 = 25
    weights = np.concatenate([[0.1], np.full(11, 0.9 / 11)])
    cfg = PrivacyConfig(epsilon=1.0, delta=0.01, rounds=2)
    scales = privacy.scales_partial(cfg, min_shard=10, weights=weights, count=3, scheme=1)
    expected = (2.0 / 10.0) * math.sqrt(2.0 * math.log(25.0))
    assert abs(scales.sigma_local - expected) <= 1e-12
    # shared-root server scales
    root = math.sqrt(2.0 * math.log(1.25 * 2 / 0.01))
    assert abs(scales.sigma_server - (2.0 / (3 * 10)) * root) <= 1e-12
    scheme2 = privacy.scales_partial(cfg, min_shard=10, weights=weights, count=3, scheme=2)
    assert abs(scheme2.sigma_server - (2.0 * weights.size * 0.1 / (3 * 10)) * root) <= 1e-12


def test_scales_partial_full_cohort_matches_full_server_scale():
    # K = m with equal weights: sigma'' reduces to the full-participation sigma'
    m = 8
    weights = np.full(m, 1.0 / m)
    cfg = PrivacyConfig(epsilon=0.5, delta=1e-3, rounds=5)
    part = privacy.scales_partial(cfg, min_shard=20, weights=weights, count=m, scheme=2)
    full = privacy.scales_full(cfg, min_shard=20, max_weight=1.0 / m)
    assert abs(part.sigma_server - full.sigma_server) <= 1e-12


def test_scales_partial_noiseless_and_invalid():
    weights = np.full(4, 0.25)
    noiseless = PrivacyConfig(math.inf, 1e-3, rounds=3)
    assert privacy.scales_partial(noiseless, 5, weights, 2, 2) == NoiseScales()
    # scheme 2 with many workers pushes 1.25 R / (m delta) under 1
    many = np.full(100, 0.01)
    cfg = PrivacyConfig(epsilon=1.0, delta=0.5, rounds=1)
    with pytest.raises(InvalidBudget):
        privacy.scales_partial(cfg, 5, many, 10, 2)


def test_scales_partial_argument_validation():
    weights = np.full(4, 0.25)
    cfg = PrivacyConfig(1.0, 1e-3, rounds=2)
    with pytest.raises(ValueError):
        privacy.scales_partial(cfg, 5, weights, 0, 1)
    with pytest.raises(ValueError):
        privacy.scales_partial(cfg, 5, weights, 5, 1)
    with pytest.raises(ValueError):
        privacy.scales_partial(cfg, 5, np.array([0.5, 0.6]), 1, 1)


def test_scales_per_round_derivation():
    split = PrivacyConfig(epsilon=1.0, delta=1e-3, rounds=3, eps_split=(2.0, 0.1))
    scales = privacy.scales_full(split, min_shard=10, max_weight=0.2)
    root = math.sqrt(2.0 * math.log(1.25 / 1e-3))
    assert abs(scales.sigma_local - root / 20.0) <= 1e-12
    assert abs(scales.sigma_server - 0.2 * root / 1.0) <= 1e-12
    half = privacy.scales_full(PrivacyConfig(1.0, 1e-3, 3, eps_split=(math.inf, 0.1)), 10, 0.2)
    assert half.sigma_local == 0.0 and half.sigma_server > 0.0


# ---------------------------------------------------------------- noise sampling


def test_sample_noise_zero_scale():
    np.testing.assert_array_equal(
        privacy.sample_noise(3, 4, 0.0, seed=1, key=(1, 0, 0)), np.zeros((3, 4))
    )


def test_sample_noise_deterministic_per_stream():
    a = privacy.sample_noise(5, 6, 1.3, seed=99, key=(1, 2, 3))
    b = privacy.sample_noise(5, 6, 1.3, seed=99, key=(1, 2, 3))
    c = privacy.sample_noise(5, 6, 1.3, seed=99, key=(1, 2, 4))
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0.0


def test_sample_noise_empirical_std():
    draws = privacy.sample_noise(1000, 1000, 1.0, seed=2024, key=(1, 0, 0))
    std = draws.std()
    assert 0.9986 <= std <= 1.0014  # 3-sigma band of the std estimator at 1e6 samples


def test_sample_noise_kolmogorov_smirnov():
    samples = privacy.sample_noise(100_000, 1, 2.5, seed=77, key=(2, 1, 0)).ravel()
    result = stats.kstest(samples, "norm", args=(0.0, 2.5))
    assert result.pvalue >= 1e-3


def test_streams_uncorrelated():
    n = 100_000
    a = privacy.sample_noise(n, 1, 1.0, seed=5, key=(1, 0, 0)).ravel()
    b = privacy.sample_noise(n, 1, 1.0, seed=5, key=(1, 0, 1)).ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) <= 4.0 / math.sqrt(n)


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 0.3, 1.0, 7.5, 1e300, 1.7e308])
def test_sample_noise_is_the_scaled_standard_draw_bit_for_bit(scale):
    # One standard draw scaled per budget is what a privacy sweep adds, so each budget's noise
    # must be exactly its own draw: subnormal and overflowing (infinite) products included.
    key = (privacy.STREAM_LOCAL, 3, 2)
    draw = privacy.sample_noise(40, 7, scale, seed=11, key=key)
    with np.errstate(over="ignore"):
        scaled = scale * privacy.standard_gaussian(40, 7, seed=11, key=key)
    assert draw.tobytes() == scaled.tobytes()
    # numpy's normal(0, scale) adds 0.0 to the same product, which differs only where it underflows to -0.0.
    legacy = privacy.stream(11, key).normal(0.0, scale, size=(40, 7))
    assert np.array_equal(draw, legacy) and (draw.tobytes() == legacy.tobytes()) == (scale > 5e-324)


def test_sample_noise_rejects_negative_scale():
    with pytest.raises(ValueError):
        privacy.sample_noise(2, 2, -1.0, seed=0, key=())


def test_derived_repeat_seeds_stable():
    assert privacy.derive_seed(123, 0) == privacy.derive_seed(123, 0)
    assert privacy.derive_seed(123, 0) != privacy.derive_seed(123, 1)


# ---------------------------------------------------------------- accounting


def test_account_full_run():
    cfg = PrivacyConfig(epsilon=0.8, delta=1e-4, rounds=6)
    assert privacy.account(cfg) == (1.6, 2e-4)


def test_account_cumulative():
    cfg = PrivacyConfig(epsilon=1.0, delta=1e-4, rounds=8)
    assert privacy.account(cfg, 0) == (0.0, 0.0)
    eps_half, delta_half = privacy.account(cfg, 4)
    assert abs(eps_half - 1.0) <= 1e-15
    assert abs(delta_half - 1e-4) <= 1e-18
    # additive and monotone
    prev = (0.0, 0.0)
    for r in range(9):
        cur = privacy.account(cfg, r)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


def test_account_noiseless_and_split():
    assert privacy.account(PrivacyConfig(math.inf, 1e-4, rounds=3)) == (0.0, 0.0)
    split = PrivacyConfig(epsilon=1.0, delta=1e-4, rounds=5, eps_split=(0.4, 0.1))
    eps, delta = privacy.account(split, 2)
    assert abs(eps - 1.0) <= 1e-15
    assert abs(delta - 4e-4) <= 1e-18


# ---------------------------------------------------------------- library guards

NOISY = PrivacyConfig(1.0, 1e-3, rounds=2)
QUARTERS = np.full(4, 0.25)
GUARDS = {
    "min_shard 0": (lambda: privacy.scales_full(NOISY, 0, 0.5), ValueError, "min_shard must be >= 1, got 0"),
    "max_weight 0": (lambda: privacy.scales_full(NOISY, 5, 0.0), ValueError, "max_weight must lie in (0, 1], got 0.0"),
    "scheme 3": (lambda: privacy.scales_partial(NOISY, 5, QUARTERS, 2, 3), ValueError, "scheme must be 1 or 2, got 3"),
    "partial eps_split": (lambda: privacy.scales_partial(PrivacyConfig(math.inf, 1e-3, rounds=2, eps_split=(1.0, 1.0)),
                                                         5, QUARTERS, 2, 1), InvalidBudget,
                          "per-round budget splitting is only calibrated for full participation"),
    "account past its rounds": (lambda: privacy.account(NOISY, 3), ValueError,
                                "rounds_completed must lie in [0, 2], got 3"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
