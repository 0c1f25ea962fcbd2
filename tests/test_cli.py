import json
import math

import numpy as np
import pytest

from fedpower import cli
from fedpower.cli import ExperimentConfig, parse_trace
from fedpower.data import write_libsvm
from fedpower.errors import ConfigError


def config_doc(**overrides):
    doc = {
        "dataset": {
            "synthetic": {
                "n": 200,
                "d": 12,
                "singular_values": [6.0, 5.0, 4.0, 3.0, 2.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02],
                "seed": 3,
            }
        },
        "m": 4,
        "partition": "shuffled",
        "k": 3,
        "r": 3,
        "T": 30,
        "schedule": {"kind": "fixed", "p": 2},
        "alignment": "sign_fix",
        "privacy": {"epsilon": "inf", "delta": 1e-4},
        "participation": {"kind": "full"},
        "repeats": 2,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(config_doc())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.k == cfg.k and again.horizon == cfg.horizon
    assert math.isinf(again.epsilon)
    assert again.synthetic == cfg.synthetic


def test_config_requires_one_dataset():
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, r=1, horizon=1)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="'alignmnet'"):
        ExperimentConfig.from_dict(config_doc(alignmnet="opt"))
    with pytest.raises(ConfigError, match="'privacy.epsilonn'"):
        ExperimentConfig.from_dict(config_doc(privacy={"epsilonn": 1.0}))
    doc = config_doc()
    doc["dataset"]["synthetic"]["sed"] = 3
    with pytest.raises(ConfigError, match="'dataset.synthetic.sed'"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("overrides, path", [
    ({"record_every_step": "false"}, "record_every_step"),
    ({"dataset": {"scale": "false"}}, "dataset.scale"),
    ({"m": 2.7}, "m"),
    ({"m": True}, "m"),
    ({"schedule": {"kind": "explicit", "steps": [2, "5"]}}, "schedule.steps"),
])
def test_config_rejects_values_it_would_coerce(overrides, path, tmp_path, capsys):
    # bool("false") is True and int(2.7) is 2: each would run another config.
    if "dataset" in overrides:
        libsvm = tmp_path / "tiny.libsvm"
        write_libsvm(libsvm, np.random.default_rng(71).standard_normal((40, 12)))
        overrides = {"dataset": {"libsvm": str(libsvm), **overrides["dataset"]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(**overrides)))
    code = cli.main(["run", "--config", str(cfg_path)])
    payload = json.loads(capsys.readouterr().err.strip())
    assert code == 1
    assert payload["error"] == "ConfigError"
    assert repr(path) in payload["message"]


def test_unknown_partition_mode_is_an_error():
    with pytest.raises(ValueError, match="partition mode 'random'"):
        cli.run_experiment(ExperimentConfig.from_dict(config_doc(partition="random")))


def test_config_accepts_integral_floats():
    cfg = ExperimentConfig.from_dict(config_doc(m=4.0, T=30.0))
    assert (cfg.m, cfg.horizon) == (4, 30) and isinstance(cfg.m, int)


def test_config_accepts_every_key_it_writes():
    for doc in (
        config_doc(schedule={"kind": "explicit", "steps": [2, 5]}, out="x.csv"),
        config_doc(participation={"kind": "partial", "K": 2, "scheme": 1}),
    ):
        cfg = ExperimentConfig.from_dict(doc)
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_run_experiment_trace_and_summary():
    cfg = ExperimentConfig.from_dict(config_doc())
    trace = cli.run_experiment(cfg)
    assert len(trace.repeats) == 2
    summary = trace.summary()
    assert summary["repeats"] == 2
    assert 0.0 <= summary["final_sin_theta_mean"] <= 1.0
    text = trace.render()
    assert text.splitlines()[4] == cli.TRACE_COLUMNS


def test_run_experiment_converges_on_gapped_spectrum():
    doc = config_doc(
        dataset={
            "synthetic": {
                "n": 500,
                "d": 20,
                "singular_values": list(np.geomspace(10.0, 4.0, 5)) + list(np.geomspace(0.8, 0.1, 15)),
                "seed": 5,
            }
        },
        k=5,
        r=5,
        T=120,
        schedule={"kind": "fixed", "p": 1},
        m=6,
        repeats=1,
    )
    trace = cli.run_experiment(ExperimentConfig.from_dict(doc))
    assert trace.summary()["final_sin_theta_mean"] <= 1e-10


def test_csv_bytes_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig.from_dict(config_doc(out=str(out)))
        cli.run_experiment(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_trace_parse_round_trip():
    cfg = ExperimentConfig.from_dict(config_doc(repeats=2))
    trace = cli.run_experiment(cfg)
    parsed = parse_trace(trace.render())
    assert parsed["seed"] == 7
    assert parsed["columns"] == cli.TRACE_COLUMNS.split(",")
    assert len(parsed["repeats"]) == 2
    first = parsed["repeats"][0]["records"][0]
    assert first["t"] == trace.repeats[0].records[0].t
    assert first["sin_theta_k"] == trace.repeats[0].records[0].sin_theta_k
    assert parsed["summary"]["final_sin_theta_mean"] == trace.summary()["final_sin_theta_mean"]


def test_trace_parse_types_cells_by_column():
    cfg = ExperimentConfig.from_dict(config_doc(repeats=1))
    lines = cli.run_experiment(cfg).render().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#") and i > 4)
    cells = lines[row].split(",")
    cells[4] = "nan"  # sin_theta_k
    cells[7] = "0"  # wall_ms written without a decimal point
    lines[row] = ",".join(cells)
    record = parse_trace("\n".join(lines))["repeats"][0]["records"][0]
    assert math.isnan(record["sin_theta_k"])
    assert isinstance(record["wall_ms"], float) and record["wall_ms"] == 0.0
    assert isinstance(record["t"], int) and isinstance(record["comm_count"], int)


def test_threads_do_not_change_results():
    cfg = ExperimentConfig.from_dict(config_doc(repeats=3))
    solo = cli.run_experiment(cfg, threads=1)
    pooled = cli.run_experiment(cfg, threads=3)
    assert solo.render() == pooled.render()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("via_env", [False, True])
def test_thread_count_below_one_is_an_error(value, via_env, tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(repeats=3)))
    argv = ["run", "--config", str(cfg_path)]
    if via_env:
        monkeypatch.setenv(cli.THREADS_ENV, value)
    else:
        argv += ["--threads", value]
    assert cli.main(argv) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "at least 1" in payload["message"]


def test_non_integer_thread_env_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "two")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc()))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert cli.THREADS_ENV in payload["message"]


# ---------------------------------------------------------------- compare


def test_compare_threads_do_not_change_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(repeats=3, T=12)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"compare{threads}.csv"
        code = cli.main(["compare", "--config", str(cfg_path), "--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]




def test_compare_single_shard_degenerate():
    # exact rank-k data so every one-shot method degenerates to an exact
    # single-machine factorization
    doc = config_doc(
        m=1,
        repeats=2,
        T=40,
        schedule={"kind": "fixed", "p": 4},
        dataset={"synthetic": {"n": 200, "d": 12, "singular_values": [5.0, 4.0, 3.0], "seed": 3}},
    )
    table = cli.compare_baselines(ExperimentConfig.from_dict(doc))
    rows = {row["algorithm"]: row for row in table.rows}
    assert set(rows) == set(cli.COMPARE_ALGORITHMS)
    for name in ("UDA", "WDA", "DR-SVD"):
        assert rows[name]["final_error_mean"] <= 1e-9


def drifting_rows(n, d, k, seed, drift=0.6):
    """Rows whose covariance frame rotates with row index (pre-sorted by the
    drift key), so a contiguous split gives heterogeneous shards."""
    from fedpower import linalg

    rng = np.random.default_rng(seed)
    base = linalg.orth(rng.standard_normal((d, d)))
    scales = np.concatenate([np.geomspace(3.0, 1.5, k), np.geomspace(0.35, 0.05, d - k)])
    y = rng.standard_normal((n, d)) * scales
    f = np.linspace(-0.5, 0.5, n) * drift
    c, s = np.cos(f), np.sin(f)
    for a, b in ((0, k), (1, k + 1)):
        ya, yb = y[:, a].copy(), y[:, b].copy()
        y[:, a] = c * ya - s * yb
        y[:, b] = s * ya + c * yb
    return y @ base.T


def test_compare_heterogeneous_one_shot_gap(tmp_path):
    # converged runs on sorted heterogeneous shards beat one-shot averaging
    # by far more than the required factor of two
    from fedpower.data import write_libsvm

    path = tmp_path / "drift.libsvm"
    write_libsvm(path, drifting_rows(1000, 20, 5, seed=1))
    doc = {
        "dataset": {"libsvm": str(path), "scale": False},
        "m": 20,
        "partition": "contiguous",
        "k": 5,
        "r": 5,
        "T": 150,
        "schedule": {"kind": "decaying", "p": 4},
        "alignment": "sign_fix",
        "privacy": {"epsilon": "inf", "delta": 1e-4},
        "participation": {"kind": "full"},
        "repeats": 3,
        "seed": 9,
    }
    table = cli.compare_baselines(ExperimentConfig.from_dict(doc))
    rows = {r["algorithm"]: r["final_error_mean"] for r in table.rows}
    for fed in ("FedPower-OPT", "FedPower-SignFix", "FedPower-vanilla"):
        assert rows[fed] <= 0.5 * rows["UDA"]
        assert rows[fed] <= 0.5 * rows["WDA"]


def test_compare_exact_low_rank_dr_svd():
    doc = config_doc(
        dataset={
            "synthetic": {"n": 150, "d": 20, "singular_values": [5.0, 4.0, 3.0], "seed": 9}
        },
        k=3,
        r=3,
        m=3,
        T=40,
        schedule={"kind": "fixed", "p": 4},
        repeats=2,
    )
    table = cli.compare_baselines(ExperimentConfig.from_dict(doc))
    rows = {row["algorithm"]: row for row in table.rows}
    assert rows["DR-SVD"]["final_error_mean"] <= 1e-9


# ---------------------------------------------------------------- privacy sweep


def test_privacy_sweep_noiseless_entry_and_accounting():
    doc = config_doc(repeats=2, T=40, schedule={"kind": "fixed", "p": 2}, privacy={"epsilon": 1.0, "delta": 1e-3})
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 5.0, 1.0])
    by_eps = {row["epsilon"]: row for row in sweep.rows}
    assert by_eps[math.inf]["status"] == "ok"
    assert by_eps[math.inf]["eps_spent_total"] == 0.0
    assert by_eps[1.0]["eps_spent_total"] == 2.0  # (2 eps, 2 delta) composition
    assert by_eps[1.0]["delta_spent_total"] == 2e-3
    noiseless_doc = config_doc(repeats=2, T=40, schedule={"kind": "fixed", "p": 2})
    reference = cli.run_experiment(ExperimentConfig.from_dict(noiseless_doc))
    window = [
        min(r.sin_theta_k for r in rep.records if r.t <= cli.SWEEP_WINDOW)
        for rep in reference.repeats
    ]
    assert abs(by_eps[math.inf]["min_sin_theta_mean"] - float(np.mean(window))) <= 1e-15


def test_privacy_sweep_surfaces_invalid_budget_without_aborting():
    # scheme-2 partial with many workers makes the log argument <= 1
    doc = config_doc(
        m=50,
        dataset={
            "synthetic": {
                "n": 400,
                "d": 10,
                "singular_values": [6.0, 5.0, 4.0, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2],
                "seed": 11,
            }
        },
        k=2,
        r=2,
        T=4,
        schedule={"kind": "fixed", "p": 4},
        participation={"kind": "partial", "K": 5, "scheme": 2},
        privacy={"epsilon": 1.0, "delta": 0.5},
        repeats=1,
    )
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 1.0])
    statuses = [row["status"] for row in sweep.rows]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("invalid-budget")


def test_privacy_sweep_error_monotone_in_budget():
    doc = config_doc(
        dataset={
            "synthetic": {
                "n": 400,
                "d": 16,
                "singular_values": list(np.geomspace(8.0, 3.0, 5)) + list(np.geomspace(0.8, 0.1, 11)),
                "seed": 5,
            }
        },
        m=8,
        k=5,
        r=5,
        T=40,
        schedule={"kind": "fixed", "p": 4},
        privacy={"epsilon": 1.0, "delta": 1e-3},
        repeats=5,
        seed=3,
    )
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 100.0, 10.0, 1.0, 0.1])
    rows = sweep.rows  # ordered by decreasing epsilon
    inversions = 0
    for prev, cur in zip(rows, rows[1:]):
        if cur["min_sin_theta_mean"] < prev["min_sin_theta_mean"]:
            pooled = math.sqrt(
                (prev["min_sin_theta_std"] ** 2 + cur["min_sin_theta_std"] ** 2) / 2.0
            )
            assert prev["min_sin_theta_mean"] - cur["min_sin_theta_mean"] <= pooled
            inversions += 1
    assert inversions <= 1


SPLIT_PRIVACY = {"epsilon": "inf", "delta": 1e-3, "eps_split": [2.0, 4.0]}


def test_privacy_sweep_budget_replaces_eps_split():
    doc = config_doc(repeats=1, T=20, privacy=SPLIT_PRIVACY)
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 100.0, 1.0])
    by_eps = {row["epsilon"]: row for row in sweep.rows}
    assert by_eps[math.inf]["eps_spent_total"] == 0.0
    assert by_eps[1.0]["eps_spent_total"] == 2.0
    assert len({row["min_sin_theta_mean"] for row in sweep.rows}) == 3


def _without_config_line(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# config=")]


def test_privacy_sweep_sub_trace_headers_replay_their_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = config_doc(repeats=2, T=20, privacy=SPLIT_PRIVACY, out=str(out))
    cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 100.0, 1.0])
    for idx in range(3):
        sub = (tmp_path / f"sweep.eps{idx}.csv").read_text()
        header = next(line for line in sub.splitlines() if line.startswith("# config="))
        cfg_path = tmp_path / f"replay{idx}.json"
        cfg_path.write_text(header[len("# config="):])
        replay = tmp_path / f"replay{idx}.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(replay)]) == 0
        assert _without_config_line(replay.read_text()) == _without_config_line(sub)


def test_privacy_sweep_writes_per_epsilon_traces(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = config_doc(repeats=1, T=20, privacy={"epsilon": 2.0, "delta": 1e-3}, out=str(out))
    cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 2.0])
    assert out.exists()
    assert (tmp_path / "sweep.eps0.csv").exists()
    assert (tmp_path / "sweep.eps1.csv").exists()


# ---------------------------------------------------------------- command line


def test_main_run_writes_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "trace.csv"
    cfg_path.write_text(json.dumps(config_doc()))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# schema=fedpower.trace.v1")
    assert cli.TRACE_COLUMNS in text


def test_main_reports_errors_as_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(privacy={"epsilon": -2.0, "delta": 1e-3})))
    code = cli.main(["run", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.err.strip())
    assert payload["error"] == "InvalidBudget"


def test_main_reports_non_finite_iterate_as_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(privacy={"epsilon": 1e-320, "delta": 1e-3})))
    with np.errstate(invalid="ignore", over="ignore"):
        code = cli.main(["run", "--config", str(cfg_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "NonFinite"
    assert "NaN or infinite" in payload["message"]


def test_main_missing_config_is_an_error(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_main_inspect_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc()))
    code = cli.main(["inspect-dataset", "--config", str(cfg_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 200 and info["d"] == 12 and info["m"] == 4
    assert len(info["top_singular_values"]) == 10
    assert info["eta"] >= 0.0


def test_main_run_libsvm_override(tmp_path, capsys):
    rng = np.random.default_rng(70)
    from fedpower.data import write_libsvm

    path = tmp_path / "tiny.libsvm"
    write_libsvm(path, rng.standard_normal((40, 6)))
    cfg_path = tmp_path / "cfg.json"
    doc = config_doc(m=2, k=2, r=2, T=10, repeats=1)
    del doc["dataset"]
    doc["dataset"] = {"libsvm": str(path)}
    cfg_path.write_text(json.dumps(doc))
    code = cli.main(["run", "--config", str(cfg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema=fedpower.trace.v1")
