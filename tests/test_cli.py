import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from fedpower import cli, engine, privacy
from fedpower.cli import ExperimentConfig
from fedpower.data import partition, write_libsvm
from fedpower.errors import ConfigError, DegenerateData, DimensionMismatch, FedPowerError, InvalidBudget, NonFinite
from trace_csv import parse_trace


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


def test_r_defaults_to_k():
    # No other config here leaves r out; the header then records r = k, so the bytes are the same.
    doc = config_doc()
    del doc["r"]
    assert cli.run_experiment(ExperimentConfig.from_dict(doc)).render() == cli.run_experiment(
        ExperimentConfig.from_dict(config_doc(r=doc["k"]))).render()


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


def _with_synthetic(**changes):
    doc = config_doc()
    doc["dataset"]["synthetic"].update(changes)
    return doc


def _without(path):
    doc = config_doc()
    *parents, key = path.split(".")
    section = doc
    for part in parents:
        section = section[part]
    del section[key]
    return doc


@pytest.mark.parametrize("doc", [config_doc(seed=2**64), _with_synthetic(seed=2**70)], ids=["seed", "synthetic seed"])
def test_a_seed_above_the_index_bound_still_runs(doc, tmp_path):
    # The bound on integers is for counts and sizes; numpy's generators take any non-negative seed.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    trace = parse_trace(out.read_text())
    synthetic_seed = trace["config"]["dataset"]["synthetic"]["seed"]
    assert (trace["seed"], synthetic_seed) == (doc["seed"], doc["dataset"]["synthetic"]["seed"])


def test_libsvm_flag_replaces_the_config_source(tmp_path):
    # A synthetic source is replaced; a LIBSVM source keeps its scale setting.
    libsvm = tmp_path / "tiny.libsvm"
    write_libsvm(libsvm, np.random.default_rng(73).standard_normal((40, 12)))
    for dataset, scale in (config_doc()["dataset"], True), ({"libsvm": "elsewhere", "scale": False}, False):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(dataset=dataset)))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--libsvm", str(libsvm), "--out", str(out)]) == 0
        assert parse_trace(out.read_text())["config"]["dataset"] == {"libsvm": str(libsvm), "scale": scale}


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert sorted(re.findall(r"^\| `([^`]+)` \|", readme, flags=re.M)) == sorted(cli._TYPES)


def test_config_writes_infinite_budgets_as_inf_strings():
    cfg = ExperimentConfig.from_dict(config_doc(privacy={"epsilon": "inf", "eps_split": ["inf", 2.0]}))
    assert cfg.eps_split == (math.inf, 2.0)
    doc = cfg.to_dict()
    assert doc["privacy"]["eps_split"] == ["inf", 2.0]
    json.dumps(doc, allow_nan=False)  # standard JSON: no Infinity literal
    assert ExperimentConfig.from_dict(doc) == cfg
    assert ExperimentConfig.from_dict(config_doc(privacy={"eps_split": None})).eps_split is None


def test_unknown_partition_mode_is_an_error():
    with pytest.raises(ValueError, match="partition mode 'random'"):
        cli.run_experiment(ExperimentConfig.from_dict(config_doc(partition="random")))


def test_config_accepts_integral_floats():
    cfg = ExperimentConfig.from_dict(config_doc(m=4.0, T=30.0))
    assert (cfg.m, cfg.horizon) == (4, 30) and isinstance(cfg.m, int)
    assert ExperimentConfig.from_dict(config_doc(T=cli.MAX_HORIZON)).horizon == cli.MAX_HORIZON


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
    # The second config's shards of 8 rows (d = 40) take the row path, and its T = p = 200 is one
    # stretch of 199 local steps, run in chunks in the shards' eigenbases.
    stretch = config_doc(dataset={"synthetic": {"n": 80, "d": 40, "singular_values": [4, 3, 2, 1, 0.5, 0.25]}},
                         m=10, k=2, r=4, T=200, schedule={"kind": "fixed", "p": 200}, repeats=2)
    for doc in (config_doc(repeats=3), stretch):
        cfg = ExperimentConfig.from_dict(doc)
        solo = cli.run_experiment(cfg, threads=1)
        pooled = cli.run_experiment(cfg, threads=3)
        assert solo.render() == pooled.render()


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


def test_compare_computes_no_eta_and_run_and_sweep_write_each_repeats_own(monkeypatch):
    # compare writes no eta, so it never computes one; run and privacy-sweep compute it per repeat,
    # inside the thread pool, and write that repeat's dataset eta in its header and its eta column.
    cfg = ExperimentConfig.from_dict(config_doc(repeats=2, T=12))
    matrix = cli.load_matrix(cfg)
    want = [partition(matrix, cfg.m, mode=cfg.partition_mode, seed=privacy.derive_seed(cfg.seed, i)).eta
            for i in range(cfg.repeats)]
    real = engine.local_approx_eta
    callers = []
    monkeypatch.setattr(engine, "local_approx_eta", lambda ds: callers.append(threading.current_thread()) or real(ds))
    run = cli.run_experiment(cfg, threads=2)
    sweep = cli.privacy_sweep(cfg, ["inf", "1"], threads=2)
    assert len(callers) == 3 * cfg.repeats and threading.main_thread() not in callers  # a run and two budgets
    for trace in (run, *sweep.sub_traces.values()):
        for rep, eta in zip(parse_trace(trace.render())["repeats"], want, strict=True):
            assert rep["eta"] == eta and {rec["eta"] for rec in rep["records"]} == {eta}

    def refuse(dataset):
        raise AssertionError("compare computed eta")

    monkeypatch.setattr(engine, "local_approx_eta", refuse)
    rows = cli.compare_baselines(cfg).rows
    assert [row["algorithm"] for row in rows] == list(cli.COMPARE_ALGORITHMS)


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


def test_privacy_sweep_window_includes_its_last_step():
    # Syncing at every step, the noiseless error falls at every step, so the minimum over the
    # window is the record at t = SWEEP_WINDOW, and the lower record after it lies outside.
    doc = config_doc(repeats=1, T=cli.SWEEP_WINDOW + 1, schedule={"kind": "fixed", "p": 1})
    errors = {r.t: r.sin_theta_k for r in cli.run_experiment(ExperimentConfig.from_dict(doc)).repeats[0].records}
    last = errors[cli.SWEEP_WINDOW]
    assert errors[cli.SWEEP_WINDOW + 1] < last < 0.9 * min(v for t, v in errors.items() if t < cli.SWEEP_WINDOW)
    [row] = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf"]).rows
    assert abs(row["min_sin_theta_mean"] - last) <= 1e-15


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


def test_privacy_sweep_partitions_each_repeat_once(monkeypatch):
    # Budgets share a repeat's partition and its Grams; threads change no byte.
    calls = []
    real = cli.partition
    monkeypatch.setattr(cli, "partition", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = ExperimentConfig.from_dict(config_doc(repeats=3, T=20, privacy={"epsilon": 1.0, "delta": 1e-3}))
    renders = []
    for threads in (1, 2):
        calls.clear()
        sweep = cli.privacy_sweep(cfg, ["inf", 10.0, 1.0], threads=threads)
        assert len(calls) == cfg.repeats
        assert [row["status"] for row in sweep.rows] == ["ok"] * 3
        renders.append([sweep.render()] + [sub.render() for sub in sweep.sub_traces.values()])
    assert renders[0] == renders[1]


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


def _sweep_epsilons(directory, stem: str, rows: int) -> dict:
    """Row index -> epsilon in the header of each ``stem.eps<i>.csv`` written."""
    found = {}
    for idx in range(rows):
        path = directory / f"{stem}.eps{idx}.csv"
        if path.exists():
            found[idx] = parse_trace(path.read_text())["config"]["privacy"]["epsilon"]
    return found


def test_privacy_sweep_numbers_sub_traces_by_row(tmp_path):
    doc = config_doc(repeats=1, T=20, privacy={"epsilon": 2.0, "delta": 1e-3}, out=str(tmp_path / "rep.csv"))
    cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["1", "2", "1"])
    assert _sweep_epsilons(tmp_path, "rep", 3) == {0: 1.0, 1: 2.0, 2: 1.0}
    # A budget that cannot be calibrated writes no trace, and the rows after it keep their numbers.
    doc = config_doc(
        m=50, k=2, r=2, T=4, repeats=1, out=str(tmp_path / "bad.csv"),
        dataset={"synthetic": {"n": 400, "d": 10, "singular_values": [6.0, 5.0, 4.0, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2]}},
        schedule={"kind": "fixed", "p": 4},
        participation={"kind": "partial", "K": 5, "scheme": 2},
        privacy={"epsilon": 1.0, "delta": 0.5},
    )
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["1", "inf"])
    assert sweep.rows[0]["status"].startswith("invalid-budget")
    assert _sweep_epsilons(tmp_path, "bad", 2) == {1: "inf"}


def test_privacy_sweep_writes_per_epsilon_traces(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = config_doc(repeats=1, T=20, privacy={"epsilon": 2.0, "delta": 1e-3}, out=str(out))
    cli.privacy_sweep(ExperimentConfig.from_dict(doc), ["inf", 2.0])
    assert out.exists()
    assert (tmp_path / "sweep.eps0.csv").exists()
    assert (tmp_path / "sweep.eps1.csv").exists()


def test_privacy_sweep_budgets_write_the_bytes_they_write_alone(tmp_path):
    # A repeat's calibrated budgets run in one engine pass; no budget may leak into another, an
    # uncalibratable one keeps its row, and --threads changes no byte.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(
        repeats=2, T=20, participation={"kind": "partial", "K": 3, "scheme": 1},
        privacy={"epsilon": 2.0, "delta": 1e-3})))

    def sweep(eps_list: str, stem: str, threads: str = "1") -> list[bytes]:
        out = tmp_path / f"{stem}.csv"
        argv = ["privacy-sweep", "--config", str(cfg_path), "--eps-list", eps_list, "--threads", threads]
        assert cli.main(argv + ["--out", str(out)]) == 0
        return [out.read_bytes()] + [(tmp_path / f"{stem}.eps{i}.csv").read_bytes()
                                     if (tmp_path / f"{stem}.eps{i}.csv").exists() else None for i in range(3)]

    swept = sweep("inf,-1,1", "swept")
    rows = [line for line in swept[0].decode().splitlines() if not line.startswith("#")][1:]
    assert rows[1].startswith("-1.0,nan,nan,nan,nan,invalid-budget: ") and swept[2] is None
    for idx, eps in ((0, "inf"), (2, "1")):
        alone = sweep(eps, f"alone{idx}")
        assert [line for line in alone[0].decode().splitlines() if not line.startswith("#")][1:] == [rows[idx]]
        assert swept[idx + 1] == alone[1]
    assert sweep("inf,-1,1", "pooled", threads="2") == swept


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


def test_privacy_sweep_reports_a_negative_infinite_budget_as_invalid():
    sweep = cli.privacy_sweep(ExperimentConfig.from_dict(config_doc(repeats=1)), ["-inf", "1"])
    assert [row["epsilon"] for row in sweep.rows] == [-math.inf, 1.0]
    assert sweep.rows[0]["status"].startswith("invalid-budget: ") and "must be positive" in sweep.rows[0]["status"]
    assert sweep.rows[1]["status"] == "ok" and sweep.rows[1]["eps_spent_total"] == 2.0
    assert sorted(sweep.sub_traces) == [1]


def test_python_m_fedpower_runs_the_cli_without_a_warning(tmp_path):
    # Running fedpower.cli as a module warned, since the package imports it first.
    doc = config_doc(repeats=1, T=6)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "module.csv"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fedpower", "run", "--config", str(cfg_path),
         "--out", str(out)], capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text() == cli.run_experiment(ExperimentConfig.from_dict(doc)).render()


def test_main_inspect_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc()))
    code = cli.main(["inspect-dataset", "--config", str(cfg_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 200 and info["d"] == 12 and info["m"] == 4
    assert len(info["top_singular_values"]) == 10
    assert info["eta"] >= 0.0


# The first spectrum is well conditioned; the second falls to 1e-12, far below what the Gram resolves.
@pytest.mark.parametrize("singular_values", [None, [6.0, 5.0, 4.0, 6e-4] + [1e-12] * 8])
def test_inspect_dataset_singular_values_match_an_svd_of_the_matrix(singular_values, tmp_path, capsys):
    # They come from the eigenvalues of the global Gram, not from an SVD of the n x d matrix.
    doc = config_doc()
    if singular_values is not None:
        doc["dataset"]["synthetic"]["singular_values"] = singular_values
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["inspect-dataset", "--config", str(cfg_path)]) == 0
    got = json.loads(capsys.readouterr().out)["top_singular_values"]
    want = np.linalg.svd(cli.load_matrix(ExperimentConfig.from_dict(doc)), compute_uv=False)[:10]
    # Forming A.T @ A squares the condition number: a value near zero comes out near sqrt(eps) * sigma_1.
    floor = 0.0 if singular_values is None else 10 * np.sqrt(np.finfo(float).eps) * want[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)
    np.testing.assert_allclose(got[:4], want[:4], rtol=1e-8)  # the values above the floor stay accurate


# k = 12 = min(n, d): there is no sigma_{k+1}, so no gap ratio.
@pytest.mark.parametrize("k", [1, 3, 11, 12])
def test_inspect_dataset_gap_ratio_and_shard_eta_match_their_definitions(k, tmp_path, capsys):
    doc = config_doc(k=k, r=k)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["inspect-dataset", "--config", str(cfg_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    cfg = ExperimentConfig.from_dict(doc)
    matrix = cli.load_matrix(cfg)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if k == min(matrix.shape):
        assert info["gap_ratio"] is None
    else:
        # From the Gram's eigenvalues: accurate to 1e-8 while sigma_{k+1} stays above ~1e-7 sigma_1.
        assert info["gap_ratio"] == pytest.approx(sigma[k] / sigma[k - 1], rel=1e-8)
    shards = partition(matrix, cfg.m, mode=cfg.partition_mode, seed=privacy.derive_seed(cfg.seed, 0)).shards
    m_global = matrix.T @ matrix / matrix.shape[0]
    want = [np.abs(np.linalg.eigvalsh(s.T @ s / s.shape[0] - m_global)).max() / sigma[0] ** 2 * matrix.shape[0]
            for s in shards]
    np.testing.assert_allclose(info["shard_eta"], want, rtol=1e-12)
    assert info["eta"] == max(info["shard_eta"])


def test_inspect_dataset_computes_eta_once_and_prints_the_same_json(tmp_path, capsys, monkeypatch):
    # "eta" is max(shard_eta): one eigvalsh per shard and one for ||M||_2, with no second pass over the
    # shards. It prints the JSON that ShardedDataset.eta, the route run and privacy-sweep take, would give.
    doc = config_doc()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert cli.main(["inspect-dataset", "--config", str(cfg_path)]) == 0
    monkeypatch.undo()
    assert len(calls) == doc["m"] + 1
    printed = capsys.readouterr().out
    cfg = ExperimentConfig.from_dict(doc)
    dataset = partition(cli.load_matrix(cfg), cfg.m, mode=cfg.partition_mode, seed=privacy.derive_seed(cfg.seed, 0))
    want = {**json.loads(printed), "eta": engine.local_approx_eta(dataset)}
    assert printed == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_inspect_dataset_reads_no_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "0")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc()))
    assert cli.main(["inspect-dataset", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 200


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "2"], ["--out", "x.json"], ["--repeats", "5"]])
def test_inspect_dataset_rejects_the_flags_it_has_no_use_for(flags, tmp_path, capsys, monkeypatch):
    # It prints one partition to standard output: a repeat count, thread count or output file would be ignored.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(config_doc()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect-dataset", "--config", "cfg.json", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not Path("x.json").exists()


def test_inspect_dataset_leaves_the_other_commands_keys_unused(tmp_path, capsys, monkeypatch):
    # One config file serves all four commands: inspect-dataset validates out and repeats but never acts on them.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(config_doc(out="x.json", repeats=5)))
    assert cli.main(["inspect-dataset", "--config", "cfg.json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 200
    assert not Path("x.json").exists()


def test_main_run_libsvm_override(tmp_path, capsys):
    rng = np.random.default_rng(70)
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


# ---------------------------------------------------------------- refusals
# A config the CLI cannot run as written exits 1 with one JSON line on standard error and writes nothing.
# REFUSALS groups its rows by what they show; a group's cases keep the ids they had as a test function.

EVERY_COMMAND = ("run", "compare", "privacy-sweep", "inspect-dataset")
DATA = {"libsvm": "data.libsvm"}  # written from the row's libsvm text


@dataclass(frozen=True)
class Refusal:
    """A config each of ``commands`` refuses with ``error`` and ``message``, where "..." stands for any text."""

    message: str
    config: object = field(default_factory=config_doc)  # a document, or the file's bytes; None: no file
    name: str = ""  # the case id, after the command when the row has several
    error: type = ConfigError
    commands: tuple = ("run",)
    argv: tuple = ()
    eps_list: str | None = None  # privacy-sweep's --eps-list
    env: dict = field(default_factory=dict)
    libsvm: str = "1 1:0.5 2:-1.5 3:2\n-1 1:1.25 3:-0.5\n" * 20
    loads: bool = False  # refused after the dataset is loaded


def _partial(**keys) -> dict:
    return {"participation": {"kind": "partial", **keys}}


def _steps(*steps) -> dict:
    return {"schedule": {"kind": "explicit", "steps": list(steps)}}


SYNTHETIC, MAX_INT = config_doc()["dataset"], np.iinfo(np.intp).max
REFUSALS = {
    # bool("false") is True and int(2.7) is 2: each would run another config.
    "test_config_rejects_values_it_would_coerce": [
        Refusal(f"...{path!r}...", config_doc(**overrides), f"overrides{i}-{path}")
        for i, (overrides, path) in enumerate([
            ({"record_every_step": "false"}, "record_every_step"),
            ({"dataset": {**DATA, "scale": "false"}}, "dataset.scale"), ({"m": 2.7}, "m"), ({"m": True}, "m"),
            (_steps(2, "5"), "schedule.steps")])],
    # Coerced, these would run another config (`true` as epsilon 1.0, 0 as file descriptor 0);
    # a missing key or an ambiguous dataset is named too, not a bare KeyError or ValueError.
    "test_mistyped_config_is_a_config_error": [
        Refusal(f"...{part}...", doc, f"{command}-doc{i}-{part}", commands=(command,))
        for i, (command, doc, part) in enumerate([
            ("run", [1, 2], "a config document"),
            ("run", config_doc(dataset=[1]), "'dataset'"),
            ("run", config_doc(dataset={"synthetic": [1]}), "'dataset.synthetic'"),
            ("run", config_doc(schedule="fixed"), "'schedule'"),
            ("run", config_doc(privacy={"eps_split": 3}), "'privacy.eps_split'"),
            ("run", config_doc(schedule={"kind": "explicit", "steps": 5}), "'schedule.steps'"),
            ("run", _with_synthetic(singular_values=3), "'dataset.synthetic.singular_values'"),
            *[("run", config_doc(privacy={key: value}), f"'privacy.{key}'") for key, value in [
                ("epsilon", True), ("epsilon", "1.0"), ("delta", True), ("delta", "inf"), ("eps_split", [True, 1.0]),
                ("eps_split", ["2", 4.0])]],
            ("run", _with_synthetic(singular_values=[True, 1]), "'dataset.synthetic.singular_values'"),
            ("run", config_doc(out=0), "'out'"),
            ("inspect-dataset", config_doc(dataset={"libsvm": 0}), "'dataset.libsvm'"),
            *[("run", _without(path), repr(path)) for path in (
                "k", "T", "dataset.synthetic.n", "dataset.synthetic.d", "dataset.synthetic.singular_values")],
            ("run", config_doc(dataset={}), "'dataset'"),
            ("inspect-dataset", config_doc(dataset={**SYNTHETIC, "libsvm": "a.libsvm"}), "'dataset'"),
            # Each ran as another config: the key outside its kind was dropped, or "partal" ran partial.
            ("run", config_doc(participation={"kind": "full", "K": 3, "scheme": 2}),
             "'participation.K' does not apply under participation kind 'full'"),
            ("run", config_doc(schedule={"kind": "fixed", "p": 3, "steps": [1, 2]}),
             "'schedule.steps' does not apply under schedule kind 'fixed'"),
            ("run", config_doc(schedule={"kind": "explicit", "steps": [3, 6], "p": 7}),
             "'schedule.p' does not apply under schedule kind 'explicit'"),
            ("run", config_doc(dataset={**SYNTHETIC, "scale": False}),
             "'dataset.scale' does not apply under dataset kind 'synthetic'"),
            ("run", config_doc(participation={"kind": "partal", "K": 2, "scheme": 1}), "participation kind 'partal'"),
            ("run", config_doc(privacy={"epsilon": 1.0, "eps_split": [2, 4]}), "eps_split"),
            # numpy's "expected non-negative integer" or a bare ValueError named no key.
            ("run", config_doc(seed=-1), "'seed'"),
            ("run", _with_synthetic(seed=-3), "'dataset.synthetic.seed'"),
            ("run", config_doc(repeats=0), "repeats"),
            # SyntheticSpec's bare ValueError named no key.
            *[("run", _with_synthetic(singular_values=values), "'dataset.synthetic.singular_values'")
              for values in ([3.0, -1.0], [1.0, 3.0])],
            # An OverflowError traceback from the schedule, and numpy's "Maximum allowed dimension exceeded".
            ("run", config_doc(T=1e20), f"'T' must be at most {MAX_INT}, got 1e+20"),
            ("run", _with_synthetic(d=1e300), f"'dataset.synthetic.d' must be at most {MAX_INT}, got 1e+300"),
            # numpy's bare "array is too big", and a DimensionMismatch that named no key.
            *[("run", _with_synthetic(**{key: 1e18}),
               f"'dataset.synthetic': dense matrix of {size} exceeds the 1e+08-entry limit")
              for key, size in (("n", f"{10**18} x 12"), ("d", f"200 x {10**18}"))],
            ("run", _with_synthetic(singular_values=[1.0] * 13),
             "'dataset.synthetic': need between 1 and min(n, d)=12"),
            # -inf is no noiseless epsilon, so it cannot stand beside eps_split; the header wrote it as "inf".
            ("run", config_doc(privacy={"epsilon": -math.inf, "eps_split": [2, 4]}), "eps_split"),
            # JSON reads 1e400 as infinity: a noiseless run wrote delta as "inf", which its replay refused.
            ("run", config_doc(privacy={"delta": 1e400}), "config key 'privacy.delta' must be a finite number, got inf"),
            ("run", config_doc(privacy={"delta": -1e400}), "config key 'privacy.delta' must be a finite number, got -inf"),
        ])],
    "test_unknown_partition_mode_fails_before_the_dataset_is_parsed": [
        Refusal("...partition mode 'shufled'...", config_doc(dataset=DATA, partition="shufled"))],
    # Each failed after the file was parsed, most in the engine as a bare ValueError naming no key.
    "test_out_of_range_count_fails_before_the_dataset_is_parsed": [
        Refusal(message, config_doc(dataset=DATA, **overrides), f"overrides{i}-flags{i}-{message}", argv=tuple(flags))
        for i, (overrides, flags, message) in enumerate([
            *[({key: 0}, [], f"config key {key!r} must be a positive integer, got 0") for key in ("m", "k", "r", "T")],
            ({}, ["--T", "0"], "config key 'T' must be a positive integer, got 0"),
            ({"schedule": {"kind": "fixed", "p": 0}}, [], "config key 'schedule.p' must be a positive integer, got 0"),
            (_partial(K=0, scheme=1), [], "config key 'participation.K' must be a positive integer, got 0"),
            (_partial(K=2, scheme=0), [], "config key 'participation.scheme' must be a positive integer, got 0"),
            (_partial(K=2, scheme=3), [], "config key 'participation.scheme' must be 1 or 2, got 3"),
            (_partial(), [], "config key 'participation.K' is required under participation kind 'partial'"),
            (_partial(K=2), [], "config key 'participation.scheme' is required under participation kind 'partial'"),
            ({"k": 3, "r": 2}, [], "config key 'r' must be at least k=3, got 2"),
            ({"repeats": 0}, [], "config key 'repeats' must be a positive integer, got 0"),
            ({}, ["--repeats", "0"], "config key 'repeats' must be a positive integer, got 0"),
            (_partial(K=5, scheme=1), [], "config key 'participation.K' must be at most m=4, got 5"),
            (_partial(K=3, scheme=2), ["--m", "2"], "config key 'participation.K' must be at most m=2, got 3"),
            (_steps(5, 31), [], "config key 'schedule.steps' must lie within [1, T=30], got step 31"),
            (_steps(0, 5), [], "config key 'schedule.steps' must lie within [1, T=30], got step 0"),
            (_steps(5, 20), ["--T", "10"], "config key 'schedule.steps' must lie within [1, T=10], got step 20"),
            ({}, ["--threads", "0"], "--threads / FEDPOWER_THREADS must be an integer of at least 1, got 0"),
            (_steps(4, 4, 2), [], "config key 'schedule.steps' must be strictly increasing, got [4, 4, 2]"),
            (_steps(2, 9, 5), [], "config key 'schedule.steps' must be strictly increasing, got [2, 9, 5]"),
        ])],
    "test_thread_count_below_one_is_an_error": [
        Refusal("...at least 1...", config_doc(repeats=3), f"{via_env}-{n}", argv=() if via_env else ("--threads", n),
                env={cli.THREADS_ENV: n} if via_env else {}) for via_env in (False, True) for n in ("0", "-3")],
    "test_non_integer_thread_env_is_an_error": [Refusal(f"...{cli.THREADS_ENV}...", env={cli.THREADS_ENV: "two"})],
    # The only check sat in eta, which compare no longer computes.
    "test_all_zero_data_is_degenerate_in_every_command": [
        Refusal("...zero...", config_doc(dataset=DATA, m=3, k=2, r=2, T=8, repeats=1), "", DegenerateData,
                EVERY_COMMAND, libsvm="0 1:0 2:0 3:0\n" * 12, loads=True)],
    # "1,x" gave a bare ValueError; "," loaded the dataset and wrote a sweep without rows;
    # "inf,,1" and "1," ran as if their empty entries were not there.
    "test_bad_eps_list_is_a_config_error_before_the_dataset_is_loaded": [
        Refusal("...--eps-list...", name=eps, commands=("privacy-sweep",), eps_list=eps)
        for eps in ("1,x", ",", "inf,,1", "1,")],
    # "T": 1e18 was a MemoryError traceback from the schedule, which lists every step.
    "test_a_horizon_above_the_step_limit_is_a_config_error_before_the_dataset_is_loaded": [
        Refusal(f"config key 'T' must be at most {cli.MAX_HORIZON}, got {int(T)}", config_doc(T=T), name,
                commands=EVERY_COMMAND) for T, name in ((cli.MAX_HORIZON + 1, ""), (1e18, "1e18"))],
    # The noiseless budget shares the overflowing one's pass, which fails as a whole, without a warning.
    "test_privacy_sweep_with_an_overflowing_budget_is_non_finite": [
        Refusal("...NaN or infinite...", error=NonFinite, commands=("privacy-sweep",), eps_list="inf,1e-320", loads=True)],
    "test_main_reports_errors_as_json": [
        Refusal(message, config_doc(**overrides), name, InvalidBudget, ("run", "compare"))
        for name, overrides, message in [
            ("epsilon", {"privacy": {"epsilon": -2.0, "delta": 1e-3}}, "epsilon must be positive, got -2.0"),
            ("delta", {"privacy": {"epsilon": 1.0, "delta": 2.0}}, "delta must lie in (0, 1), got 2.0"),
            ("eps_split", {"privacy": {"epsilon": "inf", "eps_split": [1.0, -1.0], "delta": 1e-3}},
             "eps_split budgets must be positive, got (1.0, -1.0)"),
            ("no-rounds", {"privacy": {"epsilon": 1.0, "delta": 1e-3}, "schedule": {"kind": "fixed", "p": 40}},
             "at least one communication round is required when noise is enabled"),
            ("eps_split-partial", {"privacy": {"epsilon": "inf", "eps_split": [1.0, 1.0]}, **_partial(K=2, scheme=1)},
             "per-round budget splitting is only calibrated for full participation"),
        ]],
    # JSON reads -1e400 as -inf, which ran noiseless with "epsilon": "inf" in the trace header.
    "test_negative_infinite_budget_is_invalid_before_the_dataset_is_loaded": [
        Refusal(f"config key 'privacy.{key}' must be positive, got -inf",
                json.dumps(config_doc()).replace('"epsilon": "inf"', budget).encode(), budget, InvalidBudget)
        for key, budget in (("epsilon", '"epsilon": -1e400'), ("eps_split", '"eps_split": [-1e400, -1e400]'))],
    # The sweep replaces the base epsilon per budget, so it ran and wrote "epsilon": "inf" in its header.
    "test_every_command_refuses_a_negative_infinite_base_budget_before_the_dataset_is_loaded": [
        Refusal("config key 'privacy.epsilon' must be positive, got -inf",
                json.dumps(config_doc()).replace('"epsilon": "inf"', '"epsilon": -1e400').encode(), "", InvalidBudget,
                EVERY_COMMAND, eps_list="inf,1")],
    "test_main_reports_non_finite_iterate_as_json": [
        Refusal("...NaN or infinite...", config_doc(privacy={"epsilon": 1e-320, "delta": 1e-3}), "", NonFinite,
                loads=True)],
    # Each budget's noise scale overflows; numpy printed "invalid value encountered in add" before the payload.
    "test_overflowing_noise_is_non_finite_without_a_warning": [
        Refusal("...NaN or infinite...", config_doc(privacy={"epsilon": float(eps), "delta": 1e-3}), eps, NonFinite,
                ("run", "compare", "privacy-sweep"), eps_list=eps, loads=True) for eps in ("1e-320", "5e-309")],
    # Labels and no idx:val entry give d = 0; inspect-dataset crashed with an IndexError traceback.
    "test_zero_width_libsvm_is_a_dimension_mismatch": [
        Refusal("...at least one column...", config_doc(dataset=DATA, m=2), "", DimensionMismatch,
                ("run", "inspect-dataset"), libsvm="1\n-1\n1\n1\n", loads=True)],
    # Squares of 1e160 overflow; run reported numpy's LinAlgError from eta.
    "test_overflowing_second_moments_are_non_finite_in_every_command": [
        Refusal("...second-moment...", config_doc(
            dataset={"synthetic": {"n": 60, "d": 6, "singular_values": [1e160, 1e160, 1, 1, 1, 1]}}, m=3, k=2, r=2, T=8,
            repeats=1), "", NonFinite, ("run", "compare", "inspect-dataset"), loads=True)],
    "test_main_missing_config_is_an_error": [
        Refusal("[Errno 2] No such file or directory: 'cfg.json'", None, "", FileNotFoundError)],
    # Each exited 1 with a JSONDecodeError, a UnicodeDecodeError or (the long integer) json's
    # ValueError, none a FedPowerError; the deep nesting printed a RecursionError traceback.
    "test_unreadable_config_file_is_a_config_error": [
        Refusal(f"config file 'cfg.json' is not UTF-8 JSON that json can read: ...{detail}...", text, name,
                commands=EVERY_COMMAND) for name, text, detail in [
            ("truncated", b'{"m": 3,', "line 1 column 9"),
            ("no-colon", b'{\n "m": 3,\n "k" 2}', "line 3 column 6"),
            ("not-utf8", b"\xff\xfe", "can't decode byte 0xff"),
            ("nested-100000-deep", b'{"m": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth"),
            ("integer-of-5000-digits", b'{"m": ' + b"1" * 5_000 + b"}", "integer string conversion"),
        ]],
    # json keeps a repeated key's last value, so {"m": 3, "m": 4} ran 4 shards.
    "test_a_repeated_config_key_is_a_config_error": [
        Refusal(f"config key {key!r} is written more than once", text.encode(), key, commands=EVERY_COMMAND)
        for key, text in [
            ("m", '{"m": 3, "m": 4, ' + json.dumps(_without("m"))[1:]),
            ("delta", json.dumps(_without("privacy"))[:-1] + ', "privacy": {"delta": 1e-5, "delta": 1e-6}}'),
        ]],
    # float() of an integer past float's range raised an OverflowError traceback; JSON's 1e400 is infinity.
    "test_an_integer_budget_past_float_range_is_a_config_error": [
        Refusal(f"config key 'privacy.{key}' must lie within float's range, got {10**400}",
                config_doc(privacy={key: value}), key, commands=EVERY_COMMAND)
        for key, value in (("epsilon", 10**400), ("eps_split", [10**400, 1]))],
    # The local noise scale needs the shard weights (K = 3 of m = 100 shards of 4 rows), so run and compare
    # refuse this budget after loading the dataset; privacy-sweep reports it in the budget's row.
    "test_a_budget_the_shard_weights_cannot_calibrate_is_invalid_after_loading": [
        Refusal("local noise formula needs log argument > 1, got 0.025 (rounds=1, max q=0.01, delta=0.5)",
                {**_with_synthetic(n=400), "m": 100, "T": 4, "schedule": {"kind": "fixed", "p": 4},
                 "privacy": {"epsilon": 1.0, "delta": 0.5}, **_partial(K=3, scheme=2)},
                "", InvalidBudget, ("run", "compare"), loads=True)],
}


def check_refusal(row: Refusal, command: str, tmp_path, capsys, monkeypatch) -> None:
    """``command`` exits 1 on ``row`` and prints one JSON line, on standard error only, naming the row's error
    and message, the command and the config; it writes no CSV and loads the dataset only if the row says so."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.THREADS_ENV, raising=False)
    for key, value in row.env.items():
        monkeypatch.setenv(key, value)
    Path(DATA["libsvm"]).write_text(row.libsvm)
    if row.config is not None:
        Path("cfg.json").write_bytes(row.config if isinstance(row.config, bytes) else json.dumps(row.config).encode())
    loaded, load_matrix = [], cli.load_matrix
    monkeypatch.setattr(cli, "load_matrix", lambda cfg: loaded.append(cfg) or load_matrix(cfg))
    for name in () if row.loads else ("load_matrix", "parse_libsvm", "ThreadPoolExecutor"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran before the refusal"))
    argv = [command, "--config", "cfg.json", *row.argv]
    if command == "privacy-sweep" and row.eps_list:
        argv += ["--eps-list", row.eps_list]
    if command != "inspect-dataset" and not (isinstance(row.config, dict) and "out" in row.config):  # --out replaces it
        argv += ["--out", "out.csv"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n"), err[-1:]) == (1, "", 1, "\n")
    payload = json.loads(err)
    assert payload.keys() == {"error", "message", "command", "config"}
    assert (payload["error"], payload["command"], payload["config"]) == (row.error.__name__, command, "cfg.json")
    assert issubclass(row.error, OSError if row.config is None else FedPowerError)
    assert re.fullmatch(".*".join(map(re.escape, row.message.split("..."))), payload["message"], re.S), payload
    assert not list(tmp_path.glob("*.csv")) and bool(loaded) == row.loads


def _refusal_test(rows: list):
    """A test of each row under each of its commands; a single case without an id takes no parameters."""
    cases = {"-".join(filter(None, [command if len(row.commands) > 1 else "", row.name])): (row, command)
             for row in rows for command in row.commands}
    if list(cases) == [""]:
        return lambda tmp_path, capsys, monkeypatch: check_refusal(*cases[""], tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("row, command", list(cases.values()), ids=list(cases))
    def test(row, command, tmp_path, capsys, monkeypatch):
        check_refusal(row, command, tmp_path, capsys, monkeypatch)
    return test


globals().update({name: _refusal_test(rows) for name, rows in REFUSALS.items()})


# ---------------------------------------------------------------- library guards

GUARDS = {
    "trace kind": (lambda: cli.CsvTrace("x", ExperimentConfig.from_dict(config_doc())).render(), ValueError,
                   "unknown trace kind 'x'"),
    "no budget": (lambda: cli.privacy_sweep(ExperimentConfig.from_dict(config_doc()), []), ConfigError,
                  "--eps-list must name at least one budget"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
