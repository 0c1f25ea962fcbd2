"""Frozen golden CSVs: every case's CLI output must match its file in
``tests/golden/`` byte for byte.

Every case runs in a subprocess pinned to one OpenBLAS kernel (see
``render_case``), so the goldens hold on any x86-64 CPU with AVX2.
Regenerate the files (only after a deliberate, logged change) with

    PYTHONPATH=src python tests/test_golden.py

and list every cell that moved against the goldens of a git revision, with
a per-column count and largest absolute change, with

    PYTHONPATH=src python tests/test_golden.py --moved-since REV
"""

from __future__ import annotations

import gzip
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedpower import cli, engine, privacy
from fedpower.data import partition, write_libsvm
from trace_csv import parse_trace

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(cli.__file__).resolve().parents[1]

# The OpenBLAS kernel and thread count every golden is rendered under.
# Haswell's kernels run on any x86-64 CPU with AVX2.
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}

README_DEMO = {
    "dataset": {
        "synthetic": {
            "n": 500,
            "d": 20,
            "singular_values": [10, 8, 6.4, 5.1, 4, 0.8, 0.65, 0.5, 0.4, 0.33,
                                0.27, 0.22, 0.18, 0.15, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04],
            "seed": 1,
        }
    },
    "m": 10,
    "partition": "shuffled",
    "k": 5, "r": 5, "T": 60,
    "schedule": {"kind": "fixed", "p": 4},
    "alignment": "sign_fix",
    "privacy": {"epsilon": "inf", "delta": 1e-5},
    "participation": {"kind": "full"},
    "repeats": 3,
    "seed": 42,
}


def _variant(**overrides):
    return {**README_DEMO, **overrides}


def _write_libsvm_rows(directory: Path) -> None:
    """The rows the LIBSVM cases read, as ``rows.libsvm`` and a gzipped copy.
    Columns span two decades of scale, so ``scale: true`` matters."""
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((240, 12)) * np.geomspace(50.0, 0.5, 12)
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    write_libsvm(directory / "rows.libsvm", matrix, rng.integers(0, 2, 240) * 2.0 - 1.0)
    (directory / "rows.libsvm.gz").write_bytes(gzip.compress((directory / "rows.libsvm").read_bytes(), mtime=0))


# name -> (subcommand, config, extra CLI arguments)
CASES = {
    "readme_demo": ("run", README_DEMO, []),
    "partial_scheme1_noise": ("run", _variant(
        schedule={"kind": "fixed", "p": 3},
        privacy={"epsilon": 5.0, "delta": 1e-5},
        participation={"kind": "partial", "K": 4, "scheme": 1},
        repeats=2,
    ), []),
    "partial_scheme2_noise": ("run", _variant(
        schedule={"kind": "fixed", "p": 5},
        alignment="opt",
        privacy={"epsilon": 8.0, "delta": 1e-5},
        participation={"kind": "partial", "K": 6, "scheme": 2},
        repeats=2,
    ), []),
    "opt_decaying_every_step": ("run", _variant(
        T=30,
        schedule={"kind": "decaying", "p": 6},
        alignment="opt",
        record_every_step=True,
        repeats=2,
    ), []),
    # A sync at every step with sampling and both noises: every round starts
    # from the broadcast basis.
    "partial_noise_every_step": ("run", _variant(
        schedule={"kind": "fixed", "p": 1},
        alignment="opt",
        privacy={"epsilon": 5.0, "delta": 1e-5},
        participation={"kind": "partial", "K": 4, "scheme": 1},
        record_every_step=True,
        repeats=2,
    ), []),
    # Sampled rounds at 4, ..., 60 and a last record two local steps later: the
    # only partial-participation case whose output basis is formed between rounds.
    "partial_horizon_off_round": ("run", _variant(
        T=62,
        alignment="opt",
        privacy={"epsilon": 5.0, "delta": 1e-5},
        participation={"kind": "partial", "K": 4, "scheme": 2},
        repeats=2,
    ), []),
    # 125 shards of 4 rows: every local product is rank deficient (r = 5).
    "explicit_small_shards": ("run", _variant(
        m=125,
        T=24,
        schedule={"kind": "explicit", "steps": [3, 7, 8, 20]},
        alignment="none",
        record_every_step=True,
        repeats=1,
    ), []),
    # 60 shards of 8 or 9 rows, shorter than d/2 and taller than r: the local steps run in the shards' row spaces.
    "row_space_shards": ("run", _variant(m=60), []),
    "compare": ("compare", _variant(T=40, repeats=2), []),
    # The compare config on 60 shards of 8 or 9 rows (d = 20, k = 5): UDA and WDA take their local
    # eigenpairs from the row factor's h x h eigendecomposition.
    "compare_row_space": ("compare", _variant(T=40, repeats=2, m=60), []),
    "sweep": ("privacy-sweep", _variant(T=40, repeats=2), ["--eps-list", "inf,10,1"]),
    "full_noise_opt": ("run", _variant(
        schedule={"kind": "fixed", "p": 3},
        alignment="opt",
        privacy={"epsilon": 5.0, "delta": 1e-5},
        repeats=2,
    ), []),
    "eps_split_run": ("run", _variant(
        privacy={"epsilon": "inf", "delta": 1e-5, "eps_split": [2.0, 4.0]},
        repeats=2,
    ), []),
    "contiguous_partial": ("run", _variant(
        partition="contiguous",
        participation={"kind": "partial", "K": 5, "scheme": 1},
        repeats=2,
    ), []),
    "compare_partial": ("compare", _variant(
        T=40,
        privacy={"epsilon": 20.0, "delta": 1e-5},
        participation={"kind": "partial", "K": 5, "scheme": 2},
        repeats=2,
    ), []),
    # Every swept budget replaces eps_split; each sub-trace header replays its run.
    "sweep_eps_split": ("privacy-sweep", _variant(
        T=40,
        privacy={"epsilon": "inf", "delta": 1e-5, "eps_split": [2.0, 4.0]},
        repeats=2,
    ), ["--eps-list", "inf,100,1"]),
    # The trace headers record the dataset path, so the LIBSVM cases name
    # their file relative to the case directory, where it is written.
    "libsvm_sweep": ("privacy-sweep", _variant(
        dataset={"libsvm": "rows.libsvm", "scale": True},
        m=6, k=3, r=4, T=30,
        schedule={"kind": "fixed", "p": 2},
        participation={"kind": "partial", "K": 3, "scheme": 2},
        repeats=2,
    ), ["--eps-list", "inf,10,1"]),
    "libsvm_gz_run": ("run", _variant(
        dataset={"libsvm": "rows.libsvm.gz", "scale": True},
        k=3, T=30,
        alignment="opt",
        privacy={"epsilon": 5.0, "delta": 1e-5},
        repeats=2,
    ), []),
}


def case_files(directory: Path, name: str) -> list[Path]:
    """The CSVs one case wrote into ``directory``: ``name.csv`` plus, for a
    sweep, ``name.eps<i>.csv`` (not the files of a case whose name merely
    starts with ``name``)."""
    return sorted(p for p in directory.glob(f"{name}*.csv") if p.name.split(".")[0] == name)


def render_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case as ``python -m fedpower`` in ``out_dir``; return every
    file it wrote, keyed by file name.

    The process runs under ``PINNED_BLAS``: OpenBLAS picks its kernels from
    the CPU when it loads, and a matrix product's summation order depends on
    the kernel, so the goldens hold only for the kernel that froze them.
    The variables must be set before numpy loads, hence the subprocess. A
    case fails if it writes to standard error, as a numpy warning would."""
    command, config, extra = CASES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = out_dir / f"{name}.csv"
    if "libsvm" in config["dataset"]:
        _write_libsvm_rows(out_dir)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "fedpower", command, "--config", str(config_path), "--out", str(out), *extra],
        cwd=out_dir, env={**os.environ, **PINNED_BLAS, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    if done.returncode != 0 or done.stderr:
        raise RuntimeError(f"case {name} exited with {done.returncode}: {done.stderr}")
    return {p.name: p.read_bytes() for p in case_files(out_dir, name)}


def golden_files(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in case_files(GOLDEN, name)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    want = golden_files(name)
    assert want, f"no golden files for {name}"
    got = render_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{fname} differs from its golden"


def test_cli_repeats_equal_library_runs():
    # The CLI measures against the library's default reference, so a repeat's
    # records are the ones engine.run writes for the same partition and seed.
    cfg = cli.ExperimentConfig.from_dict(README_DEMO)
    matrix = cli.load_matrix(cfg)
    trace = cli.run_experiment(cfg)
    rendered = parse_trace(trace.render())["repeats"]
    for idx, rep in enumerate(trace.repeats):
        seed = privacy.derive_seed(cfg.seed, idx)
        dataset = partition(matrix, cfg.m, mode=cfg.partition_mode, seed=seed)
        library = engine.run(dataset, cli._run_config(cfg, seed))
        assert rendered[idx]["seed"] == seed and rep.eta == library.eta
        assert [replace(r, wall_ms=0.0) for r in rep.records] == [
            replace(r, wall_ms=0.0) for r in library.records
        ]


def _readme_block(after: str, lang: str) -> str:
    """The first ``lang`` code block of README.md that follows the line ``after``."""
    text = README.read_text(encoding="utf-8")
    tail = text[text.index(after + "\n"):]
    return tail.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_its_config_is_the_demo_golden():
    # The README's examples are hand copies: its library block must run, and
    # its JSON config must be the one the readme_demo golden freezes.
    namespace: dict = {}
    exec(_readme_block("## Library quick start", "python"), namespace)
    records = namespace["trace"].records
    assert records[-1].sin_theta_k < records[0].sin_theta_k
    assert json.loads(_readme_block("Example config:", "json")) == README_DEMO


def _data_rows(text: str):
    """(column names, rows) of a CSV, skipping ``#`` comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _sync_steps(text: str) -> set[int]:
    head = next(ln for ln in text.splitlines() if ln.startswith("# config="))
    doc = cli.ExperimentConfig.from_dict(json.loads(head[len("# config="):]))
    return set(doc.schedule().steps)


def test_rho_is_exactly_zero_at_sync_rows():
    checked = 0
    for path in sorted(GOLDEN.glob("*.csv")):
        text = path.read_text(encoding="utf-8")
        columns, rows = _data_rows(text)
        if columns != cli.TRACE_COLUMNS.split(","):
            continue
        sync = _sync_steps(text)
        for row in rows:
            if int(row[0]) in sync:
                assert row[columns.index("rho_t")] == "0.0", f"{path.name} t={row[0]}"
                checked += 1
    assert checked > 0


def moved_cells(old: str, new: str) -> list[str]:
    """Every difference between two renderings of one golden file, as
    readable strings. Comment lines must match exactly; data cells are
    compared one by one, each labelled by its column."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"line count {len(old_lines)} -> {len(new_lines)}"]
    columns = None
    moved = []
    for idx, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a.startswith("#") or not a:
            if a != b:
                moved.append(f"line {idx}: {a!r} -> {b!r}")
            continue
        if columns is None:
            columns = a.split(",")
            if a != b:
                moved.append(f"header: {a!r} -> {b!r}")
            continue
        for col, x, y in zip(columns, a.split(","), b.split(",")):
            if x != y:
                moved.append(f"line {idx} {col}: {x} -> {y}")
    return moved


def test_moved_cells_reports_a_sync_row_rho_moving_to_zero_as_a_rho_move():
    # p = 2: step 2 is a sync row, whose rho_t every golden now holds at 0.0.
    head = {"dataset": {"libsvm": "x"}, "k": 1, "T": 2, "schedule": {"kind": "fixed", "p": 2}}
    old = f"""# config={json.dumps(head)}
{cli.TRACE_COLUMNS}
1,1,0.0,0.0,0.5,0.25,0.1,0.0
2,1,0.0,0.0,0.25,0.125,0.1,0.0
"""
    new = old.replace(",0.125,", ",0.0,")
    assert moved_cells(old, new) == ["line 4 rho_t: 0.125 -> 0.0"]


def drift_by_column(old: str, new: str) -> dict[str, tuple[int, float]]:
    """For each column with moved numeric cells between two renderings of one
    golden file: how many moved and the largest absolute change. The fields
    of ``# repeat`` and ``# summary`` lines count as columns ``repeat.eta``,
    ``summary.final_sin_theta_mean`` and so on."""
    drift: dict[str, tuple[int, float]] = {}
    columns = None
    for a, b in zip(old.splitlines(), new.splitlines()):
        if a.startswith(("# repeat=", "# summary")):
            tokens = list(zip(a.split()[1:], b.split()[1:]))
            label = tokens[0][0].partition("=")[0]
            cells = [(f"{label}.{x.partition('=')[0]}", x.partition("=")[2], y.partition("=")[2])
                     for x, y in tokens if "=" in x]
        elif a.startswith("#") or not a:
            continue
        elif columns is None:
            columns = a.split(",")
            continue
        else:
            cells = list(zip(columns, a.split(","), b.split(",")))
        for col, x, y in cells:
            if x == y:
                continue
            try:
                change = abs(float(x) - float(y))
            except ValueError:  # not a numeric cell
                continue
            count, worst = drift.get(col, (0, 0.0))
            drift[col] = (count + 1, max(worst, math.inf if math.isnan(change) else change))
    return drift


def test_drift_by_column_counts_moved_cells_and_largest_change():
    old = """# config={"k": 1}
# repeat=0 seed=5 eta=0.5
t,sin_theta_k,eta
1,0.25,0.5
2,0.125,0.5
# summary repeats=1 final_sin_theta_mean=0.125
"""
    new = """# config={"k": 1, "eps_split": null}
# repeat=0 seed=5 eta=0.5000001
t,sin_theta_k,eta
1,0.2500002,0.5000001
2,0.1250003,0.5
# summary repeats=1 final_sin_theta_mean=0.1250003
"""
    drift = drift_by_column(old, new)
    assert sorted(drift) == ["eta", "repeat.eta", "sin_theta_k", "summary.final_sin_theta_mean"]
    assert drift["sin_theta_k"][0] == 2 and drift["sin_theta_k"][1] == pytest.approx(3e-7)
    assert drift["eta"][0] == 1 and drift["eta"][1] == pytest.approx(1e-7)
    assert drift["repeat.eta"][0] == 1 and drift["summary.final_sin_theta_mean"][0] == 1


def _write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for fname, data in render_case(name, Path(tmp) / name).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {fname}")


def _report_moved(rev: str) -> int:
    root = GOLDEN.parent.parent
    total = 0
    for path in sorted(GOLDEN.glob("*.csv")):
        rel = path.relative_to(root).as_posix()
        shown = subprocess.run(["git", "show", f"{rev}:{rel}"], cwd=root, capture_output=True, text=True)
        if shown.returncode != 0:
            print(f"{path.name}: new since {rev}")
            continue
        new = path.read_text(encoding="utf-8")
        moved = moved_cells(shown.stdout, new)
        total += len(moved)
        print(f"{path.name}: {len(moved)} cells moved")
        for m in moved:
            print(f"  {m}")
        for col, (count, worst) in drift_by_column(shown.stdout, new).items():
            print(f"  drift {col}: {count} numeric cells moved, largest |change| {worst:.3g}")
    return 1 if total else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--moved-since":
        sys.exit(_report_moved(sys.argv[2]))
    _write_goldens()
