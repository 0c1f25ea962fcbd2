"""Frozen golden CSVs: every case's CLI output must match its file in
``tests/golden/`` byte for byte.

Regenerate the files (only after a deliberate, logged change) with

    PYTHONPATH=src python tests/test_golden.py

and list every cell that moved against the goldens of a git revision with

    PYTHONPATH=src python tests/test_golden.py --moved-since REV
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from fedpower import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

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
    # 125 shards of 4 rows: every local product is rank deficient (r = 5).
    "explicit_small_shards": ("run", _variant(
        m=125,
        T=24,
        schedule={"kind": "explicit", "steps": [3, 7, 8, 20]},
        alignment="none",
        record_every_step=True,
        repeats=1,
    ), []),
    "compare": ("compare", _variant(T=40, repeats=2), []),
    "sweep": ("privacy-sweep", _variant(T=40, repeats=2), ["--eps-list", "inf,10,1"]),
}


def render_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case through ``cli.main`` into ``out_dir``; return every file
    it wrote, keyed by file name."""
    command, config, extra = CASES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = out_dir / f"{name}.csv"
    code = cli.main([command, "--config", str(config_path), "--out", str(out), *extra])
    if code != 0:
        raise RuntimeError(f"case {name} exited with {code}")
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob(f"{name}*.csv"))}


def golden_files(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(GOLDEN.glob(f"{name}*.csv"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    want = golden_files(name)
    assert want, f"no golden files for {name}"
    got = render_case(name, tmp_path)
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{fname} differs from its golden"


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
    compared one by one, and a ``rho_t`` cell at a sync row that became
    ``0.0`` is reported as ``rho_t@sync``."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"line count {len(old_lines)} -> {len(new_lines)}"]
    is_trace = _data_rows(old)[0] == cli.TRACE_COLUMNS.split(",")
    sync = _sync_steps(old) if is_trace else set()
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
            if x == y:
                continue
            kind = "rho_t@sync" if (
                is_trace and col == "rho_t" and y == "0.0" and int(b.split(",")[0]) in sync
            ) else col
            moved.append(f"line {idx} {kind}: {x} -> {y}")
    return moved


def _write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for fname, data in render_case(name, Path(tmp) / name).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {fname}")


def _report_moved(rev: str) -> int:
    root = GOLDEN.parent.parent
    other = 0
    for path in sorted(GOLDEN.glob("*.csv")):
        rel = path.relative_to(root).as_posix()
        old = subprocess.run(
            ["git", "show", f"{rev}:{rel}"], cwd=root, capture_output=True, text=True, check=True
        ).stdout
        moved = moved_cells(old, path.read_text(encoding="utf-8"))
        at_sync = sum(1 for m in moved if " rho_t@sync:" in m)
        rest = [m for m in moved if " rho_t@sync:" not in m]
        other += len(rest)
        print(f"{path.name}: {at_sync} rho_t cells at sync rows set to 0.0, {len(rest)} other cells moved")
        for m in rest:
            print(f"  {m}")
    return 1 if other else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--moved-since":
        sys.exit(_report_moved(sys.argv[2]))
    _write_goldens()
