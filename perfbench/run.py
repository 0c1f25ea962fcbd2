"""Benchmark of the fedpower CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout whose ``src/`` holds the package. The seed
makes the workload's inputs (JSON config and, for the sweep, a LIBSVM file)
under ``perfbench/_work/``; the command only ever sees those files.

``--trace 0`` spawns the command repeatedly for S seconds (at least
MIN_SAMPLES times), after SETUP_SAMPLES runs of ``setup_probe.py``, and
reports end-to-end metrics. ``--trace 1`` alternates untraced runs and runs
under ``trace_cli.py`` and reports per-layer metrics. Every run's CSVs are
checked against ``expected.py`` and against the first run's bytes; a run
that exits non-zero or fails either check counts in ``failed``. The last
line of stdout is the JSON result.

One process runs at a time, each pinned to one BLAS thread and
``--threads 1``: on two cores, two threads measured slower and noisier.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "FEDPOWER_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402

import expected  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# What the installed ``fedpower`` console script runs.
CLI = "import sys; from fedpower.cli import main; sys.exit(main())"

MIN_SAMPLES = 3
SETUP_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120
DELTA = 1e-5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CALLS_AND_SELF = (
    "engine.run", "engine.local_approx_eta", "engine.residual_rho", "engine.draw_participants",
    "linalg.gram", "linalg.orth", "linalg.svd", "linalg.procrustes", "linalg.sign_fix",
    "linalg.sin_theta_k", "privacy.sample_noise", "privacy.stream",
)
SELF_ONLY = ("data.synth", "data.partition", "data.parse_libsvm", "data.scale_features")
TOTAL_ONLY = ("baselines.uda", "baselines.wda", "baselines.dr_svd")
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in CALLS_AND_SELF for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.self_s": "s" for layer in SELF_ONLY},
    "data.parse_libsvm.calls": "count",
    "data.parse_libsvm.us_per_entry": "us",
    **{f"{layer}.total_s": "s" for layer in TOTAL_ONLY},
    "engine.upload_floats": "count",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    args: list[str]  # fedpower CLI arguments, without --out and --threads
    config: Path
    want: dict  # expected outputs, see expected.check_outputs
    seed: int
    sizes: list[int]  # shard sizes of repeat 0
    d: int
    r: int
    libsvm_entries: int = 0


def spectrum(d: int) -> list[float]:
    return [float(s) for s in np.geomspace(20.0, 0.05, d)]


def make_config(seed: int, dataset: dict, m: int, r: int, horizon: int, p: int, **extra) -> dict:
    # Only keys ExperimentConfig.from_dict reads; wall time off keeps CSVs byte-stable.
    return {
        "dataset": dataset, "m": m, "partition": "shuffled", "k": 5, "r": r, "T": horizon,
        "schedule": {"kind": "fixed", "p": p}, "alignment": "opt",
        "privacy": {"epsilon": "inf", "delta": DELTA}, "participation": {"kind": "full"},
        "repeats": 1, "seed": seed, "measure_wall_time": False, **extra,
    }


def run_params(cfg: dict) -> dict:
    part = cfg["participation"]
    return {
        "k": cfg["k"], "r": cfg["r"], "T": cfg["T"], "p": cfg["schedule"]["p"], "m": cfg["m"],
        "alignment": cfg["alignment"], "epsilon": float(cfg["privacy"]["epsilon"]),
        "delta": cfg["privacy"]["delta"], "K": part.get("K"), "scheme": part.get("scheme"),
    }


def write_config(cfg: dict, name: str) -> Path:
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def shard_sizes(n: int, m: int) -> list[int]:
    return [n // m + 1] * (n % m) + [n // m] * (m - n % m)


def run_dense_sync(seed: int) -> Inputs:
    n, d = 20000, 300
    synthetic = {"n": n, "d": d, "singular_values": spectrum(d), "seed": seed}
    cfg = make_config(seed, {"synthetic": synthetic}, m=100, r=10, horizon=100, p=1)
    matrix = expected.synth(n, d, synthetic["singular_values"], seed)
    want = expected.expected_trace(matrix, run_params(cfg), seed, repeats=1)
    path = write_config(cfg, "run-dense-sync")
    return Inputs(["run", "--config", str(path)], path, want, seed, shard_sizes(n, 100), d, 10)


def compare_many_shards(seed: int) -> Inputs:
    n, d = 10000, 100
    synthetic = {"n": n, "d": d, "singular_values": spectrum(d), "seed": seed}
    cfg = make_config(seed, {"synthetic": synthetic}, m=300, r=10, horizon=40, p=4)
    matrix = expected.synth(n, d, synthetic["singular_values"], seed)
    want = expected.expected_compare(matrix, run_params(cfg), seed)
    path = write_config(cfg, "compare-many-shards")
    return Inputs(["compare", "--config", str(path)], path, want, seed, shard_sizes(n, 300), d, 10)


SWEEP_EPS = ("inf", "10", "1")


def sweep_libsvm_partial(seed: int) -> Inputs:
    from fedpower.data import write_libsvm

    n, d = 20000, 60
    matrix = expected.synth(n, d, spectrum(d), seed)
    libsvm = WORK / "sweep.libsvm"
    write_libsvm(libsvm, matrix)
    cfg = make_config(
        seed, {"libsvm": str(libsvm), "scale": True}, m=20, r=8, horizon=60, p=2,
        participation={"kind": "partial", "K": 10, "scheme": 2}, repeats=3,
    )
    want = expected.expected_sweep(
        expected.scale_columns(matrix), run_params(cfg), seed, 3, [float(e) for e in SWEEP_EPS]
    )
    path = write_config(cfg, "sweep-libsvm-partial")
    args = ["privacy-sweep", "--config", str(path), "--eps-list", ",".join(SWEEP_EPS)]
    return Inputs(args, path, want, seed, shard_sizes(n, 20), d, 8, int(np.count_nonzero(matrix)))


WORKLOADS = {
    "run-dense-sync": run_dense_sync,
    "compare-many-shards": compare_many_shards,
    "sweep-libsvm-partial": sweep_libsvm_partial,
}


# ------------------------------------------------------------------ samples


@dataclass
class Sample:
    kind: str  # "setup", "command" or "traced"
    wall_s: float
    rss_mb: float
    cpu_s: float
    error: str | None = None
    setup_s: float | None = None
    files: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)


def spawn(argv: list[str], sample_dir: Path):
    """Run one child to completion; return (exit code, start, wall s, rusage)."""
    with open(sample_dir / "stdout.txt", "wb") as out, open(sample_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    return proc.returncode, start, wall, usage


def _stderr_tail(sample_dir: Path) -> str:
    text = (sample_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1][:300] if text else ""


def new_sample_dir(index: int) -> Path:
    path = WORK / f"sample{index:03d}"
    path.mkdir()
    return path


def setup_sample(inputs: Inputs, index: int) -> Sample:
    sdir = new_sample_dir(index)
    repeat0 = expected.derive_seed(inputs.seed, 0)
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(inputs.config), str(repeat0)]
    code, start, wall, usage = spawn(argv, sdir)
    sample = Sample("setup", wall, usage.ru_maxrss * 1024 / 1e6, usage.ru_utime + usage.ru_stime)
    if code != 0:
        sample.error = f"setup probe exited {code}: {_stderr_tail(sdir)}"
        return sample
    try:
        report = json.loads((sdir / "stdout.txt").read_text().splitlines()[-1])
        sample.setup_s = report["done"] - start
        if report["sizes"] != inputs.sizes:
            sample.error = f"shard sizes {report['sizes'][:5]}... differ from {inputs.sizes[:5]}..."
    except (IndexError, KeyError, ValueError) as exc:
        sample.error = f"unreadable setup probe output: {exc!r}"
    return sample


def command_sample(inputs: Inputs, index: int, traced: bool) -> Sample:
    sdir = new_sample_dir(index)
    spans = sdir / "spans.json"
    head = [sys.executable, str(BENCH / "trace_cli.py"), str(spans)] if traced else [sys.executable, "-c", CLI]
    argv = head + inputs.args + ["--out", str(sdir / "out.csv"), "--threads", "1"]
    code, _, wall, usage = spawn(argv, sdir)
    sample = Sample(
        "traced" if traced else "command", wall, usage.ru_maxrss * 1024 / 1e6, usage.ru_utime + usage.ru_stime
    )
    sample.files = {p.name[len("out"):-len(".csv")]: p.read_bytes() for p in sdir.glob("out*.csv")}
    if code != 0:
        sample.error = f"command exited {code}: {_stderr_tail(sdir)}"
        return sample
    try:
        expected.check_outputs({k: v.decode("utf-8") for k, v in sample.files.items()}, inputs.want)
    except (expected.Mismatch, UnicodeDecodeError, ValueError) as exc:
        sample.error = f"output check: {exc}"
    if traced:
        doc = json.loads(spans.read_text())
        sample.absent = doc["absent"]
        sample.layers = layer_metrics(doc, inputs, sample.cpu_s)
    return sample


def check_identical(samples: list[Sample]) -> None:
    """Every run's CSV bytes must equal those of the first run that exited 0."""
    runs = [s for s in samples if s.kind != "setup" and s.files]
    for sample in runs[1:]:
        if sample.error is None and sample.files != runs[0].files:
            sample.error = "CSV bytes differ from the first run of this invocation"


# ------------------------------------------------------------------ metrics


def layer_metrics(doc: dict, inputs: Inputs, cpu_s: float) -> dict:
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    uploads = 0
    for i, (layer, _, start, end, extra) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += end - start - covered[i]
        total_s[layer] += end - start
        uploads += extra or 0
    out = {"cli.cpu_s": cpu_s}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in TOTAL_ONLY:
        out[f"{layer}.total_s"] = total_s[layer]
    parses = calls["data.parse_libsvm"]
    out["data.parse_libsvm.calls"] = parses
    # 0 where nothing is parsed (the synthetic workloads).
    out["data.parse_libsvm.us_per_entry"] = (
        self_s["data.parse_libsvm"] * 1e6 / (parses * inputs.libsvm_entries) if parses else 0.0
    )
    out["cli.self_s"] = self_s["cli"]
    if not doc["upload_errors"] and not {"engine.run", "engine.draw_participants"} & set(doc["absent"]):
        out["engine.upload_floats"] = uploads * inputs.d * inputs.r
    absent = set(doc["absent"])
    return {k: v for k, v in out.items() if k.rsplit(".", 1)[0] not in absent}


def end_to_end(samples: list[Sample]) -> dict:
    runs = [s for s in samples if s.kind == "command"]
    setups = [s for s in samples if s.kind == "setup"]
    setup_values = [s.setup_s for s in setups if s.setup_s is not None] or [s.wall_s for s in setups]
    return {
        "wall_s": statistics.median([s.wall_s for s in runs]),
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": statistics.median([s.rss_mb for s in runs]),
    }


def per_layer(samples: list[Sample]) -> dict:
    plain = [s.wall_s for s in samples if s.kind == "command"]
    traced = [s for s in samples if s.kind == "traced"]
    names = set.intersection(*(set(s.layers) for s in traced))
    out = {name: statistics.median([s.layers[name] for s in traced]) for name in names}
    out["trace.overhead_s"] = statistics.median([s.wall_s for s in traced]) - statistics.median(plain)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
        "fedpower_threads": 1,
    }


# ------------------------------------------------------------------ main


def measure(inputs: Inputs, seconds: float, traced: bool) -> list[Sample]:
    samples: list[Sample] = []
    if not traced:
        for _ in range(SETUP_SAMPLES):
            samples.append(setup_sample(inputs, len(samples)))
    start = time.monotonic()
    rounds = 0
    while True:
        before = time.monotonic()
        samples.append(command_sample(inputs, len(samples), traced=False))
        if traced:
            samples.append(command_sample(inputs, len(samples), traced=True))
        rounds += 1
        last = time.monotonic() - before
        enough = rounds >= (1 if traced else MIN_SAMPLES)
        if enough and time.monotonic() - start + last > seconds:
            return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "fedpower" / "__init__.py").is_file():
        print(f"perfbench: no fedpower package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # Untimed first import, so no timed run pays for compiling bytecode.
    subprocess.run([sys.executable, "-c", "import fedpower"], cwd=ROOT, env=CHILD_ENV, timeout=SAMPLE_TIMEOUT_S)
    inputs = WORKLOADS[args.workload](args.seed)
    samples = measure(inputs, args.seconds, bool(args.trace))
    check_identical(samples)

    failed = [s for s in samples if s.error]
    metrics = per_layer(samples) if args.trace else end_to_end(samples)
    units = PER_LAYER if args.trace else END_TO_END
    absent = sorted({name for s in samples for name in s.absent})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "samples": [
            {"kind": s.kind, "wall_s": s.wall_s, "setup_s": s.setup_s, "rss_mb": s.rss_mb, "error": s.error}
            for s in samples
        ],
        "fail_ratio": len(failed) / len(samples),
        "absent_layers": absent,
    }
    print(json.dumps({"report": report}))
    print(
        " ".join(f"{k}={v:.6g} {units[k]}" for k, v in sorted(metrics.items()))
        + f" fail_ratio={len(failed)}/{len(samples)}"
    )
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
