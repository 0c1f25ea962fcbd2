"""Experiment runner and command-line interface.

Reads a JSON experiment config, executes federated runs or baseline
comparisons, and emits CSV traces whose bytes are reproducible for a fixed
seed. The CSV carries the full config, the root seed, and the noise-stream
derivation rule in ``#`` comment lines, so any trace can be replayed
exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, engine, linalg, privacy
from .data import ShardedDataset, SyntheticSpec, parse_libsvm, partition, scale_features, synth
from .errors import ConfigError, FedPowerError, InvalidBudget

__all__ = [
    "CsvTrace",
    "ExperimentConfig",
    "compare_baselines",
    "main",
    "parse_trace",
    "privacy_sweep",
    "run_experiment",
]

TRACE_COLUMNS = "t,comm_count,eps_spent,delta_spent,sin_theta_k,rho_t,eta,wall_ms"
COMPARE_COLUMNS = "algorithm,final_error_mean,final_error_std,repeats"
SWEEP_COLUMNS = "epsilon,min_sin_theta_mean,min_sin_theta_std,eps_spent_total,delta_spent_total,status"
TRACE_INT_COLUMNS = {"t": int, "comm_count": int}  # every other trace column is a float
SCHEMA_VERSION = 1
SWEEP_WINDOW = 40  # iterations over which the sweep takes the minimum error

THREADS_ENV = "FEDPOWER_THREADS"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset source, run parameters, repeat count."""

    # dataset: either a path to a LIBSVM file or a synthetic recipe
    libsvm_path: str | None = None
    synthetic: SyntheticSpec | None = None
    scale: bool = True  # max-abs feature scaling (LIBSVM sources only)
    m: int = 1
    partition_mode: str = "shuffled"
    k: int = 1
    r: int = 1
    horizon: int = 1
    schedule_kind: str = "fixed"
    p: int = 1
    explicit_steps: tuple[int, ...] = ()
    alignment: str = engine.ALIGN_SIGN
    epsilon: float = math.inf
    delta: float = 1e-5
    eps_split: tuple[float, float] | None = None
    participation_kind: str = "full"
    participation_count: int | None = None
    participation_scheme: int | None = None
    repeats: int = 1
    seed: int = 0
    record_every_step: bool = False
    measure_wall_time: bool = False
    out: str | None = None

    def __post_init__(self):
        if (self.libsvm_path is None) == (self.synthetic is None):
            raise ValueError("config needs exactly one of libsvm_path or synthetic")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def schedule(self) -> engine.SyncSchedule:
        return engine.build_schedule(
            self.schedule_kind, self.horizon, p=self.p, steps=self.explicit_steps
        )

    def participation(self) -> engine.Participation:
        if self.participation_kind == "full":
            return engine.FULL_PARTICIPATION
        return engine.Participation(
            "partial", self.participation_count, self.participation_scheme
        )

    def to_dict(self) -> dict:
        doc = {
            "dataset": (
                {"libsvm": self.libsvm_path, "scale": self.scale}
                if self.libsvm_path is not None
                else {
                    "synthetic": {
                        "n": self.synthetic.n,
                        "d": self.synthetic.d,
                        "singular_values": list(self.synthetic.singular_values),
                        "seed": self.synthetic.seed,
                    }
                }
            ),
            "m": self.m,
            "partition": self.partition_mode,
            "k": self.k,
            "r": self.r,
            "T": self.horizon,
            "schedule": {"kind": self.schedule_kind, "p": self.p},
            "alignment": self.alignment,
            "privacy": {
                "epsilon": _json_float(self.epsilon),
                "delta": self.delta,
                "eps_split": list(self.eps_split) if self.eps_split else None,
            },
            "participation": {
                "kind": self.participation_kind,
                "K": self.participation_count,
                "scheme": self.participation_scheme,
            },
            "repeats": self.repeats,
            "seed": self.seed,
            "record_every_step": self.record_every_step,
            "measure_wall_time": self.measure_wall_time,
        }
        if self.schedule_kind == "explicit":
            doc["schedule"] = {"kind": "explicit", "steps": list(self.explicit_steps)}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check_keys(doc)
        ds = doc.get("dataset", {})
        synthetic = None
        libsvm_path = None
        if "synthetic" in ds:
            s = ds["synthetic"]
            synthetic = SyntheticSpec(
                _int(s["n"], "dataset.synthetic.n"), _int(s["d"], "dataset.synthetic.d"),
                tuple(s["singular_values"]), _int(s.get("seed", 0), "dataset.synthetic.seed"),
            )
        if "libsvm" in ds:
            libsvm_path = ds["libsvm"]
        sched = doc.get("schedule", {})
        priv = doc.get("privacy", {})
        part = doc.get("participation", {})
        split = priv.get("eps_split")
        return cls(
            libsvm_path=libsvm_path,
            synthetic=synthetic,
            scale=_bool(ds.get("scale", True), "dataset.scale"),
            m=_int(doc.get("m", 1), "m"),
            partition_mode=doc.get("partition", "shuffled"),
            k=_int(doc["k"], "k"),
            r=_int(doc.get("r", doc["k"]), "r"),
            horizon=_int(doc["T"], "T"),
            schedule_kind=sched.get("kind", "fixed"),
            p=_int(sched.get("p", 1), "schedule.p"),
            explicit_steps=tuple(_int(t, "schedule.steps") for t in sched.get("steps", ())),
            alignment=doc.get("alignment", engine.ALIGN_SIGN),
            epsilon=float(priv.get("epsilon", "inf")),
            delta=float(priv.get("delta", 1e-5)),
            eps_split=tuple(float(e) for e in split) if split else None,
            participation_kind=part.get("kind", "full"),
            participation_count=_int(part.get("K"), "participation.K", optional=True),
            participation_scheme=_int(part.get("scheme"), "participation.scheme", optional=True),
            repeats=_int(doc.get("repeats", 1), "repeats"),
            seed=_int(doc.get("seed", 0), "seed"),
            record_every_step=_bool(doc.get("record_every_step", False), "record_every_step"),
            measure_wall_time=_bool(doc.get("measure_wall_time", False), "measure_wall_time"),
            out=doc.get("out"),
        )


# Every key a config may hold, as a dotted path from the document root.
CONFIG_KEYS = frozenset("""
    dataset dataset.libsvm dataset.scale dataset.synthetic dataset.synthetic.n
    dataset.synthetic.d dataset.synthetic.singular_values dataset.synthetic.seed m partition
    k r T schedule schedule.kind schedule.p schedule.steps alignment privacy privacy.epsilon
    privacy.delta privacy.eps_split participation participation.kind participation.K
    participation.scheme repeats seed record_every_step measure_wall_time out
""".split())


def _check_keys(doc: dict, prefix: str = "") -> None:
    for key, value in doc.items():
        path = prefix + key
        if path not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(value, dict):
            _check_keys(value, path + ".")


# int(2.7), int("2") and bool("false") would run a config other than the one
# written, so integer and boolean keys must hold JSON numbers and booleans.
def _int(value, path: str, optional: bool = False) -> int | None:
    if value is None and optional:
        return None
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"config key {path!r} must be an integer, got {value!r}")
    return int(value)


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {path!r} must be true or false, got {value!r}")
    return value


def _json_float(value: float):
    # JSON has no infinity literal; serialize as string.
    return "inf" if math.isinf(value) else value


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class RepeatResult:
    seed: int
    records: list[engine.SyncRecord]
    eta: float
    notes: tuple[str, ...]

    @property
    def final_sin(self) -> float:
        return self.records[-1].sin_theta_k

    @property
    def min_sin(self) -> float:
        return min(r.sin_theta_k for r in self.records)

    def min_sin_within(self, horizon: int) -> float:
        vals = [r.sin_theta_k for r in self.records if r.t <= horizon]
        return min(vals) if vals else self.records[-1].sin_theta_k


@dataclass
class CsvTrace:
    """Structured result of one CLI operation, renderable as CSV text.

    ``kind`` selects the column schema: "trace" (per-round records),
    "compare" (one row per algorithm), or "sweep" (one row per epsilon).
    Rendering is deterministic, so identical configs produce byte-identical
    files whenever wall-time measurement is off.
    """

    kind: str
    config: dict
    seed: int
    repeats: list[RepeatResult] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    measure_wall_time: bool = False
    sub_traces: dict = field(default_factory=dict)

    def summary(self) -> dict:
        finals = [r.final_sin for r in self.repeats]
        minima = [r.min_sin for r in self.repeats]
        return {
            "repeats": len(self.repeats),
            "final_sin_theta_mean": _mean(finals),
            "final_sin_theta_std": _std(finals),
            "min_sin_theta_mean": _mean(minima),
            "min_sin_theta_std": _std(minima),
        }

    def render(self) -> str:
        columns = {"trace": TRACE_COLUMNS, "compare": COMPARE_COLUMNS, "sweep": SWEEP_COLUMNS}.get(self.kind)
        if columns is None:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        lines = [
            f"# schema=fedpower.{self.kind}.v{SCHEMA_VERSION}",
            f"# config={json.dumps(self.config, sort_keys=True)}",
            f"# seed={self.seed}",
            f"# {privacy.STREAM_NOTE}",
            columns,
        ]
        keys = columns.split(",")
        if self.kind != "trace":
            lines.extend(",".join(_fmt(row[key]) for key in keys) for row in self.rows)
            return "\n".join(lines) + "\n"
        for idx, rep in enumerate(self.repeats):
            note = ";".join(rep.notes)
            lines.append(
                f"# repeat={idx} seed={rep.seed} eta={rep.eta!r}" + (f" notes={note}" if note else "")
            )
            for rec in rep.records:
                cells = [getattr(rec, key) for key in keys]
                if not self.measure_wall_time:
                    cells[-1] = 0.0  # wall_ms
                lines.append(",".join(map(_fmt, cells)))
        summary = self.summary()
        lines.append("# summary " + " ".join(f"{key}={_fmt(val)}" for key, val in summary.items()))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())


def parse_trace(text: str) -> dict:
    """Parse a rendered trace CSV back into config, per-repeat records, and
    the summary line. Round-trips everything :meth:`CsvTrace.render` emits
    for kind="trace"."""
    config = None
    seed = None
    columns = None
    repeats: list[dict] = []
    summary: dict = {}
    for line in text.splitlines():
        if line.startswith("# config="):
            config = json.loads(line[len("# config="):])
        elif line.startswith("# seed="):
            seed = int(line[len("# seed="):])
        elif line.startswith("# repeat="):
            head = line[2:].split()
            fields = dict(part.split("=", 1) for part in head if "=" in part)
            repeats.append(
                {
                    "repeat": int(fields["repeat"]),
                    "seed": int(fields["seed"]),
                    "eta": float(fields["eta"]),
                    "records": [],
                }
            )
        elif line.startswith("# summary"):
            for part in line[len("# summary"):].split():
                key, _, val = part.partition("=")
                summary[key] = float(val)
        elif line.startswith("#") or not line.strip():
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            record = {
                key: TRACE_INT_COLUMNS.get(key, float)(cell)
                for key, cell in zip(columns, line.split(","))
            }
            repeats[-1]["records"].append(record)
    return {"config": config, "seed": seed, "columns": columns, "repeats": repeats, "summary": summary}


def _mean(vals):
    return statistics.fmean(vals) if vals else 0.0


def _std(vals):
    return statistics.pstdev(vals) if len(vals) > 1 else 0.0


def load_matrix(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.synthetic is not None:
        return synth(cfg.synthetic)
    matrix, _labels = parse_libsvm(cfg.libsvm_path)
    return scale_features(matrix) if cfg.scale else matrix


def _repeat_setup(matrix: np.ndarray, cfg: ExperimentConfig, idx: int) -> tuple[int, ShardedDataset]:
    """Root seed and partition of repeat ``idx`` (a contiguous partition
    ignores the seed)."""
    seed = privacy.derive_seed(cfg.seed, idx)
    return seed, partition(matrix, cfg.m, mode=cfg.partition_mode, seed=seed)


def _run_config(cfg: ExperimentConfig, run_seed: int) -> engine.RunConfig:
    schedule = cfg.schedule()
    priv = privacy.PrivacyConfig.for_schedule(cfg.epsilon, cfg.delta, schedule, eps_split=cfg.eps_split)
    return engine.RunConfig(
        k=cfg.k,
        r=cfg.r,
        schedule=schedule,
        privacy=priv,
        alignment=cfg.alignment,
        participation=cfg.participation(),
        seed=run_seed,
        record_every_step=cfg.record_every_step,
    )


def _thread_count(requested: int | None) -> int:
    value = os.environ.get(THREADS_ENV, "1") if requested is None else requested
    if not str(value).isdecimal() or int(value) < 1:
        raise ConfigError(f"--threads / {THREADS_ENV} must be an integer of at least 1, got {value!r}")
    return int(value)


def _map_repeats(one, repeats: int, threads: int | None) -> list:
    """``[one(i) for i in range(repeats)]``, fanned out over a thread pool
    when more than one thread is requested. Results keep repeat order."""
    workers = _thread_count(threads)
    if workers == 1 or repeats == 1:
        return [one(i) for i in range(repeats)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(repeats)))


def _repeat_results(matrix, cfg, reference, threads=None) -> list[RepeatResult]:
    def one(idx: int) -> RepeatResult:
        rep_seed, dataset = _repeat_setup(matrix, cfg, idx)
        trace = engine.run(dataset, _run_config(cfg, rep_seed), reference)
        return RepeatResult(rep_seed, trace.records, trace.eta, trace.notes)

    return _map_repeats(one, cfg.repeats, threads)


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> CsvTrace:
    """Execute ``cfg.repeats`` seeded runs and assemble the trace CSV."""
    matrix = load_matrix(cfg)
    reference = linalg.top_eigenpairs(linalg.gram(matrix), cfg.k).u
    repeats = _repeat_results(matrix, cfg, reference, threads=threads)
    trace = CsvTrace(
        kind="trace",
        config=cfg.to_dict(),
        seed=cfg.seed,
        repeats=repeats,
        measure_wall_time=cfg.measure_wall_time,
    )
    if cfg.out:
        trace.write(cfg.out)
    return trace


_ALIGN_FOR_ROW = {
    "FedPower-OPT": engine.ALIGN_OPT,
    "FedPower-SignFix": engine.ALIGN_SIGN,
    "FedPower-vanilla": engine.ALIGN_NONE,
}
COMPARE_ALGORITHMS = (*_ALIGN_FOR_ROW, "UDA", "WDA", "DR-SVD")


def compare_baselines(cfg: ExperimentConfig, threads: int | None = None) -> CsvTrace:
    """Final-error comparison of the iterative protocol (three alignment
    variants) against the one-shot baselines, mean and std over repeats.

    The error of every algorithm is the subspace distance between its
    recovered rank-k basis and the top-k right singular vectors of the full
    matrix.
    """
    matrix = load_matrix(cfg)
    reference = linalg.top_eigenpairs(linalg.gram(matrix), cfg.k).u

    def one(idx: int) -> dict[str, float]:
        rep_seed, dataset = _repeat_setup(matrix, cfg, idx)
        run_cfg = _run_config(cfg, rep_seed)
        errors = {}
        for name, align in _ALIGN_FOR_ROW.items():
            trace = engine.run(dataset, replace(run_cfg, alignment=align), reference)
            errors[name] = trace.records[-1].sin_theta_k
        errors["UDA"] = linalg.projection_distance(baselines.uda(dataset, cfg.k).u, reference)
        errors["WDA"] = linalg.projection_distance(baselines.wda(dataset, cfg.k).u, reference)
        errors["DR-SVD"] = linalg.projection_distance(
            baselines.dr_svd(dataset, cfg.k, rep_seed).v, reference
        )
        return errors

    per_repeat = _map_repeats(one, cfg.repeats, threads)
    rows = []
    for name in COMPARE_ALGORITHMS:
        errors = [rep[name] for rep in per_repeat]
        rows.append({
            "algorithm": name,
            "final_error_mean": _mean(errors),
            "final_error_std": _std(errors),
            "repeats": cfg.repeats,
        })
    trace = CsvTrace(kind="compare", config=cfg.to_dict(), seed=cfg.seed, rows=rows)
    if cfg.out:
        trace.write(cfg.out)
    return trace


def privacy_sweep(cfg: ExperimentConfig, eps_list, threads: int | None = None) -> CsvTrace:
    """One experiment per privacy budget; records the minimum error over the
    first :data:`SWEEP_WINDOW` iterations plus the total leakage.

    A budget that cannot be calibrated is reported in its status column
    instead of aborting the sweep.
    """
    matrix = load_matrix(cfg)
    reference = linalg.top_eigenpairs(linalg.gram(matrix), cfg.k).u
    rows = []
    sub_traces = {}
    for eps in eps_list:
        eps = float(eps)
        row = {
            "epsilon": eps,
            "min_sin_theta_mean": math.nan,
            "min_sin_theta_std": math.nan,
            "eps_spent_total": math.nan,
            "delta_spent_total": math.nan,
            "status": "ok",
        }
        try:
            repeats = _repeat_results(matrix, replace(cfg, epsilon=eps, eps_split=None), reference, threads)
        except InvalidBudget as exc:
            row["status"] = f"invalid-budget: {exc}"
            rows.append(row)
            continue
        minima = [rep.min_sin_within(SWEEP_WINDOW) for rep in repeats]
        last = repeats[0].records[-1]
        row.update(
            min_sin_theta_mean=_mean(minima),
            min_sin_theta_std=_std(minima),
            eps_spent_total=last.eps_spent,
            delta_spent_total=last.delta_spent,
        )
        rows.append(row)
        sub_traces[eps] = CsvTrace(
            kind="trace",
            config={**cfg.to_dict(), "privacy": {"epsilon": _json_float(eps), "delta": cfg.delta}},
            seed=cfg.seed,
            repeats=repeats,
            measure_wall_time=cfg.measure_wall_time,
        )
    trace = CsvTrace(
        kind="sweep", config=cfg.to_dict(), seed=cfg.seed, rows=rows, sub_traces=sub_traces
    )
    if cfg.out:
        trace.write(cfg.out)
        stem, ext = os.path.splitext(cfg.out)
        for idx, (eps, sub) in enumerate(sub_traces.items()):
            sub.write(f"{stem}.eps{idx}{ext or '.csv'}")
    return trace


def inspect_dataset(cfg: ExperimentConfig) -> dict:
    """Summarize a dataset: dimensions, leading spectrum, shard weights, and
    the local-approximation diagnostic for the configured partition."""
    matrix = load_matrix(cfg)
    _, dataset = _repeat_setup(matrix, cfg, 0)
    spectrum = linalg.svd(matrix).singular_values
    return {
        "n": int(matrix.shape[0]),
        "d": int(matrix.shape[1]),
        "m": dataset.m,
        "shard_sizes": list(dataset.sizes),
        "top_singular_values": [float(s) for s in spectrum[:10]],
        "eta": engine.local_approx_eta(dataset),
    }


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if args.libsvm:
        doc["dataset"] = {"libsvm": args.libsvm, "scale": doc.get("dataset", {}).get("scale", True)}
    for key in ("seed", "repeats", "k", "T", "m"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    cfg = ExperimentConfig.from_dict(doc)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpower",
        description="Federated power-iteration SVD experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "execute a config and write its trace CSV"),
        ("compare", "compare iterative variants with one-shot baselines"),
        ("privacy-sweep", "run one experiment per privacy budget"),
        ("inspect-dataset", "print dataset dimensions, spectrum, and shard diagnostics"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--libsvm", help="LIBSVM dataset path (overrides config)")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None, help="output CSV path")
        cmd.add_argument("--threads", type=int, default=None,
                         help=f"parallel repeats (default ${THREADS_ENV} or 1)")
        cmd.add_argument("--repeats", type=int, default=None)
        cmd.add_argument("--k", type=int, default=None)
        cmd.add_argument("--T", type=int, default=None)
        cmd.add_argument("--m", type=int, default=None)
        if name == "privacy-sweep":
            cmd.add_argument(
                "--eps-list",
                default="inf,100,10,1,0.1",
                help="comma-separated budgets; 'inf' means noiseless",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "inspect-dataset":
            json.dump(inspect_dataset(cfg), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        if args.command == "run":
            trace = run_experiment(cfg, threads=args.threads)
        elif args.command == "compare":
            trace = compare_baselines(cfg, threads=args.threads)
        else:
            eps_list = [e.strip() for e in args.eps_list.split(",") if e.strip()]
            trace = privacy_sweep(cfg, eps_list, threads=args.threads)
        if not cfg.out:
            sys.stdout.write(trace.render())
    except (FedPowerError, ValueError, OSError, KeyError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc), "command": args.command,
                   "config": args.config}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
