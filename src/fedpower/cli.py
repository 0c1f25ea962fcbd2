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
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import reduce
from pathlib import Path

import numpy as np

from . import baselines, engine, linalg, privacy
from .data import ShardedDataset, SyntheticSpec, parse_libsvm, partition, scale_features, synth
from .errors import ConfigError, DimensionMismatch, FedPowerError, InvalidBudget

__all__ = [
    "CsvTrace",
    "ExperimentConfig",
    "compare_baselines",
    "main",
    "privacy_sweep",
    "run_experiment",
]

TRACE_COLUMNS = "t,comm_count,eps_spent,delta_spent,sin_theta_k,rho_t,eta,wall_ms"
COMPARE_COLUMNS = "algorithm,final_error_mean,final_error_std,repeats"
SWEEP_COLUMNS = "epsilon,min_sin_theta_mean,min_sin_theta_std,eps_spent_total,delta_spent_total,status"
SCHEMA_VERSION = 1
SWEEP_WINDOW = 40  # iterations over which the sweep takes the minimum error

THREADS_ENV = "FEDPOWER_THREADS"
# The largest horizon a config may set: the schedule lists its steps and the run loops over them.
MAX_HORIZON = 10**6


BUDGET = "budget"  # JSON type of a privacy budget: a number or the string "inf"
COUNT = "count"  # JSON type of a count: a positive integer


def _key(path: str, json_type, default=MISSING, under=(), flag=False, written="applies"):
    """Declare the config key a field is read from: its dotted ``path``, JSON
    type (a tuple lists the allowed strings, a list gives its entries' type,
    a dict the keys of a nested recipe), default (none: required) and the
    kinds of its section it applies under (none: all), a section's kind being
    its ``kind`` key or the dataset's source. ``flag`` adds a command-line
    override; ``to_dict`` writes the key where it "applies", "always" (null
    outside its kind) or "never"."""
    return field(default=default, metadata=dict(path=path, type=json_type, under=under, flag=flag, written=written))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment: dataset source, run parameters, repeat count. Each
    field declares its config key, so the fields are the config schema."""

    libsvm_path: str | None = _key("dataset.libsvm", str, None, ("libsvm",), flag=True)
    synthetic: SyntheticSpec | None = _key("dataset.synthetic", {  # each key sets the SyntheticSpec field it names
        "dataset.synthetic.n": int, "dataset.synthetic.d": int,
        "dataset.synthetic.singular_values": [float], "dataset.synthetic.seed": int}, None, ("synthetic",))
    scale: bool = _key("dataset.scale", bool, True, ("libsvm",))  # max-abs feature scaling
    m: int = _key("m", COUNT, 1, flag=True)
    partition_mode: str = _key("partition", ("contiguous", "shuffled"), "shuffled")
    k: int = _key("k", COUNT, flag=True)
    r: int | None = _key("r", COUNT, None)  # None: r = k
    horizon: int = _key("T", COUNT, flag=True)
    schedule_kind: str = _key("schedule.kind", ("fixed", "decaying", "explicit"), "fixed")
    p: int = _key("schedule.p", COUNT, 1, ("fixed", "decaying"))
    explicit_steps: tuple[int, ...] = _key("schedule.steps", [int], (), ("explicit",))
    alignment: str = _key("alignment", engine.ALIGNMENTS, engine.ALIGN_SIGN)
    epsilon: float = _key("privacy.epsilon", BUDGET, math.inf)
    delta: float = _key("privacy.delta", float, 1e-5)
    eps_split: tuple[float, float] | None = _key("privacy.eps_split", [BUDGET], None)
    participation_kind: str = _key("participation.kind", ("full", "partial"), "full")
    # Both are required under "partial" (checked in __post_init__).
    participation_count: int | None = _key("participation.K", COUNT, None, ("partial",), written="always")
    participation_scheme: int | None = _key("participation.scheme", COUNT, None, ("partial",), written="always")
    repeats: int = _key("repeats", COUNT, 1, flag=True)
    seed: int = _key("seed", int, 0, flag=True)
    record_every_step: bool = _key("record_every_step", bool, False)
    measure_wall_time: bool = _key("measure_wall_time", bool, False)
    out: str | None = _key("out", str, None, flag=True, written="never")  # where the CSV goes

    def __post_init__(self):
        if (self.libsvm_path is None) == (self.synthetic is None):
            raise ConfigError("config key 'dataset' needs exactly one of 'libsvm' or 'synthetic'")
        if self.eps_split is not None and self.epsilon != math.inf:
            raise ConfigError(f'epsilon must be "inf" when eps_split sets the budgets, got {self.epsilon!r}')
        if self.r is None:
            object.__setattr__(self, "r", self.k)
        if self.r < self.k:
            raise ConfigError(f"config key 'r' must be at least k={self.k}, got {self.r}")
        if self.horizon > MAX_HORIZON:
            raise ConfigError(f"config key 'T' must be at most {MAX_HORIZON}, got {self.horizon}")
        if self.participation_kind == "partial" and None in (self.participation_count, self.participation_scheme):
            missing = "participation.K" if self.participation_count is None else "participation.scheme"
            raise ConfigError(f"config key {missing!r} is required under participation kind 'partial'")
        if self.participation_scheme not in (None, 1, 2):
            raise ConfigError(f"config key 'participation.scheme' must be 1 or 2, got {self.participation_scheme!r}")
        if (count := self.participation_count or 0) > self.m:
            raise ConfigError(f"config key 'participation.K' must be at most m={self.m}, got {count}")
        if bad := [t for t in self.explicit_steps if not 1 <= t <= self.horizon]:
            raise ConfigError(f"config key 'schedule.steps' must lie within [1, T={self.horizon}], got step {bad[0]}")
        if any(a >= b for a, b in zip(self.explicit_steps, self.explicit_steps[1:])):
            raise ConfigError(f"config key 'schedule.steps' must be strictly increasing, got {list(self.explicit_steps)}")

    def schedule(self) -> engine.SyncSchedule:
        return engine.build_schedule(
            self.schedule_kind, self.horizon, p=self.p, steps=self.explicit_steps
        )

    def _kinds(self) -> dict:
        return {"dataset": "synthetic" if self.synthetic else "libsvm",
                "schedule": self.schedule_kind, "participation": self.participation_kind}

    def to_dict(self) -> dict:
        doc: dict = {}
        for f in fields(self):
            written = f.metadata["written"]
            if written == "always" or written == "applies" and not _outside(f, self._kinds()):
                *sections, key = f.metadata["path"].split(".")
                reduce(lambda sec, name: sec.setdefault(name, {}), sections, doc)[key] = _to_json(getattr(self, f.name))
        return doc

    @classmethod
    def from_dict(cls, doc: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """Read a config document; ``overrides`` (dotted path: value) replace its keys.
        A key an override replaces or drops is still read first, so a mistyped one is refused.
        A budget of -inf raises :class:`InvalidBudget` here, before any command reads data."""
        flat = _flatten(doc)
        for path, value in (overrides or {}).items():
            # An override that selects a kind (a dataset source) drops the document's keys of other kinds.
            kinds = {path.split(".")[0]: kind for kind in _FIELDS[path].metadata["under"]}
            for p in [p for p in flat if p in _FIELDS and (p == path or _outside(_FIELDS[p], kinds))]:
                _read(flat, p, _TYPES[p])
                del flat[p]
            flat[path] = value
        cfg = cls(**{f.name: _read(flat, f.metadata["path"], f.metadata["type"], f.default) for f in fields(cls)})
        if -math.inf in (cfg.epsilon, *(cfg.eps_split or ())):  # JSON reads -1e400 as -inf; _to_json writes "inf"
            path = "privacy.epsilon" if cfg.epsilon == -math.inf else "privacy.eps_split"
            raise InvalidBudget(f"config key {path!r} must be positive, got -inf")
        for path, f in _FIELDS.items():
            if path in flat and (kind := _outside(f, cfg._kinds())):
                raise ConfigError(f"config key {path!r} does not apply under {path.split('.')[0]} kind {kind!r}")
        return cfg


_FIELDS = {f.metadata["path"]: f for f in fields(ExperimentConfig)}
_TYPES = {path: f.metadata["type"] for path, f in _FIELDS.items()}
_TYPES.update(*[t for t in _TYPES.values() if isinstance(t, dict)])  # the synthetic recipe's keys
_SECTIONS = {path.rsplit(".", 1)[0] for path in _TYPES if "." in path}
_MAX_INT = int(np.iinfo(np.intp).max)
_SEEDS = ("seed", "dataset.synthetic.seed")  # numpy's generators take any non-negative integer
_WHAT = {int: "a non-negative integer", COUNT: "a positive integer", float: "a finite number", BUDGET: 'a number or "inf"',
         bool: "true or false", str: "a string", list: "a list", dict: "a JSON object"}


def _flatten(doc, prefix: str = "") -> dict:
    """``{dotted path: value}`` of the keys in ``doc`` and its sections; a null is absent."""
    flat = {}
    for key, value in _read({prefix: doc}, prefix, dict).items():
        path = f"{prefix}.{key}" if prefix else key
        if path not in _TYPES and path not in _SECTIONS:
            raise ConfigError(f"unknown config key {path!r}")
        if value is not None:
            flat[path] = value
            flat.update(_flatten(value, path) if path in _SECTIONS else {})
    return flat


def _read(flat: dict, path: str, json_type, default=MISSING):
    """``flat[path]`` as ``json_type`` holds it, or ``default``. A value is
    never coerced: int(2.7), bool("false") or open(0) would run another config."""
    if path not in flat:
        if default is MISSING:
            raise ConfigError(f"config key {path!r} is required")
        return default
    value = flat[path]
    if isinstance(json_type, dict):  # an unset recipe key keeps SyntheticSpec's default
        defaults = {f.name: f.default for f in fields(SyntheticSpec)}
        recipe = {name: _read(flat, p, t, defaults[name])
                  for p, t in json_type.items() for name in [p.rsplit(".", 1)[1]]}
        try:  # read first, so a key's own ConfigError is not wrapped again
            return SyntheticSpec(**recipe)
        except ValueError as exc:  # a negative or increasing spectrum
            raise ConfigError(f"config key '{path}.singular_values': {exc}") from None
        except DimensionMismatch as exc:  # a matrix above the dense limit, or more singular values than min(n, d)
            raise ConfigError(f"config key {path!r}: {exc}") from None
    if isinstance(json_type, list):
        return tuple(_read({path: v}, path, json_type[0]) for v in _read(flat, path, list))
    if isinstance(json_type, tuple):
        if value in json_type:
            return value
        noun = _FIELDS[path].name.replace("_", " ")
        raise ConfigError(f"config key {path!r}: unknown {noun} {value!r}, expected one of {json_type}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integral = number and value % 1 == 0
    # A float key is finite: its header would write 1e400 or -1e400 as "inf", which reads back as no number.
    finite = number and abs(value) <= sys.float_info.max  # false for NaN, and for an int past float's range
    ok = {int: integral and value >= 0, COUNT: integral and value >= 1, float: finite, BUDGET: number or value == "inf"}
    if not (ok[json_type] if json_type in ok else isinstance(value, json_type)):
        where = f"config key {path!r}" if path else "a config document"
        raise ConfigError(f"{where} must be {_WHAT[json_type]}, got {value!r}")
    if json_type in (int, COUNT) and value > _MAX_INT and path not in _SEEDS:  # numpy sizes and counts overflow
        raise ConfigError(f"config key {path!r} must be at most {_MAX_INT}, got {value!r}")
    if json_type is BUDGET and isinstance(value, int) and not finite:  # float(value) would overflow; 1e400 is inf
        raise ConfigError(f"config key {path!r} must lie within float's range, got {value!r}")
    return int(value) if json_type in (int, COUNT) else float(value) if json_type in (float, BUDGET) else value


def _outside(f, kinds: dict) -> str | None:
    """The kind ``kinds`` gives ``f``'s section, if ``f`` does not apply under it."""
    kind = kinds.get(f.metadata["path"].split(".")[0])
    return kind if f.metadata["under"] and kind not in f.metadata["under"] else None


def _to_json(value):
    """``value`` as a config document holds it (JSON has no infinity literal)."""
    if isinstance(value, SyntheticSpec):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class CsvTrace:
    """Structured result of one CLI operation, renderable as CSV text.

    ``kind`` selects the column schema: "trace" (per-round records),
    "compare" (one row per algorithm), or "sweep" (one row per epsilon).
    Rendering is deterministic, so identical configs produce byte-identical
    files whenever wall-time measurement is off.
    """

    kind: str
    cfg: ExperimentConfig  # rendered in the header; sets the seed and whether wall time is kept
    repeats: list[engine.RunTrace] = field(default_factory=list)  # repeat i ran on derive_seed(cfg.seed, i)
    rows: list[dict] = field(default_factory=list)
    sub_traces: dict = field(default_factory=dict)  # sweep row index -> that budget's trace

    def summary(self) -> dict:
        finals = [r.records[-1].sin_theta_k for r in self.repeats]
        minima = [min(rec.sin_theta_k for rec in r.records) for r in self.repeats]
        return {
            "repeats": len(self.repeats),
            "final_sin_theta_mean": statistics.fmean(finals),
            "final_sin_theta_std": statistics.pstdev(finals),
            "min_sin_theta_mean": statistics.fmean(minima),
            "min_sin_theta_std": statistics.pstdev(minima),
        }

    def render(self) -> str:
        columns = {"trace": TRACE_COLUMNS, "compare": COMPARE_COLUMNS, "sweep": SWEEP_COLUMNS}.get(self.kind)
        if columns is None:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        lines = [
            f"# schema=fedpower.{self.kind}.v{SCHEMA_VERSION}",
            f"# config={json.dumps(self.cfg.to_dict(), sort_keys=True)}",
            f"# seed={self.cfg.seed}",
            f"# {privacy.STREAM_NOTE}",
            columns,
        ]
        keys = columns.split(",")
        if self.kind != "trace":
            lines.extend(",".join(_fmt(row[key]) for key in keys) for row in self.rows)
            return "\n".join(lines) + "\n"
        for idx, rep in enumerate(self.repeats):
            eta = rep.eta  # one value per repeat's dataset, not a record field
            lines.append(f"# repeat={idx} seed={privacy.derive_seed(self.cfg.seed, idx)} eta={eta!r}")
            for rec in rep.records:
                cells = [eta if key == "eta" else getattr(rec, key) for key in keys]
                if not self.cfg.measure_wall_time:
                    cells[-1] = 0.0  # wall_ms
                lines.append(",".join(map(_fmt, cells)))
        summary = self.summary()
        lines.append("# summary " + " ".join(f"{key}={_fmt(val)}" for key, val in summary.items()))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        """Write the CSV to ``path``, and each sweep sub-trace next to it."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())
        stem, ext = os.path.splitext(path)
        for row_idx, sub in self.sub_traces.items():
            sub.write(f"{stem}.eps{row_idx}{ext or '.csv'}")


def load_matrix(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.synthetic is not None:
        return synth(cfg.synthetic)
    matrix, _labels = parse_libsvm(cfg.libsvm_path)
    return scale_features(matrix) if cfg.scale else matrix


def _run_config(cfg: ExperimentConfig, run_seed: int) -> engine.RunConfig:
    schedule = cfg.schedule()
    priv = privacy.PrivacyConfig.for_schedule(cfg.epsilon, cfg.delta, schedule, eps_split=cfg.eps_split)
    return engine.RunConfig(
        k=cfg.k,
        r=cfg.r,
        schedule=schedule,
        privacy=priv,
        alignment=cfg.alignment,
        participation=engine.Participation(cfg.participation_kind, cfg.participation_count, cfg.participation_scheme),
        seed=run_seed,
        record_every_step=cfg.record_every_step,
    )


def _per_repeat(cfg: ExperimentConfig, one, threads: int | None) -> list:
    """``one(seed, dataset)`` for each of ``cfg.repeats`` repeats, in repeat
    order. Repeat i's root seed is ``derive_seed(cfg.seed, i)`` and its dataset
    that seed's partition of the loaded matrix (a contiguous partition ignores
    the seed). Repeats fan out over a thread pool when more than one thread is
    requested; the thread count is checked before the matrix is loaded."""
    workers = os.environ.get(THREADS_ENV, "1") if threads is None else threads
    if not str(workers).isdecimal() or int(workers) < 1:
        raise ConfigError(f"--threads / {THREADS_ENV} must be an integer of at least 1, got {workers!r}")
    matrix = load_matrix(cfg)

    def repeat(idx: int):
        seed = privacy.derive_seed(cfg.seed, idx)
        return one(seed, partition(matrix, cfg.m, mode=cfg.partition_mode, seed=seed))

    if int(workers) == 1 or cfg.repeats == 1:
        return [repeat(i) for i in range(cfg.repeats)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(repeat, range(cfg.repeats)))


def _written(trace: CsvTrace) -> CsvTrace:
    if trace.cfg.out:
        trace.write(trace.cfg.out)
    return trace


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> CsvTrace:
    """Execute ``cfg.repeats`` seeded runs and assemble the trace CSV."""
    run_cfg = _run_config(cfg, cfg.seed)  # a bad budget fails here, before the dataset is loaded
    repeats = _per_repeat(cfg, lambda seed, ds: _with_eta(engine.run(ds, replace(run_cfg, seed=seed))), threads)
    return _written(CsvTrace("trace", cfg, repeats=repeats))


def _with_eta(trace: engine.RunTrace) -> engine.RunTrace:
    """``trace``, its eta read, so that a repeat computes eta in its own thread, not at render time."""
    trace.eta
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
    run_cfg = _run_config(cfg, cfg.seed)  # a bad budget fails here, before the dataset is loaded

    def one(rep_seed: int, dataset: ShardedDataset) -> dict[str, float]:
        reference = dataset.reference_basis(cfg.k)
        errors = {}
        for name, align in _ALIGN_FOR_ROW.items():
            trace = engine.run(dataset, replace(run_cfg, seed=rep_seed, alignment=align))
            errors[name] = trace.records[-1].sin_theta_k
        errors["UDA"] = linalg.projection_distance(baselines.uda(dataset, cfg.k).u, reference)
        errors["WDA"] = linalg.projection_distance(baselines.wda(dataset, cfg.k).u, reference)
        errors["DR-SVD"] = linalg.projection_distance(
            baselines.dr_svd(dataset, cfg.k, rep_seed).v, reference
        )
        return errors

    per_repeat = _per_repeat(cfg, one, threads)
    rows = []
    for name in COMPARE_ALGORITHMS:
        errors = [rep[name] for rep in per_repeat]
        rows.append({
            "algorithm": name,
            "final_error_mean": statistics.fmean(errors),
            "final_error_std": statistics.pstdev(errors),
            "repeats": cfg.repeats,
        })
    return _written(CsvTrace("compare", cfg, rows=rows))


def privacy_sweep(cfg: ExperimentConfig, eps_list, threads: int | None = None) -> CsvTrace:
    """One experiment per privacy budget; records the minimum error over the
    first :data:`SWEEP_WINDOW` iterations plus the total leakage.

    A budget that cannot be calibrated is reported in its status column
    instead of aborting the sweep; an entry that is no number, or no entry,
    is a :class:`ConfigError` raised before the dataset is loaded.
    """
    try:
        epsilons = [float(eps) for eps in eps_list]
    except ValueError as exc:
        raise ConfigError(f"--eps-list must be comma-separated numbers or 'inf': {exc}") from None
    if not epsilons:
        raise ConfigError("--eps-list must name at least one budget")
    budgets = [replace(cfg, epsilon=eps, eps_split=None) for eps in epsilons]

    def calibrated(run_cfg: ExperimentConfig, rep_seed: int, dataset: ShardedDataset):
        try:
            run_cfg = _run_config(run_cfg, rep_seed)
            engine.noise_scales(dataset, run_cfg)
            return run_cfg
        except InvalidBudget as exc:
            return exc

    def one(rep_seed: int, dataset: ShardedDataset) -> list:
        # The budgets that calibrate on the repeat's partition run in one engine pass.
        results = [calibrated(run_cfg, rep_seed, dataset) for run_cfg in budgets]
        traces = iter(engine.run_budgets(dataset, [res for res in results if isinstance(res, engine.RunConfig)]))
        return [res if isinstance(res, InvalidBudget) else _with_eta(next(traces)) for res in results]

    rows = []
    sub_traces = {}
    for row_idx, (run_cfg, repeats) in enumerate(zip(budgets, zip(*_per_repeat(cfg, one, threads)))):
        row = {
            "epsilon": run_cfg.epsilon,
            "min_sin_theta_mean": math.nan,
            "min_sin_theta_std": math.nan,
            "eps_spent_total": math.nan,
            "delta_spent_total": math.nan,
            "status": "ok",
        }
        failure = next((rep for rep in repeats if isinstance(rep, InvalidBudget)), None)
        if failure is not None:
            row["status"] = f"invalid-budget: {failure}"
            rows.append(row)
            continue
        minima = []
        for rep in repeats:  # a repeat with no record in the window counts its last record
            window = [r.sin_theta_k for r in rep.records if r.t <= SWEEP_WINDOW]
            minima.append(min(window) if window else rep.records[-1].sin_theta_k)
        last = repeats[0].records[-1]
        row.update(
            min_sin_theta_mean=statistics.fmean(minima),
            min_sin_theta_std=statistics.pstdev(minima),
            eps_spent_total=last.eps_spent,
            delta_spent_total=last.delta_spent,
        )
        rows.append(row)
        sub_traces[row_idx] = CsvTrace("trace", run_cfg, repeats=list(repeats))
    return _written(CsvTrace("sweep", cfg, rows=rows, sub_traces=sub_traces))


def inspect_dataset(cfg: ExperimentConfig) -> dict:
    """Summarize a dataset: dimensions, leading spectrum, the spectral gap at
    k, shard weights, and the local-approximation diagnostic for the
    configured partition, per shard and its worst case."""
    [dataset] = _per_repeat(replace(cfg, repeats=1), lambda _seed, dataset: dataset, 1)  # no thread count read
    # sigma_j(A) = sqrt(n * lambda_j(A.T @ A / n)), no SVD of the n x d matrix; values below
    # about 1e-7 * sigma_1 are not resolved, since forming the Gram squares the condition number.
    rank = min(dataset.n, dataset.d)
    eigenvalues = linalg.top_eigenpairs(dataset.global_gram(), rank).singular_values
    sigma = [math.sqrt(dataset.n * lam) for lam in eigenvalues]
    k = cfg.k
    return {
        "n": dataset.n,
        "d": dataset.d,
        "m": dataset.m,
        "shard_sizes": list(dataset.sizes),
        "top_singular_values": sigma[:10],
        # sigma_{k+1} / sigma_k sets the power method's rate; undefined when k = min(n, d) or sigma_k = 0.
        "gap_ratio": sigma[k] / sigma[k - 1] if k < rank and sigma[k - 1] > 0.0 else None,
        "shard_eta": list(dataset.shard_eta),
        "eta": max(dataset.shard_eta),  # the same bits as dataset.eta, without its second pass over the shards
    }


def _unique_keys(pairs: list) -> dict:
    # json keeps a repeated key's last value; a config that writes a key twice is refused instead.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config key {key!r} is written more than once")
        doc[key] = value
    return doc


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else "{}"
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:  # a repeated key, named by _unique_keys
        raise
    except (ValueError, RecursionError) as exc:  # a JSON error gives its line and column
        raise ConfigError(f"config file {args.config!r} is not UTF-8 JSON that json can read: {exc}") from None
    flags = {path: getattr(args, path.split(".")[-1], None) for path, f in _FIELDS.items() if f.metadata["flag"]}
    return ExperimentConfig.from_dict(doc, {path: v for path, v in flags.items() if v is not None})


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
        # inspect-dataset prints one partition to standard output, so it takes no flag for repeats or a file.
        unused = {"threads", "repeats", "out"} if name == "inspect-dataset" else set()
        if "threads" not in unused:
            cmd.add_argument("--threads", type=int, default=None,
                             help=f"parallel repeats (default ${THREADS_ENV} or 1)")
        for path, f in _FIELDS.items():
            if f.metadata["flag"] and path not in unused:
                cmd.add_argument("--" + path.split(".")[-1], type=int if f.metadata["type"] in (int, COUNT) else str,
                                 help=f"overrides config key {path!r}")
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
            trace = privacy_sweep(cfg, args.eps_list.split(","), threads=args.threads)
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
