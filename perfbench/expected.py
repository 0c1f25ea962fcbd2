"""Expected CLI outputs, computed without the fedpower package, and the
output check that compares the CSVs a command wrote against them.

The reference follows the protocol as the README states it: row shards,
local power steps on each shard's second-moment matrix, alignment to a
baseline worker, calibrated Gaussian noise, weighted aggregation, and the
stream rule that every trace header prints. It is a plain numpy transcription,
batched over workers, so float results differ from the program's in the last
digits; ``TOL`` absorbs that and nothing more. Only the settings the benchmark
workloads use are supported.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Stream sites, as printed in every trace header ("sites: 0=shared-init ...").
INIT, LOCAL, SERVER, SAMPLER, REPEAT = 0, 1, 2, 3, 4

# Absolute tolerance on error and diagnostic cells. Re-association between the
# reference and the program moves them by about 1e-14 on every workload; an
# algorithmic change (skipped alignment, wrong weights, another noise draw)
# moves them by 1e-4 or more.
TOL = 1e-8

SWEEP_WINDOW = 40  # the CLI's window for the sweep's minimum error

TRACE_COLUMNS = "t,comm_count,eps_spent,delta_spent,sin_theta_k,rho_t,eta,wall_ms"
COMPARE_COLUMNS = "algorithm,final_error_mean,final_error_std,repeats"
SWEEP_COLUMNS = "epsilon,min_sin_theta_mean,min_sin_theta_std,eps_spent_total,delta_spent_total,status"
COMPARE_ALIGNMENTS = (("FedPower-OPT", "opt"), ("FedPower-SignFix", "sign_fix"), ("FedPower-vanilla", "none"))


def stream(seed: int, key) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(REPEAT, int(index)))
    return int(ss.generate_state(2, np.uint64)[0])


def orth(y: np.ndarray) -> np.ndarray:
    """QR with the column signs chosen so diag(R) >= 0; batched over leading axes."""
    q, r = np.linalg.qr(y)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :]


def synth(n: int, d: int, singular_values, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sv = np.asarray(singular_values, dtype=np.float64)
    u = orth(rng.standard_normal((n, sv.size)))
    v = orth(rng.standard_normal((d, sv.size)))
    return (u * sv) @ v.T


def scale_columns(a: np.ndarray) -> np.ndarray:
    peak = np.abs(a).max(axis=0)
    out = a.copy()
    out[:, peak > 0] /= peak[peak > 0]
    return out


class Shards:
    """Row shards of a shuffled matrix and their second-moment matrices."""

    def __init__(self, a: np.ndarray, m: int, seed: int):
        n = a.shape[0]
        self.rows = a[np.random.default_rng(seed).permutation(n)]
        self.sizes = np.array([n // m + 1] * (n % m) + [n // m] * (m - n % m))
        self.weights = self.sizes / n
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        self.grams = np.stack(
            [self.rows[lo:hi].T @ self.rows[lo:hi] / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        )
        self.m, self.d = m, a.shape[1]


def top_eigvecs(sym: np.ndarray, k: int) -> np.ndarray:
    _, vecs = np.linalg.eigh(sym)
    return vecs[:, ::-1][:, :k]


def reference_basis(a: np.ndarray, k: int) -> np.ndarray:
    return top_eigvecs(a.T @ a / a.shape[0], k)


def sin_theta(z: np.ndarray, v: np.ndarray) -> float:
    return min(float(np.linalg.norm(v - z @ (z.T @ v), 2)), 1.0)


def projection_distance(u: np.ndarray, v: np.ndarray) -> float:
    return max(sin_theta(u, v), sin_theta(v, u))


def eta(shards: Shards) -> float:
    """max_i ||M_i - M||_2 / ||M||_2, from eigenvalues (all matrices symmetric)."""
    glob = shards.rows.T @ shards.rows / shards.rows.shape[0]
    denom = float(np.abs(np.linalg.eigvalsh(glob)).max())
    devs = np.abs(np.linalg.eigvalsh(shards.grams - glob)).max(axis=1)
    return float(devs.max()) / denom


def alignment(mode: str, z: np.ndarray, z_base: np.ndarray) -> np.ndarray:
    """Per-worker r x r transforms aligning each z[i] to z_base."""
    r = z.shape[-1]
    if mode == "none":
        return np.broadcast_to(np.eye(r), (z.shape[0], r, r))
    if mode == "opt":
        u, _, vt = np.linalg.svd(np.swapaxes(z, 1, 2) @ z_base)
        return u @ vt
    if mode == "sign_fix":
        signs = np.where(np.einsum("mij,ij->mj", z, z_base) < 0.0, -1.0, 1.0)
        return signs[:, None, :] * np.eye(r)
    raise ValueError(f"unsupported alignment {mode!r}")


def noise_scales(run: dict, shards: Shards, rounds: int) -> tuple[float, float]:
    """(sigma_local, sigma_server) for the total-budget calibration."""
    eps, delta = run["epsilon"], run["delta"]
    if math.isinf(eps):
        return 0.0, 0.0
    if run.get("K") is None or run["scheme"] != 2:
        raise ValueError("the reference calibrates partial participation, scheme 2, only")
    m, count = shards.m, run["K"]
    base = rounds / (eps * int(shards.sizes.min()))
    local = base * math.sqrt(2.0 * math.log(1.25 * rounds * (1.0 / m) / delta))
    server = base * m * float(shards.weights.max()) / count * math.sqrt(2.0 * math.log(1.25 * rounds / delta))
    return local, server


def protocol(shards: Shards, run: dict, seed: int, ref: np.ndarray) -> list[tuple]:
    """Records (t, comm_count, eps_spent, delta_spent, sin_theta_k) at every
    sync step. The workloads' recorded steps are all sync steps, where every
    worker holds the broadcast basis, so rho_t is 0 and the output basis is
    the broadcast basis."""
    m, d, r, horizon, p = shards.m, shards.d, run["r"], run["T"], run["p"]
    if horizon % p:
        raise ValueError("the reference needs the last iteration to be a sync step")
    rounds = horizon // p
    sigma_local, sigma_server = noise_scales(run, shards, rounds)
    weights = shards.weights
    z0 = orth(stream(seed, (INIT, 0, 0)).standard_normal((d, r)))
    z = np.repeat(z0[None], m, axis=0)
    records = []
    comm = 0
    for t in range(1, horizon + 1):
        y = shards.grams @ z
        if t % p:
            z = orth(y)
            continue
        if run.get("K") is None:
            ids = np.arange(m)
            coef = weights
            base = int(np.argmax(weights))
        else:
            picks = stream(seed, (SAMPLER, comm, 0)).choice(m, size=run["K"], replace=False)
            ids = np.unique(picks)
            coef = m / run["K"] * weights[ids]
            base = int(ids[0])
        rot = alignment(run["alignment"], z[ids], z[base])
        uploads = y[ids] @ rot
        if sigma_local > 0.0:
            for j, i in enumerate(ids):
                std = float(np.abs(z[i]).max()) * sigma_local
                uploads[j] += stream(seed, (LOCAL, comm, i)).normal(0.0, std, size=(d, r))
        agg = np.tensordot(coef, uploads, axes=1)
        if sigma_server > 0.0:
            std = float(np.abs(z[ids] @ rot).max()) * sigma_server
            agg = agg + stream(seed, (SERVER, comm, 0)).normal(0.0, std, size=(d, r))
        comm += 1
        z = np.repeat(orth(agg)[None], m, axis=0)
        if math.isinf(run["epsilon"]):
            spent = (0.0, 0.0)
        else:
            frac = comm / rounds
            spent = (2.0 * run["epsilon"] * frac, 2.0 * run["delta"] * frac)
        records.append((t, comm, *spent, sin_theta(z[0], ref)))
    return records


def trace_block(a: np.ndarray, run: dict, seed: int, repeat: int, ref: np.ndarray) -> dict:
    """One repeat of a trace file: its seed, eta and records."""
    rep_seed = derive_seed(seed, repeat)
    shards = Shards(a, run["m"], rep_seed)
    return {"seed": rep_seed, "eta": eta(shards), "records": protocol(shards, run, rep_seed, ref)}


def expected_trace(a: np.ndarray, run: dict, seed: int, repeats: int) -> dict:
    ref = reference_basis(a, run["k"])
    blocks = [trace_block(a, run, seed, i, ref) for i in range(repeats)]
    finals = [b["records"][-1][4] for b in blocks]
    minima = [min(rec[4] for rec in b["records"]) for b in blocks]
    summary = {
        "repeats": float(repeats),
        "final_sin_theta_mean": statistics.fmean(finals),
        "final_sin_theta_std": statistics.pstdev(finals),
        "min_sin_theta_mean": statistics.fmean(minima),
        "min_sin_theta_std": statistics.pstdev(minima),
    }
    return {"kind": "trace", "blocks": blocks, "summary": summary}


def _one_shot(shards: Shards, k: int, seed: int, ref: np.ndarray) -> dict:
    lam, vecs = np.linalg.eigh(shards.grams)
    v = vecs[:, :, ::-1][:, :, :k]
    lam = lam[:, ::-1][:, :k]
    uda = np.mean(v @ np.swapaxes(v, 1, 2), axis=0)
    wda = np.mean((v * lam[:, None, :]) @ np.swapaxes(v, 1, 2), axis=0)
    d = shards.d
    sketch = k + (d - k) // 4
    stacked = shards.rows
    omega = stream(seed, (INIT, 0, 1)).standard_normal((d, sketch))
    q, _ = np.linalg.qr(stacked @ (stacked.T @ (stacked @ omega)))
    _, _, bt = np.linalg.svd(q.T @ stacked, full_matrices=False)
    return {
        "UDA": projection_distance(top_eigvecs(uda, k), ref),
        "WDA": projection_distance(top_eigvecs(wda, k), ref),
        "DR-SVD": projection_distance(bt[:k].T, ref),
    }


def expected_compare(a: np.ndarray, run: dict, seed: int) -> dict:
    """The compare table for repeats=1."""
    ref = reference_basis(a, run["k"])
    rep_seed = derive_seed(seed, 0)
    shards = Shards(a, run["m"], rep_seed)
    rows = {}
    for name, mode in COMPARE_ALIGNMENTS:
        rows[name] = protocol(shards, {**run, "alignment": mode}, rep_seed, ref)[-1][4]
    rows.update(_one_shot(shards, run["k"], rep_seed, ref))
    return {"kind": "compare", "rows": rows}


def expected_sweep(a: np.ndarray, run: dict, seed: int, repeats: int, eps_list) -> dict:
    rows, subs = [], []
    for eps in eps_list:
        sub = expected_trace(a, {**run, "epsilon": eps}, seed, repeats)
        minima = [
            min(rec[4] for rec in b["records"] if rec[0] <= SWEEP_WINDOW) for b in sub["blocks"]
        ]
        last = sub["blocks"][0]["records"][-1]
        rows.append((eps, statistics.fmean(minima), statistics.pstdev(minima), last[2], last[3]))
        subs.append(sub)
    return {"kind": "sweep", "rows": rows, "subs": subs}


# ---------------------------------------------------------------- the check


class Mismatch(Exception):
    """An output file differs from its expected content."""


def _close(name: str, got: str, want: float) -> None:
    value = float(got)
    if not abs(value - want) <= TOL:
        raise Mismatch(f"{name}: got {got}, expected {want!r} within {TOL}")


def _exact(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def _body(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def check_trace(text: str, want: dict) -> None:
    lines = text.splitlines()
    body = _body(text)
    _exact("trace columns", body[0] if body else None, TRACE_COLUMNS)
    heads = [line for line in lines if line.startswith("# repeat=")]
    _exact("trace repeat count", len(heads), len(want["blocks"]))
    rows = iter(body[1:])
    for idx, (head, block) in enumerate(zip(heads, want["blocks"])):
        fields = dict(part.split("=", 1) for part in head[2:].split() if "=" in part)
        _exact(f"repeat {idx} index", fields.get("repeat"), str(idx))
        _exact(f"repeat {idx} seed", fields.get("seed"), str(block["seed"]))
        _close(f"repeat {idx} eta", fields.get("eta", "nan"), block["eta"])
        for t, comm, eps_spent, delta_spent, sin in block["records"]:
            cells = next(rows, "").split(",")
            if len(cells) != 8:
                raise Mismatch(f"repeat {idx} t={t}: malformed row {cells!r}")
            _exact(f"repeat {idx} t", cells[0], str(t))
            _exact(f"repeat {idx} t={t} comm_count", cells[1], str(comm))
            _exact(f"repeat {idx} t={t} eps_spent", float(cells[2]), eps_spent)
            _exact(f"repeat {idx} t={t} delta_spent", float(cells[3]), delta_spent)
            _close(f"repeat {idx} t={t} sin_theta_k", cells[4], sin)
            _close(f"repeat {idx} t={t} rho_t", cells[5], 0.0)
            _close(f"repeat {idx} t={t} eta", cells[6], block["eta"])
            _exact(f"repeat {idx} t={t} wall_ms", cells[7], "0.0")
    extra = next(rows, None)
    if extra is not None:
        raise Mismatch(f"unexpected row {extra!r}")
    summary = [line for line in lines if line.startswith("# summary ")]
    if len(summary) != 1:
        raise Mismatch("expected one summary line")
    fields = dict(part.split("=", 1) for part in summary[0].split()[2:])
    _exact("summary keys", sorted(fields), sorted(want["summary"]))
    for key, value in want["summary"].items():
        _close(f"summary {key}", fields[key], value)


def check_compare(text: str, want: dict) -> None:
    body = _body(text)
    _exact("compare columns", body[0] if body else None, COMPARE_COLUMNS)
    _exact("compare algorithms", [line.split(",")[0] for line in body[1:]], list(want["rows"]))
    for line in body[1:]:
        name, mean, std, repeats = line.split(",")
        _close(f"{name} final_error_mean", mean, want["rows"][name])
        _close(f"{name} final_error_std", std, 0.0)
        _exact(f"{name} repeats", repeats, "1")


def check_sweep(text: str, want: dict) -> None:
    body = _body(text)
    _exact("sweep columns", body[0] if body else None, SWEEP_COLUMNS)
    _exact("sweep rows", len(body) - 1, len(want["rows"]))
    for line, (eps, mean, std, eps_total, delta_total) in zip(body[1:], want["rows"]):
        cells = line.split(",", 5)
        _exact(f"eps={eps} epsilon", float(cells[0]), eps)
        _close(f"eps={eps} min_sin_theta_mean", cells[1], mean)
        _close(f"eps={eps} min_sin_theta_std", cells[2], std)
        _exact(f"eps={eps} eps_spent_total", float(cells[3]), eps_total)
        _exact(f"eps={eps} delta_spent_total", float(cells[4]), delta_total)
        _exact(f"eps={eps} status", cells[5], "ok")


def check_outputs(files: dict[str, str], want: dict) -> None:
    """Raise Mismatch unless every file a command wrote matches ``want``.

    ``files`` maps file suffix ("" for the main CSV, ".eps<i>" for sweep
    sub-traces) to its text.
    """
    expected_names = [""] + [f".eps{i}" for i in range(len(want.get("subs", ())))]
    _exact("output files", sorted(files), sorted(expected_names))
    if want["kind"] == "trace":
        check_trace(files[""], want)
    elif want["kind"] == "compare":
        check_compare(files[""], want)
    else:
        check_sweep(files[""], want)
        for i, sub in enumerate(want["subs"]):
            check_trace(files[f".eps{i}"], sub)
