"""Self-test of the benchmark's output check and tracer, on a tiny config.

    python3 perfbench/selftest.py

Shows that a correct run passes, that one perturbed error cell, a command
that exits non-zero and a run whose bytes differ from the first all count as
failures, that a traced run reports its layers and lists a missing function
as absent, and that run.py's metric names and units match BENCHMARK.json.
"""

import dataclasses
import json
import shutil
import sys

import run  # noqa: I001  (pins BLAS threads before numpy loads)
import expected
import trace_cli


def tiny_inputs() -> run.Inputs:
    n, d, m, seed = 400, 20, 8, 3
    synthetic = {"n": n, "d": d, "singular_values": run.spectrum(d), "seed": seed}
    cfg = run.make_config(seed, {"synthetic": synthetic}, m=m, r=6, horizon=12, p=3)
    matrix = expected.synth(n, d, synthetic["singular_values"], seed)
    want = expected.expected_trace(matrix, run.run_params(cfg), seed, repeats=1)
    path = run.write_config(cfg, "selftest")
    return run.Inputs(["run", "--config", str(path)], path, want, seed, run.shard_sizes(n, m), d, 6)


def perturbed(text: str, delta: float) -> str:
    """The CSV with the first row's sin_theta_k cell moved by ``delta``."""
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    cells = lines[row].split(",")
    cells[4] = repr(float(cells[4]) + delta)
    lines[row] = ",".join(cells)
    return "".join(lines)


def fails(text: str, want: dict) -> bool:
    try:
        expected.check_outputs({"": text}, want)
    except expected.Mismatch:
        return True
    return False


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    inputs = tiny_inputs()
    checks = {}

    good = run.command_sample(inputs, 0, traced=False)
    checks["correct run passes"] = good.error is None
    text = good.files.get("", b"").decode()
    checks["re-association-sized change (1e-12) passes"] = not fails(perturbed(text, 1e-12), inputs.want)
    checks["one perturbed error cell (1e-6) fails"] = fails(perturbed(text, 1e-6), inputs.want)

    broken = dataclasses.replace(inputs, args=["run", "--config", str(run.WORK / "missing.json")])
    bad = run.command_sample(broken, 1, traced=False)
    checks["non-zero exit counts as failed"] = bad.error is not None and "exited 1" in bad.error

    again = run.command_sample(inputs, 2, traced=False)
    again.files = {"": perturbed(text, 1e-12).encode()}
    run.check_identical([good, again])
    checks["bytes differing from the first run count as failed"] = again.error is not None

    traced = run.command_sample(inputs, 3, traced=True)
    checks["traced run passes the output check"] = traced.error is None
    checks["traced run reports engine and linalg layers"] = (
        traced.layers.get("engine.run.calls") == 1 and traced.layers.get("linalg.orth.calls", 0) > 0
    )
    trace_cli.LAYERS["engine.removed"] = [("engine", "no_such_function")]
    checks["a missing function is reported as absent"] = trace_cli.Tracer().install() == ["engine.removed"]

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    checks["end-to-end names and units match BENCHMARK.json"] = {
        m["name"]: m["unit"] for m in doc["end_to_end"]
    } == run.END_TO_END
    checks["per-layer names and units match BENCHMARK.json"] = {
        m["name"]: m["unit"] for m in doc["per_layer"]
    } == run.PER_LAYER

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
