"""Seeded config fuzzer: every command, on configs with one to three keys
set to values from a fixed pool or with the document cut short, either
succeeds or reports a named ``FedPowerError``, and warns about nothing."""

import contextlib
import copy
import io
import json
import random
import warnings

from fedpower import cli, errors

BASE = {
    "dataset": {"synthetic": {"n": 24, "d": 5, "singular_values": [4.0, 3.0, 2.0, 1.0, 0.5], "seed": 1}},
    "m": 3, "k": 2, "T": 6, "schedule": {"kind": "fixed", "p": 2}, "seed": 4,
}
# Every key and section the schema knows, except the two that name files: a path is the caller's.
KEYS = sorted((set(cli._TYPES) | cli._SECTIONS) - {"dataset.libsvm", "out"})
# Every count here is at most 1e3 or at least 2**63: a count near 1e8 as d or repeats could allocate
# gigabytes or loop for hours instead of failing. HORIZONS adds, for "T" only, counts above
# cli.MAX_HORIZON, which are refused before any data is made.
POOL = [
    None, True, False, 0, 1, 2, 3, 5, 24, 100, -1, -0.0, 0.5, 2.5, 3.0, 1e-5, 0.999, 1e-320, 1e-307, 1e160,
    1e300, float("nan"), float("inf"), 2**63, 2**64, 1e19, "inf", "x", "", "fixed", "decaying", "explicit",
    "partial", "full", "opt", "none", "sign_fix", "contiguous", "shuffled", [], [1], [2, 4], [3.0, 1.0],
    [1, "inf"], [1e160, 1.0], [1e-300, 1e-300], [5.0] * 5, {}, {"kind": "partial", "K": 2, "scheme": 2},
    {"kind": "explicit", "steps": [1, 3]}, {"kind": "decaying", "p": 3},
]
HORIZONS = [cli.MAX_HORIZON + 1, 1e7, 1e18, 2**62, 2**63 - 1]
COMMANDS = ("run", "compare", "privacy-sweep", "inspect-dataset")
CASES = 300


def _put(doc: dict, path: str, value) -> None:
    *sections, key = path.split(".")
    for name in sections:
        if not isinstance(doc.get(name), dict):
            doc[name] = {}
        doc = doc[name]
    doc[key] = value


def _case(seed: int, tmp_path):
    """(command, config text, failure or None) of case ``seed``."""
    rng = random.Random(seed)
    doc = copy.deepcopy(BASE)
    for path in rng.sample(KEYS, rng.randint(1, 3)):
        _put(doc, path, copy.deepcopy(rng.choice(POOL + HORIZONS if path == "T" else POOL)))
    text = json.dumps(doc)
    if rng.random() < 0.15:
        text = text[: rng.randrange(len(text))]
    command = rng.choice(COMMANDS)
    cfg_path = tmp_path / f"case{seed}.json"
    cfg_path.write_text(text)
    argv = [command, "--config", str(cfg_path)]
    if command != "inspect-dataset":  # inspect-dataset prints to standard output and takes no --out
        argv += ["--out", str(tmp_path / f"case{seed}.csv")]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # any exception escaping main is a failure
            return command, text, f"{type(exc).__name__} escaped main: {exc}"
    if caught:
        return command, text, f"{caught[0].category.__name__}: {caught[0].message}"
    if code != 0:
        payload = json.loads(err.getvalue())
        named = getattr(errors, payload["error"], None)
        if not (isinstance(named, type) and issubclass(named, errors.FedPowerError)):
            return command, text, f"{payload['error']} is no FedPowerError: {payload['message']}"
    return command, text, None


def test_fuzzed_configs_run_or_fail_with_a_named_error(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV, raising=False)
    failures = [f"seed {seed}, {command}: {failure}\n  config: {text}"
                for seed in range(CASES) for command, text, failure in [_case(seed, tmp_path)] if failure]
    assert not failures, f"{len(failures)} of {CASES} cases failed:\n" + "\n".join(failures)
