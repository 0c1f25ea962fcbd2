"""Run the fedpower CLI with a span around every call of each layer's public
functions, then write the spans to a JSON file.

    python3 perfbench/trace_cli.py SPANS_JSON <fedpower CLI arguments>

Nothing in the package is edited: the wrappers replace module attributes
from outside, including every by-name import of a wrapped function (for
example ``cli.synth`` and ``data.orth``), so calls through those names are
traced too. A layer whose functions no longer exist is listed as absent.
Spans are kept in memory as ``[layer, parent span, start, end, extra]`` and
written once the CLI returns. The tracer assumes one thread (``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# Traced layer -> (module, attribute) pairs it covers. ``engine.run`` covers
# both protocol entry points and a merged ``run`` should one replace them.
LAYERS = {
    "cli": [("cli", "main")],
    "data.synth": [("data", "synth")],
    "data.partition": [("data", "partition")],
    "data.parse_libsvm": [("data", "parse_libsvm")],
    "data.scale_features": [("data", "scale_features")],
    "linalg.gram": [("linalg", "gram")],
    "linalg.orth": [("linalg", "orth")],
    "linalg.svd": [("linalg", "svd")],
    "linalg.procrustes": [("linalg", "procrustes")],
    "linalg.sign_fix": [("linalg", "sign_fix")],
    "linalg.sin_theta_k": [("linalg", "sin_theta_k")],
    "privacy.sample_noise": [("privacy", "sample_noise")],
    "privacy.stream": [("privacy", "stream")],
    "engine.run": [("engine", "run_full"), ("engine", "run_partial"), ("engine", "run")],
    "engine.local_approx_eta": [("engine", "local_approx_eta")],
    "engine.residual_rho": [("engine", "residual_rho")],
    "engine.draw_participants": [("engine", "draw_participants")],
    "baselines.uda": [("baselines", "uda")],
    "baselines.wda": [("baselines", "wda")],
    "baselines.dr_svd": [("baselines", "dr_svd")],
}


def _full_round_uploads(args, result):
    # Bases uploaded by a full-participation run: every worker, every round.
    # Sampled rounds are counted by draw_participants instead.
    dataset, cfg = args[0], args[1]
    if cfg.participation.kind != "full":
        return 0
    return dataset.m * result.records[-1].comm_count


def _sampled_round_uploads(args, result):
    return int(np.unique(result).size)


# Layer -> function of (args, result) giving the bases uploaded within the span.
UPLOADS = {"engine.run": _full_round_uploads, "engine.draw_participants": _sampled_round_uploads}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.upload_errors: list[str] = []

    def wrap(self, layer: str, fn):
        count = UPLOADS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                try:
                    span[4] = count(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.upload_errors.append(f"{layer}: {exc!r}")
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every present target and rebind each module attribute that
        refers to one; return the layers with no present target."""
        wrapped = {}
        absent = []
        for layer, targets in LAYERS.items():
            found = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(f"fedpower.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    wrapped.setdefault(id(fn), (fn, self.wrap(layer, fn)))
                    found = True
            if not found:
                absent.append(layer)
        for name, module in list(sys.modules.items()):
            if name != "fedpower" and not name.startswith("fedpower."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)][1])
        return absent


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    absent = tracer.install()
    main_fn = sys.modules["fedpower.cli"].main
    code = 1
    try:
        code = main_fn(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"absent": absent, "upload_errors": tracer.upload_errors, "spans": tracer.spans}, fh
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
