"""The benchmark's tracer still finds a function for every layer it times.

``perfbench/trace_cli.py`` wraps the functions its ``LAYERS`` table names and
lists a layer none of whose functions exists as absent, so deleting or
renaming such a function would quietly turn that layer's per-layer metrics
absent. These tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def _traced_layers() -> dict[str, list[tuple[str, str]]]:
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _traced_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_layer_has_a_callable_target(layer):
    found = [
        f"{name}.{attr}" for name, attr in LAYERS[layer]
        if callable(getattr(importlib.import_module(f"fedpower.{name}"), attr, None))
    ]
    assert found, f"none of {LAYERS[layer]} is a function in fedpower, so layer {layer!r} would read absent"
