"""The benchmark's per-layer metrics name package functions that exist.

forgebench/shim.py wraps the public functions that each layer module
defines, and forgebench/layers.py reads their spans by name, so a function
that is renamed, made private or moved to another module would read zero
there and fail a traced run.  layers.py is loaded read-only by path, the
way forgebench/checks.py loads tests/oracles.py.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark_layers():
    path = ROOT / "forgebench" / "layers.py"
    spec = importlib.util.spec_from_file_location("forgebench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_layers = load_benchmark_layers()
SPAN_NAMES = sorted({*_layers.BUSY, *_layers.SELF, *_layers.CALLS,
                     *_layers.COUNTS, *_layers.READERS})


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_is_a_public_function_of_its_layer(name):
    layer, attr = name.split(".")
    # the shim strips the underscore of the _kernels module from span names
    module = importlib.import_module(
        "quandleforge." + ("_kernels" if layer == "kernels" else layer))
    fn = getattr(module, attr, None)
    assert not attr.startswith("_"), name
    assert inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name
