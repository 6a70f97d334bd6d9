"""The benchmark's per-layer metrics name package functions that exist,
and its counts read the arguments they mean.

forgebench/shim.py wraps the public functions that each layer module
defines, and forgebench/layers.py reads their spans by name, so a function
that is renamed, made private or moved to another module would read zero
there and fail a traced run.  layers.py is loaded read-only by path, the
way forgebench/checks.py loads tests/oracles.py.  The shim also derives
counts from argument positions (assignments is n ** strands), which real
traced requests check against what the requests print.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quandleforge import io as qio
from quandleforge import snf
from quandleforge.cohomology import second_cohomology
from quandleforge.constructions import dihedral_quandle
from quandleforge.knotdata import bundled_knots

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


def test_every_shim_layer_is_in_sys_modules_after_importing_cli():
    # forgebench/shim.py looks up each layer of its LAYERS in sys.modules
    # after `import quandleforge.cli`; the package registers every layer
    # there, lazily, before any of them runs
    shim = ast.parse((ROOT / "forgebench" / "shim.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in shim.body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "LAYERS")
    assert "envgroup" in layers
    script = ("import json, sys\n"
              "import quandleforge.cli\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert {f"quandleforge.{layer}" for layer in layers} <= loaded


def traced(tmp_path, request, *args):
    """Run one forge request under forgebench/shim.py: its stdout records
    and its span counts, summed by span name and count name."""
    spans = tmp_path / f"{request}.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "forgebench" / "shim.py"), str(spans),
         request, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, check=True)
    counts = Counter()
    for name, _, _, _, span_counts in json.loads(spans.read_text())["spans"]:
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] += value
    return [json.loads(line) for line in run.stdout.splitlines()], counts


def test_shim_counts_read_the_kernel_arguments(tmp_path, monkeypatch):
    # the shim derives its counts from the positions of each call's
    # arguments and from its result, so a kernel signature change must not
    # shift them
    quandle = tmp_path / "d5.quandle"
    qio.write_text(quandle, qio.quandle_to_text(dihedral_quandle(5)))

    (record,), counts = traced(tmp_path, "vendramin", "vendramin",
                               "--quandle", str(quandle))
    # the enumeration runs over <x_s>, and each R_s of dihedral(5) has
    # order 2, so it has half as many cosets as the group has elements
    assert 2 * counts["kernels.coset_enumeration.live_cosets"] \
        == record["finite_enveloping_order"] == 10

    records, counts = traced(tmp_path, "tangle", "invariant", "--tangle",
                             "--quandle", str(quandle))
    assert counts["kernels.braid_closure_colorings.colorings"] \
        == sum(r["colorings"] for r in records) > 0
    assert counts["kernels.braid_closure_colorings.assignments"] \
        == sum(5 ** k.strands for k in bundled_knots())

    _, counts = traced(tmp_path, "h2", "h2", "--quandle", str(quandle),
                       "--mod", "2")
    assert counts["snf.row_reduce.rows_in"] > 0
    # cells is rows x columns of each dense matrix smith_normal_form takes
    shapes = []
    smith_normal_form = snf.smith_normal_form

    def recorded(a, want=()):
        shapes.append(len(a) * (len(a[0]) if a else 0))
        return smith_normal_form(a, want)

    monkeypatch.setattr(snf, "smith_normal_form", recorded)
    second_cohomology(dihedral_quandle(5), 2)
    assert counts["snf.smith_normal_form.cells"] == sum(shapes) > 0
