"""The names and fields the benchmark in ``perfbench/`` reads from ern.

``perfbench/layers.py`` traces ern by patching module attributes and reads
fields of a loaded model; a rename would otherwise surface only in a traced
benchmark run.  The module is executed from its source text, so nothing is
written under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

import pytest

from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    mod = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), mod.__dict__)
    return mod


@pytest.fixture(scope="module")
def model():
    return load(serialize(compile_checkpoint(gen_random_checkpoint("erns18x075", seed=7))))


def test_every_trace_target_resolves(layers):
    assert layers.TARGETS
    for module, attr, _ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_section_bytes(layers, model):
    sections = layers.section_bytes(model)
    assert sections["compiler.weight_bytes"] == sum(w.bits.nbytes for w in model.weights.values())
    assert all(v > 0 for v in sections.values())


def test_graph_counts(layers, model):
    counts = layers.graph_counts(model.graph, 64, 64)
    assert counts["macs"] > 0
    assert 0 < counts["lane_macs"] <= counts["macs"]
