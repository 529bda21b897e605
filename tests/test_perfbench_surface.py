"""The names and fields the benchmark in ``perfbench/`` reads from ern.

``perfbench/layers.py`` traces ern by patching module attributes and reads
fields of a loaded model, and ``perfbench/workloads.py`` reads fields of
``ern.execute``'s result; a rename would otherwise surface only in a
benchmark run.  The module is executed from its source text, so nothing is
written under ``perfbench/``.
"""

import dataclasses
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

import ern
from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS_PY = PERFBENCH / "layers.py"


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


def test_execution_result_fields(model):
    # workloads.py reads res.logits and res.float_ops_core, and fails a
    # request whose count is not 0; the count is kept only for that read
    read = set(re.findall(r"\bres\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert read == {"logits", "float_ops_core"}
    res = ern.execute(model, np.zeros((3, 32, 32), np.uint8))
    assert [f.name for f in dataclasses.fields(res)] == ["logits", "float_ops_core"]
    assert res.logits.shape == (model.graph.arch.classes,) and res.float_ops_core == 0
