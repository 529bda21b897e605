"""Outside-in per-layer trace of ern, recorded from the benchmark's own files.

Every traced function is wrapped at the module attribute its callers look
up (``ern.graph.conv_w1a2_popcount`` is the name ``execute`` calls, not
``ern.kernels.conv_w1a2_popcount``), so nothing inside the program changes
and untraced runs execute the original functions.  A wrapper records one
span -- name, start, end, parent span, request id -- and passes arguments
and results through unchanged.  Spans are kept in memory and written out
once, when the run ends.

Counts that the program does not report (MACs, bytes moved, lane
utilization) are computed from ``ConvSpec`` and ``trace_shapes``, i.e.
from tensor sizes, never from counters inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from pathlib import Path
from time import perf_counter

from ern.graph import trace_shapes
from ern.tensor import ACC_DTYPE, LANES, padded_channels

ROOT = "request"

# (module, attribute, span name): where each layer's public function is
# looked up by its caller.  execute is wrapped at every name that calls it.
TARGETS = [
    ("ern", "execute", "graph.execute"),
    ("ern.cli", "execute", "graph.execute"),
    ("ern.oracle", "execute", "graph.execute"),
    ("ern.graph", "encode_image", "pixembed.encode"),
    ("ern.graph", "pack_activations", "tensor.pack"),
    ("ern.graph", "conv_w1a2_popcount", "kernels.conv"),
    ("ern.graph", "apply_thresholds", "quant.threshold"),
    ("ern.graph", "residual_add", "kernels.residual"),
    ("ern.graph", "avgpool_and_scale", "kernels.pool"),
    ("ern.compiler", "pack_weights", "tensor.pack_weights"),
    ("ern.compiler", "fuse_thresholds", "quant.fuse"),
    ("ern.compiler", "binarize_weights", "quant.binarize"),
    ("ern.cli", "main", "cli.main"),
    ("ern.cli", "read_ppm", "ppm.read"),
    ("ern.cli", "load_manifest", "compiler.load_manifest"),
    ("ern.cli", "compile_checkpoint", "compiler.compile"),
    ("ern.cli", "serialize", "compiler.serialize"),
    ("ern.cli", "load", "compiler.load"),
    ("ern.cli", "oracle_from_manifest", "oracle.build"),
    ("ern.cli", "cross_check", "oracle.check"),
    ("ern.oracle", "oracle_execute", "oracle.execute"),
]

# per-layer metric -> (span name, "self" | "total" | "calls")
SPAN_METRICS = {
    "pixembed.encode_s": ("pixembed.encode", "self"),
    "tensor.pack_s": ("tensor.pack", "self"),
    "tensor.pack_calls": ("tensor.pack", "calls"),
    "tensor.pack_weights_s": ("tensor.pack_weights", "self"),
    "kernels.conv_s": ("kernels.conv", "self"),
    "kernels.conv_calls": ("kernels.conv", "calls"),
    "kernels.conv_stem_s": ("kernels.conv.stem", "self"),
    "kernels.conv3x3_s": ("kernels.conv.3x3", "self"),
    "kernels.conv1x1_s": ("kernels.conv.1x1", "self"),
    "kernels.residual_s": ("kernels.residual", "self"),
    "kernels.pool_s": ("kernels.pool", "self"),
    "quant.threshold_s": ("quant.threshold", "self"),
    "quant.threshold_calls": ("quant.threshold", "calls"),
    "quant.fuse_s": ("quant.fuse", "self"),
    "quant.binarize_s": ("quant.binarize", "self"),
    "graph.execute_s": ("graph.execute", "total"),
    "graph.self_s": ("graph.execute", "self"),
    "compiler.load_manifest_s": ("compiler.load_manifest", "self"),
    "compiler.compile_s": ("compiler.compile", "self"),
    "compiler.serialize_s": ("compiler.serialize", "self"),
    "compiler.load_s": ("compiler.load", "self"),
    "oracle.build_s": ("oracle.build", "self"),
    "oracle.execute_s": ("oracle.execute", "self"),
    "oracle.check_s": ("oracle.check", "self"),
    "ppm.read_s": ("ppm.read", "self"),
    "cli.self_s": ("cli.main", "self"),
}

# per-layer metric -> key of the counts attached to spans
COUNT_METRICS = {
    "tensor.pack_bytes": "pack_bytes",
    "kernels.conv_bytes": "conv_bytes",
    "oracle.boundary_ties": "boundary_ties",
    "oracle.mismatches": "mismatches",
}


def conv_kind(node) -> str:
    if node.name.startswith("stem."):
        return "stem"
    return "3x3" if node.spec.kh == 3 else "1x1"


def graph_counts(graph, height: int, width: int) -> dict:
    """Work of one ``execute`` call, computed from tensor sizes.

    ``conv_bytes`` counts each conv's packed input planes, weight words and
    int32 accumulator once; ``pack_bytes`` counts each packed edge's uint8
    code map read and its two bitplanes written; ``lane_macs`` weighs each
    conv's MACs by its logical over padded input lanes.
    """
    shapes = trace_shapes(graph, height, width)
    acc_size = ACC_DTYPE().itemsize
    macs = lane_macs = conv_bytes = pack_bytes = 0
    packed = set()
    for n in graph.convs:
        c, ih, iw = shapes[n.src]
        oc, oh, ow = shapes[n.dst]
        words = padded_channels(c) // LANES
        m = oc * oh * ow * n.spec.fan_in
        macs += m
        lane_macs += m * c / (words * LANES)
        conv_bytes += 2 * words * ih * iw * 8 + oc * words * n.spec.kh * n.spec.kw * 8
        conv_bytes += oc * oh * ow * acc_size
        if n.src not in packed:
            packed.add(n.src)
            pack_bytes += c * ih * iw + 2 * words * ih * iw * 8
    return {"macs": macs, "lane_macs": lane_macs, "conv_bytes": conv_bytes, "pack_bytes": pack_bytes}


def section_bytes(model) -> dict:
    """Sizes of the artifact's sections, taken from a loaded CompiledModel."""
    return {
        "compiler.weight_bytes": sum(w.bits.nbytes for w in model.weights.values()),
        "compiler.alpha_bytes": sum(w.alpha.nbytes for w in model.weights.values()),
        "compiler.threshold_bytes": sum(
            t.t.nbytes + t.ascending.nbytes + t.degenerate.nbytes
            for t in model.thresholds.values()
        ),
    }


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, request, counts]``; ``parent``
    is the index of the enclosing span, ``counts`` an optional dict.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._conv_kind: dict[int, str] = {}
        self._models: dict[int, object] = {}  # keeps registered ids unique
        self._counts: dict[tuple, dict] = {}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, rid: int):
        self._request = rid
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def _register(self, model) -> None:
        if id(model) in self._models:
            return
        self._models[id(model)] = model
        for node in model.graph.convs:
            self._conv_kind[id(model.weights[node.name])] = conv_kind(node)

    def _execute_counts(self, model, img) -> dict:
        _, h, w = img.shape
        key = (id(model.graph), h, w)
        if key not in self._counts:
            self._counts[key] = graph_counts(model.graph, h, w)
            self._models[id(model.graph)] = model.graph
        return self._counts[key]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "graph.execute":
                self._register(args[0])
            if name == "kernels.conv":
                span = self._open(f"kernels.conv.{self._conv_kind[id(args[1])]}")
            else:
                span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "graph.execute":
                span[5] = self._execute_counts(args[0], args[1])
            elif name == "oracle.check":
                span[5] = {
                    "boundary_ties": sum(r.boundary for r in result.layers.values()),
                    "mismatches": sum(r.mismatches for r in result.layers.values()),
                }
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target with its wrapper; restore the originals after."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def per_request(self) -> dict[int, dict]:
        """Self time, total time, calls and counts per span name, per request."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, rid, counts in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[int, dict] = {}
        for i, (name, t0, t1, parent, rid, counts) in enumerate(self.spans):
            acc = out.setdefault(rid, {"self": {}, "total": {}, "calls": {}, "counts": {}})
            names = [name]
            if name.startswith("kernels.conv."):
                names.append("kernels.conv")
            for n in names:
                acc["self"][n] = acc["self"].get(n, 0.0) + (t1 - t0) - child[i]
                acc["total"][n] = acc["total"].get(n, 0.0) + (t1 - t0)
                acc["calls"][n] = acc["calls"].get(n, 0) + 1
            for k, v in (counts or {}).items():
                acc["counts"][k] = acc["counts"].get(k, 0) + v
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request", "counts")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Mean per traced request of every per-layer metric the trace yields."""
    reqs = list(tracer.per_request().values())
    n = len(reqs)
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = sum(r[kind].get(span, 0) for r in reqs) / n
    for metric, key in COUNT_METRICS.items():
        out[metric] = sum(r["counts"].get(key, 0) for r in reqs) / n
    macs = sum(r["counts"].get("macs", 0) for r in reqs) / n
    lane_macs = sum(r["counts"].get("lane_macs", 0) for r in reqs) / n
    out["kernels.conv_gmacs"] = macs / 1e9
    conv_s = out["kernels.conv_s"]
    out["kernels.conv_gmac_per_s"] = macs / 1e9 / conv_s if conv_s else 0.0
    out["kernels.lane_util"] = lane_macs / macs if macs else 0.0
    request_s = sum(r["total"][ROOT] for r in reqs) / n
    out["trace.request_s"] = request_s
    out["trace.unattributed_s"] = sum(r["self"][ROOT] for r in reqs) / n
    out["trace.attributed_frac"] = 1.0 - out["trace.unattributed_s"] / request_s
    out["trace.spans"] = len(tracer.spans) / n
    return out

