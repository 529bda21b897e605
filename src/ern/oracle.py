"""Float reference executor and integer-engine cross-checking.

The oracle evaluates the same quantized network in 64-bit reals, straight
from the defining math: binary signs convolved with code maps by im2col,
scaled by alpha (or the shared constant c), batch-normalized, and passed
through the explicit float quantizer.  It builds on the graph, c and
conv weights that the manifest's own checks hand out, the ones
compilation starts from, and reads each BnAct's
:class:`ern.quant.BnParams` as the manifest holds it, already checked
and in 64-bit reals.  It shares no kernel code with the integer engine,
so agreement between the two certifies both.

The build reads each conv's weights once, a block of output channels
at a time, through the manifest's reader, and holds no layer of floats.
Each conv's signs are held at one bit per weight, packed per output
channel (``np.packbits`` of w >= 0 along each filter, numpy's own
packing, not the engine's).  The convolution expands them to float32
+/-1 through a 256-entry byte table, one block of output channels at a
time, and multiplies each block by the image's columns, built one block
of output rows at a time; each float32 GEMM's partial sums are integers
below 2**24, so it is exact, and its result is widened to 64-bit reals.
The only rounding happens when a scale or the batch norm touches a
value.  Residual branches therefore stay exactly c times the engine's
integer accumulators: the oracle adds the unscaled (integer-valued)
tensors and applies c lazily.  The pool averages the head's
integer-valued accumulator, which is exact, and then scales by
alpha_out, the correctly rounded mean |w| of the head
(:func:`ern.quant.exact_abs_sum`), which no summation order changes;
the engine computes the same two roundings, so the logits agree bit
for bit.

:func:`oracle_steps` walks the graph once per image, node by node, and
drops each map after its last reader (the step's ``frees``).
:func:`cross_check` runs the engine and the oracle in lockstep: through
``execute``'s ``observe`` hook, each engine step advances the oracle's
walk by the same step, and the two outputs are compared at once (embed
and BnAct codes, residual-branch accumulators).  So the check holds one
step's engine and oracle maps beside each side's live maps, never an
image's worth of compared edges.

A cross-check can still legitimately disagree with the engine at
positions where the pre-quantization value sits essentially on a code
boundary: the folded thresholds and the direct float composition round
differently there.  Those positions are detected (|v / s_a| within 1e-9
of an integer), counted, and excluded; any other disagreement fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .quant import BnParams, exact_abs_sum, quantize_act_float
from .graph import (
    AvgPoolScale,
    BnAct,
    Conv,
    GraphDef,
    IMAGE_EDGE,
    LOGITS_EDGE,
    Node,
    PixelEmbed,
    ResidualAdd,
    execute,
)
from .tensor import row_blocks, unpack_activations

# byte -> its 8 signs as float32 +/-1, most significant bit first as np.packbits packs
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) * np.float32(2) - 1
TIE_EPS = 1e-9  # |v / s_a - round(v / s_a)| below this is a code-boundary tie


# --------------------------------------------------------------------------
# model construction


@dataclass(eq=False)
class OracleModel:
    """Pre-folding float view of a compiled model."""

    graph: GraphDef
    shared_const: float
    # each (OC, IC, kh, kw) conv's np.packbits(w.reshape(OC, -1) >= 0, axis=1)
    signs: dict[str, np.ndarray]
    edge_scale: dict[str, np.ndarray]  # acc edge a BnAct may read -> (OC,) effective scale
    bns: dict[str, BnParams]  # the manifest's parameters per BnAct node
    alpha_out: float


def oracle_from_manifest(manifest, shared_const: float | None = None) -> OracleModel:
    """Build the float reference with compilation's scale policy.

    The graph, c and each conv's weights come from the manifest's
    ``checked_graph`` and ``conv_weights``, the checks compilation runs,
    so a manifest compilation refuses is refused here with the same
    error.  Which scale a conv's accumulator carries (``"alpha"``, ``"c"``
    or ``"alpha_out"``) is its output edge's ``scale`` in the graph; its
    value the oracle computes itself.  Must see the same manifest and shared constant as the
    compiled model, or divergence is by construction rather than by
    defect.

    Reads each conv once through its reader, one block of output
    channels at a time (:func:`ern.tensor.row_blocks`, a block's weights
    being about ``BLOCK_BYTES``), and takes three things from each block:
    its rows of packed signs, its per-channel scales, summed in 64-bit
    reals, and for the head its exact |w| sum
    (:func:`ern.quant.exact_abs_sum`), so alpha_out is the correctly
    rounded mean |w| that compilation computes too.  No layer of floats
    is held: the build holds, beside the manifest, the signs and scales
    so far and block-sized temporaries.
    """
    g, c = manifest.checked_graph(shared_const)
    signs: dict[str, np.ndarray] = {}
    edge_scale: dict[str, np.ndarray] = {}
    alpha_out, head_sum = 1.0, 0
    for node in g.convs:
        # signs read the manifest's floats as they are; scales sum in 64 bits
        s = node.spec
        scale = g.edges[node.dst].scale
        bits = signs[node.name] = np.empty((s.out_ch, -(-s.fan_in // 8)), np.uint8)
        alpha = np.empty(s.out_ch)
        with manifest.conv_weights(node) as w:
            for rows in row_blocks(s.out_ch, 4 * s.fan_in):
                block = w.rows(rows)
                bits[rows] = np.packbits(block.reshape(len(block), -1) >= 0.0, axis=1)
                if scale == "alpha":
                    alpha[rows] = np.abs(block).mean(axis=(1, 2, 3), dtype=np.float64)
                elif scale == "alpha_out":
                    head_sum += exact_abs_sum(block)
                del block  # else the next read sits beside it
        if scale == "alpha_out":  # the pool reads om.alpha_out; no BnAct reads the head
            alpha_out = float(head_sum / w.size) or 1.0
            continue
        if scale == "c":
            alpha = np.full(s.out_ch, c)
        edge_scale[node.dst] = np.where(alpha == 0.0, 1.0, alpha)
    for n in g.nodes:
        if isinstance(n, ResidualAdd):
            edge_scale[n.dst] = edge_scale[n.src_a]

    bns = {bn.name: manifest.bnacts[bn.name] for bn in g.bnacts}
    return OracleModel(
        graph=g,
        shared_const=c,
        signs=signs,
        edge_scale=edge_scale,
        bns=bns,
        alpha_out=alpha_out,
    )


# --------------------------------------------------------------------------
# float execution


def _thermo_codes(img: np.ndarray, k: int) -> np.ndarray:
    # independent of the table-driven encoder: evaluate the defining map
    s = max(1, 255 // (3 * k))
    w = 1.0 / (s * k)
    b = 1.0 - (np.arange(1, k + 1)) / k
    x = img.astype(np.float64)
    z = np.floor(w * x[:, None, :, :] + b[None, :, None, None])
    z = np.clip(z, 0, 3)
    c, kk, h, wd = z.shape
    return z.reshape(c * kk, h, wd)


def _conv_im2col(codes: np.ndarray, bits: np.ndarray, shape, stride, padding) -> np.ndarray:
    """Convolve 2-bit codes with packed signs by float32 GEMMs; returns float64.

    ``bits`` holds the (OC, IC, kh, kw) ``shape``'s signs packed per
    output channel, ``np.packbits`` of each filter along its fan-in, bit
    1 for +1.  Every product and partial sum is an integer of magnitude
    at most 3 * fan_in, and integers below 2**24 are exact in float32, so
    the result is exact whatever order a GEMM sums in.  The signs are
    expanded one block of output channels at a time
    (:func:`ern.tensor.row_blocks`, a block's float32 signs being about
    ``BLOCK_BYTES``), each row's pad bits cut off.  Each block multiplies
    the image's columns (fan_in x output pixels, float32), which are
    built from the window view one block of output rows at a time, a
    block's columns being about ``BLOCK_BYTES``; when one block holds
    every row they are built once.  The call holds the padded input, the
    float64 result, one block of expanded signs and one block of columns.
    """
    ic, h, wd = codes.shape
    oc, wic, kh, kw = shape
    if wic != ic:
        raise ShapeError(f"conv weights expect {wic} channels, got {ic}")
    fan = ic * kh * kw
    if 3 * fan >= 2**24:
        raise ShapeError(f"fan-in {fan} is too large for an exact float32 GEMM")
    sh, sw = stride
    ph, pw = padding
    x = np.zeros((ic, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    x[:, ph : ph + h, pw : pw + wd] = codes
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"empty conv output for input {h}x{wd}")
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::sh, ::sw][:, :oh, :ow]  # (ic, oh, ow, kh, kw)

    def columns(out_rows: slice) -> np.ndarray:
        return win[:, out_rows].transpose(0, 3, 4, 1, 2).reshape(fan, -1)

    tiles = list(row_blocks(oh, 4 * fan * ow))
    whole = columns(tiles[0]) if len(tiles) == 1 else None
    acc = np.empty((oc, oh, ow))
    for rows in row_blocks(oc, 4 * fan):
        r = rows.stop - rows.start
        signs = _BYTE_SIGNS.take(bits[rows].reshape(-1), axis=0).reshape(r, -1)[:, :fan]
        for t in tiles:
            cols = columns(t) if whole is None else whole
            acc[rows, t] = (signs @ cols).reshape(r, -1, ow)
    return acc


def oracle_steps(
    om: OracleModel, img: np.ndarray
) -> Iterator[tuple[Node, np.ndarray, np.ndarray | None]]:
    """Run the float reference on one image, yielding each node's output in order.

    Yields ``(node, value, pre)``: act2 values are uint8 codes, acc values
    integer-valued float64, the pool's value the float64 logits; ``pre``
    is a BnAct's float value before quantization, else None.  Each map is
    dropped after its last reader, as the graph's steps' ``frees`` say,
    so a caller that keeps nothing holds only the live maps.
    """
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image, got {img.shape}")
    values: dict[str, np.ndarray] = {IMAGE_EDGE: img}
    for step in om.graph.steps:
        node = step.node
        pre = None
        if isinstance(node, PixelEmbed):
            out = _thermo_codes(img, node.k).astype(np.uint8)
        elif isinstance(node, Conv):
            s = node.spec
            out = _conv_im2col(
                values[node.src], om.signs[node.name], (s.out_ch, s.in_ch, s.kh, s.kw),
                s.stride, s.padding,
            )
        elif isinstance(node, BnAct):
            bn = om.bns[node.name]
            y = om.edge_scale[node.src][:, None, None] * values[node.src]
            sd = np.sqrt(bn.var + bn.epsilon)[:, None, None]
            pre = bn.gamma[:, None, None] * (y - bn.mean[:, None, None]) / sd + bn.beta[:, None, None]
            del y  # else the suspended walk holds it while the caller runs
            out = quantize_act_float(pre, bn.act_scale)
        elif isinstance(node, ResidualAdd):
            out = values[node.src_a] + values[node.src_b]
        elif isinstance(node, AvgPoolScale):
            out = om.alpha_out * values[node.src].mean(axis=(1, 2))
        values[node.dst] = out
        yield node, out, pre
        for src in step.frees:
            del values[src]


@dataclass(eq=False)
class OracleResult:
    logits: np.ndarray


def oracle_execute(om: OracleModel, img: np.ndarray) -> OracleResult:
    """Run the float reference on one image; only the logits are kept."""
    for _, out, _ in oracle_steps(om, img):
        pass
    return OracleResult(logits=out)


# --------------------------------------------------------------------------
# cross-checking


@dataclass
class LayerReport:
    mismatches: int = 0  # non-boundary code disagreements
    boundary: int = 0  # disagreements excused as quantization-boundary ties


@dataclass
class CrossCheckReport:
    ok: bool = True
    images: int = 0
    layers: dict[str, LayerReport] = field(default_factory=dict)
    first_divergence: str | None = None
    logits_equal: bool = True  # engine and oracle logits bit-identical on every image
    residual_scaling_exact: bool = True

    def summary(self) -> str:
        lines = [
            f"images checked: {self.images}",
            f"logits bit-identical: {self.logits_equal}",
            f"residual branches exactly c x integer: {self.residual_scaling_exact}",
        ]
        for name, rep in self.layers.items():
            if rep.mismatches or rep.boundary:
                lines.append(
                    f"  {name}: {rep.mismatches} mismatches, {rep.boundary} boundary ties"
                )
        if self.first_divergence:
            lines.append(f"first divergent layer: {self.first_divergence}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "images": self.images,
                "logits_equal": self.logits_equal,
                "residual_scaling_exact": self.residual_scaling_exact,
                "first_divergence": self.first_divergence,
                "layers": {
                    n: {"mismatches": r.mismatches, "boundary": r.boundary}
                    for n, r in self.layers.items()
                },
            },
            indent=2,
            allow_nan=False,
        )


def require_same_graph(model_graph: GraphDef, manifest_graph: GraphDef) -> None:
    """Raise :class:`ConfigError` unless both graphs have the same nodes."""
    if model_graph != manifest_graph:
        raise ConfigError("model and manifest graphs differ (another architecture or k)")


def cross_check(model, om: OracleModel, images) -> CrossCheckReport:
    """Compare integer execution against the float reference, step by step.

    Passes iff every 2-bit code map matches outside boundary ties, every
    residual-branch accumulator equals the oracle's integer-valued one
    (both are then c times the same integers, so their scaled values
    agree exactly, and no product by c can overflow), and the logits are
    equal bit for bit (``np.array_equal``, so a NaN logit on either side
    fails).  Both sides pool the head's integer accumulator exactly and
    scale by the same correctly rounded alpha_out, so any logit
    difference is a defect.  The check runs in lockstep: ``execute``'s
    ``observe`` hook advances the image's :func:`oracle_steps` walk by one
    step per engine step (both walk the graph's steps in order) and
    compares the two outputs at once (embed and BnAct codes, and
    residual-branch accumulators).  Nothing is kept past its step, so the
    check holds one step's engine and oracle maps, each side's live maps
    and one comparison's temporaries, and its peak does not grow with the
    number of images.  A model and an oracle built on different graphs
    (another architecture or k) raise :class:`ConfigError` before any
    image is run.
    """
    g: GraphDef = model.graph
    require_same_graph(g, om.graph)
    report = CrossCheckReport()
    embed = g.steps[0].node
    report.layers[embed.name] = LayerReport()
    for bn in g.bnacts:
        report.layers[bn.name] = LayerReport()
    branches = {src for n in g.nodes if isinstance(n, ResidualAdd) for src in (n.src_a, n.src_b)}

    walk, lf = None, None  # the image's oracle walk, and the oracle's logits

    def step(_, got: np.ndarray) -> None:
        nonlocal lf
        node, want, pre = next(walk)
        if node.dst == LOGITS_EDGE:
            lf = want
            return
        if node.dst in branches:  # both integer-valued; c scales both alike
            if not np.array_equal(got, want):
                report.residual_scaling_exact = False
            return
        if node.name not in report.layers:
            return
        diffmask = unpack_activations(got, g.edges[node.dst].channels) != want
        if not diffmask.any():
            return
        if isinstance(node, PixelEmbed):
            # both routes are exact integer maps, no tie excuse
            hard, tied = int(np.count_nonzero(diffmask)), 0
        else:
            ratio = pre / om.bns[node.name].act_scale
            near = np.abs(ratio - np.rint(ratio)) < TIE_EPS
            hard = int(np.count_nonzero(diffmask & ~near))
            tied = int(np.count_nonzero(diffmask & near))
        report.layers[node.name].mismatches += hard
        report.layers[node.name].boundary += tied
        if hard:
            report.first_divergence = report.first_divergence or node.name

    for img in images:
        walk = oracle_steps(om, img)
        li = execute(model, img, observe=step).logits
        report.images += 1
        report.logits_equal &= np.array_equal(li, lf)

    hard_total = sum(r.mismatches for r in report.layers.values())
    report.ok = hard_total == 0 and report.residual_scaling_exact and report.logits_equal
    if not report.ok and report.first_divergence is None and hard_total == 0:
        report.first_divergence = "logits"
    return report
