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

Each conv's signs are held in the ``.ern`` word layout: (OC, IC_pad/64,
kh, kw) uint64 words, bit j of word i of a tap the sign of input
channel 64*i + j (1 for w >= 0), pad lanes 1.  The build reads each
conv's float32 weights once, a block of output channels at a time,
through the manifest's reader, holds no layer of floats, and packs each
block with its own numpy code (``np.packbits`` of w >= 0, least
significant bit first), not the engine's packer.  Built against a model
(``ern verify``), it compares each packed block with the model's words
(``np.array_equal``) and, once every block of a conv matched, keeps a
reference to the model's array instead of a copy; a conv that differs
raises :class:`VerificationError` naming it.  So every weight bit of
the model is certified against the manifest, over the whole input
domain, and each weight is held once.  Independence still holds: the
words the oracle computes with are proven equal to the ones its own
code packs from the manifest, and its arithmetic decodes them itself
and shares nothing with the popcount kernel.  Built without a model,
the oracle keeps the words it packed; both run the same conv path.

The convolution builds the image's columns one tile of output rows at
a time, ordered (word, kh, kw, lane) over codes zero-padded to whole
words, and multiplies them by each block of output channels' words,
expanded to float32 +/-1 through a 256-entry little-endian byte table,
so the expansion needs no transpose; only a conv whose input width is
not a multiple of 64 (the stem's first) multiplies pad lanes, each
contributing 0.  Each float32 GEMM's partial sums are integers below
2**24, so it is exact, and its result is widened to 64-bit reals.  The
only rounding happens when a scale or the batch norm touches a value.
Residual branches therefore stay exactly c times the engine's integer
accumulators: the oracle adds the unscaled (integer-valued) tensors and
applies c lazily.  A BnAct reading an ``"alpha"`` edge multiplies by
that conv's per-channel scales, and one reading a ``"c"`` edge (a
c-scaled conv or a residual sum) by c itself.  The pool averages the
head's integer-valued accumulator, which is exact, and then scales by
alpha_out, the correctly rounded mean |w| of the head
(:func:`ern.quant.exact_abs_sum`), which no summation order changes;
the engine computes the same two roundings, so the logits agree bit
for bit.

Each BnAct's codes come from :func:`ern.quant.act_codes`, the one
definition of the expression clip(floor((gamma * (s * acc - mean) / sd
+ beta) / s_a), 0, 3) in its op order.  Compilation folds that same
function into integer thresholds, each the exact preimage of a code
step, so the engine and the oracle agree at every accumulator, ties
included, and any disagreement is a defect.  Independence still holds:
compilation evaluates the expression only to fold it, while the oracle
evaluates it at run time on its own accumulators, which its float
convolution computes with no engine code; a table folded or stored
wrongly differs from the oracle's codes wherever a step moved.

:func:`oracle_steps` walks the graph once per image, node by node, and
drops each map after its last reader (the step's ``frees``).
:func:`cross_check` runs the engine and the oracle in lockstep: through
``execute``'s ``observe`` hook, each engine step advances the oracle's
walk by the same step, and the two outputs are compared at once (embed
and BnAct codes, residual-branch accumulators).  So the check holds one
step's engine and oracle maps beside each side's live maps, never an
image's worth of compared edges.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError, VerificationError
from .quant import BnParams, act_codes, exact_abs_sum
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
from .tensor import LANES, padded_channels, row_blocks, unpack_activations

# byte -> its 8 signs as float32 +/-1, least significant bit first, as a word's lanes run
_BYTE_SIGNS = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    * np.float32(2) - 1
)


# --------------------------------------------------------------------------
# model construction


@dataclass(eq=False)
class OracleModel:
    """Pre-folding float view of a compiled model.

    Per-channel scales are held only for ``"alpha"`` edges; a ``"c"``
    edge's scale is ``shared_const`` and the head's is ``alpha_out``.
    """

    graph: GraphDef
    shared_const: float
    # each (OC, IC, kh, kw) conv's signs as (OC, IC_pad/64, kh, kw) uint64 .ern words;
    # the model's own arrays when the build certified them
    words: dict[str, np.ndarray]
    edge_scale: dict[str, np.ndarray]  # "alpha" acc edge -> (OC,) per-channel scale
    bns: dict[str, BnParams]  # the manifest's parameters per BnAct node
    alpha_out: float


def _pack_words(block: np.ndarray) -> np.ndarray:
    """A block of (r, IC, kh, kw) float filters as (r, IC_pad/64, kh, kw) uint64 words.

    Bit j of word i of a tap is 1 iff input channel 64*i + j weighs >= 0;
    pad lanes are 1.  ``np.packbits`` packs each tap's lanes least
    significant bit first, and the bytes are read as little-endian words.
    """
    r, ic, kh, kw = block.shape
    lanes = np.ones((r, kh, kw, padded_channels(ic)), dtype=bool)
    lanes[..., :ic] = block.transpose(0, 2, 3, 1) >= 0.0
    octets = np.packbits(lanes, axis=-1, bitorder="little")  # (r, kh, kw, IC_pad/8)
    return octets.view("<u8").astype(np.uint64, copy=False).transpose(0, 3, 1, 2)


def oracle_from_manifest(manifest, shared_const: float | None = None, model=None) -> OracleModel:
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
    its words of signs (:func:`_pack_words`), its per-channel scales,
    summed in 64-bit reals, and for the head its exact |w| sum
    (:func:`ern.quant.exact_abs_sum`), so alpha_out is the correctly
    rounded mean |w| that compilation computes too.  Only ``"alpha"``
    edges get per-channel scales; ``"c"`` edges read c.

    With a compiled ``model`` (of the same graph, else
    :class:`ConfigError`), each block's words are compared with the
    model's rows instead of stored, and the oracle keeps a reference to
    the model's word array of each conv; a conv whose words differ raises
    :class:`VerificationError` naming it.  So the build holds, beside
    the manifest and the model, the scales and block-sized temporaries;
    without a model, also the words packed so far.  No layer of floats is
    held either way.
    """
    g, c = manifest.checked_graph(shared_const)
    if model is not None:
        require_same_graph(model.graph, g)
    words: dict[str, np.ndarray] = {}
    edge_scale: dict[str, np.ndarray] = {}
    alpha_out, head_sum = 1.0, 0
    for node in g.convs:
        # signs and scales read the reader's float32 blocks; scales sum in 64 bits
        s = node.spec
        scale = g.edges[node.dst].scale
        held = np.empty(s.word_shape, np.uint64) if model is None else model.weights[node.name].bits
        alpha = np.empty(s.out_ch)
        with manifest.conv_weights(node) as w:
            for rows in row_blocks(s.out_ch, 4 * s.fan_in):
                block = w.rows(rows)
                packed = _pack_words(block)
                if model is None:
                    held[rows] = packed
                elif not np.array_equal(packed, held[rows]):
                    raise VerificationError(
                        f"layer '{node.name}': weight words differ from the manifest's signs"
                    )
                if scale == "alpha":
                    alpha[rows] = np.abs(block).mean(axis=(1, 2, 3), dtype=np.float64)
                elif scale == "alpha_out":
                    head_sum += exact_abs_sum(block)
                del block, packed  # else the next read sits beside them
        words[node.name] = held
        if scale == "alpha":
            edge_scale[node.dst] = np.where(alpha == 0.0, 1.0, alpha)
        elif scale == "alpha_out":  # the pool reads om.alpha_out; no BnAct reads the head
            alpha_out = float(head_sum / w.size) or 1.0

    bns = {bn.name: manifest.bn_params(bn) for bn in g.bnacts}
    return OracleModel(
        graph=g, shared_const=c, words=words, edge_scale=edge_scale, bns=bns, alpha_out=alpha_out
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


def _conv_im2col(codes: np.ndarray, words: np.ndarray, shape, stride, padding) -> np.ndarray:
    """Convolve 2-bit codes with signs in word layout by float32 GEMMs; returns float64.

    ``words`` holds the (OC, IC, kh, kw) ``shape``'s signs as (OC,
    IC_pad/64, kh, kw) uint64 words, bit j of word i the sign of input
    channel 64*i + j, 1 for +1.  Every product and partial sum is an
    integer of magnitude at most 3 * fan_in (pad lanes meet code 0), and
    integers below 2**24 are exact in float32, so the result is exact
    whatever order a GEMM sums in.  One loop order: for each tile of
    output rows (:func:`ern.tensor.row_blocks`, a tile's float32 columns
    being about ``BLOCK_BYTES``), the columns are built once from the
    window view over the codes zero-padded to whole words (uint8, one
    byte a lane), ordered (word, kh, kw, lane); then each block of output
    channels (a block's float32 signs being about ``BLOCK_BYTES``) is
    expanded byte by byte through the little-endian table, which orders
    each row the same way, and multiplies them.  The call holds the
    padded codes, the float64 result, one tile of columns and one block
    of expanded signs.
    """
    ic, h, wd = codes.shape
    oc, wic, kh, kw = shape
    if wic != ic:
        raise ShapeError(f"conv weights expect {wic} channels, got {ic}")
    if 3 * ic * kh * kw >= 2**24:
        raise ShapeError(f"fan-in {ic * kh * kw} is too large for an exact float32 GEMM")
    nw = padded_channels(ic) // LANES
    if words.shape != (oc, nw, kh, kw):
        raise ShapeError(f"conv words shaped {words.shape}, expected {(oc, nw, kh, kw)}")
    fan = nw * LANES * kh * kw  # each row's lanes, pad lanes included
    sh, sw = stride
    ph, pw = padding
    x = np.zeros((nw * LANES, h + 2 * ph, wd + 2 * pw), dtype=np.uint8)
    x[:ic, ph : ph + h, pw : pw + wd] = codes
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"empty conv output for input {h}x{wd}")
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::sh, ::sw][:, :oh, :ow].reshape(nw, LANES, oh, ow, kh, kw)
    acc = np.empty((oc, oh, ow))
    for tile in row_blocks(oh, 4 * fan * ow):
        cols = win[:, :, tile].transpose(0, 4, 5, 1, 2, 3)
        cols = cols.astype(np.float32, order="C").reshape(fan, -1)
        for rows in row_blocks(oc, 4 * fan):
            r = rows.stop - rows.start
            octets = np.ascontiguousarray(words[rows], dtype="<u8").view(np.uint8)
            signs = _BYTE_SIGNS.take(octets.reshape(-1), axis=0).reshape(r, fan)
            acc[rows, tile] = (signs @ cols).reshape(r, -1, ow)
    return acc


def oracle_steps(om: OracleModel, img: np.ndarray) -> Iterator[tuple[Node, np.ndarray]]:
    """Run the float reference on one image, yielding each node's output in order.

    Yields ``(node, value)``: act2 values are uint8 codes, acc values
    integer-valued float64, the pool's value the float64 logits.  Each map is
    dropped after its last reader, as the graph's steps' ``frees`` say,
    so a caller that keeps nothing holds only the live maps.
    """
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image, got {img.shape}")
    values: dict[str, np.ndarray] = {IMAGE_EDGE: img}
    for step in om.graph.steps:
        node = step.node
        if isinstance(node, PixelEmbed):
            out = _thermo_codes(img, node.k).astype(np.uint8)
        elif isinstance(node, Conv):
            s = node.spec
            out = _conv_im2col(
                values[node.src], om.words[node.name], (s.out_ch, s.in_ch, s.kh, s.kw),
                s.stride, s.padding,
            )
        elif isinstance(node, BnAct):
            if om.graph.edges[node.src].scale == "alpha":
                scale = om.edge_scale[node.src][:, None, None]
            else:  # a "c" edge: a c-scaled conv or a residual sum
                scale = om.shared_const
            out = act_codes(om.bns[node.name], scale, values[node.src])
        elif isinstance(node, ResidualAdd):
            out = values[node.src_a] + values[node.src_b]
        elif isinstance(node, AvgPoolScale):
            out = om.alpha_out * values[node.src].mean(axis=(1, 2))
        values[node.dst] = out
        yield node, out
        for src in step.frees:
            del values[src]


@dataclass(eq=False)
class OracleResult:
    logits: np.ndarray


def oracle_execute(om: OracleModel, img: np.ndarray) -> OracleResult:
    """Run the float reference on one image; only the logits are kept."""
    for _, out in oracle_steps(om, img):
        pass
    return OracleResult(logits=out)


# --------------------------------------------------------------------------
# cross-checking


@dataclass
class LayerReport:
    mismatches: int = 0  # code disagreements
    boundary: int = 0  # always 0, read by perfbench (ROADMAP item 1)


@dataclass
class CrossCheckReport:
    # fields in the order of the JSON report's keys
    ok: bool = True
    images: int = 0
    logits_equal: bool = True  # engine and oracle logits bit-identical on every image
    residual_scaling_exact: bool = True
    first_divergence: str | None = None
    layers: dict[str, LayerReport] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"images checked: {self.images}",
            f"logits bit-identical: {self.logits_equal}",
            f"residual branches exactly c x integer: {self.residual_scaling_exact}",
        ]
        for name, rep in self.layers.items():
            if rep.mismatches:
                lines.append(f"  {name}: {rep.mismatches} mismatches")
        if self.first_divergence:
            lines.append(f"first divergent layer: {self.first_divergence}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, allow_nan=False)


def require_same_graph(model_graph: GraphDef, manifest_graph: GraphDef) -> None:
    """Raise :class:`ConfigError` unless both graphs have the same nodes."""
    if model_graph != manifest_graph:
        raise ConfigError("model and manifest graphs differ (another architecture or k)")


def cross_check(model, om: OracleModel, images) -> CrossCheckReport:
    """Compare integer execution against the float reference, step by step.

    Passes iff every 2-bit code map matches at every position, every
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
        node, want = next(walk)
        if node.dst == LOGITS_EDGE:
            lf = want
            return
        if node.dst in branches:  # both integer-valued; c scales both alike
            if not np.array_equal(got, want):
                report.residual_scaling_exact = False
            return
        if node.name not in report.layers:
            return
        diff = np.count_nonzero(unpack_activations(got, g.edges[node.dst].channels) != want)
        if diff:
            report.layers[node.name].mismatches += int(diff)
            report.first_divergence = report.first_divergence or node.name

    for img in images:
        walk = oracle_steps(om, img)
        li = execute(model, img, observe=step).logits
        report.images += 1
        report.logits_equal &= np.array_equal(li, lf)

    report.ok = (
        report.first_divergence is None and report.residual_scaling_exact and report.logits_equal
    )
    if not report.ok and report.first_divergence is None:
        report.first_divergence = "logits"
    return report
