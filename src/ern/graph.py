"""Architecture graphs and the integer-only executor.

A :class:`GraphDef` is an ordered list of nodes of five kinds wired by
named edges.  Edge kinds are strict: a PixelEmbed turns the image into a
2-bit activation map; a Conv consumes a 2-bit activation map and produces
an integer accumulator; a BnAct consumes an accumulator and produces
codes; a ResidualAdd consumes two accumulators; AvgPoolScale consumes the
head's accumulator and produces the logits.  Every accumulator carries
one of three scales, named by its Conv's ``scale``: ``"alpha"``, a
per-channel scale folded into the next BnAct's thresholds; ``"c"``, the
shared model constant, which both inputs of a ResidualAdd and its output
carry (so the add is valid in integers); and ``"alpha_out"``, the head's
one scale, the only edge the pool reads.
A graph is lowered once, at construction, by a single walk over its
nodes that validates the wiring and derives two things everything
downstream reads instead of re-deriving them: ``edges``, the kind,
channels, scale and accumulator bound of every edge, and ``steps``, one
:class:`Step` per node holding what it reads, the op that computes it,
its spatial rule and ``frees``, the inputs no later step reads.
``execute`` and ``trace_shapes`` are plain loops over the steps.

An :class:`ArchConfig` is one architecture (block kind, four stage
counts and widths, classes and the thermometer length k), and
:func:`build_model` records it as the graph's ``arch``.  ``ARCHITECTURES``
names five preset layouts that mirror the ResNet family: stages of
two-conv blocks (erns18/34 and the 384-channel erns18x075) or 1-3-1
bottleneck blocks (erns50/101).  The stem is four 3x3 convs with 64
output channels, strides 2,1,2,1, so the spatial dims shrink 4x before
the stages and 32x overall.  All conv output channels are multiples of
64; the head, one per class, is the one exception (only input lanes are
ever padded in storage, so its odd width costs nothing extra).

Execution is pure integer arithmetic from the pixel-embedding output to
the head conv accumulator.  A graph starts with its embedding and ends
with its pool, so each call counts the float ops of every step between
the first and the last in its own counter (the count must be zero), and
additionally checks the dtype of every step's output against one table
keyed by edge kind: every act2 edge is held as one uint64 array of packed
bitplanes, (2, words, H, W), every acc edge as int32 and the logits as
float64.  A value is a plain array; its channel count is its edge's, in
``edges``.  ``execute`` drops each step's ``frees`` after the step runs.
A caller that wants intermediates passes ``observe(step, value)``, which
sees each step's output once, after its dtype check and before its
``frees`` are dropped, and keeps only what it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import instrument
from .errors import ConfigError, ShapeError
from .kernels import ConvSpec, avgpool_and_scale, conv_w1a2_naive, conv_w1a2_popcount, residual_add
from .pixembed import encode_image, thermo_params
from .quant import apply_thresholds
from .tensor import ACC_DTYPE, LANES, padded_channels, unpack_activations, unpack_signs

# kept only for perfbench's ``tensor.pack`` lookup; goes with ROADMAP item 1
from .tensor import pack_activations  # noqa: F401

CLASSES = 1000
BOTTLENECK_EXPANSION = 4
IMAGE_EDGE = "image"  # the input every graph starts from
LOGITS_EDGE = "logits"  # the output of every graph's final pool


# --------------------------------------------------------------------------
# node kinds


@dataclass(frozen=True, slots=True)
class PixelEmbed:
    name: str
    k: int
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class Conv:
    name: str
    spec: ConvSpec
    scale: str  # one of SCALES: what multiplies its accumulator
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class BnAct:
    name: str
    channels: int
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class ResidualAdd:
    name: str
    src_a: str
    src_b: str
    dst: str


@dataclass(frozen=True, slots=True)
class AvgPoolScale:
    name: str
    src: str
    dst: str


Node = PixelEmbed | Conv | BnAct | ResidualAdd | AvgPoolScale

# an accumulator's scale: per-channel alpha (folded into the next BnAct),
# the shared constant c (residual branches and sums), or the head's alpha_out
SCALES = ("alpha", "c", "alpha_out")


@dataclass(frozen=True, slots=True)
class EdgeInfo:
    kind: str  # "image" | "act2" | "acc" | "logits"
    channels: int
    producer: str
    scale: str | None = None  # acc edges: one of SCALES
    bound: int = 0  # acc edges: worst-case |value|


@dataclass(frozen=True, slots=True)
class Step:
    """One node, lowered: what it reads, what it computes, what it frees.

    ``op(model, node, kernel, *inputs)`` computes the node's output from
    the values of ``srcs``; ``spatial(h, w)`` maps the inputs' spatial
    dims to the output's; ``frees`` are the inputs no later step reads,
    each named once.  Steps belong to a graph, not to a model: ops look
    up the model's weights, and this module's kernels, when they run.
    """

    node: Node
    srcs: tuple[str, ...]
    op: Callable
    spatial: Callable[[int, int], tuple[int, int]]
    frees: tuple[str, ...]


@dataclass(frozen=True)
class GraphDef:
    """A validated graph: construction raises :class:`ConfigError` on bad wiring.

    ``edges`` maps every edge name to its :class:`EdgeInfo` and ``steps``
    holds one :class:`Step` per node, in order; both are derived once
    from ``nodes`` at construction.  ``arch`` is the :class:`ArchConfig`
    that :func:`build_model` built the nodes from, None for a graph wired
    by hand; the nodes alone decide equality.
    """

    nodes: tuple[Node, ...]
    arch: ArchConfig | None = field(default=None, compare=False)
    edges: dict[str, EdgeInfo] = field(init=False, compare=False, repr=False)
    steps: tuple[Step, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        edges, steps = _lower(self)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "steps", steps)

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def convs(self) -> list[Conv]:
        return [n for n in self.nodes if isinstance(n, Conv)]

    @property
    def bnacts(self) -> list[BnAct]:
        return [n for n in self.nodes if isinstance(n, BnAct)]


# --------------------------------------------------------------------------
# lowering


def _embed(model, n: PixelEmbed, kernel: str, img: np.ndarray) -> np.ndarray:
    return encode_image(img, thermo_params(n.k))


def _conv(model, n: Conv, kernel: str, x: np.ndarray) -> np.ndarray:
    w = model.weights[n.name]
    if kernel == "popcount":
        return conv_w1a2_popcount(x, w, n.spec)
    c = n.spec.in_ch
    return conv_w1a2_naive(unpack_activations(x, c), unpack_signs(w.bits, c), n.spec)


def _bnact(model, n: BnAct, kernel: str, acc: np.ndarray) -> np.ndarray:
    return apply_thresholds(acc, model.thresholds[n.name])


def _residual(model, n: ResidualAdd, kernel: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return residual_add(a, b)


def _pool(model, n: AvgPoolScale, kernel: str, acc: np.ndarray) -> np.ndarray:
    return avgpool_and_scale(acc, model.alpha_out)


def _keep(h: int, w: int) -> tuple[int, int]:
    return h, w


def _to_1x1(h: int, w: int) -> tuple[int, int]:
    return 1, 1


def _lower(g: GraphDef) -> tuple[dict[str, EdgeInfo], tuple[Step, ...]]:
    """Check edge-kind correctness and scale provenance; map every edge; make the steps.

    Returns edge name -> :class:`EdgeInfo`, including per-accumulator
    bounds from interval arithmetic (conv bound 3 * fan_in, residual adds
    summing their branch bounds), and one :class:`Step` per node, each
    freeing the inputs it is the last to read.  Each acc edge carries its
    scale: a Conv's own (one of ``SCALES``, else :class:`ConfigError`),
    and ``"c"`` for a ResidualAdd, whose inputs must both be ``"c"``.  The
    pool must read an ``"alpha_out"`` edge, and the graph must end with
    the pool that produces ``LOGITS_EDGE``.
    """
    edges: dict[str, EdgeInfo] = {IMAGE_EDGE: EdgeInfo("image", 3, "<input>")}
    lowered: list[tuple] = []  # (node, srcs, op, spatial) per node
    last_read: dict[str, int] = {}  # edge -> index of the last node that reads it

    def produce(name: str, info: EdgeInfo):
        if name in edges:
            raise ConfigError(f"edge '{name}' produced twice")
        edges[name] = info

    def consume(name: str, kind: str, by: str) -> EdgeInfo:
        if name not in edges:
            raise ConfigError(f"node '{by}' consumes undefined edge '{name}'")
        info = edges[name]
        if info.kind != kind:
            raise ConfigError(f"node '{by}' needs a {kind} edge, got {info.kind} '{name}'")
        last_read[name] = len(lowered)
        return info

    for n in g.nodes:
        if isinstance(n, PixelEmbed):
            consume(n.src, "image", n.name)
            produce(n.dst, EdgeInfo("act2", 3 * n.k, n.name))
            step = (n.src,), _embed, _keep
        elif isinstance(n, Conv):
            src = consume(n.src, "act2", n.name)
            if src.channels != n.spec.in_ch:
                raise ConfigError(
                    f"conv '{n.name}' expects {n.spec.in_ch} input channels, edge has {src.channels}"
                )
            if n.scale not in SCALES:
                raise ConfigError(f"conv '{n.name}' has scale {n.scale!r}, not one of {SCALES}")
            produce(
                n.dst, EdgeInfo("acc", n.spec.out_ch, n.name, scale=n.scale, bound=n.spec.acc_bound)
            )
            step = (n.src,), _conv, n.spec.out_spatial
        elif isinstance(n, BnAct):
            src = consume(n.src, "acc", n.name)
            if src.channels != n.channels:
                raise ConfigError(
                    f"bnact '{n.name}' has {n.channels} channels, edge has {src.channels}"
                )
            produce(n.dst, EdgeInfo("act2", n.channels, n.name))
            step = (n.src,), _bnact, _keep
        elif isinstance(n, ResidualAdd):
            a = consume(n.src_a, "acc", n.name)
            b = consume(n.src_b, "acc", n.name)
            if not a.scale == b.scale == "c":
                raise ConfigError(
                    f"residual '{n.name}' needs both branches const-scaled "
                    f"(got {a.producer}:{a.scale}, {b.producer}:{b.scale})"
                )
            if a.channels != b.channels:
                raise ConfigError(f"residual '{n.name}' channel mismatch")
            produce(n.dst, EdgeInfo("acc", a.channels, n.name, scale="c", bound=a.bound + b.bound))
            step = (n.src_a, n.src_b), _residual, _keep
        elif isinstance(n, AvgPoolScale):
            src = consume(n.src, "acc", n.name)
            if src.scale != "alpha_out":
                raise ConfigError(f"pool '{n.name}' must consume the final conv output")
            produce(n.dst, EdgeInfo("logits", src.channels, n.name))
            step = (n.src,), _pool, _to_1x1
        else:
            raise ConfigError(f"unknown node kind {type(n).__name__}")
        lowered.append((n, *step))
    last = g.nodes[-1] if g.nodes else None
    if not isinstance(last, AvgPoolScale) or last.dst != LOGITS_EDGE:
        raise ConfigError(f"graph must end with the pool that produces '{LOGITS_EDGE}'")
    frees: list[list[str]] = [[] for _ in lowered]
    for edge, i in last_read.items():
        frees[i].append(edge)
    steps = tuple(Step(*row, frees=tuple(f)) for row, f in zip(lowered, frees))
    return edges, steps


# --------------------------------------------------------------------------
# architecture configs


BLOCKS = ("conv", "bottleneck")  # a block kind's index is its .ern header byte


@dataclass(frozen=True)
class ArchConfig:
    """One architecture: block kind, stage layout, classes and thermometer length k.

    ``channels`` is the block output width per stage for two-conv blocks,
    or the bottleneck mid width per stage (output is 4x) for bottlenecks.
    Every width must be a multiple of the 64-bit packing lane, each stage
    holds 1 to 255 blocks, and k (3k input channels to the stem conv) is
    in [1, 21845]; construction raises :class:`ConfigError` otherwise.
    """

    block: str  # one of BLOCKS
    counts: tuple[int, int, int, int]
    channels: tuple[int, int, int, int]
    classes: int = CLASSES
    k: int = 10

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise ConfigError(f"unknown block type '{self.block}'")
        if len(self.counts) != 4 or len(self.channels) != 4:
            raise ConfigError("expected 4 stage counts and 4 stage channel widths")
        if not all(1 <= n <= 255 for n in self.counts):  # a count is one .ern header byte
            raise ConfigError(f"stage counts must be in [1, 255], got {self.counts}")
        if min(self.channels) < 1 or self.classes < 1:
            raise ConfigError("stage channels and classes must be >= 1")
        bad = [c for c in self.channels if c % LANES]
        if bad:
            raise ConfigError(f"stage channels {bad} not multiples of {LANES}")
        if not 1 <= self.k <= 0xFFFF // 3:  # 3k stem input channels fit 16 bits
            raise ConfigError(f"thermometer length k must be in [1, {0xFFFF // 3}], got {self.k}")

    def stage_out(self, stage: int) -> int:
        c = self.channels[stage]
        return c * BOTTLENECK_EXPANSION if self.block == "bottleneck" else c


ARCHITECTURES: dict[str, ArchConfig] = {
    "erns18": ArchConfig("conv", (2, 2, 2, 2), (64, 128, 256, 512)),
    "erns18x075": ArchConfig("conv", (2, 2, 2, 2), (64, 128, 256, 384)),
    "erns34": ArchConfig("conv", (3, 4, 6, 3), (64, 128, 256, 512)),
    "erns50": ArchConfig("bottleneck", (3, 4, 6, 3), (64, 128, 256, 512)),
    "erns101": ArchConfig("bottleneck", (3, 4, 23, 3), (64, 128, 256, 512)),
}


def arch_config(name: str) -> ArchConfig:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown architecture '{name}' (have {', '.join(sorted(ARCHITECTURES))})"
        ) from None


# --------------------------------------------------------------------------
# graph construction


def _conv_node(
    name: str, cin: int, cout: int, size: int, stride: int, scale: str, src: str
) -> Conv:
    """A size x size conv padded by size // 2; its output edge is ``<name>.out``."""
    spec = ConvSpec(cin, cout, size, size, (stride, stride), (size // 2, size // 2))
    return Conv(name, spec, scale, src, f"{name}.out")


def build_stem(in_ch: int, src: str) -> tuple[list[Node], str]:
    """Four 3x3/64 convs, strides 2,1,2,1; the last scaled by c, the rest by alpha.

    The last conv carries the shared constant c so the first block
    receives a residual-ready accumulator; each other conv's per-channel
    alpha folds into the BnAct after it.
    """
    nodes: list[Node] = []
    widths = [(in_ch, 64, 2), (64, 64, 1), (64, 64, 2), (64, 64, 1)]
    edge = src
    for i, (cin, cout, stride) in enumerate(widths, start=1):
        last = i == len(widths)
        conv = _conv_node(f"stem.conv{i}", cin, cout, 3, stride, "c" if last else "alpha", edge)
        nodes.append(conv)
        edge = conv.dst
        if not last:
            bn = BnAct(f"stem.bn{i}", cout, edge, f"stem.bn{i}.out")
            nodes.append(bn)
            edge = bn.dst
    return nodes, edge


def _block_entry(
    cin: int, cout: int, stride: int, downsample: bool, src: str, prefix: str
) -> tuple[list[Node], str, str]:
    """A block's input BnAct and, when downsampling, its 1x1 projection scaled by c.

    Returns the nodes, the BnAct's output edge and the shortcut edge (the
    block input unless downsampling).
    """
    if not downsample and cin != cout:
        raise ConfigError(f"block '{prefix}': channel change {cin}->{cout} needs downsample")
    bn0 = BnAct(f"{prefix}.bn0", cin, src, f"{prefix}.bn0.out")
    if not downsample:
        return [bn0], bn0.dst, src
    down = _conv_node(f"{prefix}.down", cin, cout, 1, stride, "c", bn0.dst)
    return [bn0, down], bn0.dst, down.dst


def build_convblock(
    cin: int, cout: int, downsample: bool, src: str, prefix: str, spatial: bool = True
) -> tuple[list[Node], str]:
    """Two-conv residual block; identity is the block input unless downsampling.

    ``downsample`` adds the 1x1 projection shortcut; ``spatial`` makes it
    (and the first 3x3 conv) stride 2.  A first stage wider than the stem
    projects channels only (``spatial=False``).
    """
    stride = 2 if (downsample and spatial) else 1
    nodes, x, identity = _block_entry(cin, cout, stride, downsample, src, prefix)
    conv1 = _conv_node(f"{prefix}.conv1", cin, cout, 3, stride, "alpha", x)
    bn1 = BnAct(f"{prefix}.bn1", cout, conv1.dst, f"{prefix}.bn1.out")
    conv2 = _conv_node(f"{prefix}.conv2", cout, cout, 3, 1, "c", bn1.dst)
    add = ResidualAdd(f"{prefix}.add", conv2.dst, identity, f"{prefix}.add.out")
    return nodes + [conv1, bn1, conv2, add], add.dst


def build_bottleneck(
    cin: int,
    cmid: int,
    cout: int,
    downsample: bool,
    src: str,
    prefix: str,
    spatial: bool = True,
) -> tuple[list[Node], str]:
    """1x1 / 3x3 / 1x1 residual block with 4x expansion.

    ``downsample`` adds the 1x1 projection shortcut; ``spatial`` makes it
    (and the 3x3 conv) stride 2.  The stage-1 first block projects
    channels only (``spatial=False``).
    """
    if cout != BOTTLENECK_EXPANSION * cmid:
        raise ConfigError(f"block '{prefix}': expected cout == {BOTTLENECK_EXPANSION} * cmid")
    stride = 2 if (downsample and spatial) else 1
    nodes, x, identity = _block_entry(cin, cout, stride, downsample, src, prefix)
    conv1 = _conv_node(f"{prefix}.conv1", cin, cmid, 1, 1, "alpha", x)
    bn1 = BnAct(f"{prefix}.bn1", cmid, conv1.dst, f"{prefix}.bn1.out")
    conv2 = _conv_node(f"{prefix}.conv2", cmid, cmid, 3, stride, "alpha", bn1.dst)
    bn2 = BnAct(f"{prefix}.bn2", cmid, conv2.dst, f"{prefix}.bn2.out")
    conv3 = _conv_node(f"{prefix}.conv3", cmid, cout, 1, 1, "c", bn2.dst)
    add = ResidualAdd(f"{prefix}.add", conv3.dst, identity, f"{prefix}.add.out")
    return nodes + [conv1, bn1, conv2, bn2, conv3, add], add.dst


def build_model(cfg: ArchConfig) -> GraphDef:
    """Full model graph: embed, stem, four stages, head conv, pooled logits.

    The graph records ``cfg`` as its ``arch``.
    """
    nodes: list[Node] = [PixelEmbed("embed", cfg.k, IMAGE_EDGE, "embed.out")]
    stem_nodes, edge = build_stem(3 * cfg.k, "embed.out")
    nodes += stem_nodes
    cin = 64
    for stage in range(4):
        for b in range(cfg.counts[stage]):
            prefix = f"s{stage + 1}.b{b + 1}"
            cout = cfg.stage_out(stage)
            # a stage's first block projects its shortcut: with stride 2 after the
            # first stage, and in the first stage only if its width is not the stem's
            downsample = b == 0 and (stage > 0 or cin != cout)
            if cfg.block == "conv":
                blk, edge = build_convblock(cin, cout, downsample, edge, prefix, stage > 0)
            else:
                mid = cfg.channels[stage]
                blk, edge = build_bottleneck(cin, mid, cout, downsample, edge, prefix, stage > 0)
            nodes += blk
            cin = cout
    head_bn = BnAct("head.bn", cin, edge, "head.bn.out")
    head = _conv_node("head.conv", cin, cfg.classes, 1, 1, "alpha_out", head_bn.dst)
    pool = AvgPoolScale("head.pool", head.dst, LOGITS_EDGE)
    nodes += [head_bn, head, pool]
    return GraphDef(nodes=tuple(nodes), arch=cfg)


# --------------------------------------------------------------------------
# shape tracing and statistics


def trace_shapes(g: GraphDef, height: int, width: int) -> dict[str, tuple[int, int, int]]:
    """Propagate (C, H, W) through every edge for a given input resolution.

    Channels come from the edge map and spatial dims from each step's
    rule.  A step whose inputs disagree on spatial dims raises
    :class:`ShapeError`.
    """
    shapes: dict[str, tuple[int, int, int]] = {IMAGE_EDGE: (3, height, width)}
    for s in g.steps:
        dims = {shapes[src][1:] for src in s.srcs}
        if len(dims) != 1:
            raise ShapeError(f"node '{s.node.name}' inputs differ in spatial dims: {sorted(dims)}")
        shapes[s.node.dst] = (g.edges[s.node.dst].channels, *s.spatial(*dims.pop()))
    return shapes


def macs_for_conv(spec: ConvSpec, height: int, width: int) -> int:
    """Multiply-accumulate count of one conv layer at a given input size."""
    oh, ow = spec.out_spatial(height, width)
    return spec.out_ch * oh * ow * spec.fan_in


@dataclass(frozen=True)
class ModelStats:
    param_count: int
    binary_weight_bytes: int
    padded_weight_bytes: int
    macs: int
    activations: int


def model_stats(cfg: ArchConfig, resolution: int) -> ModelStats:
    """Parameter, MAC, and activation counts for a variant at one resolution.

    MACs and activations sum over conv layers (the head conv included);
    parameters use logical (unpadded) channels, with the padded byte count
    reported separately to match on-disk storage.
    """
    g = build_model(cfg)
    shapes = trace_shapes(g, resolution, resolution)
    params = 0
    padded_bytes = 0
    macs = 0
    acts = 0
    for n in g.convs:
        spec = n.spec
        params += spec.out_ch * spec.fan_in
        # on-disk form: input lanes padded to 64, one u64 word column per 64
        padded_bytes += spec.out_ch * (padded_channels(spec.in_ch) // LANES) * spec.kh * spec.kw * 8
        _, h, w = shapes[n.src]
        macs += macs_for_conv(spec, h, w)
        c, oh, ow = shapes[n.dst]
        acts += c * oh * ow
    return ModelStats(
        param_count=params,
        binary_weight_bytes=-(-params // 8),
        padded_weight_bytes=padded_bytes,
        macs=macs,
        activations=acts,
    )


# --------------------------------------------------------------------------
# execution


# the dtype every step's output must have, by the kind of edge it produces
_EDGE_DTYPES = {"act2": np.uint64, "acc": ACC_DTYPE, "logits": np.float64}


@dataclass
class ExecutionResult:
    logits: np.ndarray
    float_ops_core: int  # real-valued ops in the steps between the embedding and the pool


def execute(
    model,
    img: np.ndarray,
    kernel: str = "popcount",
    observe: Callable[[Step, np.ndarray], None] | None = None,
) -> ExecutionResult:
    """Run the integer-only pipeline of a compiled model on one 8-bit image.

    ``model`` is a :class:`ern.compiler.CompiledModel`.  ``kernel`` selects
    the convolution path; both produce bit-identical accumulators.  Each
    step's ``frees`` are dropped after it runs.  ``observe(step, value)``,
    if given, is called once per step with the step's output (act2 edges
    as (2, words, H, W) uint64 planes, whose width is the edge's
    ``channels`` in ``model.graph.edges``; acc edges as int32; the logits
    as float64) after its dtype check and before its ``frees`` are
    dropped; whatever it keeps outlives the call.  A step whose output
    has another dtype raises :class:`AssertionError` naming the node,
    under ``python -O`` too.
    """
    if kernel not in ("popcount", "naive"):
        raise ConfigError(f"unknown kernel '{kernel}'")
    g = model.graph
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image, got {img.shape}")
    values: dict[str, np.ndarray] = {IMAGE_EDGE: img}

    def run(s: Step) -> None:
        out = s.op(model, s.node, kernel, *[values[src] for src in s.srcs])
        want = _EDGE_DTYPES[g.edges[s.node.dst].kind]
        if out.dtype != want:  # raised, not asserted, so ``python -O`` keeps the check
            raise AssertionError(f"{s.node.name}: {out.dtype} output, expected {np.dtype(want)}")
        values[s.node.dst] = out
        if observe is not None:
            observe(s, out)
        for src in s.frees:
            del values[src]

    embed, *core, pool = g.steps
    run(embed)
    with instrument.counting_float_ops() as ops:
        for s in core:
            run(s)
    run(pool)
    return ExecutionResult(logits=values[LOGITS_EDGE], float_ops_core=ops.count)
