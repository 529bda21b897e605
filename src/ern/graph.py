"""Architecture graphs and the integer-only executor.

A :class:`GraphDef` is an ordered list of nodes wired by named edges.
Edge kinds are strict: a Conv consumes a 2-bit activation map and produces
an integer accumulator; a BnAct consumes an accumulator and produces
codes; a ResidualAdd consumes two accumulators whose producers are
const-scaled with the shared model constant (so the add is valid in
integers); AvgPoolScale consumes the final conv's accumulator only.
A graph is validated once, at construction, which also derives its edge
map (kind, channels, accumulator bound and last reader of every edge);
everything downstream reads that map instead of re-deriving it.

The five stock variants mirror the ResNet family: stages of two-conv
blocks (erns18/34 and the 384-channel erns18x075) or 1-3-1 bottleneck
blocks (erns50/101).  The stem is four 3x3 convs with 64 output channels,
strides 2,1,2,1, so the spatial dims shrink 4x before the stages and 32x
overall.  All conv output channels are multiples of 64; the 1000-class
head is the one exception (only input lanes are ever padded in storage,
so its odd width costs nothing extra).

Execution is pure integer arithmetic from the pixel-embedding output to
the final conv accumulator; each call counts float ops in its own
counter, reports the delta across that segment (which must be zero), and
additionally checks every intermediate dtype.  Every act2 edge is held as
packed bitplanes and every acc edge as int32.  Unless it is recording,
``execute`` drops each intermediate after its last reader runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import instrument
from .errors import ConfigError, ShapeError
from .kernels import ConvSpec, avgpool_and_scale, conv_w1a2_naive, conv_w1a2_popcount, residual_add
from .pixembed import encode_image, thermo_params
from .quant import apply_thresholds
from .tensor import ACC_DTYPE, LANES, PackedPlanes, padded_channels, unpack_activations
from .tensor import pack_activations  # noqa: F401  (kept as a public name of this module)

CLASSES = 1000
BOTTLENECK_EXPANSION = 4


# --------------------------------------------------------------------------
# node kinds


@dataclass(frozen=True)
class PixelEmbed:
    name: str
    k: int
    src: str
    dst: str


@dataclass(frozen=True)
class Conv:
    name: str
    spec: ConvSpec
    const_scaled: bool
    src: str
    dst: str


@dataclass(frozen=True)
class BnAct:
    name: str
    channels: int
    src: str
    dst: str


@dataclass(frozen=True)
class ResidualAdd:
    name: str
    src_a: str
    src_b: str
    dst: str


@dataclass(frozen=True)
class FinalConv:
    name: str
    spec: ConvSpec
    src: str
    dst: str


@dataclass(frozen=True)
class AvgPoolScale:
    name: str
    src: str
    dst: str


Node = PixelEmbed | Conv | BnAct | ResidualAdd | FinalConv | AvgPoolScale


@dataclass(frozen=True)
class EdgeInfo:
    kind: str  # "image" | "act2" | "acc" | "logits"
    channels: int
    producer: str
    const_scaled: bool = False  # acc edges: carries the shared constant
    bound: int = 0  # acc edges: worst-case |value|
    last_reader: str | None = None  # last node (in graph order) that consumes the edge


@dataclass(frozen=True)
class GraphDef:
    """A validated graph: construction raises :class:`ConfigError` on bad wiring.

    ``edges`` maps every edge name to its :class:`EdgeInfo`, derived once
    from ``nodes`` at construction.
    """

    nodes: tuple[Node, ...]
    image_edge: str = "image"
    logits_edge: str = "logits"
    edges: dict[str, EdgeInfo] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_map(self))

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def convs(self) -> list[Conv | FinalConv]:
        return [n for n in self.nodes if isinstance(n, (Conv, FinalConv))]

    @property
    def bnacts(self) -> list[BnAct]:
        return [n for n in self.nodes if isinstance(n, BnAct)]


# --------------------------------------------------------------------------
# validation


def _edge_map(g: GraphDef) -> dict[str, EdgeInfo]:
    """Check edge-kind correctness and scale provenance; map every edge.

    Returns edge name -> :class:`EdgeInfo`, including per-accumulator
    bounds from interval arithmetic (conv bound 3 * fan_in, residual adds
    summing their branch bounds) and the last node that reads each edge.
    A BnAct on an edge that is not const-scaled folds the per-channel
    alphas of the edge's producer.
    """
    edges: dict[str, EdgeInfo] = {g.image_edge: EdgeInfo("image", 3, "<input>")}

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
        edges[name] = replace(info, last_reader=by)
        return info

    final_conv_edge = None
    for n in g.nodes:
        if isinstance(n, PixelEmbed):
            consume(n.src, "image", n.name)
            produce(n.dst, EdgeInfo("act2", 3 * n.k, n.name))
        elif isinstance(n, (Conv, FinalConv)):
            src = consume(n.src, "act2", n.name)
            if src.channels != n.spec.in_ch:
                raise ConfigError(
                    f"conv '{n.name}' expects {n.spec.in_ch} input channels, edge has {src.channels}"
                )
            is_final = isinstance(n, FinalConv)
            const = (not is_final) and n.const_scaled
            produce(
                n.dst,
                EdgeInfo("acc", n.spec.out_ch, n.name, const_scaled=const, bound=n.spec.acc_bound),
            )
            if is_final:
                final_conv_edge = n.dst
        elif isinstance(n, BnAct):
            src = consume(n.src, "acc", n.name)
            if src.channels != n.channels:
                raise ConfigError(
                    f"bnact '{n.name}' has {n.channels} channels, edge has {src.channels}"
                )
            produce(n.dst, EdgeInfo("act2", n.channels, n.name))
        elif isinstance(n, ResidualAdd):
            a = consume(n.src_a, "acc", n.name)
            b = consume(n.src_b, "acc", n.name)
            if not (a.const_scaled and b.const_scaled):
                raise ConfigError(
                    f"residual '{n.name}' needs both branches const-scaled "
                    f"(got {a.producer}:{a.const_scaled}, {b.producer}:{b.const_scaled})"
                )
            if a.channels != b.channels:
                raise ConfigError(f"residual '{n.name}' channel mismatch")
            produce(
                n.dst,
                EdgeInfo(
                    "acc", a.channels, n.name, const_scaled=True, bound=a.bound + b.bound
                ),
            )
        elif isinstance(n, AvgPoolScale):
            src = consume(n.src, "acc", n.name)
            if n.src != final_conv_edge:
                raise ConfigError(f"pool '{n.name}' must consume the final conv output")
            produce(n.dst, EdgeInfo("logits", src.channels, n.name))
        else:
            raise ConfigError(f"unknown node kind {type(n).__name__}")
    if g.logits_edge not in edges:
        raise ConfigError(f"graph never produces logits edge '{g.logits_edge}'")
    return edges


# --------------------------------------------------------------------------
# architecture configs


@dataclass(frozen=True)
class ArchConfig:
    """Stage layout of one model variant.

    ``channels`` is the block output width per stage for two-conv blocks,
    or the bottleneck mid width per stage (output is 4x) for bottlenecks.
    Every width must be a multiple of the 64-bit packing lane.
    """

    name: str
    block: str  # "conv" | "bottleneck"
    counts: tuple[int, int, int, int]
    channels: tuple[int, int, int, int]
    classes: int = CLASSES
    thermo_k: int = 10

    def __post_init__(self):
        if self.block not in ("conv", "bottleneck"):
            raise ConfigError(f"unknown block type '{self.block}'")
        if len(self.counts) != 4 or len(self.channels) != 4:
            raise ConfigError("expected 4 stage counts and 4 stage channel widths")
        if min(self.counts) < 1 or min(self.channels) < 1:
            raise ConfigError("stage counts and channels must be >= 1")
        bad = [c for c in self.channels if c % LANES]
        if bad:
            raise ConfigError(f"stage channels {bad} not multiples of {LANES}")

    def stage_out(self, stage: int) -> int:
        c = self.channels[stage]
        return c * BOTTLENECK_EXPANSION if self.block == "bottleneck" else c


ARCHITECTURES: dict[str, ArchConfig] = {
    "erns18": ArchConfig("erns18", "conv", (2, 2, 2, 2), (64, 128, 256, 512)),
    "erns18x075": ArchConfig("erns18x075", "conv", (2, 2, 2, 2), (64, 128, 256, 384)),
    "erns34": ArchConfig("erns34", "conv", (3, 4, 6, 3), (64, 128, 256, 512)),
    "erns50": ArchConfig("erns50", "bottleneck", (3, 4, 6, 3), (64, 128, 256, 512)),
    "erns101": ArchConfig("erns101", "bottleneck", (3, 4, 23, 3), (64, 128, 256, 512)),
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


def _conv3(cin, cout, stride, const=False) -> tuple[ConvSpec, bool]:
    return ConvSpec(cin, cout, 3, 3, (stride, stride), (1, 1)), const


def build_stem(in_ch: int, src: str, prefix: str = "stem") -> tuple[list[Node], str]:
    """Four 3x3/64 convs, strides 2,1,2,1; last conv const-scaled.

    The final conv carries the shared constant so the first block receives
    a residual-ready accumulator.
    """
    nodes: list[Node] = []
    widths = [(in_ch, 64, 2), (64, 64, 1), (64, 64, 2), (64, 64, 1)]
    edge = src
    for i, (cin, cout, stride) in enumerate(widths, start=1):
        last = i == len(widths)
        spec, const = _conv3(cin, cout, stride, const=last)
        conv = Conv(f"{prefix}.conv{i}", spec, const, edge, f"{prefix}.conv{i}.out")
        nodes.append(conv)
        edge = conv.dst
        if not last:
            bn = BnAct(f"{prefix}.bn{i}", cout, edge, f"{prefix}.bn{i}.out")
            nodes.append(bn)
            edge = bn.dst
    return nodes, edge


def build_convblock(
    cin: int, cout: int, downsample: bool, src: str, prefix: str
) -> tuple[list[Node], str]:
    """Two-conv residual block; identity is the block input unless downsampling."""
    if not downsample and cin != cout:
        raise ConfigError(f"block '{prefix}': channel change {cin}->{cout} needs downsample")
    nodes: list[Node] = []
    stride = 2 if downsample else 1
    bn0 = BnAct(f"{prefix}.bn0", cin, src, f"{prefix}.bn0.out")
    nodes.append(bn0)
    identity = src
    if downsample:
        down = Conv(
            f"{prefix}.down",
            ConvSpec(cin, cout, 1, 1, (stride, stride), (0, 0)),
            True,
            bn0.dst,
            f"{prefix}.down.out",
        )
        nodes.append(down)
        identity = down.dst
    spec1, _ = _conv3(cin, cout, stride)
    conv1 = Conv(f"{prefix}.conv1", spec1, False, bn0.dst, f"{prefix}.conv1.out")
    bn1 = BnAct(f"{prefix}.bn1", cout, conv1.dst, f"{prefix}.bn1.out")
    spec2, _ = _conv3(cout, cout, 1)
    conv2 = Conv(f"{prefix}.conv2", spec2, True, bn1.dst, f"{prefix}.conv2.out")
    add = ResidualAdd(f"{prefix}.add", conv2.dst, identity, f"{prefix}.add.out")
    nodes += [conv1, bn1, conv2, add]
    return nodes, add.dst


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
    if not downsample and cin != cout:
        raise ConfigError(f"block '{prefix}': channel change {cin}->{cout} needs downsample")
    nodes: list[Node] = []
    stride = 2 if (downsample and spatial) else 1
    bn0 = BnAct(f"{prefix}.bn0", cin, src, f"{prefix}.bn0.out")
    nodes.append(bn0)
    identity = src
    if downsample:
        down = Conv(
            f"{prefix}.down",
            ConvSpec(cin, cout, 1, 1, (stride, stride), (0, 0)),
            True,
            bn0.dst,
            f"{prefix}.down.out",
        )
        nodes.append(down)
        identity = down.dst
    conv1 = Conv(
        f"{prefix}.conv1",
        ConvSpec(cin, cmid, 1, 1, (1, 1), (0, 0)),
        False,
        bn0.dst,
        f"{prefix}.conv1.out",
    )
    bn1 = BnAct(f"{prefix}.bn1", cmid, conv1.dst, f"{prefix}.bn1.out")
    conv2 = Conv(
        f"{prefix}.conv2",
        ConvSpec(cmid, cmid, 3, 3, (stride, stride), (1, 1)),
        False,
        bn1.dst,
        f"{prefix}.conv2.out",
    )
    bn2 = BnAct(f"{prefix}.bn2", cmid, conv2.dst, f"{prefix}.bn2.out")
    conv3 = Conv(
        f"{prefix}.conv3",
        ConvSpec(cmid, cout, 1, 1, (1, 1), (0, 0)),
        True,
        bn2.dst,
        f"{prefix}.conv3.out",
    )
    add = ResidualAdd(f"{prefix}.add", conv3.dst, identity, f"{prefix}.add.out")
    nodes += [conv1, bn1, conv2, bn2, conv3, add]
    return nodes, add.dst


def build_model(cfg: ArchConfig, k: int | None = None) -> GraphDef:
    """Full model graph: embed, stem, four stages, head conv, pooled logits."""
    k = cfg.thermo_k if k is None else k
    thermo_params(k)  # validates k
    nodes: list[Node] = [PixelEmbed("embed", k, "image", "embed.out")]
    stem_nodes, edge = build_stem(3 * k, "embed.out")
    nodes += stem_nodes
    cin = 64
    for stage in range(4):
        for b in range(cfg.counts[stage]):
            prefix = f"s{stage + 1}.b{b + 1}"
            cout = cfg.stage_out(stage)
            if cfg.block == "conv":
                downsample = b == 0 and stage > 0
                blk, edge = build_convblock(cin, cout, downsample, edge, prefix)
            else:
                downsample = b == 0
                blk, edge = build_bottleneck(
                    cin, cfg.channels[stage], cout, downsample, edge, prefix, spatial=stage > 0
                )
            nodes += blk
            cin = cout
    head_bn = BnAct("head.bn", cin, edge, "head.bn.out")
    final = FinalConv(
        "head.conv",
        ConvSpec(cin, cfg.classes, 1, 1, (1, 1), (0, 0)),
        "head.bn.out",
        "head.conv.out",
    )
    pool = AvgPoolScale("head.pool", "head.conv.out", "logits")
    nodes += [head_bn, final, pool]
    return GraphDef(nodes=tuple(nodes))


# --------------------------------------------------------------------------
# shape tracing and statistics


def trace_shapes(g: GraphDef, height: int, width: int) -> dict[str, tuple[int, int, int]]:
    """Propagate (C, H, W) through every edge for a given input resolution.

    Channels come from the edge map; a conv applies its output spatial
    rule, the pool gives 1x1, and every other node passes its input's
    spatial dims through.
    """
    shapes: dict[str, tuple[int, int, int]] = {g.image_edge: (3, height, width)}
    for n in g.nodes:
        if isinstance(n, ResidualAdd):
            sa, sb = shapes[n.src_a], shapes[n.src_b]
            if sa != sb:
                raise ShapeError(f"residual '{n.name}' shape mismatch: {sa} vs {sb}")
            _, h, w = sa
        else:
            _, h, w = shapes[n.src]
            if isinstance(n, (Conv, FinalConv)):
                h, w = n.spec.out_spatial(h, w)
            elif isinstance(n, AvgPoolScale):
                h, w = 1, 1
        shapes[n.dst] = (g.edges[n.dst].channels, h, w)
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


def model_stats(cfg: ArchConfig, resolution: int, k: int | None = None) -> ModelStats:
    """Parameter, MAC, and activation counts for a variant at one resolution.

    MACs and activations sum over conv layers (the head conv included);
    parameters use logical (unpadded) channels, with the padded byte count
    reported separately to match on-disk storage.
    """
    g = build_model(cfg, k)
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


@dataclass
class ExecutionResult:
    logits: np.ndarray
    float_ops_core: int  # real-valued ops between embed output and final conv output
    values: dict[str, np.ndarray] = field(default_factory=dict)  # every edge, when recording


def execute(model, img: np.ndarray, kernel: str = "popcount", record: bool = False) -> ExecutionResult:
    """Run the integer-only pipeline of a compiled model on one 8-bit image.

    ``model`` is a :class:`ern.compiler.CompiledModel`.  ``kernel`` selects
    the convolution path; both produce bit-identical accumulators.  Each
    intermediate is dropped after its last reader runs, unless ``record``
    is set: then every edge's value (image, code maps, accumulators,
    logits) is kept in ``values`` for cross-checking, with act2 edges
    unpacked to uint8 code maps.
    """
    if kernel not in ("popcount", "naive"):
        raise ConfigError(f"unknown kernel '{kernel}'")
    g = model.graph
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image, got {img.shape}")
    values: dict[str, np.ndarray | PackedPlanes] = {g.image_edge: img}

    embed_mark = None
    final_mark = None
    with instrument.counting_float_ops() as ops:
        for n in g.nodes:
            if isinstance(n, PixelEmbed):
                out = encode_image(values[n.src], thermo_params(n.k))
                embed_mark = ops.count
            elif isinstance(n, (Conv, FinalConv)):
                x, w = values[n.src], model.weights[n.name]
                if kernel == "popcount":
                    out = conv_w1a2_popcount(x, w, n.spec)
                else:
                    codes = unpack_activations(x, x.channels)
                    out = conv_w1a2_naive(codes, w.unpack_signs(), n.spec)
                assert out.dtype == ACC_DTYPE
                if isinstance(n, FinalConv):
                    final_mark = ops.count
            elif isinstance(n, BnAct):
                out = apply_thresholds(values[n.src], model.thresholds[n.name])
                assert out.hi.dtype == out.lo.dtype == np.uint64
            elif isinstance(n, ResidualAdd):
                out = residual_add(values[n.src_a], values[n.src_b])
            elif isinstance(n, AvgPoolScale):
                out = avgpool_and_scale(values[n.src], model.alpha_out)
            values[n.dst] = out
            if not record:
                # a set, so an add reading one edge twice drops it once
                for src in {n.src_a, n.src_b} if isinstance(n, ResidualAdd) else {n.src}:
                    if g.edges[src].last_reader == n.name:
                        del values[src]
    float_ops_core = 0
    if embed_mark is not None and final_mark is not None:
        float_ops_core = final_mark - embed_mark
    if record:
        for name, v in values.items():
            if isinstance(v, PackedPlanes):
                values[name] = unpack_activations(v, v.channels)
    return ExecutionResult(
        logits=values[g.logits_edge],
        float_ops_core=float_ops_core,
        values=values if record else {},
    )
