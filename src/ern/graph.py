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
one scale, the only edge the pool reads and one no BnAct reads.
A graph is lowered once, at construction, by a single walk over its
nodes that validates the wiring and derives two things everything
downstream reads instead of re-deriving them: ``edges``, the kind,
channels, scale, accumulator bound and dtype of every edge, and
``steps``, one :class:`Step` per node holding what it reads, the op
that computes it, its spatial rule and ``frees``, the inputs no later
step reads.
``execute`` and ``trace_shapes`` are plain loops over the steps.

An :class:`ArchConfig` is one architecture (block kind, four stage
counts and widths, classes and the thermometer length k), and
:func:`build_model` records it as the graph's ``arch``.  ``ARCHITECTURES``
names five preset layouts that mirror the ResNet family: stages of
two-conv blocks (erns18/34 and the 384-channel erns18x075) or 1-3-1
bottleneck blocks (erns50/101).  The stem is four 3x3 convs with 64
output channels, strides 2,1,2,1, so the spatial dims shrink 4x before
the stages and 32x overall.  One builder makes every conv chain, with a
BnAct between each two convs: the stem from the ``STEM`` table, and each
block's residual branch from its kind's table (two 3x3 convs, or
1x1/3x3/1x1 with the stride on the 3x3), the last conv scaled by c.  One
rule makes the shortcut: a block projects it with a 1x1 conv scaled by c
exactly when the block has stride 2 or changes width; otherwise the
shortcut is the block input.  All conv output channels are multiples of
64; the head, one per class, is the one exception (only input lanes are
ever padded in storage, so its odd width costs nothing extra).

Execution is pure integer arithmetic from the pixel-embedding output to
the head conv accumulator.  The edge table states it, and it is the one
witness: ``execute`` checks the dtype of every step's output against
its edge's ``dtype``.  Every act2 edge is held as one uint64 array of
packed bitplanes, (2, words, H, W), every acc edge as int16 or int32,
and only the logits, the pool's output, as float64.  An acc edge is
as wide as its bound: int16 when the bound is at most 32,766 (int16's
maximum - 1, so negation and the threshold sentinels stay exact), int32
up to ``ACC_LIMIT``, and a graph with a larger bound is refused.  The
bound is also each accumulator's only range check: no kernel scans its
output (see :mod:`ern.kernels`).  A value is a plain array; its channel
count is its edge's, in ``edges``.
``execute`` drops each step's ``frees`` after the step runs, and a
residual add writes its sum over an input it frees that already has
the output's dtype (the shared c makes the sum a plain integer add, as
an accelerator's accumulator buffer absorbs it), so an add makes a new
map only when its output is wider than both inputs it frees.  A caller
that wants intermediates passes ``observe(step, value)``, which sees
each step's output once, after its dtype check and before its
``frees`` are dropped, and keeps only what it needs; an acc value it
keeps may be overwritten by a later add that frees it, so it keeps a
copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import ConvSpec, avgpool_and_scale, conv_w1a2_naive, conv_w1a2_popcount, residual_add
from .pixembed import encode_image, thermo_params
from .quant import apply_thresholds
from .tensor import LANES, acc_dtype, unpack_activations, unpack_signs

# kept only for perfbench's ``tensor.pack`` lookup; goes with ROADMAP item 1
from .tensor import pack_activations  # noqa: F401

CLASSES = 1000
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


# the dtype of every produced edge of a kind; an acc edge's is the narrowest that holds its bound
_KIND_DTYPES = {"act2": np.dtype(np.uint64), "logits": np.dtype(np.float64)}


@dataclass(frozen=True, slots=True)
class EdgeInfo:
    kind: str  # "image" | "act2" | "acc" | "logits"
    channels: int
    producer: str
    scale: str | None = None  # acc edges: one of SCALES
    bound: int = 0  # acc edges: worst-case |value|
    dtype: np.dtype | None = None  # what a produced value is held as; set by _lower


@dataclass(frozen=True, slots=True)
class Step:
    """One node, lowered: what it reads, what it computes, what it frees.

    ``op(model, node, kernel, *inputs)`` computes the node's output from
    the values of ``srcs`` (a residual op may write it over an input in
    ``frees``); ``spatial(h, w)`` maps the inputs' spatial dims to the
    output's; ``frees`` are the inputs no later step reads,
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


def _residual(model, n: ResidualAdd, kernel: str, a: np.ndarray, b: np.ndarray,
              into: int | None = None) -> np.ndarray:
    """The sum, in a new map, or over input ``into`` (0 for ``a``, 1 for ``b``)."""
    out = None if into is None else (a, b)[into]
    return residual_add(a, b, model.graph.edges[n.dst].dtype, out=out)


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
    summing their branch bounds) and each edge's dtype, an acc edge's
    the narrowest that holds its bound (``acc_dtype``; a bound past
    ``ACC_LIMIT`` is a :class:`ConfigError` naming the edge), and one
    :class:`Step` per node, each freeing the inputs it is the last to
    read.  A ResidualAdd's step writes its sum over the first input it
    frees whose dtype is the output's, and makes a new map only when
    neither input is one.  Each acc edge carries its scale: a Conv's own
    (one of ``SCALES``, else :class:`ConfigError`), and ``"c"`` for a
    ResidualAdd, whose inputs must both be ``"c"``.  The pool must read
    an ``"alpha_out"`` edge, which no BnAct may read, and the graph must
    end with the pool that produces ``LOGITS_EDGE``.
    """
    edges: dict[str, EdgeInfo] = {IMAGE_EDGE: EdgeInfo("image", 3, "<input>")}
    lowered: list[tuple] = []  # (node, srcs, op, spatial) per node
    last_read: dict[str, int] = {}  # edge -> index of the last node that reads it

    def produce(name: str, kind: str, channels: int, by: str, scale=None, bound=0):
        if name in edges:
            raise ConfigError(f"edge '{name}' produced twice")
        if kind == "acc":
            try:
                dtype = acc_dtype(bound)
            except ConfigError as e:
                raise ConfigError(f"edge '{name}': {e}") from None
        else:
            dtype = _KIND_DTYPES[kind]
        edges[name] = EdgeInfo(kind, channels, by, scale, bound, dtype)

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
            produce(n.dst, "act2", 3 * n.k, n.name)
            step = (n.src,), _embed, _keep
        elif isinstance(n, Conv):
            src = consume(n.src, "act2", n.name)
            if src.channels != n.spec.in_ch:
                raise ConfigError(
                    f"conv '{n.name}' expects {n.spec.in_ch} input channels, edge has {src.channels}"
                )
            if n.scale not in SCALES:
                raise ConfigError(f"conv '{n.name}' has scale {n.scale!r}, not one of {SCALES}")
            produce(n.dst, "acc", n.spec.out_ch, n.name, scale=n.scale, bound=n.spec.acc_bound)
            step = (n.src,), _conv, n.spec.out_spatial
        elif isinstance(n, BnAct):
            src = consume(n.src, "acc", n.name)
            if src.channels != n.channels:
                raise ConfigError(
                    f"bnact '{n.name}' has {n.channels} channels, edge has {src.channels}"
                )
            if src.scale == "alpha_out":
                raise ConfigError(f"bnact '{n.name}' reads '{n.src}', an alpha_out edge")
            produce(n.dst, "act2", n.channels, n.name)
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
            produce(n.dst, "acc", a.channels, n.name, scale="c", bound=a.bound + b.bound)
            step = (n.src_a, n.src_b), _residual, _keep
        elif isinstance(n, AvgPoolScale):
            src = consume(n.src, "acc", n.name)
            if src.scale != "alpha_out":
                raise ConfigError(f"pool '{n.name}' must consume the final conv output")
            produce(n.dst, "logits", src.channels, n.name)
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
    steps = []
    for (n, srcs, op, spatial), f in zip(lowered, frees):
        if isinstance(n, ResidualAdd):  # the sum overwrites a freed input of its dtype, if any
            want = edges[n.dst].dtype
            fit = [i for i, e in enumerate(srcs) if e in f and edges[e].dtype == want]
            op = partial(_residual, into=fit[0]) if fit else op
        steps.append(Step(n, srcs, op, spatial, tuple(f)))
    return edges, tuple(steps)


# --------------------------------------------------------------------------
# architecture configs


BLOCKS = ("conv", "bottleneck")  # a block kind's index is its .ern header byte


@dataclass(frozen=True)
class ArchConfig:
    """One architecture: block kind, stage layout, classes and thermometer length k.

    ``channels`` is the block output width per stage for two-conv blocks,
    or the bottleneck mid width per stage (output is 4x) for bottlenecks.
    Every width must be a multiple of the 64-bit packing lane, each width
    and ``classes`` is in [1, 2**32 - 1], each stage holds 1 to 255
    blocks, and k (3k input channels to the stem conv) is in [1, 21845]:
    each fits its ``.ern`` header field.  Construction raises
    :class:`ConfigError` otherwise.
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
        if not all(1 <= c <= 0xFFFFFFFF for c in (*self.channels, self.classes)):  # .ern u32s
            raise ConfigError(
                f"stage channels and classes must be >= 1 and <= {0xFFFFFFFF}, "
                f"got {self.channels} and {self.classes}"
            )
        bad = [c for c in self.channels if c % LANES]
        if bad:
            raise ConfigError(f"stage channels {bad} not multiples of {LANES}")
        if not 1 <= self.k <= 0xFFFF // 3:  # 3k stem input channels fit 16 bits
            raise ConfigError(f"thermometer length k must be in [1, {0xFFFF // 3}], got {self.k}")


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


def preset_name(cfg: ArchConfig) -> str | None:
    """The preset of ``ARCHITECTURES`` whose layout is ``cfg``'s up to k, or None."""
    return next((n for n, a in ARCHITECTURES.items() if replace(a, k=cfg.k) == cfg), None)


# --------------------------------------------------------------------------
# graph construction


def _conv_node(
    name: str, cin: int, cout: int, size: int, stride: int, scale: str, src: str
) -> Conv:
    """A size x size conv padded by size // 2; its output edge is ``<name>.out``."""
    spec = ConvSpec(cin, cout, size, size, (stride, stride), (size // 2, size // 2))
    return Conv(name, spec, scale, src, f"{name}.out")


# a chain of convs as (size, width, stride, scale) rows: the stem is four 3x3/64
# convs, strides 2,1,2,1, and its last carries c so the first block receives a
# residual-ready accumulator
STEM = ((3, 64, 2, "alpha"), (3, 64, 1, "alpha"), (3, 64, 2, "alpha"), (3, 64, 1, "c"))

# a block's residual branch, from its stage width w and its stride s: two 3x3
# convs, or 1x1 / 3x3 / 1x1 with 4x expansion and the stride on the 3x3
_BRANCHES = {
    "conv": lambda w, s: ((3, w, s, "alpha"), (3, w, 1, "c")),
    "bottleneck": lambda w, s: ((1, w, 1, "alpha"), (3, w, s, "alpha"), (1, 4 * w, 1, "c")),
}


def _chain(prefix: str, cin: int, convs, src: str) -> tuple[list[Node], str]:
    """``<prefix>.conv1``, ``.conv2``, ... from ``convs`` rows, a BnAct between each two.

    The BnAct after ``conv<i>`` is ``<prefix>.bn<i>``; the last conv's
    output edge is returned with the nodes.
    """
    nodes: list[Node] = []
    for i, (size, width, stride, scale) in enumerate(convs, start=1):
        if nodes:
            bn = BnAct(f"{prefix}.bn{i - 1}", cin, src, f"{prefix}.bn{i - 1}.out")
            nodes.append(bn)
            src = bn.dst
        conv = _conv_node(f"{prefix}.conv{i}", cin, width, size, stride, scale, src)
        nodes.append(conv)
        src, cin = conv.dst, width
    return nodes, src


def build_model(cfg: ArchConfig) -> GraphDef:
    """Full model graph: embed, stem, four stages, head conv, pooled logits.

    The stem is the :func:`_chain` of ``STEM`` and each block's residual
    branch the chain of its block kind's rows; a stage's first block
    after the first stage has stride 2.  Each block starts with a BnAct
    ``bn0``; its shortcut is the block input, or a 1x1 ``down`` conv
    scaled by c after ``bn0`` exactly when the block has stride 2 or
    changes width.  The graph records ``cfg`` as its ``arch``.
    """
    nodes: list[Node] = [PixelEmbed("embed", cfg.k, IMAGE_EDGE, "embed.out")]
    stem, edge = _chain("stem", 3 * cfg.k, STEM, "embed.out")
    nodes += stem
    cin = STEM[-1][1]
    for stage, (count, width) in enumerate(zip(cfg.counts, cfg.channels)):
        for b in range(count):
            prefix = f"s{stage + 1}.b{b + 1}"
            stride = 2 if stage > 0 and b == 0 else 1
            branch = _BRANCHES[cfg.block](width, stride)
            cout = branch[-1][1]
            bn0 = BnAct(f"{prefix}.bn0", cin, edge, f"{prefix}.bn0.out")
            nodes.append(bn0)
            if stride != 1 or cin != cout:
                down = _conv_node(f"{prefix}.down", cin, cout, 1, stride, "c", bn0.dst)
                nodes.append(down)
                edge = down.dst  # the shortcut: the block input unless projected
            body, out = _chain(prefix, cin, branch, bn0.dst)
            add = ResidualAdd(f"{prefix}.add", out, edge, f"{prefix}.add.out")
            nodes += [*body, add]
            edge, cin = add.dst, cout
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
    acc16_edges: int  # accumulator edges held as int16
    acc32_edges: int  # accumulator edges held as int32
    max_acc_bound: int  # the largest accumulator edge bound


def model_stats(cfg: ArchConfig, resolution: int) -> ModelStats:
    """Parameter, MAC, activation and accumulator-width counts for a variant at one resolution.

    MACs and activations sum over conv layers (the head conv included);
    parameters use logical (unpadded) channels, with the padded byte count
    reported separately to match on-disk storage.  The accumulator edges
    are counted by their width in ``edges``, next to the largest bound.
    """
    g = build_model(cfg)
    accs = [e for e in g.edges.values() if e.kind == "acc"]
    shapes = trace_shapes(g, resolution, resolution)
    params = 0
    padded_bytes = 0
    macs = 0
    acts = 0
    for n in g.convs:
        spec = n.spec
        params += spec.out_ch * spec.fan_in
        # on-disk form: input lanes padded to 64, one u64 word column per 64
        padded_bytes += 8 * math.prod(spec.word_shape)
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
        acc16_edges=sum(e.dtype == np.int16 for e in accs),
        acc32_edges=sum(e.dtype == np.int32 for e in accs),
        max_acc_bound=max(e.bound for e in accs),
    )


# --------------------------------------------------------------------------
# execution


@dataclass
class ExecutionResult:
    logits: np.ndarray
    # always 0: a result means every core output passed its integer dtype check
    float_ops_core: int = 0  # kept only for perfbench's read; goes with ROADMAP item 1


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
    ``channels`` in ``model.graph.edges``; acc edges as int16 or int32,
    the edge's ``dtype``; the logits as float64) after its dtype check
    and before its ``frees`` are dropped.  An act2 value or the logits
    it keeps outlive the call unchanged, but an acc value it keeps may
    be overwritten by a later residual add that frees it (the sum is
    written in place); to keep one, copy it.  A step whose output has
    another dtype than its edge's raises
    :class:`AssertionError` naming the node, under ``python -O`` too; so
    a returned result is the witness that every step from the embedding
    through the head conv produced integers.
    The embed step checks ``img`` (:func:`encode_image`): one that is not
    (3, H, W) raises :class:`ShapeError` before any other step runs.
    """
    if kernel not in ("popcount", "naive"):
        raise ConfigError(f"unknown kernel '{kernel}'")
    g = model.graph
    values: dict[str, np.ndarray] = {IMAGE_EDGE: img}
    for s in g.steps:
        out = s.op(model, s.node, kernel, *[values[src] for src in s.srcs])
        want = g.edges[s.node.dst].dtype
        if out.dtype != want:  # raised, not asserted, so ``python -O`` keeps the check
            raise AssertionError(f"{s.node.name}: {out.dtype} output, expected {want}")
        values[s.node.dst] = out
        if observe is not None:
            observe(s, out)
        for src in s.frees:
            del values[src]
    return ExecutionResult(logits=values[LOGITS_EDGE])
