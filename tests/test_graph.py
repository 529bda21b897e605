import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ern.graph
from ern.compiler import CheckpointManifest, compile_checkpoint, gen_random_checkpoint
from ern.errors import ConfigError, ShapeError
from ern.graph import (
    ARCHITECTURES,
    AvgPoolScale,
    ArchConfig,
    BnAct,
    Conv,
    GraphDef,
    PixelEmbed,
    ResidualAdd,
    arch_config,
    build_model,
    execute,
    macs_for_conv,
    model_stats,
    trace_shapes,
)
from ern.kernels import ConvSpec
from ern.quant import BnParams
from ern.tensor import BLOCK_BYTES, LANES, padded_channels

from conftest import execute_keeping_all, random_image


def freed_by(g, edge):
    return [s.node.name for s in g.steps if edge in s.frees]


def compile_toy(g, rng):
    """Compile a small hand-wired graph with random convs and unit batch norms."""

    class ToyManifest(CheckpointManifest):
        def graph(self):
            return g

    m = ToyManifest(
        arch=None,
        convs={
            n.name: rng.standard_normal((n.spec.out_ch, n.spec.in_ch, n.spec.kh, n.spec.kw))
            for n in g.convs
        },
        bnacts={
            n.name: BnParams(
                np.ones(n.channels), np.zeros(n.channels), np.zeros(n.channels), np.ones(n.channels)
            )
            for n in g.bnacts
        },
    )
    return compile_checkpoint(m)


def bottleneck_nodes(mid: int, out: int) -> tuple:
    """A stem conv, then one projected bottleneck block: its add sums two int16 maps."""
    return (
        PixelEmbed("embed", 1, "image", "embed.out"),
        Conv("stem", ConvSpec(3, mid, 3, 3, padding=(1, 1)), "alpha", "embed.out", "stem.out"),
        BnAct("bn0", mid, "stem.out", "bn0.out"),
        Conv("down", ConvSpec(mid, out, 1, 1), "c", "bn0.out", "down.out"),
        Conv("conv1", ConvSpec(mid, mid, 1, 1), "alpha", "bn0.out", "conv1.out"),
        BnAct("bn1", mid, "conv1.out", "bn1.out"),
        Conv("conv2", ConvSpec(mid, mid, 3, 3, padding=(1, 1)), "alpha", "bn1.out", "conv2.out"),
        BnAct("bn2", mid, "conv2.out", "bn2.out"),
        Conv("conv3", ConvSpec(mid, out, 1, 1), "c", "bn2.out", "conv3.out"),
        ResidualAdd("add", "conv3.out", "down.out", "add.out"),
        BnAct("head.bn", out, "add.out", "head.bn.out"),
        Conv("head", ConvSpec(out, 10, 1, 1), "alpha_out", "head.bn.out", "head.out"),
        AvgPoolScale("pool", "head.out", "logits"),
    )


def execute_keeping_raw(model, img):
    """``execute`` with an observer that keeps every output as given, and a copy of it."""
    raw, copies = {}, {}

    def keep(step, value):
        raw[step.node.dst], copies[step.node.dst] = value, value.copy()

    return execute(model, img, observe=keep), raw, copies


def tiny_nodes():
    return [
        PixelEmbed("embed", 1, "image", "embed.out"),
        Conv("c1", ConvSpec(3, 4, 1, 1), "alpha", "embed.out", "c1.out"),
        BnAct("b1", 4, "c1.out", "b1.out"),
        Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
        AvgPoolScale("pool", "f.out", "logits"),
    ]


class TestValidation:
    def test_tiny_graph_passes_without_lane_rule(self):
        edges = GraphDef(tuple(tiny_nodes())).edges
        assert edges["c1.out"].kind == "acc"
        assert edges["c1.out"].bound == 3 * 3
        assert edges["b1.out"].kind == "act2"

    def test_undefined_edge(self):
        nodes = tiny_nodes()
        nodes[1] = Conv("c1", ConvSpec(3, 4, 1, 1), "alpha", "nowhere", "c1.out")
        with pytest.raises(ConfigError, match="undefined edge"):
            GraphDef(tuple(nodes))

    def test_duplicate_edge(self):
        nodes = tiny_nodes()
        nodes.insert(2, Conv("c2", ConvSpec(3, 4, 1, 1), "alpha", "embed.out", "c1.out"))
        with pytest.raises(ConfigError, match="produced twice"):
            GraphDef(tuple(nodes))

    def test_kind_mismatch(self):
        nodes = tiny_nodes()
        # conv consuming an accumulator edge
        nodes[2] = Conv("b1", ConvSpec(4, 4, 1, 1), "alpha", "c1.out", "b1.out")
        with pytest.raises(ConfigError, match="needs a act2 edge"):
            GraphDef(tuple(nodes))

    def test_channel_mismatch(self):
        nodes = tiny_nodes()
        nodes[2] = BnAct("b1", 8, "c1.out", "b1.out")
        with pytest.raises(ConfigError, match="channels"):
            GraphDef(tuple(nodes))

    def test_bnact_cannot_read_alpha_out_edge(self):
        # alpha_out is the head's one scale, read by the pool alone; the
        # oracle holds it once, as OracleModel.alpha_out
        nodes = tiny_nodes()
        nodes[1] = Conv("c1", ConvSpec(3, 4, 1, 1), "alpha_out", "embed.out", "c1.out")
        with pytest.raises(ConfigError, match="bnact 'b1' reads 'c1.out', an alpha_out edge"):
            GraphDef(tuple(nodes))

    def test_residual_requires_c_scaled_branches(self):
        nodes = [
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c1", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c1.out"),
            Conv("c2", ConvSpec(3, 4, 1, 1), "alpha", "embed.out", "c2.out"),
            ResidualAdd("add", "c1.out", "c2.out", "add.out"),
            BnAct("b1", 4, "add.out", "b1.out"),
            Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        ]
        with pytest.raises(ConfigError, match="const-scaled"):
            GraphDef(tuple(nodes))

    def test_residual_bound_accumulates(self):
        nodes = [
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c1", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c1.out"),
            Conv("c2", ConvSpec(3, 4, 3, 3, (1, 1), (1, 1)), "c", "embed.out", "c2.out"),
            ResidualAdd("add", "c1.out", "c2.out", "add.out"),
            BnAct("b1", 4, "add.out", "b1.out"),
            Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        ]
        edges = GraphDef(tuple(nodes)).edges
        assert edges["add.out"].bound == 9 + 81

    def test_bound_past_acc_limit_refused(self):
        # c bound 9 doubles 30 times to 9 * 2**30; a28, 9 * 2**28, is the
        # first past ACC_LIMIT = 2**31 - 2
        nodes = [
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c", ConvSpec(3, 4, 1, 1), "c", "embed.out", "a0"),
        ]
        nodes += [ResidualAdd(f"add{i}", f"a{i - 1}", f"a{i - 1}", f"a{i}") for i in range(1, 31)]
        nodes += [
            BnAct("b1", 4, "a30", "b1.out"),
            Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        ]
        with pytest.raises(ConfigError, match=r"edge 'a28'.* 2415919104 passes ACC_LIMIT"):
            GraphDef(tuple(nodes))
        edges = GraphDef(tuple(nodes[:29]) + (BnAct("b1", 4, "a27", "b1.out"), *nodes[-2:])).edges
        assert edges["a27"].bound == 9 * 2**27 and edges["a27"].dtype == np.int32

    def test_acc_edge_width_follows_bound(self):
        # int16 up to 32766 (int16 maximum - 1), then int32
        def widths(cin):
            nodes = tiny_nodes()
            nodes[0] = PixelEmbed("embed", cin // 3, "image", "embed.out")
            nodes[1] = Conv("c1", ConvSpec(cin, 4, 1, 1), "alpha", "embed.out", "c1.out")
            return GraphDef(tuple(nodes)).edges

        assert widths(3 * 3640)["c1.out"].dtype == np.int16  # bound 32760
        assert widths(3 * 3641)["c1.out"].dtype == np.int32  # bound 32769
        edges = widths(3)
        assert {e: str(i.dtype) for e, i in edges.items()} == {
            "image": "None", "embed.out": "uint64", "c1.out": "int16",
            "b1.out": "uint64", "f.out": "int16", "logits": "float64",
        }

    @pytest.mark.parametrize("scale", ["C", "const", None])
    def test_unknown_scale_rejected(self, scale):
        nodes = tiny_nodes()
        nodes[1] = Conv("c1", ConvSpec(3, 4, 1, 1), scale, "embed.out", "c1.out")
        with pytest.raises(ConfigError, match="scale"):
            GraphDef(tuple(nodes))

    def test_every_edge_carries_its_scale(self):
        edges = build_model(arch_config("erns50")).edges
        assert edges["stem.conv1.out"].scale == "alpha"
        assert edges["stem.conv4.out"].scale == "c"
        assert edges["s1.b1.down.out"].scale == "c"
        assert edges["s1.b1.conv2.out"].scale == "alpha"
        assert edges["s1.b1.add.out"].scale == "c"
        assert edges["head.conv.out"].scale == "alpha_out"
        assert {e.scale for e in edges.values() if e.kind != "acc"} == {None}

    def test_pool_must_not_consume_a_residual_sum(self):
        nodes = [
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c1", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c1.out"),
            Conv("c2", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c2.out"),
            ResidualAdd("add", "c1.out", "c2.out", "add.out"),
            AvgPoolScale("pool", "add.out", "logits"),
        ]
        with pytest.raises(ConfigError, match="final conv"):
            GraphDef(tuple(nodes))

    def test_pool_must_consume_final_conv(self):
        nodes = tiny_nodes()
        nodes[4] = AvgPoolScale("pool", "c1.out", "logits")
        with pytest.raises(ConfigError, match="final conv"):
            GraphDef(tuple(nodes))

    def test_last_reader(self):
        # an edge is freed once, by the last step that reads it
        g50 = build_model(arch_config("erns50"))
        assert freed_by(g50, "s1.b1.bn0.out") == ["s1.b1.conv1"]
        assert freed_by(g50, "s1.b1.add.out") == ["s1.b2.add"]
        g18 = build_model(arch_config("erns18"))
        assert freed_by(g18, "stem.conv4.out") == ["s1.b1.add"]
        assert freed_by(g18, "logits") == []

    def test_one_step_per_node(self):
        g = build_model(arch_config("erns50"))
        assert [s.node for s in g.steps] == list(g.nodes)
        assert g.steps[0].node.name == "embed" and g.steps[-1].node.name == "head.pool"

    @pytest.mark.parametrize("tail", ["after_pool", "pool_not_logits"])
    def test_graph_must_end_with_the_logits_pool(self, tail):
        nodes = tiny_nodes()
        if tail == "after_pool":
            nodes.append(Conv("c2", ConvSpec(4, 4, 1, 1), "alpha", "b1.out", "c2.out"))
        else:
            nodes[-1] = AvgPoolScale("pool", "f.out", "scores")
        with pytest.raises(ConfigError, match="must end with the pool"):
            GraphDef(tuple(nodes))

    @pytest.mark.parametrize("k", [0, 21846, 10**6])
    def test_thermometer_length_checked_before_building(self, k):
        # 3k input channels must fit the stem record's u16 field
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="thermometer length"):
                build_model(dataclasses.replace(arch_config("erns18"), k=k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        top = dataclasses.replace(arch_config("erns18"), k=21845)
        assert build_model(top).node("stem.conv1").spec.in_ch == 65535


class TestArchitectures:
    def test_five_variants(self):
        assert sorted(ARCHITECTURES) == [
            "erns101",
            "erns18",
            "erns18x075",
            "erns34",
            "erns50",
        ]

    def test_unknown_arch(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            arch_config("resnet18")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("erns18x075", 8245120),
            ("erns18", 11797376),
            ("erns34", 21898112),
            ("erns50", 25621376),
            ("erns101", 44561280),
        ],
    )
    def test_param_counts(self, name, params):
        assert model_stats(arch_config(name), 256).param_count == params

    def test_stage_channels_must_be_lane_multiples(self):
        with pytest.raises(ConfigError, match="multiples of 64"):
            ArchConfig("conv", (2, 2, 2, 2), (64, 128, 200, 512))

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("block", "dense", "block type"),
            ("counts", (2, 0, 2, 2), "stage counts"),
            ("counts", (2, 256, 2, 2), "stage counts"),
            ("channels", (64, 0, 64, 64), ">= 1"),
            ("classes", 0, ">= 1"),
            # each is a u32 of the .ern header
            ("channels", (64, 64, 64, 2**32), "4294967295"),
            ("classes", 2**32, "4294967295"),
            ("k", 0, "thermometer length"),
        ],
    )
    def test_config_checked_at_construction(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(arch_config("erns18"), **{field: value})

    def test_stage_count_up_to_255(self):
        cfg = dataclasses.replace(arch_config("erns18"), counts=(255, 1, 1, 1))
        assert sum(n.name.endswith(".add") for n in build_model(cfg).nodes) == 258

    def test_graph_carries_its_config(self):
        cfg = dataclasses.replace(arch_config("erns50"), k=4, classes=7)
        g = build_model(cfg)
        assert g.arch == cfg
        assert g.node("embed").k == 4 and g.node("head.conv").spec.out_ch == 7
        # a graph wired by hand has no config; the nodes alone decide equality
        bare = GraphDef(g.nodes)
        assert bare.arch is None and bare == g

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_acc_edge_widths(self, name):
        # every acc edge of the presets is int16 but three residual sums of erns34
        g = build_model(arch_config(name))
        wide = {e for e, i in g.edges.items() if i.kind == "acc" and i.dtype == np.int32}
        narrow = {e for e, i in g.edges.items() if i.kind == "acc" and i.dtype == np.int16}
        want = {"s3.b5.add.out", "s3.b6.add.out", "s4.b3.add.out"} if name == "erns34" else set()
        assert wide == want
        assert all(g.edges[e].bound > 32766 for e in wide)
        assert all(g.edges[e].bound <= 32766 for e in narrow)
        adds = sum(isinstance(n, ResidualAdd) for n in g.nodes)
        assert len(wide | narrow) == len(g.convs) + adds

    def test_bottleneck_default_stride_position(self):
        g = build_model(arch_config("erns50"))
        assert g.node("s2.b1.conv1").spec.stride == (1, 1)
        assert g.node("s2.b1.conv2").spec.stride == (2, 2)

    def test_stage1_bottleneck_projects_without_downsampling(self):
        g = build_model(arch_config("erns50"))
        down = g.node("s1.b1.down")
        assert down.spec.stride == (1, 1)
        assert down.spec.in_ch == 64 and down.spec.out_ch == 256


class TestShapes:
    def test_ladder_256(self):
        g = build_model(arch_config("erns18"))
        sh = trace_shapes(g, 256, 256)
        assert sh["embed.out"] == (30, 256, 256)
        assert sh["stem.conv4.out"] == (64, 64, 64)
        assert sh["s2.b1.add.out"] == (128, 32, 32)
        assert sh["s4.b2.add.out"] == (512, 8, 8)
        assert sh["head.conv.out"] == (1000, 8, 8)

    def test_ladder_288(self):
        g = build_model(arch_config("erns18"))
        assert trace_shapes(g, 288, 288)["s4.b2.add.out"] == (512, 9, 9)

    def test_small_inputs_survive_padding(self):
        # 3x3 pad-1 stride-2 maps H=1 to H=1, so the ladder never collapses
        g = build_model(arch_config("erns18"))
        assert trace_shapes(g, 32, 32)["head.conv.out"] == (1000, 1, 1)
        assert trace_shapes(g, 16, 16)["head.conv.out"] == (1000, 1, 1)

    def test_residual_of_mismatched_strides(self, rng):
        # equal widths pass validation; only the spatial dims disagree
        g = GraphDef(
            (
                PixelEmbed("embed", 1, "image", "embed.out"),
                Conv("c1", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c1.out"),
                Conv("c2", ConvSpec(3, 4, 1, 1, (2, 2)), "c", "embed.out", "c2.out"),
                ResidualAdd("add", "c1.out", "c2.out", "add.out"),
                BnAct("b1", 4, "add.out", "b1.out"),
                Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
                AvgPoolScale("pool", "f.out", "logits"),
            )
        )
        with pytest.raises(ShapeError):
            trace_shapes(g, 8, 8)
        with pytest.raises(ShapeError):
            execute(compile_toy(g, rng), random_image(rng, 8))

    def test_macs_reference_layers(self):
        assert macs_for_conv(ConvSpec(3, 64, 7, 7, (2, 2), (3, 3)), 224, 224) == 118013952
        assert macs_for_conv(ConvSpec(30, 64, 7, 7, (2, 2), (3, 3)), 224, 224) == 1180139520


class TestStats:
    @pytest.mark.parametrize(
        "name,weight_bytes",
        [
            ("erns18x075", 1030640),
            ("erns18", 1474672),
            ("erns34", 2737264),
            ("erns50", 3202672),
            ("erns101", 5570160),
        ],
    )
    def test_weight_bytes(self, name, weight_bytes):
        stats = model_stats(arch_config(name), 256)
        assert stats.binary_weight_bytes == weight_bytes
        assert stats.binary_weight_bytes == -(-stats.param_count // 8)
        assert stats.padded_weight_bytes >= stats.binary_weight_bytes

    def test_macs_scale_with_resolution(self):
        cfg = arch_config("erns18")
        # spatial dims quarter exactly, so conv work does too
        assert model_stats(cfg, 256).macs == 16 * model_stats(cfg, 64).macs


class TestExecution:
    def test_kernels_agree(self, erns18_model, rng):
        img = random_image(rng)
        a = execute(erns18_model, img, kernel="popcount")
        b = execute(erns18_model, img, kernel="naive")
        assert np.array_equal(a.logits, b.logits)

    def test_repeat_runs_bitwise_identical(self, erns18_model, rng):
        img = random_image(rng)
        a = execute(erns18_model, img).logits
        b = execute(erns18_model, img).logits
        assert a.tobytes() == b.tobytes()

    def test_no_float_ops_in_core(self, erns18_model, rng):
        # with either kernel, every step but the pool writes integers, each
        # at its edge's dtype
        g = erns18_model.graph
        img = random_image(rng, 32)
        for kernel in ("popcount", "naive"):
            seen = {}
            execute(erns18_model, img, kernel,
                    observe=lambda step, value: seen.setdefault(step.node.dst, value.dtype))
            assert seen.pop("logits") == np.float64
            assert len(seen) == len(g.steps) - 1
            for edge, dtype in seen.items():
                assert np.issubdtype(dtype, np.integer) and dtype == g.edges[edge].dtype, edge

    def test_record_keeps_intermediates(self, erns18_model, rng):
        # observe sees every step's output once (the helper asserts once)
        r, values = execute_keeping_all(erns18_model, random_image(rng))
        g = erns18_model.graph
        assert set(values) | {"image"} == set(g.edges)
        acc_edges = [e for e, info in g.edges.items() if info.kind == "acc"]
        assert len(acc_edges) == len(g.convs) + sum(isinstance(n, ResidualAdd) for n in g.nodes)
        for e in acc_edges:  # every acc edge of erns18 is int16
            assert values[e].dtype == g.edges[e].dtype == np.int16, e
        assert values["logits"] is r.logits

    def test_observe_sees_every_step_in_order(self, erns18_model, rng):
        # once per node, in graph order; act2 edges arrive as (2, words, H, W) planes
        seen = []

        def look(step, value):
            seen.append(step.node.name)
            info = erns18_model.graph.edges[step.node.dst]
            if info.kind == "act2":
                words = padded_channels(info.channels) // LANES
                assert isinstance(value, np.ndarray), step.node.name
                assert value.dtype == np.uint64 and value.shape[:2] == (2, words), step.node.name

        execute(erns18_model, random_image(rng, 32), observe=look)
        assert seen == [n.name for n in erns18_model.graph.nodes]

    def test_intermediates_dropped_after_last_reader(self, erns50_model, rng):
        img = random_image(rng, 32)

        def peak(run):
            tracemalloc.start()
            try:
                r = run()
                return tracemalloc.get_traced_memory()[1], r.logits
            finally:
                tracemalloc.stop()

        # lean: no observer; kept: an observer that keeps every edge
        lean, a = peak(lambda: execute(erns50_model, img))
        kept, b = peak(lambda: execute_keeping_all(erns50_model, img)[0])
        assert a.tobytes() == b.tobytes()
        assert lean < kept

    @pytest.mark.parametrize("kernel", ["popcount", "naive"])
    def test_observe_leaves_logits_bit_identical(self, erns18_model, rng, kernel):
        img = random_image(rng, 32)
        plain = execute(erns18_model, img, kernel=kernel)
        observed, _ = execute_keeping_all(erns18_model, img, kernel=kernel)
        assert observed.logits.tobytes() == plain.logits.tobytes()
        other = "naive" if kernel == "popcount" else "popcount"
        assert execute(erns18_model, img, kernel=other).logits.tobytes() == plain.logits.tobytes()

    @staticmethod
    def execute_peak(model, img):
        execute(model, img)
        tracemalloc.start()
        try:
            execute(model, img)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_acc_width_bitplane_datapath_peak(self, erns50_model, rng):
        # at 224 the peak is a stage-1 conv3 step: the shortcut and conv3's
        # output, two (256, 56, 56) int16 maps (one int32 map), and conv3's
        # tiles.  Held as int32 the maps alone pass 1.6, as do int64
        # temporaries, uint8 code maps between layers, or the full-size stem
        # and threshold temporaries of untiled steps (1.85)
        peak = self.execute_peak(erns50_model, random_image(rng, 224))
        stage1_acc = 256 * 56 * 56 * np.dtype(np.int32).itemsize
        assert peak < 1.6 * stage1_acc

    def test_tiled_stem_peak(self, erns18_model, rng):
        # at 256 stem.conv1 reads (2, 1, 256, 256) planes and writes a
        # (64, 128, 128) int16 map; its row tiles (windows up to twice
        # BLOCK_BYTES, AND temporaries up to once), and the row blocks of the
        # threshold stage after it, add a few BLOCK_BYTES more.  A padded
        # copy with every tap's full-size window, or a full-size sign fold
        # with its bool planes, passes this (7.76 MB)
        peak = self.execute_peak(erns18_model, random_image(rng, 256))
        planes = 2 * 256 * 256 * np.dtype(np.uint64).itemsize
        acc = 64 * 128 * 128 * np.dtype(np.int16).itemsize
        assert peak < planes + acc + 4 * BLOCK_BYTES

    def test_residual_reading_one_edge_twice(self):
        # add(c1, c1) is valid; execute must drop c1 once, after the add
        g = GraphDef(
            (
                PixelEmbed("embed", 1, "image", "embed.out"),
                Conv("c1", ConvSpec(3, 4, 1, 1), "c", "embed.out", "c1.out"),
                ResidualAdd("add", "c1.out", "c1.out", "add.out"),
                BnAct("b1", 4, "add.out", "b1.out"),
                Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
                AvgPoolScale("pool", "f.out", "logits"),
            )
        )
        add = g.steps[2]
        assert add.srcs == ("c1.out", "c1.out")
        assert add.frees == ("c1.out",)
        assert freed_by(g, "c1.out") == ["add"]
        assert g.edges["add.out"].bound == 2 * 9
        rng = np.random.default_rng(0)
        model = compile_toy(g, rng)
        img = random_image(rng, 8)
        rec, values = execute_keeping_all(model, img)
        assert np.array_equal(values["add.out"], 2 * values["c1.out"])
        for kernel in ("popcount", "naive"):
            assert execute(model, img, kernel=kernel).logits.tobytes() == rec.logits.tobytes()

    def test_residual_sum_written_over_a_freed_input(self):
        # the add frees both inputs, int16 like its output: the sum goes
        # over the first, so an observer's acc value changes after its step
        g = GraphDef(bottleneck_nodes(64, 256))
        assert g.edges["add.out"].dtype == g.edges["conv3.out"].dtype == np.int16
        rng = np.random.default_rng(0)
        model = compile_toy(g, rng)
        img = random_image(rng, 16)
        r, raw, copies = execute_keeping_raw(model, img)
        assert np.shares_memory(raw["add.out"], raw["conv3.out"])
        assert not np.shares_memory(raw["add.out"], raw["down.out"])
        assert np.array_equal(copies["add.out"], copies["conv3.out"] + copies["down.out"])
        assert r.logits.tobytes() == execute(model, img, kernel="naive").logits.tobytes()

    def test_residual_allocates_unless_a_freed_input_has_its_dtype(self):
        # ca and cb are int16 maps of bound 27 * 741 = 20,007; their sum is
        # an int32 edge, so it takes a new map.  add2 then sums int16 cc and
        # that int32 map into int32, over the int32 input it frees
        nodes = (
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c1", ConvSpec(3, 741, 1, 1), "alpha", "embed.out", "c1.out"),
            BnAct("b1", 741, "c1.out", "b1.out"),
            *(
                Conv(n, ConvSpec(741, 64, 3, 3, padding=(1, 1)), "c", "b1.out", f"{n}.out")
                for n in ("ca", "cb", "cc")
            ),
            ResidualAdd("add", "ca.out", "cb.out", "add.out"),
            ResidualAdd("add2", "cc.out", "add.out", "add2.out"),
            BnAct("b2", 64, "add2.out", "b2.out"),
            Conv("f", ConvSpec(64, 2, 1, 1), "alpha_out", "b2.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        )
        g = GraphDef(nodes)
        dtypes = [g.edges[e].dtype for e in ("ca.out", "cb.out", "cc.out", "add.out", "add2.out")]
        assert dtypes == [np.int16] * 3 + [np.int32] * 2
        rng = np.random.default_rng(0)
        model = compile_toy(g, rng)
        img = random_image(rng, 8)
        r, raw, copies = execute_keeping_raw(model, img)
        for src in ("ca.out", "cb.out", "cc.out"):
            assert not np.shares_memory(raw["add.out"], raw[src]), src
            assert not np.shares_memory(raw["add2.out"], raw[src]), src
        assert np.shares_memory(raw["add2.out"], raw["add.out"])
        assert np.array_equal(copies["add.out"], copies["ca.out"].astype(np.int32) + copies["cb.out"])
        assert np.array_equal(copies["add2.out"], copies["add.out"] + copies["cc.out"])
        assert r.logits.tobytes() == execute(model, img, kernel="naive").logits.tobytes()

    def test_residual_keeps_an_input_a_later_step_reads(self):
        # add1 frees c2.out but not c1.out, which add2 reads after it
        nodes = tiny_nodes()[:1] + [
            Conv(n, ConvSpec(3, 4, 1, 1), "c", "embed.out", f"{n}.out") for n in ("c1", "c2")
        ] + [
            ResidualAdd("add1", "c1.out", "c2.out", "add1.out"),
            ResidualAdd("add2", "add1.out", "c1.out", "add2.out"),
            BnAct("b1", 4, "add2.out", "b1.out"),
            Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        ]
        g = GraphDef(tuple(nodes))
        assert freed_by(g, "c1.out") == ["add2"] and freed_by(g, "c2.out") == ["add1"]
        rng = np.random.default_rng(0)
        model = compile_toy(g, rng)
        r, raw, copies = execute_keeping_raw(model, random_image(rng, 8))
        assert np.shares_memory(raw["add1.out"], raw["c2.out"])
        assert np.shares_memory(raw["add2.out"], raw["add1.out"])
        assert not np.shares_memory(raw["add2.out"], raw["c1.out"])
        assert np.array_equal(copies["add2.out"], 2 * copies["c1.out"] + copies["c2.out"])

    def test_bottleneck_add_makes_no_third_map(self):
        # the block's add reads two (512, 64, 64) int16 maps of 4 MiB each.
        # Summed over conv3's output, the peak is conv3's step: the shortcut,
        # conv3's output and its tiles (about 2.3 maps).  A new map for the
        # sum would hold three maps at the add
        g = GraphDef(bottleneck_nodes(64, 512))
        rng = np.random.default_rng(0)
        model = compile_toy(g, rng)
        peak = self.execute_peak(model, random_image(rng, 64))
        acc = 512 * 64 * 64 * np.dtype(np.int16).itemsize
        assert peak < 2.5 * acc

    def test_kernels_looked_up_per_call(self, erns18_model, rng, monkeypatch):
        # steps call this module's kernels by name, with the model's own
        # weight and table objects, so a wrapper installed after the model
        # is built sees every call
        g = erns18_model.graph
        calls = {"conv": [], "bnact": []}

        def counting(kind, fn):
            def wrapper(*args):
                calls[kind].append(args[1])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ern.graph, "conv_w1a2_popcount",
                            counting("conv", ern.graph.conv_w1a2_popcount))
        monkeypatch.setattr(ern.graph, "apply_thresholds",
                            counting("bnact", ern.graph.apply_thresholds))
        execute(erns18_model, random_image(rng, 32))
        assert len(calls["conv"]) == len(g.convs)
        assert len(calls["bnact"]) == len(g.bnacts)
        for n, w in zip(g.convs, calls["conv"]):
            assert w is erns18_model.weights[n.name], n.name
        for n, t in zip(g.bnacts, calls["bnact"]):
            assert t is erns18_model.thresholds[n.name], n.name

    def test_dtype_table_witnesses_integer_core(self):
        # the edge table is the one witness of an integer-only core: every
        # edge from the embedding through the head conv is held as integers,
        # and only the pool's output, the logits, as floats; execute holds
        # each step to it (test_output_dtype_checked_under_optimize)
        for cfg in ARCHITECTURES.values():
            edges = build_model(cfg).edges
            held = {e: i.dtype for e, i in edges.items() if e != "image"}
            assert {e for e, d in held.items() if not np.issubdtype(d, np.integer)} == {"logits"}
            assert held["logits"] == np.float64

    def test_residual_output_dtype_checked(self, erns18_model, rng, monkeypatch):
        # int32 is an accumulator width, but not this int16 edge's
        add = ern.graph.residual_add
        monkeypatch.setattr(ern.graph, "residual_add",
                            lambda a, b, dtype, out: add(a, b, np.int32))
        with pytest.raises(AssertionError, match="s1.b1.add: int32 output, expected int16"):
            execute(erns18_model, random_image(rng, 32))

    @pytest.mark.parametrize(
        "target,patch,node",
        [
            ("residual_add", "lambda a, b, d, out: f(a, b, np.int32)", "s1.b1.add"),
            (
                "conv_w1a2_popcount",
                "lambda x, w, s: f(x, w, s).astype(np.float64 if s.out_ch == 1000 else np.int16)",
                "head.conv",
            ),
        ],
        ids=["residual", "head"],
    )
    def test_output_dtype_checked_under_optimize(self, target, patch, node):
        # the check must not be an ``assert``, which ``python -O`` strips
        script = f"""
import sys
import numpy as np
import ern.graph
from ern.compiler import compile_checkpoint, gen_random_checkpoint
if __debug__:
    sys.exit("not running under -O")
model = compile_checkpoint(gen_random_checkpoint("erns18x075", seed=0))
f = ern.graph.{target}
ern.graph.{target} = {patch}
try:
    ern.graph.execute(model, np.zeros((3, 32, 32), np.uint8))
except AssertionError as e:
    print(e)
else:
    sys.exit("ran to logits")
"""
        src = str(Path(ern.graph.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith(node)

    def test_unknown_kernel(self, erns18_model):
        with pytest.raises(ConfigError):
            execute(erns18_model, np.zeros((3, 64, 64), np.uint8), kernel="simd")

    def test_bad_image_shape(self, erns18_model):
        with pytest.raises(ShapeError):
            execute(erns18_model, np.zeros((64, 64), np.uint8))

    def test_tiny_image_still_runs(self, erns18_model):
        r = execute(erns18_model, np.zeros((3, 16, 16), np.uint8))
        assert r.logits.shape == (1000,)
        assert np.all(np.isfinite(r.logits))

    def test_resolution_discrepancy(self, erns18_model, rng):
        # models carry no baked-in input size; a 288 image just yields a
        # 9x9 head map instead of 8x8
        img = rng.integers(0, 256, size=(3, 288, 288), dtype=np.uint8)
        r, values = execute_keeping_all(erns18_model, img)
        assert values["head.conv.out"].shape == (1000, 9, 9)
        assert np.all(np.isfinite(r.logits))


class TestScaleDoubling:
    def test_doubling_c_with_const_fed_folds_is_invariant(self, rng):
        # c enters the fold only where the incoming edge carries the shared
        # constant; doubling (c, s_a, beta, mean) on exactly those units
        # rescales slope and intercept by a power of two, which commutes
        # with IEEE rounding, so every table and every logit is bitwise
        # unchanged even though the serialized constants differ
        m1 = gen_random_checkpoint("erns18x075", seed=5, shared_const=0.75)
        m2 = gen_random_checkpoint("erns18x075", seed=5, shared_const=1.5)
        g = m1.graph()
        for bn in g.bnacts:
            if g.edges[bn.src].scale != "c":
                continue
            rec = m2.bnacts[bn.name]
            m2.bnacts[bn.name] = dataclasses.replace(
                rec, beta=rec.beta * 2.0, mean=rec.mean * 2.0, act_scale=rec.act_scale * 2.0
            )
        a = compile_checkpoint(m1)
        b = compile_checkpoint(m2)
        assert b.shared_const == 2 * a.shared_const
        for name in a.thresholds:
            ta, tb = a.thresholds[name], b.thresholds[name]
            assert np.array_equal(ta.t, tb.t), name
            assert np.array_equal(ta.ascending, tb.ascending), name
        img = random_image(rng)
        la = execute(a, img).logits
        lb = execute(b, img).logits
        assert la.tobytes() == lb.tobytes()
