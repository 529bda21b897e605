import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ern.compiler import CheckpointManifest, compile_checkpoint, gen_random_checkpoint
from ern.graph import (
    AvgPoolScale,
    BnAct,
    Conv,
    GraphDef,
    PixelEmbed,
    execute,
)
from ern.kernels import ConvSpec
from ern.errors import ShapeError
from ern.oracle import (
    TIE_EPS,
    _conv_im2col,
    cross_check,
    oracle_execute,
    oracle_from_manifest,
    oracle_steps,
)
from ern.quant import BnParams
from ern.tensor import BLOCK_BYTES, row_blocks

from conftest import execute_keeping_all, random_image, rounded_mean_abs


def toy_graph():
    return GraphDef(
        nodes=(
            PixelEmbed("embed", 1, "image", "embed.out"),
            Conv("c1", ConvSpec(3, 4, 1, 1), "alpha", "embed.out", "c1.out"),
            BnAct("b1", 4, "c1.out", "b1.out"),
            Conv("f", ConvSpec(4, 2, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        )
    )


class ToyManifest(CheckpointManifest):
    """A manifest whose graph is :func:`toy_graph` rather than a named architecture."""

    def graph(self):
        return toy_graph()


def toy_image():
    img = np.empty((3, 2, 2), np.uint8)
    img[0] = [[0, 100], [200, 255]]
    img[1] = 42
    img[2] = 255
    return img


def pencil_manifest():
    # every quantity below is chosen so the arithmetic checks out by hand:
    # var + eps == 1.0 exactly, and all betas are exact binary fractions
    w1 = np.array(
        [
            [0.3, 0.3, 0.3],
            [-0.6, 0.3, 0.3],
            [0.25, -0.25, 0.25],
            [-0.6, -0.6, -0.6],
        ]
    ).reshape(4, 3, 1, 1)
    wf = np.array(
        [
            [0.5, 0.5, -0.5, 0.5],
            [-0.25, 0.25, 0.25, -0.25],
        ]
    ).reshape(2, 4, 1, 1)
    bn = BnParams(
        gamma=np.array([1.0, 1.0, 2.0, -1.0]),
        beta=np.array([0.25, -0.25, 0.125, 0.25]),
        mean=np.array([1.0, 0.0, 1.0, -2.0]),
        var=np.full(4, 0.75),
        epsilon=0.25,
        act_scale=0.5,
    )
    return ToyManifest(
        arch=None, convs={"c1": w1, "f": wf}, bnacts={"b1": bn}
    )


class TestPencilModel:
    """A network small enough to evaluate with pencil and paper.

    One 1x1 binary conv over thermometer codes (k=1), one fused
    norm-quantize stage, a two-class head.  Expected values below are
    worked out by hand from the defining formulas, so they pin down
    engine and oracle at once.
    """

    @pytest.fixture
    def model(self):
        return compile_checkpoint(pencil_manifest())

    @pytest.fixture
    def om(self):
        return oracle_from_manifest(pencil_manifest())

    def test_embed_codes(self, model):
        _, values = execute_keeping_all(model, toy_image())
        codes = values["embed.out"]
        assert np.array_equal(codes[0], [[0, 1], [2, 3]])
        assert np.array_equal(codes[1], np.zeros((2, 2)))
        assert np.array_equal(codes[2], np.full((2, 2), 3))

    def test_conv_accumulators(self, model):
        _, values = execute_keeping_all(model, toy_image())
        acc = values["c1.out"]
        assert np.array_equal(acc[0], [[3, 4], [5, 6]])
        assert np.array_equal(acc[1], [[3, 2], [1, 0]])
        assert np.array_equal(acc[2], [[3, 4], [5, 6]])
        assert np.array_equal(acc[3], [[-3, -4], [-5, -6]])

    def test_fused_threshold_tables(self, model):
        tbl = model.thresholds["b1"]
        assert np.array_equal(tbl.t[0], [5, 6, 8])
        assert np.array_equal(tbl.t[1], [2, 4, 5])
        assert np.array_equal(tbl.t[2], [5, 6, 7])
        assert np.array_equal(tbl.t[3], [-6, -5, -4])
        assert tbl.ascending.tolist() == [True, True, True, False]
        assert not tbl.degenerate.any()

    def test_quantized_codes(self, model):
        _, values = execute_keeping_all(model, toy_image())
        codes = values["b1.out"]
        assert np.array_equal(codes[0], [[0, 0], [1, 2]])
        assert np.array_equal(codes[1], [[1, 1], [0, 0]])
        assert np.array_equal(codes[2], [[0, 0], [1, 2]])
        assert np.array_equal(codes[3], [[0, 1], [2, 3]])

    def test_head_and_logits(self, model):
        r, values = execute_keeping_all(model, toy_image())
        raw = values["f.out"]
        assert np.array_equal(raw[0], [[1, 2], [2, 3]])
        assert np.array_equal(raw[1], [[1, 0], [-2, -3]])
        assert model.alpha_out == 0.375
        assert r.logits.tolist() == [0.75, -0.375]

    def test_oracle_matches_hand_values(self, om):
        values = {node.dst: out for node, out, _ in oracle_steps(om, toy_image())}
        assert np.array_equal(values["b1.out"][3], [[0, 1], [2, 3]])
        assert np.array_equal(values["f.out"][0], [[1, 2], [2, 3]])
        assert values["logits"].tolist() == [0.75, -0.375]
        assert oracle_execute(om, toy_image()).logits.tolist() == [0.75, -0.375]

    def test_cross_check_passes_clean(self, model, om):
        rep = cross_check(model, om, [toy_image()])
        assert rep.ok
        assert rep.logits_equal
        assert rep.first_divergence is None
        assert all(r.mismatches == 0 and r.boundary == 0 for r in rep.layers.values())

    def test_both_kernels_on_toy(self, model):
        a = execute(model, toy_image(), kernel="popcount").logits
        b = execute(model, toy_image(), kernel="naive").logits
        assert np.array_equal(a, b)


class TestZeroImage:
    def test_embed_all_zero_codes(self, erns18_model):
        img = np.zeros((3, 64, 64), np.uint8)
        r, values = execute_keeping_all(erns18_model, img)
        assert not values["embed.out"].any()
        assert np.all(np.isfinite(r.logits))


def tie_manifest():
    # alpha 0.5, sigma-hat 1, gamma 1, act scale 0.25: the folded slope is
    # exactly 2, so v / s_a lands on an integer at every position
    w1 = np.array(
        [
            [0.5, 0.5, 0.5],
            [-0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [-0.5, -0.5, -0.5],
        ]
    ).reshape(4, 3, 1, 1)
    wf = np.array(
        [
            [0.5, 0.5, -0.5, 0.5],
            [-0.25, 0.25, 0.25, -0.25],
        ]
    ).reshape(2, 4, 1, 1)
    bn = BnParams(
        gamma=np.ones(4),
        beta=np.zeros(4),
        mean=np.zeros(4),
        var=np.full(4, 0.75),
        epsilon=0.25,
        act_scale=0.25,
    )
    return ToyManifest(
        arch=None, convs={"c1": w1, "f": wf}, bnacts={"b1": bn}
    )


class TestDisagreementClassification:
    def test_boundary_ties_excused_not_failed(self):
        m = tie_manifest()
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        tbl = model.thresholds["b1"]
        assert np.array_equal(tbl.t[1], [1, 1, 2])
        # shift channel 1 to exclude equality: disagreements can now occur,
        # but only where the float value sits exactly on a code boundary
        t2 = tbl.t.copy()
        t2[1] = [1, 2, 3]
        tampered = dataclasses.replace(
            model, thresholds={"b1": dataclasses.replace(tbl, t=t2)}
        )
        rep = cross_check(tampered, om, [toy_image()])
        assert rep.layers["b1"].mismatches == 0
        assert rep.layers["b1"].boundary == 2
        # ties alone never name a divergent layer; the logit drift they
        # cause is what fails the check
        assert not rep.ok
        assert rep.first_divergence == "logits"

    def test_hard_divergence_names_layer(self, rng):
        m = gen_random_checkpoint("erns18x075", seed=3, shared_const=0.5)
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        tbl = model.thresholds["s2.b1.bn1"]
        tampered = dataclasses.replace(
            model,
            thresholds={
                **model.thresholds,
                "s2.b1.bn1": dataclasses.replace(tbl, t=tbl.t + 25),
            },
        )
        rep = cross_check(tampered, om, [random_image(rng)])
        assert not rep.ok
        assert rep.first_divergence == "s2.b1.bn1"
        assert rep.layers["s2.b1.bn1"].mismatches > 0
        for name in ("stem.bn1", "s1.b1.bn1", "s2.b1.bn0"):
            assert rep.layers[name].mismatches == 0

    def test_corrupted_table_matches_whole_trace_comparison(self, erns50_model, erns50_oracle, rng):
        # the streamed report equals one computed from every edge of both
        # executors at once, the way cross_check compared before it streamed
        model = erns50_model
        name = "s3.b2.bn2"
        tbl = model.thresholds[name]
        tampered = dataclasses.replace(
            model,
            thresholds={**model.thresholds, name: dataclasses.replace(tbl, t=tbl.t + 25)},
        )
        imgs = [random_image(rng, 32) for _ in range(2)]
        rep = cross_check(tampered, erns50_oracle, imgs)

        want = {n: [0, 0] for n in rep.layers}
        first = None
        for img in imgs:
            _, got = execute_keeping_all(tampered, img)
            ref = {}
            pre = {}
            for node, out, v in oracle_steps(erns50_oracle, img):
                ref[node.dst] = out
                if v is not None:
                    pre[node.name] = v
            for node in tampered.graph.nodes:
                if node.name not in want:
                    continue
                diff = got[node.dst] != ref[node.dst]
                if node.name in pre:
                    ratio = pre[node.name] / erns50_oracle.bns[node.name].act_scale
                    near = np.abs(ratio - np.rint(ratio)) < TIE_EPS
                else:
                    near = np.zeros_like(diff)
                want[node.name][0] += int(np.count_nonzero(diff & ~near))
                want[node.name][1] += int(np.count_nonzero(diff & near))
                if want[node.name][0] and first is None:
                    first = node.name
        assert {n: [r.mismatches, r.boundary] for n, r in rep.layers.items()} == want
        assert not rep.ok
        assert rep.first_divergence == first == name
        assert rep.layers[name].mismatches > 0

    @pytest.mark.parametrize("side", ["oracle", "engine"])
    def test_nan_logits_fail(self, rng, side):
        # a NaN logit equals nothing, not even the other side's NaN
        m = gen_random_checkpoint("erns18x075", seed=1)
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        if side == "oracle":
            om = dataclasses.replace(om, alpha_out=np.nan)
        else:
            model = dataclasses.replace(model, alpha_out=np.nan)
        rep = cross_check(model, om, [random_image(rng, 32)])
        assert not rep.ok
        assert rep.first_divergence == "logits"
        assert not rep.logits_equal

    @pytest.mark.parametrize("side", ["oracle", "engine"])
    def test_alpha_out_one_ulp_off_fails(self, rng, side):
        # every code map still matches; only the logits' last bits move
        m = gen_random_checkpoint("erns18x075", seed=1)
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        assert om.alpha_out == model.alpha_out
        if side == "oracle":
            om = dataclasses.replace(om, alpha_out=np.nextafter(om.alpha_out, np.inf))
        else:
            model = dataclasses.replace(model, alpha_out=np.nextafter(model.alpha_out, 0.0))
        rep = cross_check(model, om, [random_image(rng, 32)])
        assert not rep.ok
        assert not rep.logits_equal
        assert rep.first_divergence == "logits"
        assert rep.residual_scaling_exact
        assert all(r.mismatches == 0 and r.boundary == 0 for r in rep.layers.values())


class TestFullModel:
    def test_erns18_cross_check(self, erns18_manifest, erns18_model, rng):
        om = oracle_from_manifest(erns18_manifest)
        imgs = [random_image(rng) for _ in range(2)]
        rep = cross_check(erns18_model, om, imgs)
        assert rep.ok
        assert rep.images == 2
        assert rep.residual_scaling_exact
        assert rep.logits_equal
        assert sum(r.boundary for r in rep.layers.values()) == 0
        assert "PASS" in rep.summary()
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True
        assert doc["images"] == 2
        assert doc["logits_equal"] is True

    def test_cross_check_peak_does_not_grow_with_images(
        self, erns18_manifest, erns18_model, rng
    ):
        # each image's engine and oracle maps are freed before the next runs
        om = oracle_from_manifest(erns18_manifest)
        imgs = [random_image(rng) for _ in range(3)]
        peaks = []
        for n in (1, 3):
            tracemalloc.start()
            try:
                assert cross_check(erns18_model, om, imgs[:n]).ok
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    def test_cross_check_streams_images(self, erns50_model, erns50_oracle, rng):
        # the engine and the oracle are compared step by step and nothing is
        # kept past its step, so checking 8 images peaks where checking 1 does
        imgs = [random_image(rng, 32) for _ in range(8)]
        cross_check(erns50_model, erns50_oracle, imgs[:1])  # warm-up
        peaks = []
        for n in (1, 8):
            tracemalloc.start()
            try:
                assert cross_check(erns50_model, erns50_oracle, imgs[:n]).ok
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6

    def test_oracle_execute_is_the_walk_drained(self, erns18_manifest, rng):
        om = oracle_from_manifest(erns18_manifest)
        img = random_image(rng)
        *_, (node, logits, _) = list(oracle_steps(om, img))
        assert node.name == "head.pool"
        assert oracle_execute(om, img).logits.tobytes() == logits.tobytes()

    def test_oracle_shared_const_precedence(self, erns18_manifest):
        om = oracle_from_manifest(erns18_manifest)
        assert om.shared_const == 0.5
        om2 = oracle_from_manifest(erns18_manifest, shared_const=2.0)
        assert om2.shared_const == 2.0

    def test_oracle_logits_float_dtype(self, erns18_manifest, rng):
        om = oracle_from_manifest(erns18_manifest)
        r = oracle_execute(om, random_image(rng))
        assert r.logits.dtype == np.float64
        assert r.logits.shape == (1000,)


def packed_rows(positive: np.ndarray) -> np.ndarray:
    """``np.packbits`` of each (IC, kh, kw) filter of an (OC, IC, kh, kw) sign mask."""
    return np.packbits(positive.reshape(len(positive), -1), axis=1)


class TestFloat32Gemm:
    def test_signs_held_as_bits(self):
        # one bit per weight, ceil(fan_in / 8) bytes per filter, bit 1 for w >= 0
        m = pencil_manifest()
        om = oracle_from_manifest(m)
        for name, w in m.convs.items():
            bits = om.signs[name]
            fan = w[0].size
            assert bits.dtype == np.uint8
            assert bits.shape == (len(w), -(-fan // 8))
            signs = np.unpackbits(bits, axis=1, count=fan)
            assert np.array_equal(signs, (w >= 0).reshape(len(w), fan))

    def test_exact_at_largest_accumulator(self):
        # 3 * fan_in just below 2**24: every partial sum is still exact in float32
        ic = (2**24 - 1) // 3 // 9
        codes = np.full((ic, 3, 3), 3, dtype=np.uint8)
        signs = np.packbits(np.ones((1, ic * 9), dtype=bool), axis=1)
        out = _conv_im2col(codes, signs, (1, ic, 3, 3), (1, 1), (0, 0))
        assert out.dtype == np.float64
        assert out.ravel().tolist() == [3 * ic * 9]
        # all -1, the other end of the bound
        out = _conv_im2col(codes, np.zeros_like(signs), (1, ic, 3, 3), (1, 1), (0, 0))
        assert out.ravel().tolist() == [-3 * ic * 9]

    def test_rejects_fan_in_past_float32_exactness(self):
        ic = -(-(2**24) // 3)
        with pytest.raises(ShapeError):
            _conv_im2col(
                np.zeros((ic, 1, 1), np.uint8),
                np.packbits(np.ones((1, ic), dtype=bool), axis=1),
                (1, ic, 1, 1),
                (1, 1),
                (0, 0),
            )

    def test_matches_signed_product(self, rng):
        # strided, padded, odd channel count: equals the direct sum of s * x
        codes = rng.integers(0, 4, size=(5, 7, 6), dtype=np.uint8)
        s = rng.choice([-1, 1], size=(3, 5, 3, 3))
        out = _conv_im2col(codes, packed_rows(s > 0), s.shape, (2, 2), (1, 1))
        x = np.pad(codes.astype(np.int64), ((0, 0), (1, 1), (1, 1)))
        want = np.array(
            [
                [[(s[o] * x[:, i : i + 3, j : j + 3]).sum() for j in range(0, 6, 2)]
                 for i in range(0, 7, 2)]
                for o in range(3)
            ]
        )
        assert np.array_equal(out, want)


def unblocked_conv(codes, bits, shape, pad):
    """One float32 GEMM of all the expanded signs against the columns, stride 1."""
    oc, ic, kh, kw = shape
    signs = np.unpackbits(bits, axis=1, count=ic * kh * kw) * np.float32(2) - 1
    x = np.pad(codes.astype(np.float32), ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    cols = win.transpose(0, 3, 4, 1, 2).reshape(ic * kh * kw, -1)
    return (signs @ cols).astype(np.float64).reshape(oc, *win.shape[1:3])


def toy_checkpoint(rng, oc: int, k: int, kh: int, classes: int = 2) -> CheckpointManifest:
    """A toy checkpoint: embed k, one oc-filter kh x kh conv and BnAct, a 1x1 head.

    A fifth of each conv's weights are +0.0 and a fifth -0.0, whose signs are +1.
    """
    g = GraphDef(
        nodes=(
            PixelEmbed("embed", k, "image", "embed.out"),
            Conv("c1", ConvSpec(3 * k, oc, kh, kh, (1, 1), (kh // 2, kh // 2)), "alpha",
                 "embed.out", "c1.out"),
            BnAct("b1", oc, "c1.out", "b1.out"),
            Conv("f", ConvSpec(oc, classes, 1, 1), "alpha_out", "b1.out", "f.out"),
            AvgPoolScale("pool", "f.out", "logits"),
        )
    )

    class Toy(CheckpointManifest):
        def graph(self):
            return g

    convs = {}
    for node in g.convs:
        s = node.spec
        w = rng.standard_normal((s.out_ch, s.in_ch, s.kh, s.kw)).astype(np.float32)
        w.reshape(-1)[::5] = 0.0
        w.reshape(-1)[1::5] = -0.0
        convs[node.name] = w
    bn = BnParams(np.ones(oc), np.zeros(oc), np.zeros(oc), np.ones(oc))
    return Toy(arch=None, convs=convs, bnacts={"b1": bn})


class TestBlockedReductions:
    """The oracle's blocked reductions equal the whole-layer expressions they replace."""

    # the stem's fan-in 30 * 9 = 270: 1,000 filters make three blocks, and
    # each filter ends 2 bits into its last byte; 4,608 = 512 * 9, a stage-4 conv
    @pytest.mark.parametrize("oc,ic", [(1000, 30), (100, 512)])
    def test_conv_im2col_matches_one_gemm(self, rng, oc, ic):
        shape = (oc, ic, 3, 3)
        blocks = list(row_blocks(oc, 4 * ic * 9))
        assert len(blocks) > 1
        assert (ic * 9 % 8 != 0) == (ic == 30)
        codes = rng.integers(0, 4, size=(ic, 5, 6), dtype=np.uint8)
        bits = packed_rows(rng.random(shape) < 0.5)
        got = _conv_im2col(codes, bits, shape, (1, 1), (1, 1))
        assert got.tobytes() == unblocked_conv(codes, bits, shape, 1).tobytes()

    def test_conv_im2col_builds_columns_in_row_blocks(self, rng):
        # 32 channels, 3 x 3, at 64 x 64: the columns of every output row
        # together are 288 x 4,096 float32, 4.7 MB, and take ten row blocks
        shape = (8, 32, 3, 3)
        codes = rng.integers(0, 4, size=(32, 64, 64), dtype=np.uint8)
        bits = packed_rows(rng.random(shape) < 0.5)
        want = unblocked_conv(codes, bits, shape, 1)
        tracemalloc.start()
        try:
            got = _conv_im2col(codes, bits, shape, (1, 1), (1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        # the padded input, the float64 result, one block of columns, signs and product
        assert peak < 4 * 32 * 66 * 66 + want.nbytes + 3 * BLOCK_BYTES

    # n filters of one weight: each is 1 bit and 7 pad bits, and
    # 2 * BLOCK_BYTES + 13 filters take nine row blocks
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 2 * BLOCK_BYTES + 13])
    def test_signs_match_packbits(self, rng, n):
        m = toy_checkpoint(rng, oc=1, k=1, kh=1, classes=n)
        head = m.convs["f"]
        om = oracle_from_manifest(m)
        assert om.signs["f"].shape == (n, 1)
        assert om.signs["f"].tobytes() == packed_rows(head >= 0).tobytes()
        assert om.alpha_out == (rounded_mean_abs(head) or 1.0)  # n = 1: one zero weight

    # fan-ins 27 and 147 end mid-byte, 216 on a byte; each conv takes
    # two to four row blocks
    @pytest.mark.parametrize("oc,k,kh", [(5000, 1, 3), (3000, 1, 7), (2000, 8, 3)])
    def test_signs_match_packbits_per_filter(self, rng, oc, k, kh):
        m = toy_checkpoint(rng, oc, k, kh)
        w = m.convs["c1"]
        fan = w[0].size
        assert len(list(row_blocks(oc, 4 * fan))) > 1
        om = oracle_from_manifest(m)
        want = np.packbits(w.reshape(oc, fan) >= 0, axis=1)
        assert om.signs["c1"].shape == (oc, -(-fan // 8))
        assert om.signs["c1"].tobytes() == want.tobytes()
        assert om.signs["f"].tobytes() == packed_rows(m.convs["f"] >= 0).tobytes()

    def test_alpha_out_and_scales_match_whole_layer(self, erns18_manifest):
        om = oracle_from_manifest(erns18_manifest)
        g = erns18_manifest.graph()
        head = erns18_manifest.convs["head.conv"]
        assert om.alpha_out == rounded_mean_abs(head)
        alpha_convs = [n for n in g.convs if g.edges[n.dst].scale == "alpha"]
        assert len(alpha_convs) > 10
        for node in alpha_convs:
            w = erns18_manifest.convs[node.name]
            want = np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)
            assert om.edge_scale[node.dst].tobytes() == want.tobytes(), node.name
