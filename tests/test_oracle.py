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
from ern.errors import ConfigError, ShapeError, VerificationError
from ern.oracle import (
    _conv_im2col,
    cross_check,
    oracle_execute,
    oracle_from_manifest,
    oracle_steps,
)
from ern.quant import BnParams
from ern.tensor import BLOCK_BYTES, LANES, PackedWeights, pack_weights, padded_channels
from ern.tensor import row_blocks, unpack_signs

from conftest import execute_keeping_all, random_image, replace_table, rounded_mean_abs
from conftest import tie_checkpoint


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
        values = {node.dst: out for node, out in oracle_steps(om, toy_image())}
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
    def test_threshold_moved_off_a_tie_names_layer(self):
        m = tie_manifest()
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        tbl = model.thresholds["b1"]
        assert np.array_equal(tbl.t[1], [1, 1, 2])
        # shift channel 1 to exclude equality: the codes now differ exactly
        # where the float value sits on a code boundary, and no such
        # position is excused
        t2 = tbl.t.copy()
        t2[1] = [1, 2, 3]
        tampered = dataclasses.replace(
            model, thresholds={"b1": replace_table(tbl, t=t2)}
        )
        rep = cross_check(tampered, om, [toy_image()])
        assert rep.layers["b1"].mismatches == 2
        assert rep.layers["b1"].boundary == 0
        assert not rep.ok
        assert rep.first_divergence == "b1"
        assert "b1: 2 mismatches" in rep.summary()

    def test_hard_divergence_names_layer(self, rng):
        m = gen_random_checkpoint("erns18x075", seed=3, shared_const=0.5)
        model = compile_checkpoint(m)
        om = oracle_from_manifest(m)
        tbl = model.thresholds["s2.b1.bn1"]
        tampered = dataclasses.replace(
            model,
            thresholds={
                **model.thresholds,
                "s2.b1.bn1": replace_table(tbl, t=tbl.t + 25),
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
            thresholds={**model.thresholds, name: replace_table(tbl, t=tbl.t + 25)},
        )
        imgs = [random_image(rng, 32) for _ in range(2)]
        rep = cross_check(tampered, erns50_oracle, imgs)

        want = dict.fromkeys(rep.layers, 0)
        first = None
        for img in imgs:
            _, got = execute_keeping_all(tampered, img)
            ref = {node.dst: out for node, out in oracle_steps(erns50_oracle, img)}
            for node in tampered.graph.nodes:
                if node.name in want:
                    want[node.name] += int(np.count_nonzero(got[node.dst] != ref[node.dst]))
                    if want[node.name] and first is None:
                        first = node.name
        assert {n: r.mismatches for n, r in rep.layers.items()} == want
        assert all(r.boundary == 0 for r in rep.layers.values())
        assert not rep.ok
        assert rep.first_divergence == first == name
        assert rep.layers[name].mismatches > 0

    def test_thresholds_on_ties_follow_the_oracle(self):
        # folded in real arithmetic, s1.b1.bn0's tables disagreed with the
        # oracle at 2,837 tied positions, and s1.b1.bn1 and the logits followed
        m = tie_checkpoint()
        model = compile_checkpoint(m)
        imgs = np.random.default_rng(0).integers(0, 256, (4, 3, 64, 64), dtype=np.uint8)
        rep = cross_check(model, oracle_from_manifest(m), imgs)
        assert rep.ok, rep.summary()
        assert rep.logits_equal
        assert rep.first_divergence is None

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
        *_, (node, logits) = list(oracle_steps(om, img))
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


def packed_words(positive: np.ndarray) -> np.ndarray:
    """The engine's words (``pack_weights``) of an (OC, IC, kh, kw) sign mask, True for +1."""
    return pack_weights(np.where(positive, 1, -1), np.ones(len(positive))).bits


def all_words(oc: int, ic: int, kh: int, kw: int, value: int) -> np.ndarray:
    """Words of one value in every lane: 2**64 - 1 for all +1, 0 for all -1."""
    return np.full((oc, padded_channels(ic) // LANES, kh, kw), value, dtype=np.uint64)


class TestFloat32Gemm:
    def test_signs_held_as_bits(self):
        # .ern words: (OC, IC_pad/64, kh, kw) uint64, bit j of word i the sign of
        # channel 64 i + j, 1 for w >= 0, pad lanes 1; unpacked here by numpy alone
        m = pencil_manifest()
        om = oracle_from_manifest(m)
        for name, w in m.convs.items():
            words = om.words[name]
            oc, ic, kh, kw = w.shape
            ic_pad = padded_channels(ic)
            assert words.dtype == np.uint64
            assert words.shape == (oc, ic_pad // LANES, kh, kw)
            octets = words.astype("<u8").transpose(0, 2, 3, 1).copy().view(np.uint8)
            lanes = np.unpackbits(octets, axis=-1, bitorder="little")  # (oc, kh, kw, ic_pad)
            assert np.array_equal(lanes[..., :ic], (w >= 0).transpose(0, 2, 3, 1))
            assert lanes[..., ic:].all()

    def test_exact_at_largest_accumulator(self):
        # 3 * fan_in just below 2**24: every partial sum is still exact in float32
        ic = (2**24 - 1) // 3 // 9
        codes = np.full((ic, 3, 3), 3, dtype=np.uint8)
        out = _conv_im2col(codes, all_words(1, ic, 3, 3, 2**64 - 1), (1, ic, 3, 3), (1, 1),
                           (0, 0))
        assert out.dtype == np.float64
        assert out.ravel().tolist() == [3 * ic * 9]
        # all -1, the other end of the bound
        out = _conv_im2col(codes, all_words(1, ic, 3, 3, 0), (1, ic, 3, 3), (1, 1), (0, 0))
        assert out.ravel().tolist() == [-3 * ic * 9]

    def test_rejects_fan_in_past_float32_exactness(self):
        ic = -(-(2**24) // 3)
        with pytest.raises(ShapeError):
            _conv_im2col(
                np.zeros((ic, 1, 1), np.uint8),
                all_words(1, ic, 1, 1, 2**64 - 1),
                (1, ic, 1, 1),
                (1, 1),
                (0, 0),
            )

    def test_rejects_words_of_another_shape(self):
        codes = np.zeros((70, 3, 3), np.uint8)
        with pytest.raises(ShapeError, match="words shaped"):  # 70 channels need 2 words
            _conv_im2col(codes, all_words(2, 64, 3, 3, 0), (2, 70, 3, 3), (1, 1), (0, 0))

    def test_matches_signed_product(self, rng):
        # strided, padded, odd channel count: equals the direct sum of s * x
        codes = rng.integers(0, 4, size=(5, 7, 6), dtype=np.uint8)
        s = rng.choice([-1, 1], size=(3, 5, 3, 3))
        out = _conv_im2col(codes, packed_words(s > 0), s.shape, (2, 2), (1, 1))
        x = np.pad(codes.astype(np.int64), ((0, 0), (1, 1), (1, 1)))
        want = np.array(
            [
                [[(s[o] * x[:, i : i + 3, j : j + 3]).sum() for j in range(0, 6, 2)]
                 for i in range(0, 7, 2)]
                for o in range(3)
            ]
        )
        assert np.array_equal(out, want)


def unblocked_conv(codes, words, shape, pad):
    """One float32 GEMM of all the signs, unpacked by the engine, against (IC, kh, kw) columns.

    Stride 1.
    """
    oc, ic, kh, kw = shape
    signs = unpack_signs(words, ic).reshape(oc, -1).astype(np.float32)
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
        words = packed_words(rng.random(shape) < 0.5)
        got = _conv_im2col(codes, words, shape, (1, 1), (1, 1))
        assert got.tobytes() == unblocked_conv(codes, words, shape, 1).tobytes()

    def test_conv_im2col_tiles_and_blocks(self, rng):
        # 300 filters of fan-in 576 take two blocks, and 16 output rows of 64
        # columns each take several tiles: every block meets every tile
        shape, (h, w) = (300, 64, 3, 3), (16, 64)
        assert len(list(row_blocks(300, 4 * 576))) > 1
        assert len(list(row_blocks(h, 4 * 576 * w))) > 1
        codes = rng.integers(0, 4, size=(64, h, w), dtype=np.uint8)
        words = packed_words(rng.random(shape) < 0.5)
        got = _conv_im2col(codes, words, shape, (1, 1), (1, 1))
        assert got.tobytes() == unblocked_conv(codes, words, shape, 1).tobytes()

    def test_conv_im2col_builds_columns_in_row_blocks(self, rng):
        # 32 channels padded to one 64-lane word, 3 x 3, at 64 x 64: the columns
        # of every output row together are 576 x 4,096 float32, 9.4 MB, and take
        # nineteen row blocks
        shape = (8, 32, 3, 3)
        codes = rng.integers(0, 4, size=(32, 64, 64), dtype=np.uint8)
        words = packed_words(rng.random(shape) < 0.5)
        want = unblocked_conv(codes, words, shape, 1)
        tracemalloc.start()
        try:
            got = _conv_im2col(codes, words, shape, (1, 1), (1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        # the codes padded to 64 lanes, the float64 result, one block of
        # columns, signs and product
        assert peak < LANES * 66 * 66 + want.nbytes + 3 * BLOCK_BYTES

    # n filters of one weight: each is one lane and 63 pad lanes of one
    # word, and 2 * BLOCK_BYTES + 13 filters take nine row blocks
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 2 * BLOCK_BYTES + 13])
    def test_signs_match_packbits(self, rng, n):
        m = toy_checkpoint(rng, oc=1, k=1, kh=1, classes=n)
        head = m.convs["f"]
        om = oracle_from_manifest(m)
        assert om.words["f"].shape == (n, 1, 1, 1)
        assert om.words["f"].tobytes() == packed_words(head >= 0).tobytes()
        assert om.alpha_out == (rounded_mean_abs(head) or 1.0)  # n = 1: one zero weight

    # 3 or 24 input channels, one word per tap with pad lanes, at fan-ins
    # 27, 147 and 216; each conv takes two to four row blocks
    @pytest.mark.parametrize("oc,k,kh", [(5000, 1, 3), (3000, 1, 7), (2000, 8, 3)])
    def test_signs_match_packbits_per_filter(self, rng, oc, k, kh):
        m = toy_checkpoint(rng, oc, k, kh)
        w = m.convs["c1"]
        fan = w[0].size
        assert len(list(row_blocks(oc, 4 * fan))) > 1
        om = oracle_from_manifest(m)
        assert om.words["c1"].shape == (oc, padded_channels(3 * k) // LANES, kh, kh)
        assert om.words["c1"].tobytes() == packed_words(w >= 0).tobytes()
        assert om.words["f"].tobytes() == packed_words(m.convs["f"] >= 0).tobytes()

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

    def test_alpha_out_held_once(self, erns18_manifest):
        # the pool reads om.alpha_out and no BnAct reads the head, so the
        # head's edge has no per-channel copy of it to go stale
        om = oracle_from_manifest(erns18_manifest)
        g = om.graph
        assert [n.dst for n in g.convs if g.edges[n.dst].scale == "alpha_out"] == ["head.conv.out"]
        assert "head.conv.out" not in om.edge_scale
        assert set(om.edge_scale) == {n.dst for n in g.convs if g.edges[n.dst].scale == "alpha"}


@pytest.fixture(scope="module")
def small_manifest():
    return gen_random_checkpoint("erns18x075", seed=3, shared_const=0.5)


@pytest.fixture(scope="module")
def small_model(small_manifest):
    return compile_checkpoint(small_manifest)


def flipped(model, name: str, word: tuple[int, int, int, int], lane: int):
    """A copy of ``model`` whose conv ``name`` has one weight bit flipped."""
    w = model.weights[name]
    bits = w.bits.copy()
    bits[word] ^= np.uint64(1 << lane)
    return dataclasses.replace(
        model, weights={**model.weights, name: PackedWeights(bits=bits, alpha=w.alpha)}
    )


class TestWeightCertificate:
    """Built against a model, the oracle certifies every weight word and then shares it."""

    def test_certified_words_are_the_models(self, small_manifest, small_model, rng):
        om = oracle_from_manifest(small_manifest, model=small_model)
        own = oracle_from_manifest(small_manifest)
        for node in om.graph.convs:
            got, bits = om.words[node.name], small_model.weights[node.name].bits
            assert np.shares_memory(got, bits), node.name
            assert not np.shares_memory(own.words[node.name], bits), node.name
            assert np.array_equal(got, own.words[node.name]), node.name
        img = random_image(rng, 40)
        assert np.array_equal(oracle_execute(om, img).logits, oracle_execute(own, img).logits)
        assert cross_check(small_model, om, [img]).ok

    # a mid-network conv; the stem's 30-channel conv, at the last logical
    # lane of its one word; the head
    @pytest.mark.parametrize("name,word,lane", [
        ("s3.b1.conv2", (5, 1, 2, 0), 40),
        ("stem.conv1", (63, 0, 2, 2), 29),
        ("head.conv", (999, 5, 0, 0), 0),
    ])
    def test_flipped_bit_names_conv(self, small_manifest, small_model, name, word, lane):
        bad = flipped(small_model, name, word, lane)
        with pytest.raises(VerificationError, match=f"'{name}'"):
            oracle_from_manifest(small_manifest, model=bad)

    def test_flipped_pad_lane_names_conv(self, small_manifest, small_model):
        # lane 30 of the stem's word is pad: a model must store it as 1 too
        bad = flipped(small_model, "stem.conv1", (0, 0, 0, 0), 30)
        with pytest.raises(VerificationError, match="'stem.conv1'"):
            oracle_from_manifest(small_manifest, model=bad)

    def test_model_of_another_graph(self, small_manifest, erns18_model):
        with pytest.raises(ConfigError, match="graphs differ"):
            oracle_from_manifest(small_manifest, model=erns18_model)
