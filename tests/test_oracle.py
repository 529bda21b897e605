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

from conftest import execute_keeping_all, random_image


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
        assert rep.max_logit_rel_err == 0.0
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
        # max() drops a NaN, so a NaN error must not be folded in as one
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
        assert rep.max_logit_rel_err == np.inf


class TestFullModel:
    def test_erns18_cross_check(self, erns18_manifest, erns18_model, rng):
        om = oracle_from_manifest(erns18_manifest)
        imgs = [random_image(rng) for _ in range(2)]
        rep = cross_check(erns18_model, om, imgs)
        assert rep.ok
        assert rep.images == 2
        assert rep.residual_scaling_exact
        assert rep.max_logit_rel_err <= 1e-6
        assert sum(r.boundary for r in rep.layers.values()) == 0
        assert "PASS" in rep.summary()
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True
        assert doc["images"] == 2

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
        # each image's compared edges are dropped as the oracle reaches them,
        # so checking 8 images peaks where checking 1 does
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


class TestFloat32Gemm:
    def test_signs_held_as_bits(self):
        # one bit per weight, ceil(n / 8) bytes per conv, bit 1 for w >= 0
        m = pencil_manifest()
        om = oracle_from_manifest(m)
        for name, w in m.convs.items():
            bits = om.signs[name]
            assert bits.dtype == np.uint8
            assert bits.shape == (-(-w.size // 8),)
            assert np.array_equal(np.unpackbits(bits, count=w.size), (w >= 0).ravel())

    def test_exact_at_largest_accumulator(self):
        # 3 * fan_in just below 2**24: every partial sum is still exact in float32
        ic = (2**24 - 1) // 3 // 9
        codes = np.full((ic, 3, 3), 3, dtype=np.uint8)
        signs = np.packbits(np.ones(ic * 9, dtype=bool))
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
                np.packbits(np.ones(ic, dtype=bool)),
                (1, ic, 1, 1),
                (1, 1),
                (0, 0),
            )

    def test_matches_signed_product(self, rng):
        # strided, padded, odd channel count: equals the direct sum of s * x
        codes = rng.integers(0, 4, size=(5, 7, 6), dtype=np.uint8)
        s = rng.choice([-1, 1], size=(3, 5, 3, 3))
        out = _conv_im2col(codes, np.packbits(s > 0), s.shape, (2, 2), (1, 1))
        x = np.pad(codes.astype(np.int64), ((0, 0), (1, 1), (1, 1)))
        want = np.array(
            [
                [[(s[o] * x[:, i : i + 3, j : j + 3]).sum() for j in range(0, 6, 2)]
                 for i in range(0, 7, 2)]
                for o in range(3)
            ]
        )
        assert np.array_equal(out, want)
