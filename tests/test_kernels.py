import tracemalloc

import numpy as np
import pytest

from ern.errors import DomainError, ShapeError
from ern.kernels import (
    ConvSpec,
    _tiles,
    avgpool_and_scale,
    conv_w1a2_naive,
    conv_w1a2_popcount,
    residual_add,
)
from ern.tensor import BLOCK_BYTES, LANES, acc_dtype, pack_activations, pack_weights
from ern.tensor import padded_channels


def run_both(codes, signs, spec):
    naive = conv_w1a2_naive(codes, signs, spec)
    packed_x = pack_activations(codes)
    packed_w = pack_weights(signs, np.ones(spec.out_ch))
    pop = conv_w1a2_popcount(packed_x, packed_w, spec)
    return naive, pop


class TestConvSpec:
    def test_out_spatial_same_padding(self):
        spec = ConvSpec(3, 8, 3, 3, (2, 2), (1, 1))
        assert spec.out_spatial(64, 64) == (32, 32)
        assert spec.fan_in == 27
        assert spec.acc_bound == 81

    def test_rejects_empty_output(self):
        spec = ConvSpec(3, 8, 7, 7, (1, 1), (0, 0))
        with pytest.raises(ShapeError):
            spec.out_spatial(4, 4)


class TestHandExample:
    def test_single_tap_dot(self):
        # channels carry codes 3, 2, 1 against signs +, -, +: 3 - 2 + 1 = 2
        codes = np.array([3, 2, 1], dtype=np.uint8).reshape(3, 1, 1)
        signs = np.array([1, -1, 1], dtype=np.int8).reshape(1, 3, 1, 1)
        spec = ConvSpec(3, 1, 1, 1)
        naive, pop = run_both(codes, signs, spec)
        assert naive.tolist() == [[[2]]]
        assert pop.tolist() == [[[2]]]

    def test_zero_codes_give_zero(self):
        codes = np.zeros((70, 4, 4), dtype=np.uint8)
        signs = np.ones((8, 70, 3, 3), dtype=np.int8)
        naive, pop = run_both(codes, signs, ConvSpec(70, 8, 3, 3, (1, 1), (1, 1)))
        assert not naive.any()
        assert not pop.any()


class TestEquivalence:
    @pytest.mark.parametrize("ic", [3, 30, 64, 70, 128])
    @pytest.mark.parametrize("ksz,stride", [(1, 1), (3, 1), (3, 2), (7, 2)])
    def test_popcount_equals_naive(self, rng, ic, ksz, stride):
        spec = ConvSpec(ic, 16, ksz, ksz, (stride, stride), (ksz // 2, ksz // 2))
        codes = rng.integers(0, 4, size=(ic, 9, 11), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(16, ic, ksz, ksz)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert naive.dtype == pop.dtype == acc_dtype(spec.acc_bound) == np.int16
        assert np.array_equal(naive, pop)

    def test_accumulator_within_bound(self, rng):
        spec = ConvSpec(30, 4, 3, 3, (1, 1), (1, 1))
        codes = rng.integers(0, 4, size=(30, 8, 8), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(4, 30, 3, 3)).astype(np.int8)
        naive, _ = run_both(codes, signs, spec)
        assert np.abs(naive).max() <= spec.acc_bound

    def test_extreme_codes_hit_bound(self):
        # all-3 codes against all-positive signs reach exactly 3 * fan_in
        spec = ConvSpec(64, 2, 1, 1)
        codes = np.full((64, 2, 2), 3, dtype=np.uint8)
        signs = np.ones((2, 64, 1, 1), dtype=np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert (naive == spec.acc_bound).all()
        assert np.array_equal(naive, pop)

    def test_channel_mismatch_rejected(self, rng):
        spec = ConvSpec(8, 2, 1, 1)
        codes = rng.integers(0, 4, size=(9, 2, 2), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(2, 8, 1, 1)).astype(np.int8)
        with pytest.raises(ShapeError):
            conv_w1a2_naive(codes, signs, spec)
        with pytest.raises(ShapeError):
            conv_w1a2_popcount(pack_activations(codes), pack_weights(signs, np.ones(2)), spec)

    @pytest.mark.parametrize("bad", [2, 0])
    def test_naive_rejects_signs_other_than_plus_minus_one(self, bad):
        # as pack_weights refuses them for the popcount path: a sign of 2
        # would pass the bound 3 * fan_in, which nothing else checks
        spec = ConvSpec(8, 2, 1, 1)
        codes = np.full((8, 2, 2), 3, dtype=np.uint8)
        signs = np.ones((2, 8, 1, 1), dtype=np.int8)
        signs[1, 5] = bad
        with pytest.raises(DomainError, match="exactly"):
            conv_w1a2_naive(codes, signs, spec)
        with pytest.raises(DomainError, match="exactly"):
            pack_weights(signs, np.ones(2))


def tiles(spec, h, w):
    """Output rows per tile and output channels per block of the popcount kernel."""
    return _tiles(spec, *spec.out_spatial(h, w))


def window_bytes(spec, w):
    """Bytes of one output row of every tap's window of both planes."""
    ow = spec.out_spatial(spec.kh, w)[1]
    return spec.kh * spec.kw * 2 * padded_channels(spec.in_ch) // LANES * ow * 8


class TestBlockedKernel:
    """Shapes that split the popcount kernel's row tiles and output-channel blocks."""

    def test_ragged_last_block(self, rng):
        spec = ConvSpec(70, 61, 3, 3, (1, 1), (1, 1))
        block = tiles(spec, 48, 48)[1]
        assert 1 < block < spec.out_ch and spec.out_ch % block
        codes = rng.integers(0, 4, size=(70, 48, 48), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(61, 70, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    def test_ragged_last_row_tile(self, rng):
        spec = ConvSpec(128, 8, 3, 3, (1, 1), (1, 1))
        rows = tiles(spec, 61, 90)[0]
        assert 1 < rows < 61 and 61 % rows
        codes = rng.integers(0, 4, size=(128, 61, 90), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(8, 128, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    def test_row_wider_than_budget(self, rng):
        # one output row of windows passes the windows' budget,
        # BLOCK_BYTES, twice over, so each tile is one row
        spec = ConvSpec(1280, 4, 3, 3, (1, 1), (1, 1))
        assert window_bytes(spec, 400) > 2 * BLOCK_BYTES
        assert tiles(spec, 3, 400)[0] == 1
        codes = rng.integers(0, 4, size=(1280, 3, 400), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(4, 1280, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    def test_taps_outside_a_whole_tile(self, rng):
        # one-row tiles at stride 2, pad 1: output row 0 reads input row -1 in
        # its top taps, and row 2 reads row 5 of 5 in its bottom taps, so those
        # taps see nothing inside the first and the last tile; the odd width
        # leaves the right taps' last column outside too
        spec = ConvSpec(640, 4, 3, 3, (2, 2), (1, 1))
        assert spec.out_spatial(5, 801) == (3, 401)
        assert tiles(spec, 5, 801)[0] == 1
        codes = rng.integers(0, 4, size=(640, 5, 801), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(4, 640, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_pixel_input(self, rng, stride):
        # every tap but the centre reads padding
        spec = ConvSpec(70, 5, 3, 3, (stride, stride), (1, 1))
        assert spec.out_spatial(1, 1) == (1, 1)
        codes = rng.integers(0, 4, size=(70, 1, 1), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(5, 70, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)
        centre = signs[:, :, 1, 1].astype(np.int64) @ codes[:, 0, 0]
        assert pop[:, 0, 0].tolist() == centre.tolist()

    @pytest.mark.parametrize("size", [4, 40])
    def test_and_rows_by_channel_or_by_pixel(self, rng, size):
        # at 4x4 a block's channels outnumber both planes' 16 pixels, so each
        # AND's rows run along channels; at 40x40 they run along pixels
        spec = ConvSpec(130, 300, 3, 3, (1, 1), (1, 1))
        rows, block = tiles(spec, size, size)
        assert (block > 2 * rows * size) == (size == 4)
        codes = rng.integers(0, 4, size=(130, size, size), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(300, 130, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    def test_stock_stem(self, rng):
        spec = ConvSpec(30, 64, 3, 3, (2, 2), (1, 1))
        assert tiles(spec, 64, 64)[1] < spec.out_ch
        codes = rng.integers(0, 4, size=(30, 64, 64), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(64, 30, 3, 3)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert pop.shape == (64, 32, 32)
        assert np.array_equal(naive, pop)

    def test_head(self, rng):
        spec = ConvSpec(2048, 1000, 1, 1)
        assert tiles(spec, 7, 7)[1] < spec.out_ch
        codes = rng.integers(0, 4, size=(2048, 7, 7), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(1000, 2048, 1, 1)).astype(np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert np.array_equal(naive, pop)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "spec,size",
        [
            (ConvSpec(2048, 1000, 1, 1), 7),
            (ConvSpec(30, 64, 3, 3, (2, 2)), 65),
            # 3x3 taps over 37 words total at most 63936, inside uint16; over
            # 38 words they reach 65664, past it, so the uint16 counters and
            # 2 * hits wrap, and only the int16 result is in range
            (ConvSpec(2368, 2, 3, 3), 3),
            (ConvSpec(2432, 2, 3, 3), 3),
        ],
    )
    def test_extreme_codes_hit_bound(self, spec, size, sign):
        codes = np.full((spec.in_ch, size, size), 3, dtype=np.uint8)
        signs = np.full((spec.out_ch, spec.in_ch, spec.kh, spec.kw), sign, dtype=np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert (pop == sign * spec.acc_bound).all()
        assert np.array_equal(naive, pop)

    def test_wide_counter_for_large_kernels(self, rng):
        # 33 * 33 taps of 64 set lanes reach 69696 in one counter, past uint16
        spec = ConvSpec(64, 3, 33, 33)
        codes = np.full((64, 34, 34), 3, dtype=np.uint8)
        signs = np.ones((3, 64, 33, 33), dtype=np.int8)
        signs[2] = rng.choice([-1, 1], size=(64, 33, 33))
        naive, pop = run_both(codes, signs, spec)
        assert (pop[:2] == spec.acc_bound).all()
        assert np.array_equal(naive, pop)


class TestBufferScope:
    """The popcount kernel shrinks numpy's ufunc buffer only inside its own scope."""

    def case(self, rng):
        spec = ConvSpec(130, 40, 3, 3, (1, 1), (1, 1))
        codes = rng.integers(0, 4, size=(130, 14, 14), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(40, 130, 3, 3)).astype(np.int8)
        return spec, codes, signs

    @pytest.mark.parametrize("bufsize", [16, 8192, 2**20])
    def test_same_accumulators_under_any_buffer_size(self, rng, bufsize):
        spec, codes, signs = self.case(rng)
        x, w = pack_activations(codes), pack_weights(signs, np.ones(spec.out_ch))
        with np.errstate():
            np.setbufsize(bufsize)
            got = conv_w1a2_popcount(x, w, spec)
            assert np.getbufsize() == bufsize
        assert np.array_equal(got, conv_w1a2_naive(codes, signs, spec))

    def test_buffer_size_restored_after_an_error(self, rng, monkeypatch):
        spec, codes, signs = self.case(rng)
        x, w = pack_activations(codes), pack_weights(signs, np.ones(spec.out_ch))
        before = np.getbufsize()
        conv_w1a2_popcount(x, w, spec)
        assert np.getbufsize() == before
        with pytest.raises(ShapeError):  # refused before the tap loop
            conv_w1a2_popcount(x[:, :1], w, spec)
        assert np.getbufsize() == before

        def fail(*args, **kwargs):
            raise ShapeError("raised inside the tap loop")

        monkeypatch.setattr(np, "bitwise_and", fail)
        with pytest.raises(ShapeError, match="tap loop"):
            conv_w1a2_popcount(x, w, spec)
        monkeypatch.undo()
        assert np.getbufsize() == before


class TestAccumulatorWidth:
    """Each conv writes its edge's width, ``acc_dtype(acc_bound)``, and no wider map."""

    def test_popcount_returns_edge_width_without_wide_map(self, rng):
        spec = ConvSpec(64, 1024, 1, 1)
        codes = rng.integers(0, 4, size=(64, 32, 32), dtype=np.uint8)
        signs = rng.choice([-1, 1], size=(1024, 64, 1, 1)).astype(np.int8)
        x, w = pack_activations(codes), pack_weights(signs, np.ones(1024))
        tracemalloc.start()
        try:
            pop = conv_w1a2_popcount(x, w, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pop.dtype == np.int16
        assert peak < pop.size * np.dtype(np.int32).itemsize
        assert np.array_equal(pop, conv_w1a2_naive(codes, signs, spec))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int16_epilogue_past_2_to_15(self, sign):
        # 5504 channels of code 3: bound 16512, yet 2 * hits = 33024 passes
        # 2**15, so the epilogue is exact only modulo 2**16
        spec = ConvSpec(5504, 2, 1, 1)
        assert spec.acc_bound == 16512
        codes = np.full((5504, 2, 3), 3, dtype=np.uint8)
        signs = np.full((2, 5504, 1, 1), sign, dtype=np.int8)
        naive, pop = run_both(codes, signs, spec)
        assert naive.dtype == pop.dtype == np.int16
        assert (pop == sign * 16512).all()
        assert np.array_equal(naive, pop)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("ic,dtype", [(10922, np.int16), (10923, np.int32)])
    def test_width_boundary(self, rng, ic, dtype, sign):
        # bound 32766 is int16's limit (its maximum - 1); 32769 needs int32
        spec = ConvSpec(ic, 3, 1, 1)
        assert acc_dtype(spec.acc_bound) == dtype
        codes = np.full((ic, 2, 2), 3, dtype=np.uint8)
        signs = np.full((3, ic, 1, 1), sign, dtype=np.int8)
        signs[2] = rng.choice([-1, 1], size=(ic, 1, 1))
        naive, pop = run_both(codes, signs, spec)
        assert naive.dtype == pop.dtype == dtype
        assert (pop[:2] == sign * spec.acc_bound).all()
        assert np.array_equal(naive, pop)

    def test_int16_output_from_wide_counters(self):
        # one channel over 19 x 19 taps: the pixel totals need uint32 while
        # the bound, 1083, is int16
        spec = ConvSpec(1, 2, 19, 19)
        codes = np.full((1, 20, 20), 3, dtype=np.uint8)
        signs = np.ones((2, 1, 19, 19), dtype=np.int8)
        signs[1] = -1
        naive, pop = run_both(codes, signs, spec)
        assert pop.dtype == np.int16
        assert pop[:, 0, 0].tolist() == [1083, -1083]
        assert np.array_equal(naive, pop)


class TestResidualAdd:
    def test_adds_exactly(self, rng):
        a = rng.integers(-100, 100, size=(4, 3, 3)).astype(np.int32)
        b = rng.integers(-100, 100, size=(4, 3, 3)).astype(np.int32)
        out = residual_add(a, b, np.int32)
        assert out.dtype == np.int32
        assert np.array_equal(out, a.astype(np.int64) + b)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_add(np.zeros((2, 2, 2), np.int32), np.zeros((2, 2, 3), np.int32), np.int32)

    def test_rejects_float_input(self):
        with pytest.raises(ShapeError):
            residual_add(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.int32)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_accepts_sum_just_below_limit(self, sign):
        a = np.full((1, 2, 2), sign * 2**30, dtype=np.int32)
        b = np.full((1, 2, 2), sign * (2**30 - 2), dtype=np.int32)
        b[0, 0, 0] = -sign * 2**30  # the other extreme in the same map
        out = residual_add(a, b, np.int32)
        assert out.dtype == np.int32
        assert np.array_equal(out, a.astype(np.int64) + b)
        assert int(out[0, 1, 1]) == sign * (2**31 - 2)

    def test_rejects_wider_dtypes(self):
        with pytest.raises(ShapeError):
            residual_add(np.zeros((2, 2, 2), np.int64), np.zeros((2, 2, 2), np.int64), np.int32)
        with pytest.raises(ShapeError):
            residual_add(np.zeros((2, 2, 2), np.int64), np.zeros((2, 2, 2), np.int64), np.int64)
        with pytest.raises(ShapeError):  # an input wider than the output
            residual_add(np.zeros((2, 2, 2), np.int32), np.zeros((2, 2, 2), np.int16), np.int16)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int16_inputs_to_int32_at_their_bounds(self, sign):
        # two int16 edges of bound 32766 sum into an int32 edge of bound 65532
        a = np.full((2, 2, 3), sign * 32766, dtype=np.int16)
        b = np.full((2, 2, 3), sign * 32766, dtype=np.int16)
        b[1] = -sign * 32766
        out = residual_add(a, b, np.int32)
        assert out.dtype == np.int32
        assert np.array_equal(out, a.astype(np.int64) + b)
        assert int(out[0, 0, 0]) == sign * 65532

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int16_sum_at_its_limit(self, sign):
        a = np.full((1, 2, 2), sign * 16383, dtype=np.int16)
        b = np.full((1, 2, 2), sign * 16383, dtype=np.int16)
        out = residual_add(a, b, np.int16)
        assert out.dtype == np.int16 and (out == sign * 32766).all()

    @pytest.mark.parametrize("near_limit", [False, True])
    def test_no_wide_temporaries(self, rng, near_limit):
        a = rng.integers(-1000, 1000, size=(64, 56, 56)).astype(np.int32)
        b = rng.integers(-1000, 1000, size=(64, 56, 56)).astype(np.int32)
        if near_limit:  # a sum at the int32 limit, 2**31 - 2
            a[0, 0, 0], b[0, 0, 0] = 2**30, 2**30 - 2
        tracemalloc.start()
        try:
            out = residual_add(a, b, np.int32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, a.astype(np.int64) + b)
        assert peak <= 3 * a.nbytes


class TestAvgPool:
    def test_integer_sum_then_scale(self):
        acc = np.array([[[1, 2], [3, 4]], [[-8, 0], [0, 0]]], dtype=np.int32)
        out = avgpool_and_scale(acc, 0.5)
        assert out.tolist() == [0.5 * 10 / 4, 0.5 * -8 / 4]

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            avgpool_and_scale(np.zeros((2, 0, 2), dtype=np.int32), 1.0)
