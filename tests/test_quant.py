import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ern.compiler import gen_random_checkpoint
from ern.errors import ConfigError, DomainError, ShapeError
from ern.quant import (
    BnParams,
    ThresholdTable,
    apply_thresholds,
    _SUM_CHUNK,
    binarize_weights,
    act_codes,
    exact_abs_sum,
    fuse_thresholds,
    quantize_act_float,
)
from ern.tensor import (
    ACC_LIMIT,
    BLOCK_BYTES,
    LANES,
    acc_limit,
    even_parts,
    pack_activations,
    padded_channels,
    row_blocks,
    unpack_activations,
)


def bn1(gamma=1.0, beta=0.0, mean=0.0, var=0.75, eps=0.25, s_a=1.0):
    # var + eps == 1.0 exactly, so the folded slope is gamma * alpha
    return BnParams(
        np.array([gamma]), np.array([beta]), np.array([mean]), np.array([var]), eps, s_a
    )


class TestBinarize:
    def test_sign_of_zero_is_positive(self):
        w = np.array([[[[0.0, -0.0]], [[1.5, -2.0]]]])
        signs, alpha = binarize_weights(w)
        assert signs.tolist() == [[[[1, 1]], [[1, -1]]]]
        assert alpha == pytest.approx([3.5 / 4])

    def test_signs_are_int8(self, rng):
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        w[0, 0, 0, 0] = -0.0
        signs, _ = binarize_weights(w)
        assert signs.dtype == np.int8
        assert np.array_equal(signs, np.where(w >= 0, 1, -1))

    def test_alpha_is_per_channel_mean_abs(self, rng):
        w = rng.normal(size=(6, 4, 3, 3))
        _, alpha = binarize_weights(w)
        assert np.allclose(alpha, np.abs(w).mean(axis=(1, 2, 3)))

    def test_all_zero_filter_yields_zero_alpha(self):
        w = np.zeros((2, 3, 1, 1))
        w[1] = 1.0
        _, alpha = binarize_weights(w)
        assert alpha.tolist() == [0.0, 1.0]

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            binarize_weights(np.full((1, 1, 1, 1), np.nan))


class TestBlockedBinarize:
    """The row-blocked reductions equal the whole-layer expressions they replace, bit for bit."""

    # fan-ins about np.getbufsize() (8192) and past it; 71 filters end in a
    # ragged block, and every seventh is all zero
    @pytest.mark.parametrize("shape", [(8191, 1, 1), (8192, 1, 1), (8193, 1, 1), (2048, 3, 3)])
    def test_matches_whole_layer(self, rng, shape):
        w = (rng.standard_normal((71, *shape)) * rng.uniform(1e-3, 1e3, (71, 1, 1, 1)))
        w = w.astype(np.float32)
        w[::7] = 0.0
        w[1, 0] = -0.0
        blocks = [r.stop - r.start for r in row_blocks(71, w[0].nbytes)]
        assert len(blocks) > 1 and blocks[-1] != blocks[0]
        signs, alpha = binarize_weights(w)
        assert signs.dtype == np.int8
        assert np.array_equal(signs, 2 * (w >= 0).astype(np.int8) - 1)
        want = np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)
        assert alpha.tobytes() == want.tobytes()
        assert (alpha[::7] == 0.0).all()

    def test_nan_in_last_block(self, rng):
        w = rng.standard_normal((71, 8193, 1, 1)).astype(np.float32)
        w[-1, -1] = np.nan
        with pytest.raises(DomainError):
            binarize_weights(w)


def fraction_sum(w) -> Fraction:
    """The sum of |w| in rational arithmetic, one value at a time."""
    return sum(map(Fraction, np.abs(w).ravel().tolist()), Fraction(0))


class TestExactAbsSum:
    """``exact_abs_sum`` equals the rational sum of |w|, whatever the values and sizes."""

    F32 = np.finfo(np.float32)

    def test_extreme_values(self):
        tiny = 2.0**-149  # the smallest float32 subnormal
        values = [tiny, -tiny, 0.0, -0.0, self.F32.max, -self.F32.max, self.F32.tiny, 1.0,
                  3 * tiny, -(2.0**-127)]
        w = np.array(values, dtype=np.float32)
        assert (np.abs(w).astype(np.float64) == np.abs(values)).all()  # each held exactly
        assert exact_abs_sum(w) == fraction_sum(w)
        assert exact_abs_sum(np.array([tiny], np.float32)) == Fraction(1, 2**149)
        assert exact_abs_sum(np.array([0.0, -0.0], np.float32)) == 0

    def test_spread_where_a_float64_sum_loses_bits(self, rng):
        # magnitudes over the whole float32 exponent range, subnormals included
        n = 3 * _SUM_CHUNK
        w = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-148, 128, n)).astype(np.float32)
        w[rng.random(n) < 0.5] *= -1
        w[:3] = [2.0**100, 2.0**-100, -(2.0**-149)]
        want = fraction_sum(w)
        assert Fraction(float(np.abs(w.astype(np.float64)).sum())) != want
        assert Fraction(math.fsum(np.abs(w).tolist())) != want
        assert exact_abs_sum(w) == want
        assert exact_abs_sum(w[::-1].copy()) == want  # no summation order changes it

    # one value, a sub-chunk less one, one, one plus one, and a ragged tail
    @pytest.mark.parametrize("n", [1, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1,
                                   3 * _SUM_CHUNK + 13])
    def test_sub_chunk_tails(self, rng, n):
        w = (rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))).astype(np.float32)
        w = w.reshape(n, 1, 1, 1)
        assert exact_abs_sum(w) == fraction_sum(w)
        cut = n // 3
        assert exact_abs_sum(w[:cut]) + exact_abs_sum(w[cut:]) == fraction_sum(w)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_refuses_other_dtypes(self, dtype):
        # the checkpoint format and every reader of it hold float32
        with pytest.raises(DomainError, match=np.dtype(dtype).name):
            exact_abs_sum(np.ones(3, dtype))

    def test_mean_is_rounded_once(self):
        # erns18's head at seed 11: math.fsum rounds the sum, then the division
        # rounds again, and lands an ulp below the correctly rounded mean
        head = gen_random_checkpoint("erns18", seed=11).convs["head.conv"]
        want = fraction_sum(head) / head.size
        assert float(want) == float.fromhex("0x1.99ccac8a65011p-1")
        assert math.fsum(np.abs(head).ravel().tolist()) / head.size == float.fromhex(
            "0x1.99ccac8a65010p-1"
        )
        assert float(exact_abs_sum(head) / head.size) == float(want)


class TestFuse:
    def test_ascending_unit_case(self):
        # A = 1, B = 0, s_a = 2 -> thresholds ceil(2u) = 2, 4, 6
        tbl = fuse_thresholds(np.ones(1), bn1(s_a=2.0), acc_bound=100)
        assert tbl.t.tolist() == [[2, 4, 6]]
        assert tbl.ascending.tolist() == [True]

    def test_descending_mirror(self):
        # gamma < 0 flips direction: floor(-2u) sorted -> -6, -4, -2
        tbl = fuse_thresholds(np.ones(1), bn1(gamma=-1.0, s_a=2.0), acc_bound=100)
        assert tbl.t.tolist() == [[-6, -4, -2]]
        assert tbl.ascending.tolist() == [False]

    def test_degenerate_constant_channel(self):
        # gamma 0 and -0.0 fold as ascending: the constant code q is q
        # always-crossed sentinels -(b + 1), then 3 - q never-crossed ones, b + 1
        # (beta, its code clamp(floor(beta / 2), 0, 3))
        for gamma, (beta, code) in itertools.product((0.0, -0.0), ((7.0, 3), (2.5, 1))):
            tbl = fuse_thresholds(np.ones(1), bn1(gamma=gamma, beta=beta, s_a=2.0), acc_bound=100)
            assert tbl.ascending.tolist() == [True] and tbl.sign.ravel().tolist() == [1]
            assert tbl.t.tolist() == [[-101] * code + [101] * (3 - code)]
            acc = np.arange(-100, 101, dtype=np.int16).reshape(1, -1, 1)
            assert (unpack_activations(apply_thresholds(acc, tbl), 1) == code).all()

    @pytest.mark.parametrize("bound", [27, 32766, 40000])
    def test_constant_channel_equals_act_codes(self, bound):
        # each constant code at gamma 0 and -0.0 is an all-sentinel ascending
        # row, and its table equals the oracle's expression at every acc in
        # [-b, b], int16 at its maximum bound and int32 past it
        gamma = np.array([0.0, -0.0] * 4)
        beta = np.repeat([-1.0, 1.5, 2.5, 9.0], 2)  # codes 0, 1, 2, 3
        bn = BnParams(gamma, beta, np.full(8, 3.0), np.full(8, 0.75), 0.25, 1.0)
        alpha = np.linspace(0.1, 2.0, 8)
        tbl = fuse_thresholds(alpha, bn, acc_bound=bound)
        assert tbl.dtype == (np.int16 if bound <= 32766 else np.int32)
        assert tbl.ascending.all() and (np.abs(tbl.t) == bound + 1).all()
        acc = np.broadcast_to(np.arange(-bound, bound + 1, dtype=tbl.dtype), (8, 1, 2 * bound + 1))
        got = unpack_activations(apply_thresholds(acc, tbl), 8)
        want = act_codes(bn, alpha[:, None, None], acc)
        assert np.array_equal(got, want)
        assert [int(v) for v in want[:, 0, 0]] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_acc_bound_clamps_to_sentinels(self):
        # thresholds far outside the reachable range clamp to bound + 1
        tbl = fuse_thresholds(np.ones(1), bn1(mean=1e9), acc_bound=27)
        assert (tbl.t == 28).all() and tbl.bound == 27
        acc = np.arange(-27, 28, dtype=np.int32).reshape(1, -1, 1)
        assert (unpack_activations(apply_thresholds(acc, tbl), 1) == 0).all()

    @pytest.mark.parametrize("alpha,gamma,mean", [(1e308, 2.0, 0.0), (1.0, 1e300, 1e300)])
    def test_rejects_overflowing_fold(self, alpha, gamma, mean):
        # A = gamma * alpha, B = -gamma * mean here; |A| * bound + |B| must stay finite
        with np.errstate(all="raise"), pytest.raises(DomainError, match="not finite"):
            fuse_thresholds(np.full(1, alpha), bn1(gamma=gamma, mean=mean), acc_bound=100)

    def test_rejects_overflowing_float_composition(self):
        # at var 1e30 the fold's A is a finite 1e292, but the composition it
        # replaces, gamma * (alpha * acc - mean) / sd + beta, overflows at
        # alpha * acc, so no float reference could check the table
        with np.errstate(all="raise"), pytest.raises(DomainError, match="not finite"):
            fuse_thresholds(np.full(1, 1e307), bn1(var=1e30), acc_bound=100)
        fuse_thresholds(np.full(1, 1e305), bn1(var=1e30), acc_bound=100)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            fuse_thresholds(np.zeros(1), bn1(), acc_bound=100)

    def test_rejects_negative_var(self):
        with pytest.raises(DomainError):
            bn1(var=-1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(DomainError):
            bn1(s_a=0.0)


class TestBnParams:
    """Every field is checked once, when the parameters are built."""

    def test_stores_float64_statistics_and_float_scalars(self):
        bn = BnParams(np.ones(3, np.float32), np.zeros(3), [0, 1, 2], np.ones(3), 1, act_scale=2)
        for arr in (bn.gamma, bn.beta, bn.mean, bn.var):
            assert arr.dtype == np.float64 and arr.shape == (3,)
        assert type(bn.epsilon) is float and type(bn.act_scale) is float
        assert bn.channels == 3

    @pytest.mark.parametrize("field", ["gamma", "beta", "mean", "var"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_statistics(self, field, value):
        args = {"gamma": np.ones(2), "beta": np.zeros(2), "mean": np.zeros(2), "var": np.ones(2)}
        args[field][1] = value
        with pytest.raises(DomainError, match=field):
            BnParams(**args)

    @pytest.mark.parametrize("field", ["epsilon", "act_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_scalars(self, field, value):
        with pytest.raises(DomainError, match=field):
            BnParams(np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), **{field: value})

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            BnParams(np.ones(2), np.zeros(3), np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            BnParams(np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)), np.ones((2, 1)))


class TestApply:
    def test_ascending_count_rule(self):
        tbl = fuse_thresholds(np.ones(1), bn1(s_a=2.0), acc_bound=100)
        acc = np.array([1, 2, 5, 6, 100], dtype=np.int32).reshape(1, -1, 1)
        assert unpack_activations(apply_thresholds(acc, tbl), 1).ravel().tolist() == [0, 1, 2, 3, 3]

    def test_descending_count_rule(self):
        tbl = fuse_thresholds(np.ones(1), bn1(gamma=-1.0, s_a=2.0), acc_bound=100)
        acc = np.array([-4], dtype=np.int32).reshape(1, 1, 1)
        assert unpack_activations(apply_thresholds(acc, tbl), 1).ravel().tolist() == [2]

    def test_rejects_float_accumulator(self):
        tbl = fuse_thresholds(np.ones(1), bn1(), acc_bound=100)
        with pytest.raises(DomainError):
            apply_thresholds(np.zeros((1, 2, 2)), tbl)

    def test_rejects_channel_mismatch(self):
        bn = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), 1e-5)
        tbl = fuse_thresholds(np.ones(2), bn, acc_bound=100)
        with pytest.raises(ShapeError):
            apply_thresholds(np.zeros((3, 2, 2), dtype=np.int32), tbl)


class TestEquivalence:
    def test_matches_float_composition(self, rng):
        # 40 random channels, exhaustive accumulator sweep
        c = 40
        bound = 3 * 64
        alpha = np.abs(rng.normal(1.0, 0.5, c)) + 1e-3
        bn = BnParams(
            rng.normal(1.0, 0.8, c),
            rng.normal(0.0, 2.0, c),
            rng.normal(0.0, 20.0, c),
            np.exp(rng.normal(3.0, 1.0, c)),
            1e-5,
            rng.uniform(0.5, 2.0),
        )
        s_a = bn.act_scale
        tbl = fuse_thresholds(alpha, bn, acc_bound=bound)
        acc = np.arange(-bound, bound + 1, dtype=np.int32)
        acc_map = np.broadcast_to(acc[None, :, None], (c, acc.size, 1))
        got = unpack_activations(apply_thresholds(acc_map, tbl), c)

        sd = np.sqrt(bn.var + bn.epsilon)
        v = bn.gamma[:, None] * (alpha[:, None] * acc[None, :] - bn.mean[:, None]) / sd[
            :, None
        ] + bn.beta[:, None]
        want = np.clip(np.floor(v / s_a), 0, 3).astype(np.uint8)
        assert np.array_equal(got[:, :, 0], want)

    def test_scale_doubling_invariance(self, rng):
        # scaling (alpha, s_a, beta, mean) by 2 is exact in binary floats,
        # so the folded tables must be bitwise identical
        c = 16
        alpha = np.abs(rng.normal(1.0, 0.5, c)) + 1e-3
        gamma = rng.normal(1.0, 0.8, c)
        beta = rng.normal(0.0, 2.0, c)
        mean = rng.normal(0.0, 10.0, c)
        var = np.exp(rng.normal(2.0, 1.0, c))
        s_a = rng.uniform(0.5, 2.0)
        t1 = fuse_thresholds(alpha, BnParams(gamma, beta, mean, var, 1e-5, s_a), acc_bound=192)
        t2 = fuse_thresholds(
            2 * alpha, BnParams(gamma, 2 * beta, 2 * mean, var, 1e-5, 2 * s_a), acc_bound=192
        )
        assert np.array_equal(t1.t, t2.t)
        assert np.array_equal(t1.ascending, t2.ascending)


def test_quantize_act_float_reference():
    v = np.array([-1.0, 0.0, 0.49, 0.5, 1.4, 99.0])
    assert quantize_act_float(v, 0.5).tolist() == [0, 0, 0, 1, 2, 3]
    with np.errstate(all="raise"):  # v / s_a past the float range still clamps
        assert quantize_act_float(np.array([-1e303, 1e303]), 1e-6).tolist() == [0, 3]


def count_rule(acc, tbl):
    """Codes by the stored count rule, channel by channel, in Python ints."""
    codes = np.zeros(acc.shape, dtype=np.uint8)
    for ch in range(tbl.channels):
        a = acc[ch].astype(np.int64)
        if tbl.ascending[ch]:
            codes[ch] = sum(a >= int(t) for t in tbl.t[ch])
        else:
            codes[ch] = sum(a <= int(t) for t in tbl.t[ch])
    return codes


def table(t, ascending, bound=ACC_LIMIT):
    """A table of the given rows; the default bound is int32's, ``ACC_LIMIT``."""
    return ThresholdTable(
        t=np.asarray(t, dtype=np.int64), ascending=np.asarray(ascending, dtype=bool), bound=bound
    )


class TestBitplanes:
    """``apply_thresholds`` planes equal the packed count-rule codes."""

    @pytest.mark.parametrize("c", [1, 63, 64, 65, 130])
    def test_planes_match_count_rule(self, rng, c):
        for bound in (500, ACC_LIMIT):  # an int16 table, then an int32 one
            self.check_planes(rng, c, bound)

    @pytest.mark.parametrize("c,h,w", [(64, 151, 64), (130, 74, 40)])
    def test_row_blocks(self, rng, c, h, w):
        # several row blocks of the bool plane pair, the last one ragged
        rows = even_parts(h, BLOCK_BYTES // (2 * padded_channels(c) * w))
        assert 1 < rows < h and h % rows
        for bound in (500, ACC_LIMIT):
            self.check_planes(rng, c, bound, (h, w))

    def check_planes(self, rng, c, bound, shape=(4, 6)):
        t = np.sort(rng.integers(-500, 501, size=(c, 3)), axis=1)
        # clamped rows: never / always crossed, one past the bound
        for ch in range(0, c, 5):
            t[ch, 2] = (bound + 1) * (-1) ** (ch // 5)
            t[ch] = np.sort(t[ch])
        ascending = np.arange(c) % 3 != 1
        # constant rows: code q is q always-crossed sentinels, then never-crossed ones
        constant = np.arange(c) % 7 == 3
        codes = (np.arange(c) // 7 % 4)[constant]
        t[constant] = np.where(np.arange(3) < codes[:, None], -(bound + 1), bound + 1)
        ascending |= constant
        tbl = table(t, ascending, bound)
        assert tbl.dtype == (np.int16 if bound == 500 else np.int32)
        limit = acc_limit(tbl.dtype)
        acc = rng.integers(-502, 503, size=(c, *shape)).astype(tbl.dtype)
        acc[:, 0, 0] = limit
        acc[:, -1, 1] = -limit
        assert ACC_LIMIT == 2**31 - 2

        want = count_rule(acc, tbl)
        got = apply_thresholds(acc, tbl)
        ref = pack_activations(want)
        assert got.dtype == np.uint64 and got.shape == (2, -(-c // LANES), *shape)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        lanes = unpack_activations(got, got.shape[1] * LANES)
        assert not lanes[c:].any()  # pad lanes 0 in both planes

    def test_wide_accumulator_narrowed_or_rejected(self):
        tbl = table([[-1, 0, 1]], [True])
        acc = np.array([-2, -1, 0, 1, ACC_LIMIT], dtype=np.int64).reshape(1, 1, -1)
        got = unpack_activations(apply_thresholds(acc, tbl), 1)
        assert got.ravel().tolist() == [0, 1, 2, 3, 3]
        with pytest.raises(DomainError):
            apply_thresholds(np.full((1, 1, 1), ACC_LIMIT + 1, dtype=np.int64), tbl)

    @pytest.mark.parametrize("h,w", [(0, 4), (4, 0), (0, 0)])
    def test_empty_map(self, h, w):
        # no rows means no row block, not a block of no rows
        tbl = table([[-1, 0, 1]] * 3, [True] * 3, bound=500)
        got = apply_thresholds(np.zeros((3, h, w), dtype=np.int16), tbl)
        assert got.dtype == np.uint64 and got.shape == (2, 1, h, w)

    @pytest.mark.parametrize("value", [-(2**31), 2**31 - 1])
    def test_int32_extremes_rejected(self, value):
        # -2**31 wraps under the sign fold and 2**31 - 1 reaches the
        # "never crossed" sentinel ACC_LIMIT + 1, so neither has an exact code
        tbl = table([[-1, 0, 1], [-1, 0, ACC_LIMIT + 1]], [False, True])
        acc = np.zeros((2, 1, 2), dtype=np.int32)
        acc[:, 0, 1] = value
        with pytest.raises(DomainError):
            apply_thresholds(acc, tbl)


class TestThresholdTable:
    def test_runtime_form_built_at_construction(self):
        s = ACC_LIMIT + 1  # the sentinel; [-s, -s, s] is constant code 2
        t = [[2, 4, 6], [-6, -4, -2], [-s, -s, s]]
        tbl = table(t, [True, False, True])
        assert tbl.bound == ACC_LIMIT and tbl.t.dtype == np.int64
        assert tbl.t.tolist() == t  # the record's rows
        assert tbl.sign.dtype == tbl.ts.dtype == tbl.dtype == np.int32
        assert tbl.sign.ravel().tolist() == [1, -1, 1]
        assert tbl.ts.reshape(3, 3).T.tolist() == [[2, 4, 6], [2, 4, 6], [-s, -s, s]]

    def test_int16_runtime_form(self):
        # at bound 32766 the +/-32767 sentinels are int16's maximum and its minimum + 1
        t = [[2, 4, 6], [-6, -4, -2], [-32767, -32767, 32767], [-32767, 30000, 32767],
             [-32767, 0, 32767]]
        fields = dict(
            t=np.asarray(t, dtype=np.int64),
            ascending=np.array([True, False, True, True, False]),
        )
        tbl = ThresholdTable(**fields, bound=32766)
        assert tbl.sign.dtype == tbl.ts.dtype == tbl.dtype == np.int16
        hi = 2**15 - 1
        assert tbl.ts.reshape(3, 5).T.tolist() == [
            [2, 4, 6], [2, 4, 6], [-hi, -hi, hi], [-hi, 30000, hi], [-hi, 0, hi]
        ]
        acc = np.array([-32766, -32765, -1, 0, 1, 29999, 30000, 32765, 32766])
        acc = np.tile(acc, (5, 1)).reshape(5, 1, -1)
        got = unpack_activations(apply_thresholds(acc.astype(np.int16), tbl), 5)
        assert np.array_equal(got, count_rule(acc, tbl))
        wide = ThresholdTable(**fields, bound=32767)
        assert wide.dtype == np.int32
        assert np.array_equal(got, unpack_activations(apply_thresholds(acc, wide), 5))
        for v in (32767, -32767, -(2**15)):  # past int16's limit
            with pytest.raises(DomainError, match="32766"):
                apply_thresholds(np.full((5, 1, 1), v, dtype=np.int32), tbl)

    @pytest.mark.parametrize("bound", [32766, ACC_LIMIT])
    def test_record_form_derived_at_the_width_maximum(self, bound):
        # an ascending row never crossed, (bound + 1) x 3, and a descending
        # row always crossed, -(bound + 1) x 3, both fold to bound + 1 thrice
        # (int16's maximum at 32766); only the sign tells the two apart
        t = [[bound + 1] * 3, [-(bound + 1)] * 3]
        tbl = table(t, [True, False], bound)
        assert np.array_equal(tbl.ts[:, 0], tbl.ts[:, 1])
        assert tbl.t.dtype == np.int64 and tbl.t.tolist() == t
        assert tbl.ascending.dtype == bool and tbl.ascending.tolist() == [True, False]

    def test_width_from_fold_bound(self):
        narrow = fuse_thresholds(np.ones(1), bn1(), acc_bound=32766)
        wide = fuse_thresholds(np.ones(1), bn1(), acc_bound=32767)
        assert (narrow.bound, narrow.dtype) == (32766, np.int16)
        assert (wide.bound, wide.dtype) == (32767, np.int32)
        with pytest.raises(ConfigError, match="ACC_LIMIT"):
            table([[0, 1, 2]], [True], bound=ACC_LIMIT + 1)

    @pytest.mark.parametrize("bound", [27, 32766, ACC_LIMIT])
    def test_thresholds_within_bound_plus_one(self, bound):
        table([[-(bound + 1), 0, bound + 1]], [True], bound=bound)  # the sentinels
        rows = [[0, 0, bound + 2], [-(bound + 2), 0, 0], [0, 0, 2**63 - 1], [-(2**63), 0, 0]]
        for row in rows:
            with pytest.raises(DomainError, match=f"bound {bound} \\+ 1"):
                table([row], [True], bound=bound)
        with pytest.raises(DomainError, match="bound"):  # checked before any cast
            ThresholdTable(np.full((1, 3), 2**64 - 1, np.uint64), [True], bound)

    def test_rejects_unsorted_row(self):
        with pytest.raises(DomainError, match="sorted"):
            table([[1, 3, 2]], [True])
        with pytest.raises(DomainError, match="sorted"):
            table([[1, 3, 2]], [False])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            table([[0, 1]], [True])
        with pytest.raises(ShapeError):
            table([[0, 1, 2]], [True, False])
