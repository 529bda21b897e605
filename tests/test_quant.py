import numpy as np
import pytest

from ern.errors import ConfigError, DomainError, ShapeError
from ern.quant import (
    BnParams,
    ThresholdTable,
    apply_thresholds,
    binarize_weights,
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


class TestFuse:
    def test_ascending_unit_case(self):
        # A = 1, B = 0, s_a = 2 -> thresholds ceil(2u) = 2, 4, 6
        tbl = fuse_thresholds(np.ones(1), bn1(s_a=2.0), acc_bound=100)
        assert tbl.t.tolist() == [[2, 4, 6]]
        assert tbl.ascending.tolist() == [True]
        assert not tbl.degenerate.any()

    def test_descending_mirror(self):
        # gamma < 0 flips direction: floor(-2u) sorted -> -6, -4, -2
        tbl = fuse_thresholds(np.ones(1), bn1(gamma=-1.0, s_a=2.0), acc_bound=100)
        assert tbl.t.tolist() == [[-6, -4, -2]]
        assert tbl.ascending.tolist() == [False]

    def test_degenerate_constant_channel(self):
        tbl = fuse_thresholds(np.ones(1), bn1(gamma=0.0, beta=7.0, s_a=2.0), acc_bound=100)
        assert tbl.degenerate.tolist() == [True] and tbl.ascending.tolist() == [False]
        assert tbl.t.tolist() == [[3, 0, 0]]  # clamp(floor(7/2), 0, 3), then 0, 0
        acc = np.arange(-5, 6, dtype=np.int32).reshape(1, -1, 1)
        assert (unpack_activations(apply_thresholds(acc, tbl), 1) == 3).all()

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
        ratio = v / s_a
        want = np.clip(np.floor(ratio), 0, 3).astype(np.uint8)
        ties = np.abs(ratio - np.rint(ratio)) < 1e-9
        mismatch = got[:, :, 0] != want
        assert not (mismatch & ~ties).any()

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
        if tbl.degenerate[ch]:
            codes[ch] = tbl.t[ch, 0]
        elif tbl.ascending[ch]:
            codes[ch] = sum(a >= int(t) for t in tbl.t[ch])
        else:
            codes[ch] = sum(a <= int(t) for t in tbl.t[ch])
    return codes


def table(t, ascending, degenerate=None, bound=ACC_LIMIT):
    """A table of the given rows; the default bound is int32's, ``ACC_LIMIT``."""
    return ThresholdTable(
        t=np.asarray(t, dtype=np.int64),
        ascending=np.asarray(ascending, dtype=bool),
        degenerate=np.zeros(len(t), bool) if degenerate is None else np.asarray(degenerate),
        bound=bound,
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
        degenerate = np.arange(c) % 7 == 3
        t[degenerate] = 0
        t[degenerate, 0] = (np.arange(c) // 7 % 4)[degenerate]
        if c == 1:
            degenerate[0], t[0] = True, [2, 0, 0]
        ascending &= ~degenerate
        tbl = table(t, ascending, degenerate, bound)
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
        if c >= 65:
            assert set(np.unique(want[degenerate])) == {0, 1, 2, 3}

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
        tbl = table([[2, 4, 6], [-6, -4, -2], [2, 0, 0]], [True, False, False], [0, 0, 1])
        assert tbl.bound == ACC_LIMIT and tbl.t.dtype == np.int64
        assert tbl.t.tolist() == [[2, 4, 6], [-6, -4, -2], [2, 0, 0]]  # the record's rows
        assert tbl.sign.dtype == tbl.ts.dtype == tbl.dtype == np.int32
        assert tbl.sign.ravel().tolist() == [1, -1, 1]
        lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
        assert tbl.ts.reshape(3, 3).T.tolist() == [[2, 4, 6], [2, 4, 6], [lo, lo, hi]]

    def test_int16_runtime_form(self):
        # at bound 32766 the +/-32767 sentinels are int16's maximum and its minimum + 1
        t = [[2, 4, 6], [-6, -4, -2], [2, 0, 0], [-32767, 30000, 32767], [-32767, 0, 32767]]
        fields = dict(
            t=np.asarray(t, dtype=np.int64),
            ascending=np.array([True, False, False, True, False]),
            degenerate=np.array([False, False, True, False, False]),
        )
        tbl = ThresholdTable(**fields, bound=32766)
        assert tbl.sign.dtype == tbl.ts.dtype == tbl.dtype == np.int16
        lo, hi = -(2**15), 2**15 - 1
        assert tbl.ts.reshape(3, 5).T.tolist() == [
            [2, 4, 6], [2, 4, 6], [lo, lo, hi], [-hi, 30000, hi], [-hi, 0, hi]
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
            ThresholdTable(np.full((1, 3), 2**64 - 1, np.uint64), [True], [False], bound)

    def test_rejects_unsorted_row(self):
        with pytest.raises(DomainError, match="sorted"):
            table([[1, 3, 2]], [True])
        with pytest.raises(DomainError, match="sorted"):
            table([[1, 3, 2]], [False])

    @pytest.mark.parametrize("code", [4, 256, -1])
    def test_rejects_bad_const_code(self, code):
        table([[3, 0, 0]], [False], [True])  # a degenerate row: its constant code, then 0, 0
        with pytest.raises(DomainError, match="degenerate"):
            table([[code, 0, 0]], [False], [True])

    @pytest.mark.parametrize("row", [[2, 7, 9], [0, 0, 1], [3, -1, 0]])
    def test_rejects_degenerate_row_with_nonzero_t2_t3(self, row):
        with pytest.raises(DomainError, match="degenerate"):
            table([row], [False], [True])

    def test_rejects_ascending_degenerate_channel(self):
        with pytest.raises(DomainError, match="degenerate"):
            table([[2, 0, 0]], [True], [True])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            table([[0, 1]], [True])
        with pytest.raises(ShapeError):
            table([[0, 1, 2]], [True, False])
