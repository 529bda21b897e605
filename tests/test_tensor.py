import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ern.errors import DomainError, ShapeError
from ern.tensor import (
    LANES,
    _unpack_lanes,
    pack_activations,
    pack_weights,
    padded_channels,
    row_blocks,
    unpack_activations,
    unpack_signs,
)


@pytest.mark.parametrize(
    "c,expect", [(1, 64), (63, 64), (64, 64), (65, 128), (128, 128), (1000, 1024)]
)
def test_padded_channels(c, expect):
    assert padded_channels(c) == expect


class TestPackActivations:
    @pytest.mark.parametrize("channels", [1, 3, 30, 64, 70, 128])
    def test_round_trip(self, rng, channels):
        codes = rng.integers(0, 4, size=(channels, 5, 7), dtype=np.uint8)
        packed = pack_activations(codes)
        # a plain (2, words, H, W) array: the width is the caller's, not the value's
        assert isinstance(packed, np.ndarray) and packed.dtype == np.uint64
        assert packed.shape == (2, padded_channels(channels) // LANES, 5, 7)
        assert np.array_equal(unpack_activations(packed, channels), codes)

    def test_bitplane_split(self):
        codes = np.array([0, 1, 2, 3], dtype=np.uint8).reshape(4, 1, 1)
        packed = pack_activations(codes)
        # code = 2*hi + lo, channel i at bit i of word 0
        assert int(packed[0, 0, 0, 0]) == 0b1100  # plane 0: hi
        assert int(packed[1, 0, 0, 0]) == 0b1010  # plane 1: lo

    def test_pad_lanes_are_zero(self, rng):
        codes = rng.integers(0, 4, size=(70, 3, 3), dtype=np.uint8)
        packed = pack_activations(codes)
        # lanes 6..63 of the second word must stay clear
        pad_mask = np.uint64((2**64 - 1) ^ (2**6 - 1))
        assert not (packed[0, 1] & pad_mask).any()
        assert not (packed[1, 1] & pad_mask).any()

    @pytest.mark.parametrize("channel", [0, 1, 63, 64, 127, 129])
    def test_bit_position(self, channel):
        codes = np.zeros((130, 2, 3), dtype=np.uint8)
        codes[channel, 1, 2] = 3
        packed = pack_activations(codes)
        expect = np.zeros((3, 2, 3), dtype=np.uint64)
        expect[channel // LANES, 1, 2] = np.uint64(1) << np.uint64(channel % LANES)
        # pad lanes 130..191 stay 0
        assert np.array_equal(packed[0], expect)
        assert np.array_equal(packed[1], expect)

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(DomainError):
            pack_activations(np.full((2, 2, 2), 4, dtype=np.uint8))

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            pack_activations(np.zeros((2, 2), dtype=np.uint8))

    def test_unpack_beyond_words(self, rng):
        packed = pack_activations(rng.integers(0, 4, size=(8, 2, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            unpack_activations(packed, 65)

    @given(
        channels=st.integers(1, 130),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, channels, h, w, seed):
        codes = np.random.default_rng(seed).integers(0, 4, size=(channels, h, w), dtype=np.uint8)
        assert np.array_equal(unpack_activations(pack_activations(codes), channels), codes)


class TestUnpackLanes:
    """``_unpack_lanes`` against one shift per lane: bit j of word i is lane 64*i + j."""

    @staticmethod
    def by_shifts(words, axis):
        w = np.moveaxis(words, axis, 0)
        lanes = [(w[i // LANES] >> np.uint64(i % LANES)) & np.uint64(1)
                 for i in range(w.shape[0] * LANES)]
        return np.moveaxis(np.array(lanes, dtype=np.uint8), 0, axis)

    @pytest.mark.parametrize("axis,shape", [(0, (3, 2, 5)), (1, (2, 3, 4, 5))])
    def test_matches_per_lane_shifts(self, rng, axis, shape):
        words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        words.flat[:4] = [0, 2**64 - 1, 1, 2**63]
        want = self.by_shifts(words, axis)
        for count in range(1, 3 * LANES + 1):
            got = _unpack_lanes(words, axis, count)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want.take(np.arange(count), axis=axis)), count
        # words held big-endian unpack to the same lanes
        assert np.array_equal(_unpack_lanes(words.astype(">u8"), axis, 3 * LANES), want)


class TestPackWeights:
    def test_round_trip(self, rng):
        signs = rng.choice([-1, 1], size=(5, 67, 3, 3)).astype(np.int8)
        w = pack_weights(signs, np.ones(5))
        # only words and scales: OC and kernel are the words' shape, IC is the caller's
        assert [f.name for f in dataclasses.fields(w)] == ["bits", "alpha"]
        assert w.bits.shape == (5, padded_channels(67) // LANES, 3, 3)
        assert np.array_equal(unpack_signs(w.bits, 67), signs)

    def test_pad_bits_fixed_to_one(self, rng):
        signs = rng.choice([-1, 1], size=(2, 3, 1, 1)).astype(np.int8)
        w = pack_weights(signs, np.ones(2))
        # lanes 3..63 carry +1 so packed words are deterministic
        pad_mask = np.uint64((2**64 - 1) ^ 0b111)
        assert ((w.bits & pad_mask) == pad_mask).all()

    @pytest.mark.parametrize("channel", [0, 1, 63, 64, 127, 129])
    def test_bit_position(self, channel):
        signs = -np.ones((2, 130, 1, 2), dtype=np.int8)
        signs[1, channel, 0, 1] = 1
        w = pack_weights(signs, np.ones(2))
        # pad lanes 130..191 of the last word are 1
        expect = np.zeros((2, 3, 1, 2), dtype=np.uint64)
        expect[:, 2] = np.uint64((2**64 - 1) ^ 0b11)
        expect[1, channel // LANES, 0, 1] |= np.uint64(1) << np.uint64(channel % LANES)
        assert np.array_equal(w.bits, expect)

    # fan-ins about np.getbufsize() (8192) and past it, in a ragged last block
    @pytest.mark.parametrize("shape", [(8191, 1, 1), (8192, 1, 1), (8193, 1, 1), (2048, 3, 3)])
    def test_blocked_matches_whole_layer(self, rng, shape):
        oc, (ic, kh, kw) = 71, shape
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(oc, *shape))
        signs[::7] = 1  # the signs of all-zero filters
        ic_pad = padded_channels(ic)
        blocks = [r.stop - r.start for r in row_blocks(oc, ic_pad * kh * kw)]
        assert len(blocks) > 1 and blocks[-1] != blocks[0]
        # the whole layer at once: LSB-first lanes, 8 little-endian bytes per word
        lanes = np.ones((oc, ic_pad, kh, kw), dtype=np.uint8)
        lanes[:, :ic] = signs > 0
        octets = np.packbits(lanes, axis=1, bitorder="little")
        octets = octets.reshape(oc, ic_pad // LANES, 8, kh, kw).transpose(0, 1, 3, 4, 2)
        want = np.ascontiguousarray(octets).view("<u8")[..., 0]
        assert np.array_equal(pack_weights(signs, np.ones(oc)).bits, want)

    def test_rejects_non_sign_in_last_block(self, rng):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(71, 8193, 1, 1))
        signs[-1, -1] = 0
        with pytest.raises(DomainError):
            pack_weights(signs, np.ones(71))

    def test_rejects_non_sign_values(self):
        with pytest.raises(DomainError):
            pack_weights(np.zeros((1, 4, 1, 1), dtype=np.int8), np.ones(1))

    def test_rejects_nonpositive_alpha(self, rng):
        signs = rng.choice([-1, 1], size=(2, 4, 1, 1)).astype(np.int8)
        with pytest.raises(DomainError):
            pack_weights(signs, np.array([1.0, 0.0]))

    def test_rejects_alpha_length_mismatch(self, rng):
        signs = rng.choice([-1, 1], size=(2, 4, 1, 1)).astype(np.int8)
        with pytest.raises(ShapeError):
            pack_weights(signs, np.ones(3))
