import numpy as np
import pytest

from ern import pixembed
from ern.errors import DomainError, ShapeError
from ern.oracle import _thermo_codes
from ern.pixembed import encode_image, encode_pixel, thermo_params
from ern.tensor import pack_activations, unpack_activations


def full_sweep(k):
    p = thermo_params(k)
    return np.stack([encode_pixel(x, p) for x in range(256)])  # (256, k)


class TestParams:
    def test_k2_step(self):
        p = thermo_params(2)
        assert p.s == 42
        assert p.w == pytest.approx(1 / 84)
        assert np.allclose(p.b, [0.5, 0.0])

    def test_k10_step(self):
        assert thermo_params(10).s == 8

    def test_k256_floors_at_one(self):
        assert thermo_params(256).s == 1

    def test_levels(self):
        for k in (1, 2, 5, 10):
            assert thermo_params(k).levels == 3 * k + 1

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_bad_k(self, k):
        with pytest.raises(DomainError):
            thermo_params(k)


class TestK2Sweep:
    # k=2, l=2: the 7-level staircase over the 8-bit range
    def test_transition_points(self):
        sweep = full_sweep(2)
        changed = np.where((sweep[1:] != sweep[:-1]).any(axis=1))[0] + 1
        assert changed.tolist() == [42, 84, 126, 168, 210, 252]

    def test_code_sequence(self):
        sweep = full_sweep(2)
        distinct = [tuple(sweep[x]) for x in [0, 42, 84, 126, 168, 210, 252]]
        assert distinct == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
        assert len({tuple(r) for r in sweep}) == 7

    def test_x100(self):
        assert tuple(encode_pixel(100, thermo_params(2))) == (1, 1)


class TestSweepProperties:
    @pytest.mark.parametrize("k", list(range(1, 33)))
    def test_monotone_per_channel(self, k):
        sweep = full_sweep(k)
        assert (np.diff(sweep.astype(np.int16), axis=0) >= 0).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_surjective_onto_levels(self, k):
        sweep = full_sweep(k)
        assert len({tuple(r) for r in sweep}) == thermo_params(k).levels

    def test_extremes(self):
        p = thermo_params(10)
        assert tuple(encode_pixel(0, p)) == (0,) * 10
        assert tuple(encode_pixel(255, p)) == (3,) * 10


    def test_code_table_built_once_per_k(self, monkeypatch, rng):
        p = thermo_params(7)
        assert thermo_params(7) is p
        assert p.table.shape == (7, 256)
        assert not p.table.flags.writeable
        with pytest.raises(ValueError):
            p.table[0, 0] = 1

        def rebuilt(*args):
            raise AssertionError("code table rebuilt")

        monkeypatch.setattr(pixembed, "_code_table", rebuilt)
        img = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        assert unpack_activations(encode_image(img, p), 21).shape == (21, 2, 2)
        assert encode_pixel(255, p).tolist() == [3] * 7


class TestEncodeImage:
    def test_color_major_layout(self, rng):
        p = thermo_params(3)
        img = np.zeros((3, 2, 2), dtype=np.uint8)
        img[0] = 200
        img[2] = 255
        out = unpack_activations(encode_image(img, p), 9)
        assert out.shape == (9, 2, 2)
        assert np.array_equal(out[0:3, 0, 0], encode_pixel(200, p))
        assert np.array_equal(out[3:6, 0, 0], encode_pixel(0, p))
        assert np.array_equal(out[6:9, 0, 0], encode_pixel(255, p))

    def test_matches_per_pixel(self, rng):
        p = thermo_params(4)
        img = rng.integers(0, 256, size=(3, 3, 5), dtype=np.uint8)
        out = unpack_activations(encode_image(img, p), 12)
        for c in range(3):
            for y in range(3):
                for x in range(5):
                    assert np.array_equal(
                        out[c * 4 : (c + 1) * 4, y, x], encode_pixel(int(img[c, y, x]), p)
                    )

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            encode_image(np.zeros((1, 4, 4), dtype=np.uint8), thermo_params(2))

    def test_rejects_float_image(self):
        with pytest.raises(DomainError):
            encode_image(np.zeros((3, 4, 4), dtype=np.float32), thermo_params(2))

    def test_rejects_out_of_range(self):
        img = np.full((3, 2, 2), 300, dtype=np.int16)
        with pytest.raises(DomainError):
            encode_image(img, thermo_params(2))

    def test_rejects_bad_pixel(self):
        with pytest.raises(DomainError):
            encode_pixel(256, thermo_params(2))


@pytest.mark.parametrize("k", [1, 10, 21, 22, 30])
def test_planes_equal_packed_table_codes(rng, k):
    # 3k = 63 fills one word short, 66 and 90 need a second word
    p = thermo_params(k)
    img = rng.integers(0, 256, size=(3, 4, 6), dtype=np.uint8)
    img[:, 0, 0] = [0, 128, 255]
    codes = np.concatenate([p.table[:, img[c]] for c in range(3)])
    got = encode_image(img, p)
    want = pack_activations(codes)
    words = 2 if 3 * k > 64 else 1
    assert got.dtype == np.uint64 and got.shape == (2, words, 4, 6)
    assert not unpack_activations(got, words * 64)[3 * k :].any()  # 3k channels, then pad
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("k", [1, 10, 21, 22, 85])
def test_embedding_equals_oracle_on_every_byte(k):
    # each colour runs through all 256 values, in a different order per colour,
    # so the encoder is checked on its whole domain against the oracle's map
    img = np.stack([np.roll(np.arange(256, dtype=np.uint8), 85 * c) for c in range(3)])
    img = img.reshape(3, 16, 16)
    got = unpack_activations(encode_image(img, thermo_params(k)), 3 * k)
    want = _thermo_codes(img, k)
    assert got.shape == want.shape == (3 * k, 16, 16)
    assert np.array_equal(got, want)
