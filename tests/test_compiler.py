import struct
import zlib

import numpy as np
import pytest

from ern.compiler import (
    FORMAT_VERSION,
    LAYER_CONV,
    LAYER_FINAL,
    MAGIC,
    CheckpointManifest,
    compile_checkpoint,
    gen_random_checkpoint,
    load,
    load_manifest,
    models_equivalent,
    save_manifest,
    serialize,
)
from ern.errors import (
    BadMagicError,
    ChecksumError,
    CompileError,
    ConfigError,
    FormatError,
    TruncationError,
    VersionError,
)
from ern.graph import execute

from conftest import random_image, rewrite_conv_record, rewrite_threshold_row


@pytest.fixture(scope="module")
def small_manifest():
    return gen_random_checkpoint("erns18x075", seed=3, shared_const=0.5)


@pytest.fixture(scope="module")
def small_model(small_manifest):
    return compile_checkpoint(small_manifest)


class TestManifestIO:
    def test_round_trip(self, small_manifest, tmp_path):
        save_manifest(small_manifest, tmp_path)
        back = load_manifest(tmp_path)
        assert back.arch == small_manifest.arch
        assert back.k == small_manifest.k
        assert back.shared_const == small_manifest.shared_const
        assert sorted(back.convs) == sorted(small_manifest.convs)
        for name, w in small_manifest.convs.items():
            assert np.array_equal(back.convs[name], w)
        for name, rec in small_manifest.bnacts.items():
            got = back.bnacts[name]
            assert np.array_equal(got.gamma, rec.gamma)
            assert np.array_equal(got.var, rec.var)
            assert got.act_scale == rec.act_scale

    def test_conv_weights_stay_float32(self, small_manifest, tmp_path):
        save_manifest(small_manifest, tmp_path)
        back = load_manifest(tmp_path)
        for w in back.convs.values():
            assert w.dtype == np.float32
            assert w.flags.writeable
        assert serialize(compile_checkpoint(back)) == serialize(compile_checkpoint(small_manifest))

    def test_missing_blob(self, small_manifest, tmp_path):
        save_manifest(small_manifest, tmp_path)
        (tmp_path / "s1.b1.conv1.bin").unlink()
        with pytest.raises(ConfigError, match="s1.b1.conv1"):
            load_manifest(tmp_path)

    def test_missing_manifest_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_manifest(tmp_path)

    def test_corrupt_json(self, small_manifest, tmp_path):
        save_manifest(small_manifest, tmp_path)
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ConfigError):
            load_manifest(tmp_path)

    def test_generation_deterministic(self, tmp_path):
        a = gen_random_checkpoint("erns18x075", seed=0)
        b = gen_random_checkpoint("erns18x075", seed=0)
        for name in a.convs:
            assert np.array_equal(a.convs[name], b.convs[name])
        for name in a.bnacts:
            assert np.array_equal(a.bnacts[name].gamma, b.bnacts[name].gamma)
            assert a.bnacts[name].act_scale == b.bnacts[name].act_scale
        c = gen_random_checkpoint("erns18x075", seed=1)
        assert not np.array_equal(a.convs["s1.b1.conv1"], c.convs["s1.b1.conv1"])


class TestCompile:
    def test_shared_const_precedence(self, small_manifest):
        assert compile_checkpoint(small_manifest).shared_const == 0.5
        assert compile_checkpoint(small_manifest, shared_const=2.0).shared_const == 2.0
        bare = CheckpointManifest(
            arch=small_manifest.arch,
            k=small_manifest.k,
            convs=dict(small_manifest.convs),
            bnacts=dict(small_manifest.bnacts),
        )
        assert compile_checkpoint(bare).shared_const == 1.0

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_shared_const(self, small_manifest, c):
        with pytest.raises(ConfigError):
            compile_checkpoint(small_manifest, shared_const=c)

    def test_missing_layer_named(self, small_manifest):
        broken = CheckpointManifest(
            arch=small_manifest.arch,
            k=small_manifest.k,
            shared_const=0.5,
            convs={n: w for n, w in small_manifest.convs.items() if n != "s2.b1.down"},
            bnacts=dict(small_manifest.bnacts),
        )
        with pytest.raises(CompileError, match="s2.b1.down"):
            compile_checkpoint(broken)

    def test_extra_layer_rejected(self, small_manifest):
        convs = dict(small_manifest.convs)
        convs["s9.b9.conv1"] = convs["s1.b1.conv1"]
        broken = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.raises(CompileError, match="s9.b9.conv1"):
            compile_checkpoint(broken)

    def test_wrong_shape_named(self, small_manifest):
        convs = dict(small_manifest.convs)
        convs["s1.b1.conv1"] = convs["s1.b1.conv1"][:, :32]
        broken = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.raises(CompileError, match="s1.b1.conv1"):
            compile_checkpoint(broken)

    def test_nonfinite_weights_named(self, small_manifest):
        convs = dict(small_manifest.convs)
        w = convs["stem.conv2"].copy()
        w[0, 0, 0, 0] = np.nan
        convs["stem.conv2"] = w
        broken = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.raises(CompileError, match="stem.conv2"):
            compile_checkpoint(broken)

    def test_zero_filter_warns_and_compiles(self, small_manifest):
        convs = dict(small_manifest.convs)
        w = convs["stem.conv1"].copy()
        w[0] = 0.0
        convs["stem.conv1"] = w
        patched = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.warns(UserWarning, match="stem.conv1"):
            model = compile_checkpoint(patched)
        assert model.weights["stem.conv1"].alpha[0] == 1.0

    def test_compile_deterministic(self, small_manifest):
        a = serialize(compile_checkpoint(small_manifest))
        b = serialize(compile_checkpoint(small_manifest))
        assert a == b

    def test_const_convs_carry_shared_const(self, small_model):
        edges = small_model.graph.edges
        w = small_model.weights["s1.b1.conv2"]
        assert edges["s1.b1.conv2.out"].const_scaled
        assert np.all(w.alpha == 0.5)
        assert not edges["s1.b1.conv1.out"].const_scaled


class TestSerialization:
    def test_round_trip_equivalent(self, small_model):
        blob = serialize(small_model)
        back = load(blob)
        assert models_equivalent(small_model, back)
        assert serialize(back) == blob

    def test_round_trip_inference_identical(self, small_model, rng):
        back = load(serialize(small_model))
        img = random_image(rng)
        a = execute(small_model, img).logits
        b = execute(back, img).logits
        assert a.tobytes() == b.tobytes()

    def test_header_fields(self, small_model):
        blob = serialize(small_model)
        assert blob[:4] == MAGIC
        assert struct.unpack_from("<I", blob, 4)[0] == FORMAT_VERSION
        assert zlib.crc32(blob[:-4]) == struct.unpack("<I", blob[-4:])[0]

    def test_bad_magic(self, small_model):
        blob = bytearray(serialize(small_model))
        blob[:4] = b"NOPE"
        with pytest.raises(BadMagicError):
            load(bytes(blob))

    def test_unsupported_version(self, small_model):
        blob = bytearray(serialize(small_model))
        struct.pack_into("<I", blob, 4, 99)
        with pytest.raises(VersionError):
            load(bytes(blob))

    def test_truncated(self, small_model):
        blob = serialize(small_model)
        with pytest.raises(TruncationError):
            load(blob[: len(blob) // 2])
        with pytest.raises(TruncationError):
            load(blob[:3])
        with pytest.raises(TruncationError):
            load(b"")

    def test_payload_corruption(self, small_model):
        blob = bytearray(serialize(small_model))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(ChecksumError):
            load(bytes(blob))

    def test_corrupt_name_is_checksum_error(self, small_model):
        # a changed layer name would parse as an unknown layer; the CRC comes first
        blob = bytearray(serialize(small_model))
        blob[blob.index(b"s2.b1.conv1") + 3] ^= 0x01
        with pytest.raises(ChecksumError):
            load(bytes(blob))

    def test_corrupt_threshold_is_checksum_error(self, small_model):
        blob = rewrite_threshold_row(serialize(small_model), "s1.b1.bn1", 10**6, recrc=False)
        with pytest.raises(ChecksumError):
            load(blob)

    @pytest.mark.parametrize("t1,degenerate", [(10**6, None), (4, 1), (256, 1), (-1, 1)])
    def test_bad_threshold_table_is_format_error(self, small_model, t1, degenerate):
        # an unsorted row, or a constant code past 3 (256 would wrap to 0 in a byte)
        blob = rewrite_threshold_row(serialize(small_model), "s1.b1.bn1", t1, degenerate)
        with pytest.raises(FormatError, match="s1.b1.bn1"):
            load(blob)

    def test_thermometer_length_checked_before_use(self, small_model):
        body = bytearray(serialize(small_model)[:-4])
        (n,) = struct.unpack_from("<H", body, 8)
        struct.pack_into("<I", body, 10 + n, 2**31)
        with pytest.raises(FormatError, match="thermometer"):
            load(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    def test_invalid_utf8_layer_name(self, small_model):
        # keep the checksum valid so the name decoder must catch it
        body = bytearray(serialize(small_model)[:-4])
        body[body.index(b"stem.conv1")] = 0xFF
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError, match="UTF-8"):
            load(blob)

    def test_layer_stored_twice(self, small_model):
        # a second copy of a record, with the layer count raised to match
        body = bytearray(serialize(small_model)[:-4])
        name = b"s1.b1.bn1"
        start = body.index(struct.pack("<H", len(name)) + name) - 1
        channels = small_model.thresholds["s1.b1.bn1"].channels
        end = start + 1 + 2 + len(name) + 2 + 26 * channels
        (n,) = struct.unpack_from("<H", body, 8)
        count_at = 8 + 2 + n + 4 + 8 + 1  # after version, arch, k, c, endian tag
        struct.pack_into("<I", body, count_at, struct.unpack_from("<I", body, count_at)[0] + 1)
        body += body[start:end]
        with pytest.raises(FormatError, match="s1.b1.bn1.*twice"):
            load(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    def test_trailing_bytes(self, small_model):
        # keep the checksum valid so the structural check must catch it
        body = serialize(small_model)[:-4] + b"\x00\x00\x00"
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError):
            load(blob)


def with_header_c(blob: bytes, c: float) -> bytes:
    """Re-sign ``blob`` with the header's shared constant set to ``c``."""
    body = bytearray(blob[:-4])
    (n,) = struct.unpack_from("<H", body, 8)
    struct.pack_into("<d", body, 8 + 2 + n + 4, c)  # after version, arch string, k
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


class TestLoadChecksGraphAndScales:
    """Const flags must match the graph; the scales a file repeats must match c."""

    def test_unchanged_rewrite_reproduces_file(self, small_model):
        blob = serialize(small_model)
        head = small_model.weights["head.conv"]
        assert rewrite_conv_record(blob, "head.conv", head.alpha, 0, LAYER_FINAL) == blob
        assert with_header_c(blob, 0.5) == blob

    @pytest.mark.parametrize(
        "layer,flag",
        [("s1.b1.conv2", 0), ("s1.b1.conv2", 2), ("stem.conv4", 0), ("s2.b1.down", 0),
         ("s1.b1.conv1", 1), ("head.conv", 1)],
    )
    def test_const_flag_must_match_graph(self, small_model, layer, flag):
        blob = rewrite_conv_record(serialize(small_model), layer, const_flag=flag)
        with pytest.raises(FormatError, match=f"{layer}.*const flag"):
            load(blob)

    @pytest.mark.parametrize("layer,kind", [("head.conv", LAYER_CONV), ("s1.b1.conv1", LAYER_FINAL)])
    def test_record_kind_must_match_graph(self, small_model, layer, kind):
        blob = rewrite_conv_record(serialize(small_model), layer, kind=kind)
        with pytest.raises(FormatError, match=f"{layer}.*record kind"):
            load(blob)

    @pytest.mark.parametrize("value", [-1.0, np.nan, 0.0, np.inf])
    def test_head_scale_must_be_finite_and_positive(self, small_model, value):
        blob = rewrite_conv_record(serialize(small_model), "head.conv", np.full(1000, value))
        with pytest.raises(FormatError, match="head.conv"):
            load(blob)

    def test_head_scales_must_be_one_value(self, small_model):
        alpha = small_model.weights["head.conv"].alpha.copy()
        alpha[7] *= 2.0
        blob = rewrite_conv_record(serialize(small_model), "head.conv", alpha)
        with pytest.raises(FormatError, match="head.conv"):
            load(blob)

    @pytest.mark.parametrize("layer", ["stem.conv1", "s1.b1.conv1"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, 0.0, np.inf])
    def test_conv_scales_must_be_finite_and_positive(self, small_model, layer, value):
        alpha = small_model.weights[layer].alpha.copy()
        alpha[3] = value
        blob = rewrite_conv_record(serialize(small_model), layer, alpha)
        with pytest.raises(FormatError, match=layer):
            load(blob)

    @pytest.mark.parametrize("layer", ["stem.conv1", "s1.b1.conv2", "head.conv"])
    def test_one_scale_per_output_channel(self, small_model, layer):
        alpha = small_model.weights[layer].alpha[:-1]
        blob = rewrite_conv_record(serialize(small_model), layer, alpha)
        with pytest.raises(FormatError, match=layer):
            load(blob)

    @pytest.mark.parametrize("layer", ["stem.conv4", "s1.b1.conv2", "s2.b1.down"])
    def test_const_scales_must_equal_c(self, small_model, layer):
        alpha = small_model.weights[layer].alpha.copy()
        alpha[0] = 0.25  # c is 0.5
        blob = rewrite_conv_record(serialize(small_model), layer, alpha)
        with pytest.raises(FormatError, match=layer):
            load(blob)

    @pytest.mark.parametrize("c", [np.nan, 0.0, -0.5, np.inf])
    def test_header_c_must_be_finite_and_positive(self, small_model, c):
        with pytest.raises(FormatError, match="shared constant"):
            load(with_header_c(serialize(small_model), c))

    def test_header_c_must_match_const_scales(self, small_model):
        with pytest.raises(FormatError, match="differ from c"):
            load(with_header_c(serialize(small_model), 1.0))


class TestDegenerate:
    def test_bnact_record_bytes(self, small_manifest):
        # each channel is <qqqBB: (t1, t2, t3) or (const code, 0, 0), then
        # the direction and degenerate bytes
        bnacts = dict(small_manifest.bnacts)
        rec = bnacts["s3.b1.bn1"]
        gamma = rec.gamma.copy()
        gamma[7] = 0.0
        gamma[3] = -abs(gamma[3])
        beta = rec.beta.copy()
        beta[7] = 2.5 * rec.act_scale  # constant code 2
        bnacts["s3.b1.bn1"] = type(rec)(
            gamma=gamma, beta=beta, mean=rec.mean, var=rec.var,
            epsilon=rec.epsilon, act_scale=rec.act_scale,
        )
        patched = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=dict(small_manifest.convs), bnacts=bnacts,
        )
        model = compile_checkpoint(patched)
        tbl = model.thresholds["s3.b1.bn1"]
        assert tbl.degenerate[7] and tbl.const_code[7] == 2 and not tbl.ascending[3]
        want = b"".join(
            struct.pack(
                "<qqqBB",
                *((int(tbl.const_code[ch]), 0, 0) if tbl.degenerate[ch] else map(int, tbl.t[ch])),
                int(tbl.ascending[ch]),
                int(tbl.degenerate[ch]),
            )
            for ch in range(tbl.channels)
        )
        blob = serialize(model)
        name = b"s3.b1.bn1"
        pos = blob.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        assert struct.unpack_from("<H", blob, pos) == (tbl.channels,)
        assert blob[pos + 2 : pos + 2 + len(want)] == want

    def test_zero_gamma_round_trips(self, small_manifest, rng):
        bnacts = {n: r for n, r in small_manifest.bnacts.items()}
        rec = bnacts["s3.b1.bn1"]
        gamma = rec.gamma.copy()
        gamma[7] = 0.0
        bnacts["s3.b1.bn1"] = type(rec)(
            gamma=gamma, beta=rec.beta, mean=rec.mean, var=rec.var,
            epsilon=rec.epsilon, act_scale=rec.act_scale,
        )
        patched = CheckpointManifest(
            arch=small_manifest.arch, k=small_manifest.k, shared_const=0.5,
            convs=dict(small_manifest.convs), bnacts=bnacts,
        )
        model = compile_checkpoint(patched)
        table = model.thresholds["s3.b1.bn1"]
        assert table.degenerate[7]
        back = load(serialize(model))
        assert models_equivalent(model, back)
        assert back.thresholds["s3.b1.bn1"].degenerate[7]
        assert (
            back.thresholds["s3.b1.bn1"].const_code[7] == table.const_code[7]
        )
        img = random_image(rng)
        assert np.array_equal(
            execute(model, img).logits, execute(back, img).logits
        )
