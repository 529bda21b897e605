import dataclasses
import json
import struct
import tracemalloc
import warnings
import zlib
from collections.abc import MutableMapping

import numpy as np
import pytest

from ern.compiler import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointManifest,
    compile_checkpoint,
    gen_random_checkpoint,
    load,
    load_manifest,
    save_manifest,
    serialize,
)
from ern.errors import (
    BadMagicError,
    ChecksumError,
    CompileError,
    ConfigError,
    DomainError,
    FormatError,
    TruncationError,
    VersionError,
)
from ern.graph import ArchConfig, GraphDef, arch_config, execute
from ern.oracle import oracle_from_manifest

from conftest import HEADER_AT, random_image, record_offset, resign, rewrite_threshold_row


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
        assert back.arch.k == small_manifest.arch.k
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

    def test_generation_takes_a_config_or_a_preset_name(self):
        by_name = gen_random_checkpoint("erns18x075", seed=0)
        by_config = gen_random_checkpoint(arch_config("erns18x075"), seed=0)
        assert by_name.arch == by_config.arch == arch_config("erns18x075")
        assert np.array_equal(by_name.convs["stem.conv1"], by_config.convs["stem.conv1"])

    def test_manifest_names_the_preset_of_its_layout(self, tmp_path):
        # the layout matches erns18 up to k, so the manifest reads "erns18" and k 4
        m = gen_random_checkpoint(dataclasses.replace(arch_config("erns18"), k=4), seed=0)
        save_manifest(m, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert (doc["arch"], doc["k"]) == ("erns18", 4)
        assert load_manifest(tmp_path).arch == m.arch

    def test_layout_without_a_preset_is_refused(self, tmp_path):
        m = gen_random_checkpoint(ArchConfig("conv", (1, 1, 1, 1), (64,) * 4, classes=7), seed=0)
        with pytest.raises(ConfigError, match="preset"):
            save_manifest(m, tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()


def break_blob(path, defect: str) -> None:
    """Delete a blob, or rewrite it one float shorter or longer."""
    if defect == "deleted":
        path.unlink()
    else:
        data = path.read_bytes()
        path.write_bytes(data[:-4] if defect == "truncated" else data + data[:4])


class TestConvBlobsOnDemand:
    """``load_manifest`` sizes conv blobs; each ``convs`` lookup reads one."""

    @pytest.fixture
    def ckpt(self, small_manifest, tmp_path):
        save_manifest(small_manifest, tmp_path)
        return tmp_path

    def test_read_only_mapping_of_fresh_arrays(self, ckpt):
        convs = load_manifest(ckpt).convs
        assert not isinstance(convs, MutableMapping)
        w = convs["s1.b1.conv1"]
        want = w.copy()
        w[...] = 0.0
        assert np.array_equal(convs["s1.b1.conv1"], want)
        assert convs["s1.b1.conv1"] is not convs["s1.b1.conv1"]
        with pytest.raises(KeyError):
            convs["s9.b9.conv1"]

    @pytest.mark.parametrize("defect", ["truncated", "extended"])
    def test_load_rejects_wrong_size(self, ckpt, defect):
        break_blob(ckpt / "s2.b1.down.bin", defect)
        with pytest.raises(ConfigError, match="s2.b1.down"):
            load_manifest(ckpt)

    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    @pytest.mark.parametrize("defect", ["deleted", "truncated", "extended"])
    def test_blob_changed_after_load(self, ckpt, build, defect):
        m = load_manifest(ckpt)
        break_blob(ckpt / "s2.b1.down.bin", defect)
        with pytest.raises(ConfigError, match="s2.b1.down"):
            build(m)

    def test_compile_peak_below_checkpoint_floats(self, tmp_path):
        save_manifest(gen_random_checkpoint("erns18", seed=5), tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        conv_bytes = sum(
            4 * int(np.prod(e["shape"])) for e in doc["layers"].values() if e["kind"] == "conv"
        )
        tracemalloc.start()
        try:
            compile_checkpoint(load_manifest(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < conv_bytes


class TestCompile:
    def test_shared_const_precedence(self, small_manifest):
        assert compile_checkpoint(small_manifest).shared_const == 0.5
        assert compile_checkpoint(small_manifest, shared_const=2.0).shared_const == 2.0
        bare = CheckpointManifest(
            arch=small_manifest.arch,
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
            arch=small_manifest.arch, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.raises(CompileError, match="s9.b9.conv1"):
            compile_checkpoint(broken)

    def test_wrong_shape_named(self, small_manifest):
        convs = dict(small_manifest.convs)
        convs["s1.b1.conv1"] = convs["s1.b1.conv1"][:, :32]
        broken = CheckpointManifest(
            arch=small_manifest.arch, shared_const=0.5,
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
            arch=small_manifest.arch, shared_const=0.5,
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
            arch=small_manifest.arch, shared_const=0.5,
            convs=convs, bnacts=dict(small_manifest.bnacts),
        )
        with pytest.warns(UserWarning, match="stem.conv1"):
            model = compile_checkpoint(patched)
        assert model.weights["stem.conv1"].alpha[0] == 1.0

    def test_compile_deterministic(self, small_manifest):
        a = serialize(compile_checkpoint(small_manifest))
        b = serialize(compile_checkpoint(small_manifest))
        assert a == b

    @pytest.mark.parametrize("c", [1e308, 1e307])
    def test_overflowing_fold_is_compile_error(self, small_manifest, c):
        # c times the accumulator bound is past float range at the first BnAct
        # fed by c; refused there, not compiled into tables verify cannot check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompileError, match="s1.b1.bn0"):
                compile_checkpoint(small_manifest, shared_const=c)

    def test_const_convs_carry_shared_const(self, small_model):
        edges = small_model.graph.edges
        w = small_model.weights["s1.b1.conv2"]
        assert edges["s1.b1.conv2.out"].scale == "c"
        assert np.all(w.alpha == 0.5)
        assert edges["s1.b1.conv1.out"].scale == "alpha"


class TestSerialization:
    def test_round_trip_equivalent(self, small_model):
        blob = serialize(small_model)
        back = load(blob)
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
        assert struct.unpack_from("<II", blob, 8) == (len(blob) - 20, zlib.crc32(blob[:12]))
        assert zlib.crc32(blob[16:-4]) == struct.unpack("<I", blob[-4:])[0]

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

    def test_v2_file_is_version_error(self, small_model):
        # a v2 file stored a preset name where v3 stores the layout
        blob = bytearray(serialize(small_model))
        struct.pack_into("<I", blob, 4, 2)
        with pytest.raises(VersionError, match="version 2"):
            load(bytes(blob))

    def test_generated_layout_round_trips(self, rng):
        cfg = ArchConfig("conv", (1, 1, 1, 1), (64, 64, 64, 64), classes=7, k=3)
        model = compile_checkpoint(gen_random_checkpoint(cfg, seed=0))
        blob = serialize(model)
        back = load(blob)
        assert back.graph.arch == cfg
        assert serialize(back) == blob
        img = random_image(rng, 32)
        assert execute(back, img).logits.tobytes() == execute(model, img).logits.tobytes()

    def test_graph_without_arch_is_refused(self, small_model):
        # a graph wired by hand has no layout for the header
        bare = dataclasses.replace(small_model, graph=GraphDef(small_model.graph.nodes))
        assert bare.graph == small_model.graph and bare.graph.arch is None
        with pytest.raises(ConfigError, match="ArchConfig"):
            serialize(bare)

    def test_v1_file_is_version_error(self, small_model):
        # a v1 file has the same magic and a version of 1; no v1 reader is left
        blob = bytearray(serialize(small_model))
        struct.pack_into("<I", blob, 4, 1)
        with pytest.raises(VersionError, match="version 1"):
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

    @pytest.mark.parametrize("bit", [0, 7, 20, 31])
    def test_corrupt_body_length_is_checksum_error(self, small_model, bit):
        # a length that claims more bytes than the file has is not a truncation
        blob = bytearray(serialize(small_model))
        struct.pack_into("<I", blob, 8, struct.unpack_from("<I", blob, 8)[0] ^ 1 << bit)
        with pytest.raises(ChecksumError, match="prefix"):
            load(bytes(blob))

    @pytest.mark.parametrize("field", ["block", "counts", "channels", "classes"])
    def test_corrupt_layout_is_checksum_error(self, small_model, field):
        # a changed layout would parse as another model; the CRC comes first
        blob = bytearray(serialize(small_model))
        blob[HEADER_AT[field]] ^= 0x01
        with pytest.raises(ChecksumError):
            load(bytes(blob))

    def test_corrupt_threshold_is_checksum_error(self, small_model):
        blob = rewrite_threshold_row(serialize(small_model), "s1.b1.bn1", 10**6, recrc=False)
        with pytest.raises(ChecksumError):
            load(blob)

    @pytest.mark.parametrize("t1,degenerate", [(10**6, None), (4, 1), (256, 1), (-1, 1)])
    def test_bad_threshold_table_is_format_error(self, small_model, t1, degenerate):
        # an unsorted row, or a constant code past 3
        blob = rewrite_threshold_row(serialize(small_model), "s1.b1.bn1", t1, degenerate)
        with pytest.raises(FormatError, match="s1.b1.bn1"):
            load(blob)

    @pytest.mark.parametrize("flags", [4, 0x80, 0xFF])
    def test_unknown_flag_bits_are_format_error(self, small_model, flags):
        blob = bytearray(serialize(small_model))
        blob[record_offset(blob, "s1.b1.bn1") + 12] |= flags
        with pytest.raises(FormatError, match="s1.b1.bn1.*flag bits"):
            load(resign(bytes(blob[16:-4])))

    def test_thresholds_within_bound_plus_one(self, small_model):
        # one past the edge's bound is the sentinel fuse_thresholds clamps to;
        # two past is out of range, on load and on serialize
        g = small_model.graph
        bound = g.edges[next(n.src for n in g.bnacts if n.name == "s1.b1.bn1")].bound
        blob = serialize(small_model)
        load(rewrite_threshold_row(blob, "s1.b1.bn1", -(bound + 1)))
        with pytest.raises(FormatError, match="s1.b1.bn1.*bound"):
            load(rewrite_threshold_row(blob, "s1.b1.bn1", -(bound + 2)))
        tbl = small_model.thresholds["s1.b1.bn1"]
        t = tbl.t.copy()
        t[~tbl.degenerate, 0] = -(bound + 2)
        bad = dataclasses.replace(
            small_model,
            thresholds={**small_model.thresholds, "s1.b1.bn1": dataclasses.replace(tbl, t=t)},
        )
        with pytest.raises(DomainError, match="s1.b1.bn1.*bound"):
            serialize(bad)

    def test_degenerate_row_stores_zero_t2_t3(self, small_model):
        # a degenerate channel is (const code, 0, 0); (2, 7, 9) would load
        # and then serialize as (2, 0, 0)
        blob = bytearray(serialize(small_model))
        row = record_offset(blob, "s1.b1.bn1")
        struct.pack_into("<iiiB", blob, row, 2, 0, 0, 2)
        assert serialize(load(resign(bytes(blob[16:-4])))) == resign(bytes(blob[16:-4]))
        struct.pack_into("<iiiB", blob, row, 2, 7, 9, 2)
        with pytest.raises(FormatError, match="s1.b1.bn1.*degenerate"):
            load(resign(bytes(blob[16:-4])))
        # a degenerate channel's slope is 0, so it is never also ascending
        struct.pack_into("<iiiB", blob, row, 2, 0, 0, 3)
        with pytest.raises(FormatError, match="s1.b1.bn1.*flag bits"):
            load(resign(bytes(blob[16:-4])))

    def test_pad_weight_bits_must_be_one(self, small_model):
        # stem.conv1 reads 3k channels, so each tap word has 64 - 3k pad lanes
        node = small_model.graph.node("stem.conv1")
        lanes = node.spec.in_ch % 64
        assert lanes == 3 * small_model.graph.arch.k
        blob = bytearray(serialize(small_model))
        first_word = record_offset(blob, "stem.conv1") + 8 * node.spec.out_ch  # after the scales
        for lane in (lanes, 63):
            bad = bytearray(blob)
            bad[first_word + lane // 8] &= ~(1 << lane % 8) & 0xFF
            with pytest.raises(FormatError, match="stem.conv1.*pad"):
                load(resign(bytes(bad[16:-4])))
        # a logical lane below the pad is a weight, free to be 0 or 1
        ok = bytearray(blob)
        ok[first_word + (lanes - 1) // 8] ^= 1 << (lanes - 1) % 8
        load(resign(bytes(ok[16:-4])))

    def test_thermometer_length_checked_before_use(self, small_model):
        blob = bytearray(serialize(small_model))
        struct.pack_into("<I", blob, HEADER_AT["k"], 2**31)
        with pytest.raises(FormatError, match="thermometer"):
            load(resign(bytes(blob[16:-4])))

    @pytest.mark.parametrize("block", [2, 0xFF])
    def test_unknown_block_kind_is_format_error(self, small_model, block):
        # the layout replaces the name a v2 file stored; keep the checksum
        # valid so the header decoder must catch it
        blob = bytearray(serialize(small_model))
        blob[HEADER_AT["block"]] = block
        with pytest.raises(FormatError, match="block kind"):
            load(resign(bytes(blob[16:-4])))

    def test_trailing_bytes(self, small_model):
        # keep the checksums valid so the structural checks must catch it:
        # bytes after the last record, and bytes after the trailing CRC
        blob = serialize(small_model)
        with pytest.raises(FormatError, match="after the last record"):
            load(resign(blob[16:-4] + b"\x00\x00\x00"))
        with pytest.raises(FormatError, match="after the checksum"):
            load(blob + b"\x00")


def with_header_c(blob: bytes, c: float, alpha_out: float | None = None) -> bytes:
    """Re-sign ``blob`` with the header's shared constant (and alpha_out) replaced."""
    data = bytearray(blob)
    struct.pack_into("<d", data, HEADER_AT["c"], c)
    if alpha_out is not None:
        struct.pack_into("<d", data, HEADER_AT["alpha_out"], alpha_out)
    return resign(bytes(data[16:-4]))


class TestLoadChecksGraphAndScales:
    """c and alpha_out are stored once; the scales a file stores must be finite and > 0."""

    def test_unchanged_rewrite_reproduces_file(self, small_model):
        blob = serialize(small_model)
        assert with_header_c(blob, 0.5, small_model.alpha_out) == blob
        row = record_offset(blob, "s1.b1.bn1")
        assert rewrite_threshold_row(blob, "s1.b1.bn1", *struct.unpack_from("<i", blob, row)) == blob

    def test_scales_come_from_the_header(self, small_model):
        back = load(with_header_c(serialize(small_model), 0.25, 3.0))
        edges = back.graph.edges
        for node in back.graph.convs:
            alpha = back.weights[node.name].alpha
            if node.name == "head.conv":
                assert (alpha == 3.0).all() and back.alpha_out == 3.0
            elif edges[node.dst].scale == "c":
                assert (alpha == 0.25).all()
            else:
                assert np.array_equal(alpha, small_model.weights[node.name].alpha)

    @pytest.mark.parametrize("value", [-1.0, np.nan, 0.0, np.inf])
    def test_head_scale_must_be_finite_and_positive(self, small_model, value):
        blob = with_header_c(serialize(small_model), 0.5, value)
        with pytest.raises(FormatError, match="head.conv"):
            load(blob)

    @pytest.mark.parametrize("layer", ["stem.conv1", "s1.b1.conv1"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, 0.0, np.inf])
    def test_conv_scales_must_be_finite_and_positive(self, small_model, layer, value):
        blob = bytearray(serialize(small_model))
        struct.pack_into("<d", blob, record_offset(blob, layer) + 8 * 3, value)
        with pytest.raises(FormatError, match=layer):
            load(resign(bytes(blob[16:-4])))

    @pytest.mark.parametrize("c", [np.nan, 0.0, -0.5, np.inf])
    def test_header_c_must_be_finite_and_positive(self, small_model, c):
        with pytest.raises(FormatError, match="shared constant"):
            load(with_header_c(serialize(small_model), c))


class TestDegenerate:
    def test_bnact_record_bytes(self, small_manifest):
        # each channel is <iiiB: (t1, t2, t3) or (const code, 0, 0), then
        # flag bit 0 ascending and bit 1 degenerate
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
            arch=small_manifest.arch, shared_const=0.5,
            convs=dict(small_manifest.convs), bnacts=bnacts,
        )
        model = compile_checkpoint(patched)
        tbl = model.thresholds["s3.b1.bn1"]
        assert tbl.degenerate[7] and tbl.const_code[7] == 2 and not tbl.ascending[3]
        want = b"".join(
            struct.pack(
                "<iiiB",
                *((int(tbl.const_code[ch]), 0, 0) if tbl.degenerate[ch] else map(int, tbl.t[ch])),
                int(tbl.ascending[ch]) | int(tbl.degenerate[ch]) << 1,
            )
            for ch in range(tbl.channels)
        )
        blob = serialize(model)
        pos = record_offset(blob, "s3.b1.bn1")
        assert blob[pos : pos + len(want)] == want

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
            arch=small_manifest.arch, shared_const=0.5,
            convs=dict(small_manifest.convs), bnacts=bnacts,
        )
        model = compile_checkpoint(patched)
        table = model.thresholds["s3.b1.bn1"]
        assert table.degenerate[7]
        blob = serialize(model)
        back = load(blob)
        assert serialize(back) == blob
        assert back.thresholds["s3.b1.bn1"].degenerate[7]
        assert (
            back.thresholds["s3.b1.bn1"].const_code[7] == table.const_code[7]
        )
        img = random_image(rng)
        assert np.array_equal(
            execute(model, img).logits, execute(back, img).logits
        )
