import dataclasses
import io
import json
import struct
import tracemalloc
import warnings
import zlib
from collections.abc import Mapping, MutableMapping
from pathlib import Path

import numpy as np
import pytest

import ern.compiler
from ern.compiler import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointManifest,
    ConvReader,
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
from ern.graph import ArchConfig, GraphDef, arch_config, build_model, execute
from ern.oracle import cross_check, oracle_execute, oracle_from_manifest
from ern.tensor import BLOCK_BYTES, LANES, padded_channels, row_blocks

from conftest import (
    HEADER_AT,
    assert_same_bytes,
    break_after_first_read,
    break_blob,
    random_image,
    record_offset,
    replace_table,
    resign,
    rewrite_threshold_row,
    rounded_mean_abs,
)


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


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    # s4.b1.conv2 is 384 x 384 x 3 x 3: 5.3 MB of floats, read in many blocks
    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    @pytest.mark.parametrize("defect", ["truncated", "extended"])
    def test_blob_changed_between_reads(self, ckpt, monkeypatch, build, defect):
        m = load_manifest(ckpt)
        broken = break_after_first_read(monkeypatch, ckpt / "s4.b1.conv2.bin", defect)
        with pytest.raises(ConfigError, match="s4.b1.conv2"):
            build(m)
        assert broken  # the first range was read whole, the next one refused

    def test_save_reads_each_blob_once(self, ckpt, tmp_path, monkeypatch):
        m = load_manifest(ckpt)
        fromfile = np.fromfile
        reads = []

        def counted(file, *args, **kwargs):
            reads.append(Path(file).stem)
            return fromfile(file, *args, **kwargs)

        monkeypatch.setattr(np, "fromfile", counted)
        save_manifest(m, tmp_path / "copy")
        assert sorted(reads) == sorted(m.convs)
        for name in m.convs:
            assert (tmp_path / "copy" / f"{name}.bin").read_bytes() == (
                ckpt / f"{name}.bin"
            ).read_bytes()

    def test_reader_checks_every_range(self, ckpt):
        node = next(n for n in build_model(arch_config("erns18x075")).convs
                    if n.name == "s4.b1.conv2")
        m = load_manifest(ckpt)
        want = m.convs[node.name]
        with m.conv_weights(node) as w:
            assert w.shape == want.shape == (384, 384, 3, 3) and w.size == want.size
            assert np.array_equal(w[10:20], want.reshape(-1)[10:20])
            assert np.array_equal(w.rows(slice(2, 4)), want[2:4])
            break_blob(ckpt / "s4.b1.conv2.bin", "extended")
            with pytest.raises(ConfigError, match="s4.b1.conv2"):
                w[0:1]

    def test_blob_reads_build_what_arrays_build(self, small_manifest, small_model, ckpt):
        m = load_manifest(ckpt)
        assert serialize(compile_checkpoint(m)) == serialize(small_model)
        got, want = oracle_from_manifest(m), oracle_from_manifest(small_manifest)
        assert got.alpha_out == want.alpha_out
        for name, words in want.words.items():
            assert got.words[name].tobytes() == words.tobytes(), name
        g = want.graph
        alpha_edges = {n.dst for n in g.convs if g.edges[n.dst].scale == "alpha"}
        assert set(got.edge_scale) == set(want.edge_scale) == alpha_edges
        for edge, scale in want.edge_scale.items():
            assert got.edge_scale[edge].tobytes() == scale.tobytes(), edge

    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    def test_each_conv_read_once(self, ckpt, monkeypatch, build):
        # every weight of every conv is read by exactly one range
        m = load_manifest(ckpt)
        read = ConvReader.__getitem__
        spans: dict[str, list[tuple[int, int]]] = {}

        def record(self, span):
            spans.setdefault(self.name, []).append(span.indices(self.size)[:2])
            return read(self, span)

        monkeypatch.setattr(ConvReader, "__getitem__", record)
        build(m)
        convs = m.graph().convs
        assert set(spans) == {n.name for n in convs}
        for node in convs:
            s = node.spec
            ends = [0]
            for start, stop in sorted(spans[node.name]):
                assert start == ends[-1] < stop, node.name
                ends.append(stop)
            assert ends[-1] == s.out_ch * s.fan_in, node.name

    def test_read_cut_short_after_the_size_check(self, ckpt, monkeypatch):
        # a blob truncated between a read's size check and its np.fromfile
        node = build_model(arch_config("erns18x075")).convs[0]
        m = load_manifest(ckpt)
        with m.conv_weights(node) as w:
            break_blob(ckpt / f"{node.name}.bin", "truncated")
            monkeypatch.setattr(ern.compiler, "_check_conv_blob", lambda *args: None)
            with pytest.raises(ConfigError, match=node.name):
                w[w.size - 2 : w.size]

    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    @pytest.mark.parametrize("source", ["blob", "array"])
    def test_nan_in_last_row_of_last_block(self, small_manifest, ckpt, build, source):
        layer = "s4.b1.conv2"
        assert len(list(row_blocks(384, 4 * 384 * 9))) > 1
        if source == "blob":
            w = np.fromfile(ckpt / f"{layer}.bin", dtype="<f4")
            w[-1] = np.nan
            w.tofile(ckpt / f"{layer}.bin")
            m = load_manifest(ckpt)
        else:
            w = small_manifest.convs[layer].copy()
            w[-1, -1, -1, -1] = np.nan
            m = dataclasses.replace(small_manifest, convs={**small_manifest.convs, layer: w})
        with pytest.raises(CompileError, match=layer):
            build(m)

    def test_compile_peak_below_checkpoint_floats(self, tmp_path):
        save_manifest(gen_random_checkpoint("erns18", seed=5), tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        conv_bytes = sum(
            4 * int(np.prod(e["shape"])) for e in doc["layers"].values() if e["kind"] == "conv"
        )
        _, peak = traced_peak(lambda: compile_checkpoint(load_manifest(tmp_path)))
        assert peak < conv_bytes


class FreshCopies(Mapping):
    """``convs`` whose every lookup makes a fresh array, as a loaded manifest's reads do."""

    def __init__(self, convs):
        self._convs = convs

    def __getitem__(self, name):
        return self._convs[name].copy()

    def __iter__(self):
        return iter(self._convs)

    def __len__(self):
        return len(self._convs)


class TestWorkingSet:
    """Compile, serialize, the oracle build and the cross-check hold no layer of floats.

    Each bound is in the sizes of erns50's layers.  Before the blocked
    reductions the compile, serialize and oracle-build peaks were 34.0,
    14.3 and 22.0 MB; before the row-block reads, 15.2, 3.9 and 13.2 MB,
    against the bounds of 5.3, 4.5 and 5.3 MB now.
    """

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("erns50")
        save_manifest(gen_random_checkpoint("erns50", seed=2), path)
        return path

    @pytest.fixture(scope="class")
    def sizes(self):
        specs = [n.spec for n in build_model(arch_config("erns50")).convs]
        counts = [s.out_ch * s.in_ch * s.kh * s.kw for s in specs]
        return {
            "largest": max(counts),  # weights of the largest conv
            "words": sum(8 * s.out_ch * padded_channels(s.in_ch) // LANES * s.kh * s.kw
                         for s in specs),
            "bnact_records": 13 * sum(n.channels for n in build_model(arch_config("erns50")).bnacts),
        }

    def test_compile(self, ckpt, sizes):
        m = load_manifest(ckpt)
        _, peak = traced_peak(lambda: compile_checkpoint(m))
        # every packed word and a few blocks; a whole layer's floats (9.4 MB) goes over
        assert peak < sizes["words"] + 4 * BLOCK_BYTES

    def test_compile_drops_floats_before_the_next_read(self):
        # the last three convs, 512 x 512 x 3 x 3, are the largest and adjacent
        cfg = ArchConfig("conv", (1, 1, 1, 2), (64, 64, 64, 512), classes=7, k=1)
        src = gen_random_checkpoint(cfg, seed=4)
        m = dataclasses.replace(src, convs=FreshCopies(src.convs))
        specs = [n.spec for n in build_model(cfg).convs]
        largest = max(s.out_ch * s.in_ch * s.kh * s.kw for s in specs)
        words = sum(8 * s.out_ch * padded_channels(s.in_ch) // LANES * s.kh * s.kw
                    for s in specs)
        _, peak = traced_peak(lambda: compile_checkpoint(m))
        # one conv's float32 weights (each lookup's copy), every packed word, blocks;
        # holding the previous conv's floats at the next lookup goes over it
        assert peak < 4 * largest + words + 4 * BLOCK_BYTES

    def test_serialize(self, ckpt):
        model = compile_checkpoint(load_manifest(ckpt))
        blob, peak = traced_peak(lambda: serialize(model))
        assert peak < 1.25 * len(blob)

    def test_serialize_to_file(self, ckpt, sizes, tmp_path):
        model = compile_checkpoint(load_manifest(ckpt))
        with open(tmp_path / "m.ern", "wb") as f:
            size, peak = traced_peak(lambda: serialize(model, f))
        assert size == (tmp_path / "m.ern").stat().st_size > 3_000_000
        # the BnAct records and small change; the file's bytes go over
        assert peak < sizes["bnact_records"] + BLOCK_BYTES

    def test_load_from_file(self, ckpt, tmp_path):
        path = tmp_path / "m.ern"
        path.write_bytes(serialize(compile_checkpoint(load_manifest(ckpt))))
        with open(path, "rb") as f:
            tracemalloc.start()
            try:
                model = load(f)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert held > 0.9 * sum(w.bits.nbytes for w in model.weights.values())
        # the model and one chunk or record; the file's bytes (3.6 MB) beside it go over
        assert peak < held + BLOCK_BYTES

    def test_oracle_build(self, ckpt, sizes):
        m = load_manifest(ckpt)
        _, peak = traced_peak(lambda: oracle_from_manifest(m))
        # every conv's words and a few blocks
        assert peak < sizes["words"] + 4 * BLOCK_BYTES

    def test_oracle_build_against_the_model(self, ckpt):
        m = load_manifest(ckpt)
        model = compile_checkpoint(m)
        om, peak = traced_peak(lambda: oracle_from_manifest(m, model=model))
        assert all(om.words[n] is w.bits for n, w in model.weights.items())
        # the scales and a few blocks: no second copy of the words
        assert peak < 4 * BLOCK_BYTES

    def test_cross_check(self, ckpt):
        m = load_manifest(ckpt)
        model, om = compile_checkpoint(m), oracle_from_manifest(m)
        img = random_image(np.random.default_rng(5))
        _, engine = traced_peak(lambda: execute(model, img))
        _, oracle = traced_peak(lambda: oracle_execute(om, img))
        report, peak = traced_peak(lambda: cross_check(model, om, [img]))
        assert report.ok
        # one step's engine and oracle maps at a time, never an image's compared edges
        assert peak <= engine + oracle + 2 * BLOCK_BYTES


class TestFloat32Source:
    """Every conv block is float32, so an in-memory manifest builds what its saved copy builds."""

    def test_reader_casts_arrays_to_float32(self, rng):
        w = rng.standard_normal((3, 2, 3, 3)) * (1 + 1e-9)
        with ConvReader("c", w.shape, w) as r:
            flat, rows = r[0 : w.size], r.rows(slice(1, 3))
        assert flat.dtype == rows.dtype == np.float32
        assert np.array_equal(flat, np.float32(w).reshape(-1))
        assert np.array_equal(rows, np.float32(w)[1:3])

    def test_float64_manifest_builds_what_its_saved_copy_builds(self, small_manifest, tmp_path):
        # float32 rounds these otherwise: -1e-50 to -0.0, whose sign is +1, and
        # 1 + 1e-9 to 1; every other weight is nudged off its float32 value
        convs = {n: w.astype(np.float64) + 1e-9 for n, w in small_manifest.convs.items()}
        for name in ("stem.conv1", "s1.b1.conv2", "head.conv"):  # "alpha", "c", "alpha_out"
            convs[name].flat[:2] = [-1e-50, 1 + 1e-9]
        wide = dataclasses.replace(small_manifest, convs=convs)
        save_manifest(wide, tmp_path)
        saved = load_manifest(tmp_path)
        assert_same_bytes(serialize(compile_checkpoint(wide)), serialize(compile_checkpoint(saved)))
        got, want = oracle_from_manifest(wide), oracle_from_manifest(saved)
        assert got.alpha_out == want.alpha_out
        for name, words in want.words.items():
            assert got.words[name].tobytes() == words.tobytes(), name
        assert set(got.edge_scale) == set(want.edge_scale)
        for edge, scale in want.edge_scale.items():
            assert got.edge_scale[edge].tobytes() == scale.tobytes(), edge

    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    def test_weight_past_float32_range(self, small_manifest, tmp_path, build):
        # as float32 it is inf: saving refuses it before writing anything,
        # and the manifest in memory builds nothing either
        convs = dict(small_manifest.convs)
        convs["stem.conv2"] = convs["stem.conv2"].astype(np.float64)
        convs["stem.conv2"][0, 0, 0, 0] = 1e300
        wide = dataclasses.replace(small_manifest, convs=convs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="stem.conv2"):
                save_manifest(wide, tmp_path / "ckpt")
            with pytest.raises(CompileError, match="stem.conv2"):
                build(wide)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("stat", ["gamma", "beta", "mean", "var"])
    @pytest.mark.parametrize("build", [compile_checkpoint, oracle_from_manifest])
    def test_statistic_past_float32_range(self, small_manifest, tmp_path, build, stat):
        bnacts = dict(small_manifest.bnacts)
        values = getattr(bnacts["s2.b1.bn1"], stat).copy()
        values[3] = 1e300
        bnacts["s2.b1.bn1"] = dataclasses.replace(bnacts["s2.b1.bn1"], **{stat: values})
        wide = dataclasses.replace(small_manifest, bnacts=bnacts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="s2.b1.bn1"):
                save_manifest(wide, tmp_path / "ckpt")
            with pytest.raises(CompileError, match="s2.b1.bn1"):
                build(wide)
        assert not (tmp_path / "ckpt").exists()

    def test_float64_batch_norm_builds_what_its_saved_copy_builds(self, tmp_path):
        # each nudged statistic rounds back to its float32 value when saved;
        # held as float64, one threshold of this checkpoint folded otherwise
        m = gen_random_checkpoint("erns18x075", seed=5)
        up, down = 1 + 2.5e-8, 1 - 2.5e-8
        bnacts = {
            n: dataclasses.replace(r, gamma=r.gamma * up, mean=r.mean * up, var=r.var * down)
            for n, r in m.bnacts.items()
        }
        wide = dataclasses.replace(m, bnacts=bnacts)
        save_manifest(wide, tmp_path)
        saved = load_manifest(tmp_path)
        assert_same_bytes(serialize(compile_checkpoint(wide)), serialize(compile_checkpoint(saved)))
        got, want = oracle_from_manifest(wide), oracle_from_manifest(saved)
        for name, rec in want.bns.items():
            for stat in ("gamma", "beta", "mean", "var"):
                assert getattr(got.bns[name], stat).tobytes() == getattr(rec, stat).tobytes()

    def test_float32_batch_norm_is_read_as_held(self, small_manifest):
        # a record already at float32 is not copied, so the oracle holds no twin
        for bn in small_manifest.graph().bnacts:
            assert small_manifest.bn_params(bn) is small_manifest.bnacts[bn.name]


class TestCompile:
    def test_scales_match_whole_layer(self, small_manifest, small_model):
        # alpha_out is the head's mean |w| rounded once; alpha, each filter's mean
        head = small_manifest.convs["head.conv"]
        assert small_model.alpha_out == rounded_mean_abs(head)
        g = small_model.graph
        for node in g.convs:
            if g.edges[node.dst].scale == "alpha":
                w = small_manifest.convs[node.name]
                want = np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)
                assert small_model.weights[node.name].alpha.tobytes() == want.tobytes()

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

    def test_calls_the_traced_names(self, small_manifest, small_model, monkeypatch):
        # perfbench times these at their ern.compiler names; a compile that
        # stopped calling one would report zero time for its layer, not fail
        calls = dict.fromkeys(("binarize_weights", "pack_weights", "fuse_thresholds"), 0)
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(ern.compiler, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ern.compiler, name, counted)
        model = compile_checkpoint(small_manifest)
        g = model.graph
        assert calls["binarize_weights"] == calls["pack_weights"] >= len(g.convs)
        assert calls["fuse_thresholds"] == len(g.bnacts)
        assert serialize(model) == serialize(small_model)

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

    @pytest.mark.parametrize("arch", ["erns50", "erns101"])
    def test_loaded_tables_hold_only_their_run_time_form(self, arch):
        # sign and ts at the edge's width, 4 values a channel; the int64 rows
        # and bool flags of the record are derived on demand
        model = load(serialize(compile_checkpoint(gen_random_checkpoint(arch, seed=1))))
        g = model.graph
        for bn in g.bnacts:
            tbl, dtype = model.thresholds[bn.name], g.edges[bn.src].dtype
            held = [v for v in vars(tbl).values() if isinstance(v, np.ndarray)]
            assert {v.dtype for v in held} == {dtype}, bn.name
            assert sum(v.nbytes for v in held) == 4 * bn.channels * dtype.itemsize, bn.name

    def test_serialize_to_file_writes_the_bytes(self, small_model, tmp_path):
        path = tmp_path / "m.ern"
        with open(path, "wb") as f:
            size = serialize(small_model, f)
        blob = serialize(small_model)
        assert path.read_bytes() == blob
        assert size == len(blob)

    def test_load_from_file_is_load_from_bytes(self, small_model, tmp_path):
        blob = serialize(small_model)
        path = tmp_path / "m.ern"
        path.write_bytes(b"junk" + blob)
        with open(path, "rb") as f:
            f.seek(4)  # a file is read from its position
            back = load(f)
        assert serialize(back) == blob
        for name, w in back.weights.items():
            assert w.bits.flags.writeable and w.bits.dtype == np.uint64, name

    def test_pipe_is_read_whole(self, small_model):
        blob = serialize(small_model)

        class Pipe(io.RawIOBase):
            def __init__(self):
                self.data = io.BytesIO(blob)

            def readinto(self, b):
                return self.data.readinto(b)

            def readable(self):
                return True

        pipe = io.BufferedReader(Pipe())
        assert not pipe.seekable()
        assert serialize(load(pipe)) == blob

    def test_file_changed_between_reads(self, small_model, tmp_path, monkeypatch):
        # the body CRC matched; a word changed before the records were read
        blob = serialize(small_model)
        path = tmp_path / "m.ern"
        path.write_bytes(blob)
        changed = bytearray(blob)
        changed[record_offset(blob, "s4.b1.conv2") + 8] ^= 1
        init = ern.compiler._Reader.__init__
        passes = []

        def change_before_second_pass(self, f, start, length):
            passes.append(start)
            if len(passes) == 2:
                path.write_bytes(changed)
            init(self, f, start, length)

        monkeypatch.setattr(ern.compiler._Reader, "__init__", change_before_second_pass)
        with open(path, "rb") as f, pytest.raises(ChecksumError, match="changed"):
            load(f)
        assert len(passes) == 2

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

    def test_bad_threshold_table_is_format_error(self, small_model):
        # a threshold far past the bound
        blob = rewrite_threshold_row(serialize(small_model), "s1.b1.bn1", 10**6)
        with pytest.raises(FormatError, match="s1.b1.bn1"):
            load(blob)

    @pytest.mark.parametrize("flags", [2, 3, 4, 0x80, 0xFF])
    def test_unknown_flag_bits_are_format_error(self, small_model, flags):
        # the flag byte is 1 ascending or 0 descending; 2 and 3 were an
        # older writer's constant-channel flag, refused rather than converted
        blob = bytearray(serialize(small_model))
        blob[record_offset(blob, "s1.b1.bn1") + 12] = flags
        with pytest.raises(FormatError, match="s1.b1.bn1.*flag byte is not 0 or 1"):
            load(resign(bytes(blob[16:-4])))

    def test_thresholds_within_bound_plus_one(self, small_model):
        # one past the edge's bound is the sentinel fuse_thresholds clamps to;
        # two past is out of range: a table refuses it, and so load does
        g = small_model.graph
        bound = g.edges[g.node("s1.b1.bn1").src].bound
        tbl = small_model.thresholds["s1.b1.bn1"]
        assert tbl.bound == bound
        blob = serialize(small_model)
        load(rewrite_threshold_row(blob, "s1.b1.bn1", -(bound + 1)))
        with pytest.raises(FormatError, match=f"s1.b1.bn1.*bound {bound} \\+ 1"):
            load(rewrite_threshold_row(blob, "s1.b1.bn1", -(bound + 2)))
        t = tbl.t.copy()
        t[:, 0] = -(bound + 2)
        with pytest.raises(DomainError, match=f"bound {bound} \\+ 1"):
            replace_table(tbl, t=t)

    @pytest.mark.parametrize("shift", [1, 2**15])
    def test_serialize_refuses_table_of_another_bound(self, small_model, shift):
        # the record stores no bound; load takes the edge's, so a table
        # built for another one would not load back as itself
        tbl = small_model.thresholds["s1.b1.bn1"]
        bad = dataclasses.replace(
            small_model,
            thresholds={
                **small_model.thresholds,
                "s1.b1.bn1": replace_table(tbl, bound=tbl.bound + shift),
            },
        )
        with pytest.raises(DomainError, match="s1.b1.bn1.*bound"):
            serialize(bad)

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
    """A batch norm of gamma 0 makes a constant channel: a row of sentinels."""

    def test_bnact_record_bytes(self, small_manifest):
        # each channel is <iiiB: t1 <= t2 <= t3, then its flag byte, 1
        # ascending or 0 descending; a channel of gamma 0 is an ascending
        # row of sentinels, here code 2 of 3
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
        s = tbl.bound + 1
        assert tbl.bound == model.graph.edges[model.graph.node("s3.b1.bn1").src].bound
        assert tbl.ascending[7] and tbl.t[7].tolist() == [-s, -s, s] and not tbl.ascending[3]
        want = b"".join(
            struct.pack("<iiiB", *map(int, tbl.t[ch]), int(tbl.ascending[ch]))
            for ch in range(tbl.channels)
        )
        blob = serialize(model)
        pos = record_offset(blob, "s3.b1.bn1")
        assert blob[pos : pos + len(want)] == want

    def test_zero_gamma_round_trips(self, small_manifest, rng):
        bnacts = {n: r for n, r in small_manifest.bnacts.items()}
        rec = bnacts["s3.b1.bn1"]
        gamma = rec.gamma.copy()
        gamma[7], gamma[8] = 0.0, -0.0
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
        assert table.ascending[7:9].all() and (np.abs(table.t[7:9]) == table.bound + 1).all()
        blob = serialize(model)
        back = load(blob)
        assert serialize(back) == blob
        assert np.array_equal(back.thresholds["s3.b1.bn1"].ascending, table.ascending)
        assert np.array_equal(back.thresholds["s3.b1.bn1"].t, table.t)
        assert back.thresholds["s3.b1.bn1"].bound == table.bound
        img = random_image(rng)
        assert np.array_equal(
            execute(model, img).logits, execute(back, img).logits
        )
