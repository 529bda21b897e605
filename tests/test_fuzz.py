"""Fuzzing of untrusted input: a damaged file always ends in a typed error.

``load`` raises :class:`ChecksumError`, :class:`BadMagicError` or
:class:`VersionError` for any single bit flip of a serialized
erns18x075, and :class:`TruncationError` for any truncation.  A re-signed
file with a structured edit (a flag byte, a threshold row, a
``stem.conv1`` weight lane, or a header field: block kind, a stage count
or width, classes, k, c or alpha_out) either raises a
:class:`FormatError` or loads as a model that serializes back to the same
bytes and meets the compiler's invariants, and ``ern infer`` on it exits
0 or 2, never with a traceback.
A threshold table refuses a row past its bound + 1 (drawn around the
bound and int16's range); within it, a table for an int16 accumulator
edge gives the same planes as the same rows at an int32 bound, for
accumulators at every threshold step and at +/-bound.
Small generated architectures (stage counts 1-2, widths 64 or 128, odd
class counts, k 1-21, resolutions 17-48; each draw builds one network of
each block kind, one run at an odd resolution and one at an even) compile,
serialize, load back byte for byte, run identically on both kernels and
pass ``cross_check``.  With adversarial batch norms drawn per layer
(zero or negative gammas, variance 1e-30 or 1e30, ``act_scale`` 1e-6 or
1e6, a shared constant near the fold's overflow refusal), again on one
network of each block kind per draw, each network either raises
:class:`CompileError` or does all of that, with no hard mismatch.
``decode_ppm`` returns a (3, H, W) uint8 image or raises
:class:`FormatError` for any damaged P6 file, and ``ern infer`` on one
exits 0 or 2, never with a traceback.  ``ern compile`` and
``ern verify`` on a checkpoint directory with one damaged
``manifest.json`` field or one damaged blob exit 0 or 2, never with a
traceback.  The runs are derandomized and keep no example database (the
profile ``conftest`` loads), so they draw the same cases on every run
and leave no files.
"""

import contextlib
import functools
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ern.cli import main
from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, save_manifest, serialize
from ern.errors import (
    BadMagicError,
    ChecksumError,
    CompileError,
    DomainError,
    FormatError,
    TruncationError,
    VersionError,
)
from ern.graph import BLOCKS, ArchConfig, execute
from ern.oracle import cross_check, oracle_from_manifest
from ern.ppm import decode_ppm
from ern.quant import BnParams, ThresholdTable, apply_thresholds
from ern.tensor import ACC_LIMIT, LANES, padded_channels

from conftest import HEADER_AT, record_offset, resign

FUZZ = settings(max_examples=1000)


@functools.cache
def model_file() -> bytes:
    """Built once; not a fixture, so a failing example does not print the file."""
    return serialize(compile_checkpoint(gen_random_checkpoint("erns18x075", seed=1)))


class TestModelFile:
    @FUZZ
    @given(data=st.data())
    def test_bit_flip_raises_format_error(self, data):
        blob = model_file()
        pos = data.draw(st.integers(0, len(blob) - 1), label="offset")
        bit = data.draw(st.integers(0, 7), label="bit")
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << bit
        with pytest.raises((ChecksumError, BadMagicError, VersionError)):
            load(bytes(damaged))

    @FUZZ
    @given(data=st.data())
    def test_truncation_raises_format_error(self, data):
        blob = model_file()
        length = data.draw(st.integers(0, len(blob) - 1), label="length")
        with pytest.raises(TruncationError):
            load(blob[:length])


@functools.cache
def model_graph():
    return load(model_file()).graph


@functools.cache
def offset(layer: str) -> int:
    return record_offset(model_file(), layer)


def int32_near(bound: int):
    """Thresholds around the edge's bound + 1 and int16's ends, and anywhere in int32."""
    edges = [0, 1, 2, 3, 4, bound, bound + 1, bound + 2, 2**15 - 2, 2**15 - 1, 2**15, 2**15 + 1]
    edges += [2**16, 2**31 - 1]
    return st.one_of(
        st.integers(-(bound + 2), bound + 2),
        st.sampled_from(edges + [-e for e in edges] + [-(2**31)]),
    )


@st.composite
def structured_edit(draw) -> tuple[int, bytes]:
    """One edit of ``model_file()`` as (offset, new bytes), drawn from its graph."""
    data = model_file()
    g = model_graph()
    edit = draw(st.sampled_from(["flags", "row", "pad", *HEADER_AT]), label="edit")
    if edit in ("flags", "row"):
        bn = draw(st.sampled_from(g.bnacts), label="bnact")
        pos = offset(bn.name) + 13 * draw(st.integers(0, bn.channels - 1), label="channel")
        if edit == "flags":
            return pos + 12, bytes([draw(st.integers(0, 255), label="flags")])
        near = int32_near(g.edges[bn.src].bound)
        rows = st.tuples(near, near, near)
        degenerate = st.tuples(st.integers(0, 3), st.just(0), st.just(0))
        t, flags = draw(
            st.one_of(
                st.tuples(st.one_of(rows, rows.map(sorted)), st.integers(0, 3)),
                st.tuples(degenerate, st.sampled_from([2, 3])),  # 3: also flagged ascending
            ),
            label="row",
        )
        return pos, struct.pack("<3iB", *t, flags)
    if edit == "pad":  # logical lanes are free; pad lanes must stay 1
        s = g.node("stem.conv1").spec
        words = s.out_ch * padded_channels(s.in_ch) // LANES * s.kh * s.kw
        pos = offset("stem.conv1") + 8 * s.out_ch  # after its scales
        word = draw(st.integers(0, words - 1), label="word")
        lane = draw(st.integers(0, LANES - 1), label="lane")
        pos += 8 * word + lane // 8
        return pos, bytes([data[pos] ^ 1 << lane % 8])
    if edit == "block":  # 0 conv and 1 bottleneck; 2-255 name no block kind
        return HEADER_AT[edit], bytes([draw(st.integers(0, 255), label=edit)])
    if edit == "counts":  # 0 is refused; up to 255 builds, then runs out of records
        stage = draw(st.integers(0, 3), label="stage")
        value = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 255]), st.integers(0, 255)), label=edit)
        return HEADER_AT[edit] + stage, bytes([value])
    if edit in ("channels", "classes", "k"):
        at = HEADER_AT[edit]
        if edit == "channels":
            at += 4 * draw(st.integers(0, 3), label="stage")
        special = {
            "channels": [0, 1, 63, 64, 100, 128, 384, 448, 512, 2**32 - 64, 2**32 - 1],
            "classes": [0, 1, 7, 999, 1000, 1001, 2**32 - 1],
            "k": [0, 1, 9, 10, 11, 21, 22, 21845, 21846, 2**32 - 1],
        }[edit]
        value = draw(st.one_of(st.sampled_from(special), st.integers(0, 2**32 - 1)), label=edit)
        return at, struct.pack("<I", value)
    value = draw(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 5e-324])), label=edit)
    return HEADER_AT[edit], struct.pack("<d", value)


def assert_compiler_invariants(m) -> None:
    """What ``compile_checkpoint`` guarantees of every model it makes."""
    g = m.graph
    for v in (m.shared_const, m.alpha_out):
        assert np.isfinite(v) and v > 0
    for node in g.convs:
        s, w = node.spec, m.weights[node.name]
        assert w.bits.shape == (s.out_ch, padded_channels(s.in_ch) // LANES, s.kh, s.kw)
        assert np.isfinite(w.alpha).all() and (w.alpha > 0).all()
        lanes = s.in_ch % LANES
        if lanes:
            assert (w.bits[:, -1] >> np.uint64(lanes) == np.uint64(2 ** (LANES - lanes) - 1)).all()
    for bn in g.bnacts:
        tbl, bound = m.thresholds[bn.name], g.edges[bn.src].bound
        assert tbl.bound == bound
        d = tbl.degenerate
        assert (np.diff(tbl.t[~d], axis=1) >= 0).all()
        assert np.abs(tbl.t).max() <= bound + 1
        assert not (tbl.ascending & d).any()
        assert not tbl.t[d, 1:].any() and ((tbl.t[d, 0] >= 0) & (tbl.t[d, 0] < 4)).all()
        assert tbl.dtype == tbl.sign.dtype == tbl.ts.dtype == g.edges[bn.src].dtype


def edited(edit: tuple[int, bytes]) -> bytes:
    """``model_file()`` with ``edit`` applied, re-signed."""
    pos, new = edit
    data = bytearray(model_file())
    data[pos : pos + len(new)] = new
    return resign(bytes(data[16:-4]))


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory) -> Path:
    """A directory holding one 17x17 raw image."""
    root = tmp_path_factory.mktemp("edits")
    (root / "img.raw").write_bytes(np.random.default_rng(5).integers(0, 256, 3 * 17 * 17,
                                                                     dtype=np.uint8).tobytes())
    return root


class TestStructuredEdits:
    @settings(max_examples=400)
    @given(edit=structured_edit())
    def test_load_refuses_or_round_trips(self, edit):
        blob = edited(edit)
        try:
            m = load(blob)
        except FormatError:
            return
        assert serialize(m) == blob
        assert_compiler_invariants(m)

    @settings(max_examples=100)
    @given(edit=structured_edit())
    # k 21 keeps stem.conv1's one word per tap and turns pad lanes into weights
    @example(edit=(HEADER_AT["k"], struct.pack("<I", 21)))
    def test_infer_exits_0_or_2(self, tmp_dir, edit):
        with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
            model = Path(tmp) / "m.ern"
            model.write_bytes(edited(edit))
            rc, err = run_cli(["infer", "--model", str(model), "--image", str(tmp_dir / "img.raw"),
                               "--raw", "3,17,17"])
        assert rc in (0, 2), err
        assert rc == 0 or err.startswith("ern:"), err


@st.composite
def int16_table(draw) -> tuple[np.ndarray, dict, int]:
    """Table rows for an int16 edge of a drawn bound, an accumulator map within it, the bound.

    Rows come from ``int32_near``, so they include the +/-(bound + 1)
    sentinels and values past them and past int16's range; channels are
    ascending, descending or degenerate, (code 0-3, 0, 0).  Each
    channel's accumulators are +/-bound, 0 and t - 1, t, t + 1 of each
    threshold, clipped to the bound.
    """
    bound = draw(
        st.one_of(st.sampled_from([1, 16512, 28416, 32765, 32766]), st.integers(1, 32766)),
        label="bound",
    )
    c = draw(st.integers(1, 70), label="channels")
    near = int32_near(bound)
    t = np.array(draw(st.lists(st.tuples(near, near, near).map(sorted), min_size=c, max_size=c),
                      label="rows"), dtype=np.int64)
    kind = np.array(draw(st.lists(st.integers(0, 2), min_size=c, max_size=c), label="kinds"))
    degenerate = kind == 2
    const = np.array(draw(st.lists(st.integers(0, 3), min_size=c, max_size=c), label="codes"))
    t[degenerate] = 0
    t[degenerate, 0] = const[degenerate]
    steps = t[:, :, None] + np.arange(-1, 2)
    acc = np.concatenate([np.tile([-bound, 0, bound], (c, 1)), steps.reshape(c, 9)], axis=1)
    fields = dict(t=t, ascending=kind == 0, degenerate=degenerate)
    return np.clip(acc, -bound, bound)[:, None, :], fields, bound


class TestThresholdWidths:
    @settings(max_examples=300)
    @given(case=int16_table(), wide_bound=st.integers(32767, ACC_LIMIT))
    def test_int16_table_equals_int32(self, case, wide_bound):
        acc, fields, bound = case
        if np.abs(fields["t"]).max() > bound + 1:  # past the sentinels: no table holds it
            with pytest.raises(DomainError, match=f"bound {bound} \\+ 1"):
                ThresholdTable(**fields, bound=bound)
            fields["t"] = np.clip(fields["t"], -(bound + 1), bound + 1)
        narrow = ThresholdTable(**fields, bound=bound)
        wide = ThresholdTable(**fields, bound=wide_bound)
        assert narrow.dtype == narrow.sign.dtype == narrow.ts.dtype == np.int16
        assert wide.dtype == wide.sign.dtype == wide.ts.dtype == np.int32
        got = apply_thresholds(acc.astype(np.int16), narrow)
        assert np.array_equal(got, apply_thresholds(acc.astype(np.int32), wide))


# the space of generated architectures, read by small_arch and adversarial_case:
# blocks per stage, stage widths, classes = 2 * half + 1 (always odd), and k
STAGE_COUNTS = (1, 2)  # inclusive, as is each range below
STAGE_WIDTHS = (64, 128)
CLASS_HALVES = (0, 499)
K_RANGE = (1, 21)
SEEDS = (0, 2**16)


@st.composite
def small_arch(draw, block: str) -> ArchConfig:
    """A small architecture of one block kind; odd class counts, any k up to 21."""
    return ArchConfig(
        block,
        tuple(draw(st.lists(st.integers(*STAGE_COUNTS), min_size=4, max_size=4), label="counts")),
        tuple(draw(st.lists(st.sampled_from(STAGE_WIDTHS), min_size=4, max_size=4),
                   label="widths")),
        classes=draw(st.integers(*CLASS_HALVES), label="classes") * 2 + 1,
        k=draw(st.integers(*K_RANGE), label="k"),
    )


def within_edge(g):
    """An ``observe`` hook: each acc output is at its edge's dtype and within its bound.

    No kernel checks its output's range, so this is where it is checked.
    min/max, not abs: int16's minimum has no positive counterpart.
    """

    def check(step, value):
        info = g.edges[step.node.dst]
        if info.kind == "acc":
            assert value.dtype == info.dtype, step.node.name
            assert -info.bound <= int(value.min()) and int(value.max()) <= info.bound, step.node.name

    return check


class TestGeneratedArchitectures:
    @settings(max_examples=15)
    @given(data=st.data(), odd=st.booleans(), seed=st.integers(*SEEDS))
    def test_round_trip_kernels_and_oracle_agree(self, data, odd, seed):
        # each draw builds one network of each block kind, one at an odd side
        for block, odd_side in zip(BLOCKS, (odd, not odd)):
            cfg = data.draw(small_arch(block), label=block)
            size = 2 * data.draw(st.integers(9, 24), label=f"{block} half side") - odd_side
            manifest = gen_random_checkpoint(cfg, seed)
            blob = serialize(compile_checkpoint(manifest))
            model = load(blob)
            assert model.graph.arch == cfg
            assert serialize(model) == blob
            img = np.random.default_rng(seed).integers(0, 256, (3, size, size), dtype=np.uint8)
            popcount = execute(model, img, observe=within_edge(model.graph)).logits
            naive = execute(model, img, kernel="naive", observe=within_edge(model.graph)).logits
            assert popcount.tobytes() == naive.tobytes()
            report = cross_check(model, oracle_from_manifest(manifest), [img])
            assert report.ok, report.summary()
            assert report.logits_equal
            assert sum(r.mismatches for r in report.layers.values()) == 0


BN_MODES = ("keep", "zero_gamma", "negative_gamma", "tiny_var", "huge_var", "tiny_scale",
            "huge_scale")


def adversarial(rec: BnParams, mode: str) -> BnParams:
    """``rec`` with one extreme batch-norm setting of ``mode`` (``BN_MODES``)."""
    gamma, var, act_scale = rec.gamma.copy(), rec.var, rec.act_scale
    if mode == "zero_gamma":  # every other channel: degenerate next to live
        gamma[::2] = 0.0
    elif mode == "negative_gamma":
        gamma = -np.abs(gamma)
    elif mode in ("tiny_var", "huge_var"):
        var = np.full_like(var, 1e-30 if mode == "tiny_var" else 1e30)
    elif mode in ("tiny_scale", "huge_scale"):
        act_scale = 1e-6 if mode == "tiny_scale" else 1e6
    return BnParams(gamma, rec.beta, rec.mean, var, rec.epsilon, act_scale)


# the refusal falls between 1e300 and 1e306 on these networks
ADVERSARIAL_C = (1.0, 1e300, 1e302, 1e303, 1e304, 1e305, 1e306)


def adversarial_case(n: int) -> tuple:
    """``(cfgs, modes, c, seed, side)``, all drawn from the one integer ``n``.

    One network of each block kind from ``small_arch``'s space, 1-6
    modes of ``BN_MODES``, c of ``ADVERSARIAL_C``, a checkpoint seed and
    an image side of 17-40.  Hypothesis follows each new draw with
    copies of it in which parts of equal label are made equal, so drawn
    part by part, four of 15 draws shared one modes, c, seed and side;
    one integer has no such parts, so each draw is new.  A failing draw
    is reported as the case it made, not as ``n``.
    """
    rng = np.random.default_rng(n)

    def ints(low: int, high: int, size=None):
        return rng.integers(low, high + 1, size).tolist()

    def pick(choices, size=None):
        i = ints(0, len(choices) - 1, size)
        return [choices[j] for j in i] if size is not None else choices[i]

    cfgs = tuple(
        ArchConfig(block, tuple(ints(*STAGE_COUNTS, 4)), tuple(pick(STAGE_WIDTHS, 4)),
                   classes=2 * ints(*CLASS_HALVES) + 1, k=ints(*K_RANGE))
        for block in BLOCKS
    )
    modes = pick(BN_MODES, ints(1, 6))
    return cfgs, modes, pick(ADVERSARIAL_C), ints(*SEEDS), ints(17, 40)


class TestAdversarialBatchNorm:
    @settings(max_examples=15)
    # each draw builds one network of each block kind
    @given(case=st.integers(0, 2**32 - 1).map(adversarial_case))
    # random checkpoints have no degenerate channel; here every other one
    # of each second layer is
    @example(
        case=((ArchConfig("bottleneck", (1, 1, 1, 1), (64, 64, 64, 64), classes=7, k=3),),
              ["zero_gamma", "keep"], 1.0, 0, 32),
    )
    # the fold's A was finite here but c * acc was not, and the oracle failed
    @example(
        case=((ArchConfig("bottleneck", (1, 1, 1, 1), (64, 64, 64, 64), classes=7, k=3),),
              ["huge_var"], 1e307, 0, 32),
    )
    def test_compile_refuses_or_runs_exactly(self, case):
        cfgs, modes, c, seed, side = case
        for cfg in cfgs:
            self.check(cfg, modes, c, seed, side)

    @staticmethod
    def check(cfg, modes, c, seed, side):
        # BnAct i takes modes[i % len(modes)]; c near the fold's overflow
        # refusal scales the residual branches' folds
        manifest = gen_random_checkpoint(cfg, seed, shared_const=c)
        for i, bn in enumerate(manifest.graph().bnacts):
            manifest.bnacts[bn.name] = adversarial(manifest.bnacts[bn.name], modes[i % len(modes)])
        try:
            model = compile_checkpoint(manifest)
        except CompileError:
            return
        degenerate = sum(int(t.degenerate.sum()) for t in model.thresholds.values())
        assert ("zero_gamma" in modes) == (degenerate > 0)
        blob = serialize(model)
        back = load(blob)
        assert serialize(back) == blob
        assert_compiler_invariants(model)
        assert_compiler_invariants(back)
        img = np.random.default_rng(seed).integers(0, 256, (3, side, side), dtype=np.uint8)
        popcount = execute(back, img).logits
        assert popcount.tobytes() == execute(back, img, kernel="naive").logits.tobytes()
        report = cross_check(back, oracle_from_manifest(manifest), [img])
        assert sum(r.mismatches for r in report.layers.values()) == 0, report.summary()
        assert report.ok, report.summary()
        assert report.logits_equal


PPM = b"P6\n# a 5x4 image\n5 4\n255\n" + bytes(range(60))
HEADER_BYTES = st.sampled_from(list(b"P6# \n0123456789"))


@st.composite
def damaged_ppm(draw) -> bytes:
    """``PPM`` with a few bytes replaced, header or pixels, then maybe truncated."""
    data = bytearray(PPM)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos] = draw(st.one_of(HEADER_BYTES, st.integers(0, 255)))
    return bytes(data[: draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))])


@pytest.fixture(scope="module")
def small_model(tmp_path_factory) -> Path:
    """A compiled model of a generated layout, written once."""
    cfg = ArchConfig("conv", (1, 1, 1, 1), (64, 64, 64, 64), classes=7, k=3)
    path = tmp_path_factory.mktemp("ppm") / "m.ern"
    path.write_bytes(serialize(compile_checkpoint(gen_random_checkpoint(cfg, seed=3))))
    return path


class TestPpmFile:
    @FUZZ
    @given(data=damaged_ppm())
    @example(data=b"P6\n" + b"9" * 5000 + b" 4\n255\n" + bytes(60))
    @example(data=b"P6\n5 4\n" + b"2" * 5000 + b"\n" + bytes(60))
    def test_image_or_format_error(self, data):
        try:
            img = decode_ppm(data)
        except FormatError:
            return
        assert img.dtype == np.uint8
        assert img.ndim == 3 and img.shape[0] == 3 and img.size > 0

    @settings(max_examples=100)
    @given(data=damaged_ppm())
    def test_infer_exits_0_or_2(self, small_model, data):
        with tempfile.TemporaryDirectory(dir=small_model.parent) as tmp:
            image = Path(tmp) / "img.ppm"
            image.write_bytes(data)
            rc, err = run_cli(["infer", "--model", str(small_model), "--image", str(image)])
        assert rc in (0, 2), err
        assert rc == 0 or err.startswith("ern:"), err


CKPT_ARCH = "erns18x075"
WRONG_TYPES = [None, True, "10", [], {}, [1, 2, 3, 4], 1.5, 7]
NUMBERS = [0, -1, -0.5, 5e-324, 1e308, float("inf"), float("nan"), 2**31, 2**64, 10**400]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> Path:
    """A clean erns18x075 checkpoint directory and, beside it, its compiled model."""
    root = tmp_path_factory.mktemp("ckpt")
    save_manifest(gen_random_checkpoint(CKPT_ARCH, seed=3, shared_const=0.5), root / "ckpt")
    assert main(["compile", "--manifest", str(root / "ckpt"), "--out", str(root / "m.ern")]) == 0
    return root


@functools.cache
def clean_manifest() -> dict:
    """The manifest ``checkpoint`` writes, rebuilt without touching disk."""
    g = gen_random_checkpoint(CKPT_ARCH, seed=3, shared_const=0.5).graph()
    layers = {n.name: {"kind": "conv", "file": f"{n.name}.bin",
                       "shape": [n.spec.out_ch, n.spec.in_ch, n.spec.kh, n.spec.kw]}
              for n in g.convs}
    layers.update({n.name: {"kind": "bnact", "file": f"{n.name}.bin", "channels": n.channels,
                            "epsilon": 1e-5, "act_scale": 1.0} for n in g.bnacts})
    return {"format": "ern-checkpoint-v1", "arch": CKPT_ARCH, "k": 10, "shared_const": 0.5,
            "layers": layers}


def blob_bytes(layer: dict) -> int:
    return 4 * (np.prod(layer["shape"]) if layer["kind"] == "conv" else 4 * layer["channels"])


@st.composite
def checkpoint_edit(draw) -> tuple:
    """One edit of the clean checkpoint: ("manifest", path, value) or ("blob", layer, size).

    ``path`` is a key path into ``manifest.json``; ``value`` None drops the
    key.  ``size`` is the new length in bytes of that layer's blob.
    """
    doc = clean_manifest()
    layers = sorted(doc["layers"])
    convs = [n for n in layers if doc["layers"][n]["kind"] == "conv"]
    bnacts = [n for n in layers if doc["layers"][n]["kind"] == "bnact"]
    edit = draw(st.sampled_from(
        ["drop", "type", "number", "shape", "channels", "kind", "file", "blob"]), label="edit")
    if edit == "blob":
        name = draw(st.sampled_from(layers), label="layer")
        size = blob_bytes(doc["layers"][name])
        delta = draw(st.sampled_from([-size, -4, -1, 1, 4, 64]), label="delta")
        return "blob", name, size + delta
    if edit in ("drop", "type"):
        key = draw(st.sampled_from(sorted(doc) + layers), label="key")
        if key in doc["layers"]:
            entry = doc["layers"][key]
            field = draw(st.sampled_from([None, *sorted(entry)]), label="field")
            path = ("layers", key) if field is None else ("layers", key, field)
        else:
            path = (key,)
        return "manifest", path, None if edit == "drop" else draw(st.sampled_from(WRONG_TYPES))
    if edit == "number":
        name = draw(st.sampled_from([None] + layers), label="layer")
        if name is None:
            path = (draw(st.sampled_from(["k", "shared_const"]), label="field"),)
        elif name in convs:
            path = ("layers", name, "shape", draw(st.integers(0, 3), label="dim"))
        else:
            field = draw(st.sampled_from(["channels", "epsilon", "act_scale"]), label="field")
            path = ("layers", name, field)
        return "manifest", path, draw(st.sampled_from(NUMBERS), label="value")
    if edit == "shape":
        name = draw(st.sampled_from(convs), label="layer")
        oc, ic, kh, kw = doc["layers"][name]["shape"]
        shapes = [[ic, oc, kh, kw], [oc, ic + 1, kh, kw], [oc - 1, ic, kh, kw],
                  [oc, ic, kw + 2, kh], [oc, ic, kh], [oc, ic, kh, kw, 1], [oc * ic, 1, kh, kw]]
        return "manifest", ("layers", name, "shape"), draw(st.sampled_from(shapes), label="shape")
    if edit == "channels":
        name = draw(st.sampled_from(bnacts), label="layer")
        c = doc["layers"][name]["channels"]
        value = draw(st.sampled_from([c - 1, c + 1, 2 * c, c // 2, 1]), label="channels")
        return "manifest", ("layers", name, "channels"), value
    name = draw(st.sampled_from(layers), label="layer")
    if edit == "kind":
        value = draw(st.sampled_from(["conv", "bnact", "Conv", "", "relu"]), label="kind")
    else:  # "file": a blob that is not there, or another layer's
        value = draw(st.sampled_from(["missing.bin", "", ".", f"{layers[0]}.bin"]), label="file")
    return "manifest", ("layers", name, edit), value


def apply_edit(src: Path, dst: Path, edit: tuple) -> None:
    """Make ``dst`` a copy of checkpoint ``src`` with ``edit`` applied; blobs are symlinked."""
    doc = json.loads((src / "manifest.json").read_text())
    for blob in src.glob("*.bin"):
        (dst / blob.name).symlink_to(blob)
    where, key, value = edit
    if where == "blob":
        (dst / f"{key}.bin").unlink()
        data = (src / f"{key}.bin").read_bytes()
        (dst / f"{key}.bin").write_bytes(data[:value] + bytes(max(0, value - len(data))))
    else:
        *parents, last = key
        node = doc
        for k in parents:
            node = node[k]
        if value is None:
            del node[last]
        else:
            node[last] = value
    (dst / "manifest.json").write_text(json.dumps(doc))


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


class TestCheckpointDirectory:
    @settings(max_examples=100)
    @given(edit=checkpoint_edit(), verify=st.integers(0, 7).map(lambda i: i == 0))
    # integers no float holds once raised an OverflowError and a numpy TypeError
    @example(edit=("manifest", ("layers", "head.bn", "epsilon"), 10**400), verify=False)
    @example(edit=("manifest", ("shared_const",), 2**64), verify=False)
    def test_compile_and_verify_exit_0_or_2(self, checkpoint, edit, verify):
        with tempfile.TemporaryDirectory(dir=checkpoint) as tmp:
            ckpt = Path(tmp)
            apply_edit(checkpoint / "ckpt", ckpt, edit)
            model = ckpt / "m.ern"
            rc, err = run_cli(["compile", "--manifest", str(ckpt), "--out", str(model)])
            assert rc in (0, 2), err
            assert rc == 0 or err.startswith("ern:"), err
            if not verify:
                return
            if rc == 2:  # the clean model against the damaged checkpoint
                model = checkpoint / "m.ern"
            rc, err = run_cli(["verify", "--model", str(model), "--manifest", str(ckpt),
                               "--images", "1", "--resolution", "32"])
            assert rc in (0, 2), err
            assert rc == 0 or err.startswith("ern:"), err
