"""Fuzzing of untrusted input: a damaged file always ends in a typed error.

``load`` raises :class:`ChecksumError`, :class:`BadMagicError` or
:class:`VersionError` for any single bit flip of a serialized
erns18x075, and :class:`TruncationError` for any truncation.  A re-signed
file with a structured edit (a flag byte, a threshold row, a
``stem.conv1`` weight lane, or the header's k, c or alpha_out) either
raises a :class:`FormatError` or loads as a model that serializes back to
the same bytes and meets the compiler's invariants.
``decode_ppm`` returns a (3, H, W) uint8 image or raises
:class:`FormatError` for any damaged P6 file.  The runs are derandomized
and keep no example database, so they draw the same cases on every run
and leave no files.
"""

import functools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize
from ern.errors import BadMagicError, ChecksumError, FormatError, TruncationError, VersionError
from ern.ppm import decode_ppm
from ern.tensor import LANES, padded_channels

from conftest import record_offset, resign

FUZZ = settings(database=None, derandomize=True, max_examples=1000, deadline=None)


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
    """Thresholds at and around the edge's bound + 1, and anywhere in int32."""
    edges = [0, 1, 2, 3, 4, bound, bound + 1, bound + 2, 2**31 - 1]
    return st.one_of(
        st.integers(-(bound + 2), bound + 2),
        st.sampled_from(edges + [-e for e in edges] + [-(2**31)]),
    )


@st.composite
def structured_edit(draw) -> tuple[int, bytes]:
    """One edit of ``model_file()`` as (offset, new bytes), drawn from its graph."""
    data = model_file()
    g = model_graph()
    (n,) = struct.unpack_from("<H", data, 16)
    edit = draw(st.sampled_from(["flags", "row", "pad", "k", "c", "alpha_out"]), label="edit")
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
    if edit == "k":
        return 18 + n, struct.pack("<I", draw(st.integers(0, 2**32 - 1), label="k"))
    value = draw(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 5e-324])), label=edit)
    return (22 if edit == "c" else 30) + n, struct.pack("<d", value)


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
        assert (np.diff(tbl.t, axis=1) >= 0).all()
        assert np.abs(tbl.t).max() <= bound + 1
        d = tbl.degenerate
        assert not (tbl.ascending & d).any()
        assert not tbl.t[d].any()
        assert (tbl.const_code[~d] == 0).all() and (tbl.const_code < 4).all()


class TestStructuredEdits:
    @settings(database=None, derandomize=True, max_examples=400, deadline=None)
    @given(edit=structured_edit())
    def test_load_refuses_or_round_trips(self, edit):
        pos, new = edit
        data = bytearray(model_file())
        data[pos : pos + len(new)] = new
        blob = resign(bytes(data[16:-4]))
        try:
            m = load(blob)
        except FormatError:
            return
        assert serialize(m) == blob
        assert_compiler_invariants(m)


PPM = b"P6\n# a 5x4 image\n5 4\n255\n" + bytes(range(60))
HEADER_BYTES = st.sampled_from(list(b"P6# \n0123456789"))


@st.composite
def damaged_ppm(draw) -> bytes:
    """``PPM`` with a few bytes replaced, header or pixels, then truncated."""
    data = bytearray(PPM)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos] = draw(st.one_of(HEADER_BYTES, st.integers(0, 255)))
    return bytes(data[: draw(st.integers(0, len(data)))])


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
