"""Fuzzing of untrusted input: a damaged file always ends in a typed error.

``load`` raises :class:`ChecksumError`, :class:`BadMagicError` or
:class:`VersionError` for any single bit flip of a serialized
erns18x075, and :class:`TruncationError` for any truncation.
``decode_ppm`` returns a (3, H, W) uint8 image or raises
:class:`FormatError` for any damaged P6 file.  The runs are derandomized
and keep no example database, so they draw the same cases on every run
and leave no files.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize
from ern.errors import BadMagicError, ChecksumError, FormatError, TruncationError, VersionError
from ern.ppm import decode_ppm

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
