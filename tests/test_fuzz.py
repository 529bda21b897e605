"""Fuzzing of untrusted input: a damaged .ern file always ends in a typed error.

``load`` raises a :class:`FormatError` subclass (CLI exit 2) for any
single bit flip or truncation of a serialized erns18x075, never a bare
Python or numpy exception.  The runs are derandomized and keep no example
database, so they draw the same cases on every run and leave no files.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize
from ern.errors import FormatError

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
        with pytest.raises(FormatError):
            load(bytes(damaged))

    @FUZZ
    @given(data=st.data())
    def test_truncation_raises_format_error(self, data):
        blob = model_file()
        length = data.draw(st.integers(0, len(blob) - 1), label="length")
        with pytest.raises(FormatError):
            load(blob[:length])
