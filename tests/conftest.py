import struct
import zlib

import numpy as np
import pytest

from ern.compiler import compile_checkpoint, gen_random_checkpoint


@pytest.fixture(scope="session")
def erns18_manifest():
    return gen_random_checkpoint("erns18", seed=0, shared_const=0.5)


@pytest.fixture(scope="session")
def erns18_model(erns18_manifest):
    return compile_checkpoint(erns18_manifest)


@pytest.fixture(scope="session")
def erns50_model():
    return compile_checkpoint(gen_random_checkpoint("erns50", seed=0, shared_const=0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_image(rng, size=64):
    return rng.integers(0, 256, size=(3, size, size), dtype=np.uint8)


def rewrite_threshold_row(blob: bytes, layer: str, t1: int, degenerate: int | None = None,
                          recrc: bool = True) -> bytes:
    """Set t1 (and optionally the degenerate flag) of the first non-degenerate
    channel of a serialized BnAct record; re-sign the file unless ``recrc`` is off."""
    body = bytearray(blob[:-4])
    name = layer.encode()
    pos = body.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
    (channels,) = struct.unpack_from("<H", body, pos)
    row = pos + 2
    while body[row + 25]:  # skip degenerate channels
        row += 26
    struct.pack_into("<q", body, row, t1)
    if degenerate is not None:
        body[row + 25] = degenerate
    crc = zlib.crc32(body) if recrc else struct.unpack("<I", blob[-4:])[0]
    return bytes(body) + struct.pack("<I", crc)


def rewrite_conv_record(blob: bytes, layer: str, alpha=None, const_flag: int | None = None,
                        kind: int | None = None) -> bytes:
    """Replace the scales (any count), the const flag or the record kind of one
    serialized conv record, then re-sign the file's CRC."""
    body = bytearray(blob[:-4])
    name = layer.encode()
    at = body.index(struct.pack("<H", len(name)) + name)
    geometry = at + 2 + len(name)  # <HHBBBBBBB: out_ch, in_ch, kh, kw, strides, pads, const flag
    count_at = geometry + struct.calcsize("<HHBBBBBBB")
    if kind is not None:
        body[at - 1] = kind
    if const_flag is not None:
        body[count_at - 1] = const_flag
    if alpha is not None:
        (n,) = struct.unpack_from("<I", body, count_at)
        alpha = np.asarray(alpha, dtype="<f8")
        body[count_at : count_at + 4 + 8 * n] = struct.pack("<I", alpha.size) + alpha.tobytes()
    return bytes(body) + struct.pack("<I", zlib.crc32(body))
