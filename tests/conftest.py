import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings

from ern.compiler import FORMAT_VERSION, MAGIC, compile_checkpoint, gen_random_checkpoint
from ern.graph import ArchConfig, BnAct, Conv, build_model, execute
from ern.oracle import oracle_from_manifest
from ern.tensor import padded_channels, unpack_activations

# every property draws the same cases on every run and writes no example database
settings.register_profile("ern", derandomize=True, database=None, deadline=None)
settings.load_profile("ern")


@pytest.fixture(scope="session")
def erns18_manifest():
    return gen_random_checkpoint("erns18", seed=0, shared_const=0.5)


@pytest.fixture(scope="session")
def erns18_model(erns18_manifest):
    return compile_checkpoint(erns18_manifest)


@pytest.fixture(scope="session")
def erns50_model():
    return compile_checkpoint(gen_random_checkpoint("erns50", seed=0, shared_const=0.5))


@pytest.fixture(scope="session")
def erns50_oracle():
    # built from its own copy of the checkpoint, so no fixture holds erns50's floats
    return oracle_from_manifest(gen_random_checkpoint("erns50", seed=0, shared_const=0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_image(rng, size=64):
    return rng.integers(0, 256, size=(3, size, size), dtype=np.uint8)


def execute_keeping_all(model, img, kernel="popcount"):
    """``execute`` with an observer that keeps every step's output.

    Returns the result and a dict of every edge but the image, with act2
    edges unpacked to uint8 code maps of the width the graph gives them.
    """
    values = {}

    def keep(step, value):
        assert step.node.dst not in values, step.node.name
        info = model.graph.edges[step.node.dst]
        if info.kind == "act2":
            value = unpack_activations(value, info.channels)
        values[step.node.dst] = value

    return execute(model, img, kernel, observe=keep), values


def resign(body: bytes) -> bytes:
    """A .ern file around ``body``: the prefix with its length, and both CRCs."""
    prefix = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body))
    return (
        prefix + struct.pack("<I", zlib.crc32(prefix)) + body + struct.pack("<I", zlib.crc32(body))
    )


# the body header: block kind, 4 stage counts, 4 stage widths, classes, k, c, alpha_out
HEADER = struct.Struct("<B4B4IIIdd")
# file offset where each header field starts; counts are 4 x u8, channels 4 x u32
HEADER_AT = {"block": 16, "counts": 17, "channels": 21, "classes": 37, "k": 41, "c": 45,
             "alpha_out": 53}


def header_arch(blob: bytes) -> ArchConfig:
    """The ArchConfig a .ern file's header stores, parsed here, not by the compiler."""
    block, *sizes, classes, k, _, _ = HEADER.unpack_from(blob, 16)
    return ArchConfig(("conv", "bottleneck")[block], tuple(sizes[:4]), tuple(sizes[4:]), classes, k)


def record_offset(blob: bytes, layer: str) -> int:
    """Offset of ``layer``'s record in ``blob``, found by walking the graph.

    The sizes come from each node's ConvSpec and width, not from the
    compiler: a conv record is 8 bytes of scale per output channel if its
    edge's scale is ``"alpha"``, then its weight words; a BnAct record is
    13 bytes per channel.
    """
    g = build_model(header_arch(blob))
    pos = 16 + HEADER.size
    for node in g.nodes:
        if node.name == layer:
            return pos
        if isinstance(node, Conv):
            s = node.spec
            if g.edges[node.dst].scale == "alpha":
                pos += 8 * s.out_ch
            pos += 8 * s.out_ch * padded_channels(s.in_ch) // 64 * s.kh * s.kw
        elif isinstance(node, BnAct):
            pos += 13 * node.channels
    raise KeyError(layer)


def rewrite_threshold_row(blob: bytes, layer: str, t1: int, degenerate: int | None = None,
                          recrc: bool = True) -> bytes:
    """Set t1 (and optionally the degenerate flag bit) of the first non-degenerate
    channel of a serialized BnAct record; re-sign the file unless ``recrc`` is off."""
    data = bytearray(blob)
    row = record_offset(blob, layer)
    while data[row + 12] & 2:  # skip degenerate channels
        row += 13
    struct.pack_into("<i", data, row, t1)
    if degenerate is not None:
        data[row + 12] = data[row + 12] & 1 | degenerate << 1
    return resign(bytes(data[16:-4])) if recrc else bytes(data)
