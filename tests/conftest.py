import hashlib
import struct
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from ern.compiler import (
    FORMAT_VERSION,
    MAGIC,
    ConvReader,
    compile_checkpoint,
    gen_random_checkpoint,
)
from ern.graph import ArchConfig, BnAct, Conv, build_model, execute
from ern.oracle import oracle_from_manifest
from ern.quant import BnParams, ThresholdTable
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


def rounded_mean_abs(w: np.ndarray) -> float:
    """The mean |w| of float32 weights, rounded once, in integers.

    Every float32 is a whole multiple of 2**-149, and scaling by 2**149
    is exact in 64-bit reals, so the sum is one of Python integers.
    """
    assert w.dtype == np.float32
    units = np.ldexp(np.abs(w).astype(np.float64), 149).ravel().tolist()
    return float(Fraction(sum(map(int, units)), w.size << 149))


def tie_checkpoint():
    """erns18x075 at seed 3 and c = 0.7 with every code step of ``s1.b1.bn0`` on a tie.

    Every channel has gamma 1.5, beta 0, mean 0, var 1 - 2**-16, epsilon
    2**-16 and act_scale 0.7, all float32 values, so sd is exactly 1 and
    the real value 1.5 * 0.7 * acc / 0.7 is an integer at every even acc.
    A fold in real arithmetic puts each threshold on such a tie, where
    the oracle's float expression can round to the code below; the tables
    must follow the expression.
    """
    m = gen_random_checkpoint("erns18x075", seed=3, shared_const=0.7)
    n = m.bnacts["s1.b1.bn0"].channels
    m.bnacts["s1.b1.bn0"] = BnParams(
        np.full(n, 1.5), np.zeros(n), np.zeros(n), np.full(n, 1 - 2**-16), 2**-16, 0.7
    )
    return m


def execute_keeping_all(model, img, kernel="popcount"):
    """``execute`` with an observer that keeps every step's output.

    Returns the result and a dict of every edge but the image, with act2
    edges unpacked to uint8 code maps of the width the graph gives them
    and acc edges copied, since a later residual add may write its sum
    into an acc map it frees.
    """
    values = {}

    def keep(step, value):
        assert step.node.dst not in values, step.node.name
        info = model.graph.edges[step.node.dst]
        if info.kind == "act2":
            value = unpack_activations(value, info.channels)
        elif info.kind == "acc":
            value = value.copy()
        values[step.node.dst] = value

    return execute(model, img, kernel, observe=keep), values


def replace_table(tbl: ThresholdTable, **changes) -> ThresholdTable:
    """``tbl`` rebuilt from its record form with ``changes`` (``t``, ``ascending``, ``bound``)."""
    fields = dict(t=tbl.t, ascending=tbl.ascending, bound=tbl.bound)
    return ThresholdTable(**{**fields, **changes})


def assert_same_bytes(a: bytes, b: bytes) -> None:
    """Assert two byte strings (serialized models) equal by their SHA-256 digests.

    As strict as ``a == b``, but a failure reports two digests and the
    lengths: pytest's explanation of two unequal ~1 MB ``bytes`` values
    can take gigabytes of memory.
    """
    da, db = hashlib.sha256(a).hexdigest(), hashlib.sha256(b).hexdigest()
    assert da == db, f"{len(a)} and {len(b)} bytes differ"


def break_blob(path, defect: str) -> None:
    """Delete a blob, or rewrite it one float shorter or longer."""
    if defect == "deleted":
        path.unlink()
    else:
        data = path.read_bytes()
        path.write_bytes(data[:-4] if defect == "truncated" else data + data[:4])


def break_after_first_read(monkeypatch, blob, defect: str) -> list:
    """Break a conv blob (:func:`break_blob`) right after a reader first reads a range of it.

    The blob is ``<layer>.bin``.  Returns a list that holds the range read
    before the break once the break has happened.
    """
    read = ConvReader.__getitem__
    broken = []

    def read_then_break(self, span):
        block = read(self, span)
        if self.name == blob.stem and not broken:
            break_blob(blob, defect)
            broken.append(span)
        return block

    monkeypatch.setattr(ConvReader, "__getitem__", read_then_break)
    return broken


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


def rewrite_threshold_row(blob: bytes, layer: str, t1: int, recrc: bool = True) -> bytes:
    """Set t1 of the first channel of a serialized BnAct record; re-sign the
    file unless ``recrc`` is off."""
    data = bytearray(blob)
    struct.pack_into("<i", data, record_offset(blob, layer), t1)
    return resign(bytes(data[16:-4])) if recrc else bytes(data)
