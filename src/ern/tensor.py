"""Core tensor representations and bit packing.

Layout rules shared by the whole engine:

* Activations are channel-major ``(C, H, W)``, row-major within a plane.
  Their canonical form is one uint64 array ``(2, words, H, W)`` of
  packed bitplanes, plane 0 the hi bits and plane 1 the lo bits of the
  2-bit codes: the pixel embedding and every threshold stage write it,
  and every convolution reads it.  The array holds only words; its
  logical channel count is a fact of the graph (``GraphDef.edges``,
  ``ConvSpec.in_ch``), passed by whoever needs it.  A uint8 code map
  (values 0..3) is derived data, recovered with
  :func:`unpack_activations` for the reference kernel and for
  cross-checking; :func:`pack_activations` goes the other way.
* Bit packing groups 64 channels into one ``uint64`` word, LSB-first:
  bit ``j`` of word ``i`` is channel ``64*i + j``.  Channel counts are
  padded up to a multiple of 64; pad lanes carry activation code 0, which
  contributes exactly 0 to any +/-1-weighted sum, so pad weight bits are
  don't-care.  We fix pad weight bits to 1 for byte-exact reproducibility.
* A 2-bit code decomposes as ``code = 2*hi_bit + lo_bit``.

Integer accumulators are int16 or int32 arrays.  Each edge's magnitude
is bounded by 3 * fan_in of the producing convolution, plus residual
branch sums; :func:`acc_dtype` maps that static bound to the narrowest of
``ACC_DTYPES`` that holds it, and no bound may pass ``ACC_LIMIT``.  The
bound is a fact of the graph, not checked against values at run time.  A
width's limit is its maximum minus one, so every |value| within it
stays exact under the threshold stage's sign fold and never reaches the
width's maximum, the "never crossed" sentinel of a clamped threshold.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

LANES = 64

ACC_DTYPES = (np.dtype(np.int16), np.dtype(np.int32))  # accumulator widths, narrowest first
ACC_DTYPE = np.int32  # the widest
ACC_LIMIT = int(np.iinfo(ACC_DTYPE).max) - 1  # largest |accumulator| the engine holds

# bytes of each large working array of a hot-path step: a popcount conv's row
# tile of tap windows, and its uint64 AND temporary over one weight word of
# that tile, with the block's counters beside it (see ern.kernels); a
# threshold stage's row block of bit planes; a row block of one layer's
# weights as compilation and the oracle read them.  Sized to stay in cache:
# erns18@256 ``execute`` on 2 vCPUs (numpy 2.4.6) ran 5-12% slower at 256 KiB
# than at 512 KiB, and no faster at 1 MiB
BLOCK_BYTES = 512 * 1024


def even_parts(n: int, most: int) -> int:
    """Part size that splits ``n`` items into as few parts of at most ``most`` as it can.

    ``most`` below 1 counts as 1, and no items make one part of size 1.
    Every part but the last has this size, and the last falls short of
    it by fewer items than there are parts, so no part is a small
    remainder.
    """
    parts = -(-n // max(1, most))
    return -(-n // parts) if parts else 1


def row_blocks(n: int, row_bytes: int) -> Iterator[slice]:
    """Slices that split ``n`` rows of ``row_bytes`` each into blocks of about ``BLOCK_BYTES``.

    The blocks are near-equal (:func:`even_parts`), and a row wider than
    the budget is a block of its own.
    """
    rows = even_parts(n, BLOCK_BYTES // max(1, row_bytes))
    return (slice(r, min(r + rows, n)) for r in range(0, n, rows))


def acc_limit(dtype) -> int:
    """Largest |accumulator| an accumulator of ``dtype`` holds exactly: its maximum - 1."""
    return int(np.iinfo(dtype).max) - 1


def acc_dtype(bound: int) -> np.dtype:
    """The narrowest accumulator dtype for values of |magnitude| <= ``bound``.

    int16 up to 32,766, int32 up to ``ACC_LIMIT``; a larger bound raises
    :class:`ConfigError`.
    """
    for dtype in ACC_DTYPES:
        if bound <= acc_limit(dtype):
            return dtype
    raise ConfigError(f"accumulator bound {bound} passes ACC_LIMIT {ACC_LIMIT}")


def padded_channels(c: int) -> int:
    """Round a channel count up to a whole number of 64-lane words."""
    return -(-c // LANES) * LANES


def ensure_act2(a: np.ndarray) -> np.ndarray:
    """Validate a canonical 2-bit activation map: uint8 (C, H, W), codes <= 3."""
    a = np.asarray(a)
    if a.ndim != 3 or min(a.shape) < 1:
        raise ShapeError(f"activation tensor must be (C, H, W) with dims >= 1, got {a.shape}")
    if a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise DomainError(f"activation codes must be integers, got dtype {a.dtype}")
        if a.min() < 0 or a.max() > 3:
            raise DomainError("activation codes must lie in {0,1,2,3}")
        a = a.astype(np.uint8)
    elif a.max(initial=0) > 3:
        raise DomainError("activation codes must lie in {0,1,2,3}")
    return a


def _pack_lanes(bits: np.ndarray, axis: int) -> np.ndarray:
    """Pack a 0/1 array along `axis` (length multiple of 64) into uint64 words.

    Each group of 8 lanes becomes one byte by shift-or, then the 8 bytes of
    a word move to the last axis and are read as one little-endian uint64,
    so lane 64*i + j lands at bit j of word i on any host.
    """
    before, (lanes,), after = bits.shape[:axis], bits.shape[axis : axis + 1], bits.shape[axis + 1 :]
    assert lanes % LANES == 0
    words = lanes // LANES
    b = bits.view(np.uint8).reshape(*before, words, 8, 8, *after)  # (..., word, byte, bit, ...)
    lead = (slice(None),) * (axis + 2)
    packed = b[lead + (0,)].copy()
    shifted = np.empty_like(packed)
    for i in range(1, 8):
        np.left_shift(b[lead + (i,)], i, out=shifted)
        packed |= shifted
    packed = np.ascontiguousarray(np.moveaxis(packed, axis + 1, -1)).view("<u8")
    return packed.reshape(*before, words, *after).astype(np.uint64, copy=False)


def _unpack_lanes(words: np.ndarray, axis: int, count: int) -> np.ndarray:
    """Inverse of :func:`_pack_lanes`; returns uint8 0/1 with `count` lanes.

    The words move to the last axis and are read as their 8 little-endian
    bytes, which ``np.unpackbits`` splits least significant bit first, so
    lane 64*i + j is bit j of word i on any host.  Beside the result (one
    byte per lane), the call holds one copy of the words.
    """
    b = np.moveaxis(words, axis, -1).astype("<u8", order="C").view(np.uint8)
    bits = np.unpackbits(b, axis=-1, count=count, bitorder="little")
    return np.moveaxis(bits, -1, axis)


@dataclass(frozen=True)
class PackedWeights:
    """Binary conv weights as bit-packed sign words plus scaling metadata.

    ``bits`` has shape (OC, IC_pad/64, kh, kw) with dtype uint64; bit 1
    means weight +1, bit 0 means -1.  Pad lanes are fixed to 1.  ``alpha``
    is the per-output-channel scaling factor; the logical input width and
    which convs carry the shared constant there are facts of the graph
    (``ConvSpec``, ``GraphDef.edges``), not of the weights.
    """

    bits: np.ndarray
    alpha: np.ndarray


def unpack_signs(bits: np.ndarray, in_channels: int) -> np.ndarray:
    """Expand packed weight words to an int8 (OC, IC, kh, kw) array of +/-1 (pads dropped)."""
    return _unpack_lanes(bits, 1, in_channels).astype(np.int8) * 2 - 1


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """Pack a (2, C_pad, H, W) bool array of hi and lo bits into (2, C_pad/64, H, W) words.

    ``C_pad`` is a multiple of 64 and pad lanes must be False.
    """
    return _pack_lanes(bits, 1)


def pack_activations(a: np.ndarray) -> np.ndarray:
    """Pack a canonical activation map into its (2, words, H, W) bitplanes.

    Bit j of word i corresponds to channel 64*i + j; plane 0 holds
    code div 2 and plane 1 code mod 2.  Pad lanes hold code 0.
    """
    a = ensure_act2(a)
    c, h, w = a.shape
    bits = np.zeros((2, padded_channels(c), h, w), dtype=bool)
    bits[0, :c] = a >> 1
    bits[1, :c] = a & 1
    return pack_bitplanes(bits)


def unpack_activations(planes: np.ndarray, channels: int) -> np.ndarray:
    """Recover the first ``channels`` channels of a packed map as uint8 codes."""
    if channels > planes.shape[1] * LANES:
        raise ShapeError(f"cannot unpack {channels} channels from {planes.shape[1]} words")
    hi, lo = _unpack_lanes(planes, 1, channels)
    return (hi << 1) | lo


def pack_weights(signs: np.ndarray, alpha: np.ndarray) -> PackedWeights:
    """Bit-pack a +/-1 sign tensor with its per-output-channel scales.

    Every element of ``signs`` must be exactly +1 or -1; ``alpha`` must be
    positive.  Pad lanes are set to bit 1 (never contribute because padded
    activations are 0).  The signs are packed as given, in one pass, so
    the call holds the signs, their uint8 lanes and the words at once;
    compilation hands it one block of output channels at a time.
    """
    signs = np.asarray(signs)
    if signs.ndim != 4:
        raise ShapeError(f"weight signs must be (OC, IC, kh, kw), got {signs.shape}")
    if not ((signs == 1) | (signs == -1)).all():
        raise DomainError("weight signs must be exactly +1 or -1")
    oc, ic, kh, kw = signs.shape
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (oc,):
        raise ShapeError(f"alpha must have one entry per output channel, got {alpha.shape}")
    if not (alpha > 0).all():
        raise DomainError("alpha must be positive")
    lanes = np.ones((oc, padded_channels(ic), kh, kw), dtype=np.uint8)
    lanes[:, :ic] = signs > 0
    return PackedWeights(bits=_pack_lanes(lanes, 1), alpha=alpha)
