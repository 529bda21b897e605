"""Integer convolution kernels, residual addition, and the pooled head.

Two interchangeable convolution paths produce bit-identical
accumulators, each at its edge's width (``acc_dtype`` of the conv's
``acc_bound``: int16 up to 32,766, else int32):

* ``conv_w1a2_naive`` -- direct integer dot products of +/-1 signs against
  2-bit codes, one int64 matmul per kernel tap.  Simple enough to serve as
  the oracle for the fast path.
* ``conv_w1a2_popcount`` -- bitplane decomposition.  For one 64-lane word
  of weight bits ``wb`` and one activation bitplane ``p``:

      sum_lanes(signs * plane_bits) = 2 * popcount(wb & p) - popcount(p)

  and the 2-bit code contributes ``2 * hi_dot + lo_dot``.  Pad lanes are
  zero in both planes, so they add nothing regardless of their weight bits;
  the kernel checks this where a word has pad lanes.

  The input is one (2, words, H, W) array, hi plane then lo.  The
  kernel works on tiles of whole output rows, and no step holds a
  temporary the size of the input or output map, so its working set
  stays in cache.  A tile has as many rows as keep all its taps'
  windows within ``2 * BLOCK_BYTES`` (at least one row).  Each tap's strided
  window of both planes is copied once per tile into a contiguous
  (2, words, 1, rows * OW) array, straight from the unpadded planes:
  the part that falls outside the input is zero-filled, so no padded
  copy exists.  Each tap's (words, OC, 1) weight words are ANDed against
  both planes by broadcasting, so one AND and one popcount serve both.
  The image-only term ``popcount(p)`` is summed once per tile for all
  output channels.  Output channels are then walked in blocks whose
  uint64 AND temporary over the tile, (2, words, block, rows * OW), is
  about ``BLOCK_BYTES``: per tap, the block's popcounts are added into
  a uint16 (uint32 for very large kernels) counter per (plane, word,
  oc, pixel).  The plane and word axes are outermost, so the counters
  reduce once per block to ``2 * sum(hi) + sum(lo)`` as two sums over
  the word axis, in uint16 while the largest possible total fits it and
  uint32 otherwise.  Rows and channels are split into near-equal parts,
  so no tile or block is a small remainder.

Zero padding uses activation code 0, which contributes exactly 0 to any
+/-1-weighted sum, making pad semantics bit-exact.

An accumulator keeps its edge's width from the conv output to the pool;
no wider map is made.  The popcount kernel forms ``2 * hits - base`` in
the unsigned integer of the output's width, modulo 2**16 or 2**32: 2 *
hits alone can pass 2**15, but the true value's magnitude is at most
``acc_bound``, which the width holds, so the wrapped result read as
signed is exact.  The residual add sums at its output edge's width.

No kernel scans its output for range.  Each range is a fact of the
graph: a conv's |output| is at most ``acc_bound`` = 3 * fan_in, since
codes are 0-3 (the popcount kernel refuses a code in a pad lane) and
signs are +/-1 (``pack_weights`` and the naive kernel refuse any
other); a residual sum is at most its edge's bound, the sum of its
inputs' bounds; and the graph refuses any bound past its width's limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .tensor import ACC_DTYPES, BLOCK_BYTES, LANES, PackedWeights, acc_dtype
from .tensor import ensure_act2, even_parts, padded_channels, popcount


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    kh: int
    kw: int
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.in_ch < 1 or self.out_ch < 1 or self.kh < 1 or self.kw < 1:
            raise ConfigError(f"conv dimensions must be >= 1: {self}")
        if min(self.stride) < 1:
            raise ConfigError(f"stride must be >= 1: {self.stride}")
        if min(self.padding) < 0:
            raise ConfigError(f"padding must be >= 0: {self.padding}")

    @property
    def fan_in(self) -> int:
        return self.in_ch * self.kh * self.kw

    @property
    def acc_bound(self) -> int:
        """Largest possible |accumulator| value: every tap at code 3."""
        return 3 * self.fan_in

    def out_spatial(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.padding[0] - self.kh) // self.stride[0] + 1
        ow = (w + 2 * self.padding[1] - self.kw) // self.stride[1] + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"input {h}x{w} too small for {self}")
        return oh, ow


def _tap_window(padded: np.ndarray, i: int, j: int, stride, oh: int, ow: int) -> np.ndarray:
    sh, sw = stride
    return padded[..., i : i + sh * (oh - 1) + 1 : sh, j : j + sw * (ow - 1) + 1 : sw]


def _inside(n: int, stride: int, offset: int, size: int) -> tuple[int, int]:
    """Output positions [lo, hi) along one axis whose input, o * stride + offset, is in [0, size)."""
    lo = min(n, max(0, -(offset // stride)))
    return lo, max(lo, min(n, (size - 1 - offset) // stride + 1))


def _tiles(spec: ConvSpec, oh: int, ow: int) -> tuple[int, int]:
    """Output rows per tile and output channels per block of the popcount kernel.

    A tile's windows are at most ``2 * BLOCK_BYTES`` and a block's AND
    temporary over one tile at most ``BLOCK_BYTES`` (unless one row alone
    is larger), and each axis is split into as few parts as that allows,
    of near-equal size.  The windows get twice the budget because
    splitting a map whose windows fit it measured up to 1.7x slower: at
    256 that is every conv after the stem's first two, whose tiles would
    fall to 2,048 pixels, and the AND runs slower on such short rows.
    """
    row = 2 * (padded_channels(spec.in_ch) // LANES) * ow * 8  # both planes' words, one row
    rows = even_parts(oh, 2 * BLOCK_BYTES // (spec.kh * spec.kw * row))
    return rows, even_parts(spec.out_ch, BLOCK_BYTES // (rows * row))


def conv_w1a2_naive(x: np.ndarray, signs: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Direct integer convolution of 2-bit codes against +/-1 signs.

    ``signs`` is the unpacked (OC, IC, kh, kw) view of the weights, each
    exactly +1 or -1 (else :class:`DomainError`, as ``pack_weights``
    raises for the popcount path).  Returns the accumulator map
    (OC, OH, OW) at ``acc_dtype(spec.acc_bound)``.
    """
    x = ensure_act2(x)
    signs = np.asarray(signs)
    if x.shape[0] != spec.in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, spec wants {spec.in_ch}")
    if signs.shape != (spec.out_ch, spec.in_ch, spec.kh, spec.kw):
        raise ShapeError(f"weight shape {signs.shape} does not match {spec}")
    if not ((signs == 1) | (signs == -1)).all():
        raise DomainError("weight signs must be exactly +1 or -1")
    ph, pw = spec.padding
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw))).astype(np.int64)
    oh, ow = spec.out_spatial(x.shape[1], x.shape[2])
    w2 = signs.astype(np.int64)
    acc = np.zeros((spec.out_ch, oh * ow), dtype=np.int64)
    for i in range(spec.kh):
        for j in range(spec.kw):
            win = _tap_window(padded, i, j, spec.stride, oh, ow)
            acc += w2[:, :, i, j] @ win.reshape(spec.in_ch, oh * ow)
    return acc.reshape(spec.out_ch, oh, ow).astype(acc_dtype(spec.acc_bound))


def conv_w1a2_popcount(x: np.ndarray, w: PackedWeights, spec: ConvSpec) -> np.ndarray:
    """Popcount convolution over (2, words, H, W) packed planes; equals the naive kernel.

    The planes must hold ``spec.in_ch`` channels: their word count is
    checked against it, and when the last word has pad lanes, that no
    code sits in one (each would add to the popcount).
    """
    nw = padded_channels(spec.in_ch) // LANES
    if x.ndim != 4 or x.shape[:2] != (2, nw):
        raise ShapeError(f"planes {x.shape} are not (2, {nw}, H, W) for {spec.in_ch} channels")
    if w.bits.shape != (spec.out_ch, nw, spec.kh, spec.kw):
        raise ShapeError(f"weight words {w.bits.shape} do not match {spec}")
    lanes = spec.in_ch % LANES
    if lanes and (x[:, -1] >> np.uint64(lanes)).any():
        raise ShapeError(f"planes hold a code past channel {spec.in_ch}")
    _, _, h, wd = x.shape
    oh, ow = spec.out_spatial(h, wd)
    (sh, sw), (ph, pw) = spec.stride, spec.padding
    taps = spec.kh * spec.kw
    # per tap row i and column j, the output rows and columns it reads inside the input
    tap_rows = [_inside(oh, sh, i - ph, h) for i in range(spec.kh)]
    tap_cols = [_inside(ow, sw, j - pw, wd) for j in range(spec.kw)]
    # every sum below is taken modulo 2**bits of the output width, in its
    # unsigned twin; pad lanes are zero in both planes, so the true
    # 2 * hits - base never exceeds acc_bound, which the width holds
    dtype = acc_dtype(spec.acc_bound)
    wrap = np.dtype(f"u{dtype.itemsize}")
    # (taps, words, OC, 1): each tap's weight words, ANDed against both planes
    wtaps = w.bits.reshape(spec.out_ch, nw, taps)
    wtaps = np.ascontiguousarray(wtaps.transpose(2, 1, 0))[..., None]

    rows, block = _tiles(spec, oh, ow)
    # each tap adds at most 64 to a (plane, word, oc, pixel) counter, and each
    # word and tap at most 3 * 64 to a pixel's 2 * sum(hi) + sum(lo)
    count_dtype = np.uint16 if taps * LANES < 2**16 else np.uint32
    hits_dtype = np.uint16 if 3 * LANES * nw * taps < 2**16 else np.uint32
    window_words = np.empty(taps * 2 * nw * rows * ow, dtype=np.uint64)
    anded = np.empty((2, nw, block, rows * ow), dtype=np.uint64)
    bits = np.empty(anded.shape, dtype=np.uint8)
    counts = np.empty(anded.shape, dtype=count_dtype)
    acc = np.empty((spec.out_ch, oh * ow), dtype=dtype)
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        n = (r1 - r0) * ow
        # (taps, 2, words, rows, OW): each tap's strided window of both planes,
        # read from the input where it lies inside and zero (code 0) elsewhere
        windows = window_words[: taps * 2 * nw * n].reshape(taps, 2, nw, r1 - r0, ow)
        for t in range(taps):
            i, j = divmod(t, spec.kw)
            (a0, a1), (c0, c1) = tap_rows[i], tap_cols[j]
            a0, a1 = max(a0, r0), min(a1, r1)
            if (a0, a1, c0, c1) != (r0, r1, 0, ow):
                windows[t].fill(0)
            if a0 < a1 and c0 < c1:
                rs = slice(a0 * sh + i - ph, (a1 - 1) * sh + i - ph + 1, sh)
                cs = slice(c0 * sw + j - pw, (c1 - 1) * sw + j - pw + 1, sw)
                windows[t, :, :, a0 - r0 : a1 - r0, c0:c1] = x[:, :, rs, cs]
        windows = windows.reshape(taps, 2, nw, 1, n)
        pc = popcount(windows[..., 0, :])
        base = 2 * pc[:, 0].sum(axis=(0, 1), dtype=wrap)
        base += pc[:, 1].sum(axis=(0, 1), dtype=wrap)
        for o0 in range(0, spec.out_ch, block):
            o1 = min(o0 + block, spec.out_ch)
            a, b, c = (buf[:, :, : o1 - o0, :n] for buf in (anded, bits, counts))
            for t in range(taps):
                np.bitwise_and(wtaps[t, :, o0:o1], windows[t], out=a)
                if t == 0:
                    np.bitwise_count(a, out=c)
                else:
                    np.add(c, np.bitwise_count(a, out=b), out=c)
            hits = np.add.reduce(c[0], axis=0, dtype=hits_dtype)
            hits *= 2
            hits += np.add.reduce(c[1], axis=0, dtype=hits_dtype)
            out = acc[o0:o1, r0 * ow : r1 * ow].view(wrap)
            np.multiply(hits, 2, out=out, dtype=wrap, casting="unsafe")  # 2 * hits modulo 2**bits
            out -= base
    return acc.reshape(spec.out_ch, oh, ow)


def residual_add(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """Elementwise sum of two accumulator maps at ``dtype``, the output edge's width.

    ``dtype`` is one of ``ACC_DTYPES`` and neither input may be wider
    (else :class:`ShapeError`, as for unequal shapes).  The sum is exact
    where its magnitude is within ``acc_limit(dtype)`` (32,766 for
    int16, ``ACC_LIMIT`` = 2**31 - 2 for int32); past that it wraps
    modulo 2**bits, unchecked.  In a graph it never passes: the output
    edge's bound is the sum of its inputs' bounds, and the graph refuses
    a bound past its width's limit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = np.dtype(dtype)
    if a.shape != b.shape:
        raise ShapeError(f"residual shapes differ: {a.shape} vs {b.shape}")
    wider = max(a.itemsize, b.itemsize) > dtype.itemsize
    if wider or not {a.dtype, b.dtype, dtype} <= set(ACC_DTYPES):
        raise ShapeError(
            f"residual_add sums int16/int32 accumulators into one no narrower, "
            f"got {a.dtype} + {b.dtype} -> {dtype}"
        )
    return np.add(a, b, dtype=dtype)


def avgpool_and_scale(acc: np.ndarray, alpha_out: float) -> np.ndarray:
    """Global average pooling followed by the output scaling factor.

    Integer summation first, one real division and multiplication last;
    exactly equal to pooling the real-valued alpha * acc map since the
    composition is linear.
    """
    acc = np.asarray(acc)
    if acc.ndim != 3 or acc.shape[1] < 1 or acc.shape[2] < 1:
        raise ShapeError(f"expected non-empty (C, H, W) accumulator, got {acc.shape}")
    sums = acc.sum(axis=(1, 2), dtype=np.int64)
    area = acc.shape[1] * acc.shape[2]
    return float(alpha_out) * (sums.astype(np.float64) / area)
