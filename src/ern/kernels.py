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

  The input is one (2, words, H, W) array, hi plane then lo, padded
  once.  The loop keeps its temporaries in cache.  Each tap's strided
  window of both planes is copied once into a contiguous (2, words, 1,
  OH * OW) array, and each tap's (words, OC, 1) weight words are ANDed
  against both planes by broadcasting, so one AND and one popcount serve
  both.  The image-only term ``popcount(p)`` is summed once for all
  output channels.  Output channels are then walked in blocks whose
  uint64 AND temporary, (2, words, block, OH * OW), is about
  ``_BLOCK_BYTES``: per tap, the block's popcounts are added into a
  uint16 (uint32 for very large kernels) counter per (plane, word, oc,
  pixel).  The plane and word axes are outermost, so the counters reduce
  once per block to ``2 * sum(hi) + sum(lo)`` as two sums over the word
  axis, in uint16 while the largest possible total fits it and uint32
  otherwise.

Zero padding uses activation code 0, which contributes exactly 0 to any
+/-1-weighted sum, making pad semantics bit-exact.

An accumulator keeps its edge's width from the conv output to the pool;
no wider map is made.  The popcount kernel forms ``2 * hits - base`` in
the unsigned integer of the output's width, modulo 2**16 or 2**32: 2 *
hits alone can pass 2**15, but the true value's magnitude is at most
``acc_bound``, which the width holds, so the wrapped result read as
signed is exact.  The residual add sums at its output edge's width and
rejects any element whose true sum passes that width's limit (its
maximum - 1) in magnitude, detecting wrap-around without a wider
temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .instrument import note_float_ops
from .tensor import ACC_DTYPES, LANES, PackedWeights, acc_dtype, acc_limit
from .tensor import ensure_act2, padded_channels, popcount


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


# bytes of the uint64 AND temporary per output-channel block; sized to stay in
# cache (256 KiB to 1 MiB measured flat)
_BLOCK_BYTES = 512 * 1024


def _tap_window(padded: np.ndarray, i: int, j: int, stride, oh: int, ow: int) -> np.ndarray:
    sh, sw = stride
    return padded[..., i : i + sh * (oh - 1) + 1 : sh, j : j + sw * (ow - 1) + 1 : sw]


def conv_w1a2_naive(x: np.ndarray, signs: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Direct integer convolution of 2-bit codes against +/-1 signs.

    ``signs`` is the unpacked (OC, IC, kh, kw) view of the weights.
    Returns the accumulator map (OC, OH, OW) at ``acc_dtype(spec.acc_bound)``.
    """
    x = ensure_act2(x)
    signs = np.asarray(signs)
    if x.shape[0] != spec.in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, spec wants {spec.in_ch}")
    if signs.shape != (spec.out_ch, spec.in_ch, spec.kh, spec.kw):
        raise ShapeError(f"weight shape {signs.shape} does not match {spec}")
    ph, pw = spec.padding
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw))).astype(np.int64)
    oh, ow = spec.out_spatial(x.shape[1], x.shape[2])
    w2 = signs.astype(np.int64)
    acc = np.zeros((spec.out_ch, oh * ow), dtype=np.int64)
    for i in range(spec.kh):
        for j in range(spec.kw):
            win = _tap_window(padded, i, j, spec.stride, oh, ow)
            acc += w2[:, :, i, j] @ win.reshape(spec.in_ch, oh * ow)
    return _check_acc(acc.reshape(spec.out_ch, oh, ow), spec)


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
    ph, pw = spec.padding
    taps = spec.kh * spec.kw
    if ph or pw:
        padded = np.zeros((2, nw, h + 2 * ph, wd + 2 * pw), dtype=np.uint64)
        padded[:, :, ph : ph + h, pw : pw + wd] = x
        x = padded
    # (taps, 2, words, 1, OH * OW): each tap's strided window of both planes
    windows = np.empty((taps, 2, nw, oh, ow), dtype=np.uint64)
    for t in range(taps):
        windows[t] = _tap_window(x, t // spec.kw, t % spec.kw, spec.stride, oh, ow)
    windows = windows.reshape(taps, 2, nw, 1, oh * ow)
    # every sum below is taken modulo 2**bits of the output width, in its
    # unsigned twin; pad lanes are zero in both planes, so the true
    # 2 * hits - base never exceeds acc_bound, which the width holds
    dtype = acc_dtype(spec.acc_bound)
    wrap = np.dtype(f"u{dtype.itemsize}")
    pc = popcount(windows[..., 0, :])
    base = 2 * pc[:, 0].sum(axis=(0, 1), dtype=wrap)
    base += pc[:, 1].sum(axis=(0, 1), dtype=wrap)
    # (taps, words, OC, 1): each tap's weight words, ANDed against both planes
    wtaps = w.bits.reshape(spec.out_ch, nw, taps)
    wtaps = np.ascontiguousarray(wtaps.transpose(2, 1, 0))[..., None]

    block = min(spec.out_ch, max(1, _BLOCK_BYTES // (2 * nw * oh * ow * 8)))
    # each tap adds at most 64 to a (plane, word, oc, pixel) counter, and each
    # word and tap at most 3 * 64 to a pixel's 2 * sum(hi) + sum(lo)
    count_dtype = np.uint16 if taps * LANES < 2**16 else np.uint32
    hits_dtype = np.uint16 if 3 * LANES * nw * taps < 2**16 else np.uint32
    anded = np.empty((2, nw, block, oh * ow), dtype=np.uint64)
    bits = np.empty(anded.shape, dtype=np.uint8)
    counts = np.empty(anded.shape, dtype=count_dtype)
    acc = np.empty((spec.out_ch, oh * ow), dtype=dtype)
    for o0 in range(0, spec.out_ch, block):
        o1 = min(o0 + block, spec.out_ch)
        a, b, c = anded[:, :, : o1 - o0], bits[:, :, : o1 - o0], counts[:, :, : o1 - o0]
        for t in range(taps):
            np.bitwise_and(wtaps[t, :, o0:o1], windows[t], out=a)
            if t == 0:
                np.bitwise_count(a, out=c)
            else:
                np.add(c, np.bitwise_count(a, out=b), out=c)
        hits = np.add.reduce(c[0], axis=0, dtype=hits_dtype)
        hits *= 2
        hits += np.add.reduce(c[1], axis=0, dtype=hits_dtype)
        out = acc[o0:o1].view(wrap)
        np.multiply(hits, 2, out=out, dtype=wrap, casting="unsafe")  # 2 * hits modulo 2**bits
        out -= base
    return _check_acc(acc.reshape(spec.out_ch, oh, ow), spec)


def _check_acc(acc: np.ndarray, spec: ConvSpec) -> np.ndarray:
    bound = spec.acc_bound
    if acc.size and (acc.max() > bound or acc.min() < -bound):
        raise ShapeError(f"accumulator exceeded bound {bound} for {spec}")
    return acc.astype(acc_dtype(bound), copy=False)


def residual_add(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """Elementwise sum of two accumulator maps at ``dtype``, the output edge's width.

    ``dtype`` is one of ``ACC_DTYPES`` and neither input may be wider.
    Raises :class:`ShapeError` if any element's true sum has magnitude
    above ``acc_limit(dtype)`` (32,766 for int16, ``ACC_LIMIT`` =
    2**31 - 2 for int32), the range the threshold stage is exact for.
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
    limit = acc_limit(dtype)
    out = np.add(a, b, dtype=dtype)  # wraps modulo 2**bits where the true sum leaves the range
    if out.size and (int(a.max()) + int(b.max()) > limit or int(a.min()) + int(b.min()) < -limit):
        # some element may pass the limit; a wrapped sum moved away from a
        # in the opposite direction to b
        wrapped = (out < a) != (b < 0)
        if wrapped.any() or out.max() > limit or out.min() < -limit:
            raise ShapeError(f"residual sum overflows the {dtype} accumulator")
    return out


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
    note_float_ops(2 * sums.size)
    return float(alpha_out) * (sums.astype(np.float64) / area)
