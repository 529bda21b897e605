"""Weight binarization, the 2-bit activation function, and threshold fusion.

A conv layer's real-valued pre-activation is affine in its integer
accumulator ``acc``:

    v(acc) = A * acc + B
    A = gamma * alpha / sqrt(var + eps)
    B = beta - gamma * mean / sqrt(var + eps)

and the quantized activation ``clamp(floor(v / s_a), 0, 3)`` crosses
code u exactly when ``v >= u * s_a``.  Solving for acc turns the whole
(scale o batch-norm o activation) composition into three integer
thresholds per channel, compared directly against the accumulator:

    A > 0:  code = #{ u : acc >= ceil((u * s_a - B) / A) }   (ascending)
    A < 0:  code = #{ u : acc <= floor((u * s_a - B) / A) }  (descending)
    A = 0:  constant code clamp(floor(B / s_a), 0, 3)

The float inputs of one fold -- gamma, beta, mean, var, eps and the code
step s_a -- travel together as one :class:`BnParams`, checked once when it
is built; the checkpoint manifest, the fold and the float oracle all hold
that one type.

All folding is done in 64-bit reals with a fixed evaluation order; the
integer threshold path is canonical at real-arithmetic boundary ties.

Every table is held in the one form the ``.ern`` record stores (see
:class:`ThresholdTable`): a live channel's three thresholds sorted
ascending with a direction flag, or a degenerate channel's constant
code followed by 0, 0, together with the static bound of the
accumulator edge the table reads.  Each threshold lies within
+/-(bound + 1), one past the bound being the "never/always crossed"
sentinel of a clamped fold.

At run time the direction folds into a per-channel sign s = +/-1, so
every channel counts the same way against sorted thresholds ts, held at
``acc_dtype(bound)``, the width the graph gives the input edge (int16 or
int32):

    code = #{ j : s * acc >= ts_j }

(a descending channel has ts = -t reversed; a degenerate one has
s = +1 and as many copies of the width's minimum as its code, followed
by its maximum).  Because ts is sorted, the three compares c1 >= c2 >= c3
are nested, so the code's bits come out directly:

    hi = (s * acc >= ts_2)        lo = c1 xor c2 xor c3

and both are packed straight into the next layer's bitplanes; no code
map is ever written.  Since bound + 1 is at most the width's maximum,
every ts fits the width as it is, and the compares are exact for every
accumulator with |acc| <= ``acc_limit`` of the width (32,766 for int16,
``ACC_LIMIT`` = 2**31 - 2 for int32).  Inside a graph that range is a
static fact: the edge's bound is at most the limit, and no kernel
output passes its bound.  ``apply_thresholds`` still scans its input
for it, since it is public and casts a wider accumulator to the table's
width, where an out-of-range value would wrap silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import BLOCK_BYTES, LANES, acc_dtype, acc_limit, pack_bitplanes, padded_channels
from .tensor import row_blocks

NUM_CODES = 4  # 2-bit activations


@dataclass(frozen=True)
class BnParams:
    """One BnAct's float parameters: batch-norm statistics and the code step.

    ``gamma``, ``beta``, ``mean`` and ``var`` are per-channel; ``act_scale``
    is the layer's 2-bit code step s_a.  Construction checks every field
    once -- equal-length 1-D finite statistics, var >= 0, and a finite
    epsilon and act_scale > 0 -- and stores the statistics as float64 and
    the scalars as floats, so readers neither re-check nor re-cast them.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    epsilon: float = 1e-5
    act_scale: float = 1.0

    def __post_init__(self):
        shape = np.shape(self.gamma)
        for name in ("gamma", "beta", "mean", "var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.shape != shape:
                raise ShapeError(f"batch-norm {name} must be 1-D of shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DomainError(f"batch-norm {name} contains NaN or Inf")
            object.__setattr__(self, name, arr)
        if (self.var < 0).any():
            raise DomainError("batch-norm var must be non-negative")
        for name in ("epsilon", "act_scale"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class ThresholdTable:
    """Fused (scale o batch-norm o activation) as integer thresholds.

    ``t`` is (C, 3), each row as the ``.ern`` record stores it: a live
    channel's thresholds sorted ascending, or a degenerate channel's
    (gamma == 0) constant code 0-3 followed by 0, 0.  Ascending channels
    output #{j : acc >= t_j}, descending #{j : acc <= t_j}, degenerate
    their code; no channel is both ascending and degenerate.  ``bound``
    is the static bound of the accumulator edge the table reads, and
    every |t| <= bound + 1.  Construction checks each of these
    (:class:`ShapeError` for a shape, :class:`DomainError` otherwise),
    stores ``t`` as int64, and builds the sign-folded run-time form,
    ``sign`` (C, 1, 1) and ``ts`` (3, C, 1, 1), both at ``dtype`` =
    ``acc_dtype(bound)``, the edge's width.
    """

    t: np.ndarray
    ascending: np.ndarray
    degenerate: np.ndarray
    bound: int
    sign: np.ndarray = field(init=False, compare=False, repr=False)
    ts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.ndim != 2 or t.shape[1] != NUM_CODES - 1 or not np.issubdtype(t.dtype, np.integer):
            raise ShapeError(f"thresholds must be integer (C, {NUM_CODES - 1}), got {t.shape}")
        c = t.shape[0]
        flags = {n: np.asarray(getattr(self, n)) for n in ("ascending", "degenerate")}
        for name, arr in flags.items():
            if arr.shape != (c,):
                raise ShapeError(f"{name} must have {c} entries, got shape {arr.shape}")
        ascending = flags["ascending"].astype(bool, copy=False)
        degenerate = flags["degenerate"].astype(bool, copy=False)
        bound = int(self.bound)
        dtype = acc_dtype(bound)
        if int(t.max(initial=0)) > bound + 1 or int(t.min(initial=0)) < -(bound + 1):
            raise DomainError(f"a threshold exceeds the accumulator bound {bound} + 1")
        t = t.astype(np.int64, copy=False)
        live, code = t[~degenerate], t[degenerate]
        if (live[:, 1:] < live[:, :-1]).any():
            raise DomainError("thresholds must be sorted ascending per channel")
        if code[:, 1:].any() or ((code[:, 0] < 0) | (code[:, 0] >= NUM_CODES)).any():
            raise DomainError(f"a degenerate channel must store (0..{NUM_CODES - 1}, 0, 0)")
        if (ascending & degenerate).any():
            raise DomainError("a degenerate channel cannot also be ascending")

        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        ts = np.where(ascending[:, None], t, -t[:, ::-1])
        fixed = np.arange(NUM_CODES - 1) < t[:, :1]
        ts[degenerate] = np.where(fixed, lo, hi)[degenerate]
        sign = np.where(ascending | degenerate, 1, -1).astype(dtype).reshape(c, 1, 1)
        ts = np.ascontiguousarray(ts.T, dtype=dtype).reshape(NUM_CODES - 1, c, 1, 1)
        for name, value in (
            ("t", t),
            ("ascending", ascending),
            ("degenerate", degenerate),
            ("bound", bound),
            ("sign", sign),
            ("ts", ts),
        ):
            object.__setattr__(self, name, value)

    @property
    def channels(self) -> int:
        return self.t.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """The width of the accumulator the table reads, ``acc_dtype(bound)``."""
        return self.ts.dtype


def binarize_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize float conv weights: sign tensor plus per-output-channel scale.

    sign(0) = +1, and alpha[o] is the mean absolute value of filter o,
    which minimizes the L2 error of alpha * signs among per-channel-scalar
    binary approximations.  An all-zero filter yields alpha 0; callers
    must substitute a positive value before packing.

    The weights are read in their own dtype (a checkpoint's float32), one
    block of output channels at a time (:func:`ern.tensor.row_blocks`, a
    block's weights being about ``BLOCK_BYTES``): each block is checked
    finite, its |w| summed per row in 64-bit reals, and its signs written
    into the one int8 array returned.  The call holds the weights, the
    int8 signs and block-sized temporaries at once, and each row's scale
    is the one a whole-layer ``np.abs(w).mean(axis=(1, 2, 3),
    dtype=np.float64)`` gives.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (OC, IC, kh, kw), got {w.shape}")
    signs = np.empty(w.shape, dtype=np.int8)
    alpha = np.empty(w.shape[0], dtype=np.float64)
    for rows in row_blocks(w.shape[0], w.itemsize * math.prod(w.shape[1:])):
        block = w[rows]
        if not np.isfinite(block).all():
            raise DomainError("weights contain NaN or Inf")
        alpha[rows] = np.abs(block).mean(axis=(1, 2, 3), dtype=np.float64)
        out = signs[rows]
        np.multiply((block >= 0).view(np.int8), 2, out=out)
        out -= 1
    return signs, alpha


# elements per sub-chunk of exact_abs_sum: its frexp, integer and float64
# temporaries of a float32 sub-chunk come to about 0.4 x BLOCK_BYTES
_SUM_CHUNK = BLOCK_BYTES // 64


def exact_abs_sum(w: np.ndarray) -> Fraction:
    """The exact sum of |w| over a float array (a checkpoint's float32 weights).

    ``np.frexp`` writes each |w| of a sub-chunk as m * 2**e with m in
    [0.5, 1), and ``np.bincount`` sums the m of each e in 64-bit reals.
    A float32 m is a multiple of 2**-24, so a bin's sum of at most
    ``_SUM_CHUNK`` of them needs under 38 bits and is exact; a float64 m
    is split into its float32 rounding and the exact remainder (a
    multiple of 2**-53 of magnitude at most 2**-25), binned apart.  Each
    bin's sum, shifted by its exponent, is added into one Python
    integer, so nothing rounds, and the result does not depend on the
    order of the weights or of the blocks they are read in.
    ``float(total / n)`` is then the correctly rounded mean |w|.
    """
    info = np.finfo(w.dtype)
    low = info.minexp - info.nmant  # every exponent frexp gives is above it
    total = 0  # in units of 2**(low - 52)
    flat = w.reshape(-1)
    for i in range(0, flat.size, _SUM_CHUNK):
        m, e = np.frexp(np.abs(flat[i : i + _SUM_CHUNK]))
        e -= low + 1
        hi = m.astype(np.float32, copy=False)
        for part in (m,) if hi is m else (hi, m - hi):
            sums = np.bincount(e, part)
            for k in np.flatnonzero(sums):
                total += int(sums[k] * 2.0**53) << int(k)
    return Fraction(total, 2 ** (52 - low))


def quantize_act_float(v, scale: float) -> np.ndarray:
    """Reference float activation: clamp(floor(v / s_a), 0, 3) with s_a = ``scale``."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError("activation input contains NaN or Inf")
    with np.errstate(over="ignore"):  # a quotient past the float range clamps all the same
        return np.clip(np.floor(v / scale), 0, NUM_CODES - 1).astype(np.uint8)


def fuse_thresholds(alpha, bn: BnParams, acc_bound: int) -> ThresholdTable:
    """Fold per-channel scale, batch norm, and activation into thresholds.

    ``alpha`` is scalar or per-channel.  ``acc_bound`` is the producing
    edge's static accumulator bound (3 * fan_in plus any residual
    contributions) and becomes the table's ``bound``; thresholds outside
    +/-acc_bound are clamped to sentinel values one past the bound --
    never/always crossed, identical semantics, bounded storage.  A
    degenerate channel (A == 0) stores its constant code
    clamp(floor(B / s_a), 0, 3) in t1 and 0 in t2, t3, as the record
    does.  Both the folded value A * acc + B and the float composition
    gamma * (alpha * acc - mean) / sd + beta it replaces must stay finite
    over the whole range: a channel where either overflows at |acc| =
    acc_bound raises :class:`DomainError`.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if not (np.isfinite(alpha).all() and (alpha > 0).all()):
        raise DomainError("alpha must be finite and positive")
    c = bn.channels
    alpha = np.broadcast_to(alpha, (c,))

    sd = np.sqrt(bn.var + bn.epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        a_coef = bn.gamma * alpha / sd
        b_coef = bn.beta - bn.gamma * bn.mean / sd
        # both the fold and the float composition it replaces, at |acc| = acc_bound
        reach = np.abs(a_coef) * acc_bound + np.abs(b_coef)
        reach += np.abs(bn.gamma) * (alpha * acc_bound + np.abs(bn.mean)) / sd + np.abs(bn.beta)
    if not np.isfinite(reach).all():
        raise DomainError(f"fold over the accumulator range +/-{acc_bound} is not finite")

    degenerate = a_coef == 0.0
    ascending = a_coef > 0.0
    u = np.arange(1, NUM_CODES, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bounds = (u[None, :] * bn.act_scale - b_coef[:, None]) / a_coef[:, None]
    rounded = np.where(ascending[:, None], np.ceil(bounds), np.floor(bounds))
    limit = float(acc_bound + 1)
    rounded = np.clip(np.nan_to_num(rounded, nan=0.0, posinf=limit, neginf=-limit), -limit, limit)
    t = np.sort(rounded, axis=1).astype(np.int64)
    t[degenerate] = 0
    t[degenerate, 0] = np.clip(np.floor(b_coef[degenerate] / bn.act_scale), 0, NUM_CODES - 1)
    return ThresholdTable(t, ascending, degenerate, acc_bound)


def apply_thresholds(acc: np.ndarray, tbl: ThresholdTable) -> np.ndarray:
    """Turn an integer accumulator map into its (2, words, H, W) packed code planes.

    Applies the sign-folded hi/lo rule (module docstring) with pure
    integer compares and packs both bits along the channel axis; this is
    the engine's only activation path.  ``acc`` is (C, H, W) with
    |acc| <= ``acc_limit(tbl.dtype)``, checked for every integer dtype
    (the sign fold and the sentinels are exact only inside it), so a
    direct caller's out-of-range map raises :class:`DomainError` rather
    than wrapping; an accumulator of another width is cast to the
    table's as it is read.
    The work goes one block of rows at a time, a block's bool plane pair
    being about ``BLOCK_BYTES``: the sign fold, the three compares and
    the packing make only block-sized temporaries, and each block writes
    its rows of the output planes.  No step makes a temporary the size of
    the whole map.
    """
    acc = np.asarray(acc)
    if not np.issubdtype(acc.dtype, np.integer):
        raise DomainError(f"accumulator must be integer-typed, got {acc.dtype}")
    if acc.ndim != 3 or acc.shape[0] != tbl.channels:
        raise ShapeError(
            f"accumulator shape {acc.shape} does not match {tbl.channels} table channels"
        )
    limit = acc_limit(tbl.dtype)
    if acc.size and max(int(acc.max()), -int(acc.min())) > limit:
        raise DomainError(f"accumulator magnitude exceeds {limit}")
    c, h, w = acc.shape
    cp = padded_channels(c)
    planes = np.empty((2, cp // LANES, h, w), dtype=np.uint64)
    for rows in row_blocks(h, 2 * cp * w):  # a row block's bool plane pair
        # exact at the table's width: |acc| <= limit was checked above
        folded = np.multiply(acc[:, rows], tbl.sign, dtype=tbl.dtype, casting="unsafe")
        bits = np.zeros((2, cp, *folded.shape[1:]), dtype=bool)  # pad lanes stay False
        hi, lo = bits[0, :c], bits[1, :c]
        np.greater_equal(folded, tbl.ts[1], out=hi)
        np.greater_equal(folded, tbl.ts[0], out=lo)
        lo ^= hi
        lo ^= folded >= tbl.ts[2]
        planes[:, :, rows] = pack_bitplanes(bits)
    return planes
