"""Weight binarization, the 2-bit activation function, and threshold fusion.

A BnAct's 2-bit code is defined by one float expression of its integer
accumulator ``acc`` scaled by s (alpha, c or alpha_out),
:func:`act_codes`:

    code(acc) = clamp(floor((gamma * (s * acc - mean) / sd + beta) / s_a), 0, 3)
    sd = sqrt(var + eps)

evaluated in 64-bit reals in this op order.  Each op is monotone under
round-to-nearest (s > 0, sd > 0), so the code never falls as acc rises
when gamma >= 0 (ascending; a gamma of zero makes it constant) and
never rises when gamma < 0 (descending).  So the whole
(scale o batch-norm o activation) composition is three integer
thresholds per channel, compared directly against the accumulator:
each threshold is the preimage of a code step, the least acc whose code
reaches u (ascending) or the greatest (descending), u = 1, 2, 3.

:func:`fuse_thresholds` finds each preimage by evaluating the expression
itself, so a table and the float oracle agree at every acc, ties
included.  The real-arithmetic closed form, with A = gamma * s / sd and
B = beta - gamma * mean / sd, ceil((u * s_a - B) / A) ascending or
floor((u * s_a - B) / A) descending, is only the seed of that search:
at an exact tie the expression can round to the code below it.

The float inputs of one fold -- gamma, beta, mean, var, eps and the code
step s_a -- travel together as one :class:`BnParams`, checked once when it
is built; the checkpoint manifest, the fold and the float oracle all hold
that one type.

A table's record form is what the ``.ern`` record stores (see
:class:`ThresholdTable`): each channel's three thresholds sorted
ascending with a direction flag, together with the static bound of the
accumulator edge the table reads.  Each threshold lies within
+/-(bound + 1), one past the bound being the sentinel of a step that
no acc in range crosses, or that every acc does, so a table gives the
fold's codes for |acc| <= bound, the range the graph guarantees.  A
constant channel (gamma == 0) of code q is an ascending row of q
sentinels -(bound + 1) followed by 3 - q sentinels bound + 1.

A table is built from that form but holds only its run-time form, from
which the record form is derived on demand.  The direction folds into
a per-channel sign s, so every channel counts the same way against
sorted thresholds ts, both held at ``acc_dtype(bound)``, the width the
graph gives the input edge (int16 or int32):

    code = #{ j : s * acc >= ts_j }

(an ascending channel has s = +1 and ts = t; a descending one s = -1
and ts = -t reversed).  Because ts is sorted, the three compares
c1 >= c2 >= c3 are nested, so the code's bits come out directly:

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

from dataclasses import dataclass
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


@dataclass(frozen=True, init=False, eq=False)
class ThresholdTable:
    """Fused (scale o batch-norm o activation) as integer thresholds.

    A table is built from its record form, as the ``.ern`` record stores
    it: ``t`` (C, 3), each channel's thresholds sorted ascending, and the
    per-channel flag ``ascending``.  Ascending channels output #{j : acc
    >= t_j}, descending ones #{j : acc <= t_j}; a constant channel is a
    row of sentinels.  ``bound`` is the static bound of the accumulator
    edge the table reads, and every |t| <= bound + 1.  Construction
    checks each of these (:class:`ShapeError` for a shape,
    :class:`DomainError` otherwise).

    The table holds only the sign-folded run-time form (module
    docstring), ``sign`` (C, 1, 1), +1 ascending and -1 descending, and
    ``ts`` (3, C, 1, 1), both at ``dtype`` = ``acc_dtype(bound)``, the
    edge's width, and ``bound``.  The record form is derived from them
    on demand: ``t`` as int64 and ``ascending`` as bool, new arrays on
    every read.
    """

    sign: np.ndarray
    ts: np.ndarray
    bound: int

    def __init__(self, t, ascending, bound: int):
        t = np.asarray(t)
        if t.ndim != 2 or t.shape[1] != NUM_CODES - 1 or not np.issubdtype(t.dtype, np.integer):
            raise ShapeError(f"thresholds must be integer (C, {NUM_CODES - 1}), got {t.shape}")
        c = t.shape[0]
        ascending = np.asarray(ascending)
        if ascending.shape != (c,):
            raise ShapeError(f"ascending must have {c} entries, got shape {ascending.shape}")
        ascending = ascending.astype(bool, copy=False)
        bound = int(bound)
        dtype = acc_dtype(bound)
        if int(t.max(initial=0)) > bound + 1 or int(t.min(initial=0)) < -(bound + 1):
            raise DomainError(f"a threshold exceeds the accumulator bound {bound} + 1")
        t = t.astype(np.int64, copy=False)
        if (t[:, 1:] < t[:, :-1]).any():
            raise DomainError("thresholds must be sorted ascending per channel")

        ts = np.where(ascending[:, None], t, -t[:, ::-1])
        sign = np.where(ascending, 1, -1).astype(dtype).reshape(c, 1, 1)
        ts = np.ascontiguousarray(ts.T, dtype=dtype).reshape(NUM_CODES - 1, c, 1, 1)
        for name, value in (("sign", sign), ("ts", ts), ("bound", bound)):
            object.__setattr__(self, name, value)

    @property
    def channels(self) -> int:
        return self.sign.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """The width of the accumulator the table reads, ``acc_dtype(bound)``."""
        return self.ts.dtype

    @property
    def ascending(self) -> np.ndarray:
        return self.sign.reshape(-1) > 0

    @property
    def degenerate(self) -> np.ndarray:
        # kept only for perfbench's section_bytes; goes with ROADMAP item 1
        return np.zeros(self.channels, bool)

    @property
    def t(self) -> np.ndarray:
        """The (C, 3) int64 rows the record stores, unfolded from ``ts`` and ``sign``."""
        ts = self.ts.reshape(NUM_CODES - 1, -1).T.astype(np.int64)
        return np.where(self.sign.reshape(-1, 1) < 0, -ts[:, ::-1], ts)


def binarize_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize float conv weights: sign tensor plus per-output-channel scale.

    sign(0) = +1, and alpha[o] is the mean absolute value of filter o,
    which minimizes the L2 error of alpha * signs among per-channel-scalar
    binary approximations.  An all-zero filter yields alpha 0; callers
    must substitute a positive value before packing.

    The weights are read in their own dtype, as given: compilation hands
    it one float32 block of output channels at a time.  They are checked
    finite, each row's |w| is summed in 64-bit reals
    (``np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)``), and the signs
    are returned as int8.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (OC, IC, kh, kw), got {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("weights contain NaN or Inf")
    alpha = np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)
    return (w >= 0).view(np.int8) * np.int8(2) - np.int8(1), alpha


# elements per sub-chunk of exact_abs_sum: its frexp, integer and float64
# temporaries of a sub-chunk come to about 0.4 x BLOCK_BYTES
_SUM_CHUNK = BLOCK_BYTES // 64
_LOW = -149  # below every exponent np.frexp gives a float32: its least subnormal is 2**-149


def exact_abs_sum(w: np.ndarray) -> Fraction:
    """The exact sum of |w| over a float32 array (a checkpoint's weights).

    ``np.frexp`` writes each |w| of a sub-chunk as m * 2**e with m in
    [0.5, 1), and ``np.bincount`` sums the m of each e in 64-bit reals.
    Each m is a multiple of 2**-24, so a bin's sum of at most
    ``_SUM_CHUNK`` of them needs under 38 bits and is exact.  Each bin's
    sum, shifted by its exponent, is added into one Python integer, so
    nothing rounds, and the result does not depend on the order of the
    weights or of the blocks they are read in.  ``float(total / n)`` is
    then the correctly rounded mean |w|.  Any dtype but float32 raises
    :class:`DomainError`: the checkpoint format and every reader of it
    hold float32.
    """
    if w.dtype != np.float32:
        raise DomainError(f"exact sums take float32 weights, got {w.dtype}")
    total = 0  # in units of 2**(_LOW - 52)
    flat = w.reshape(-1)
    for i in range(0, flat.size, _SUM_CHUNK):
        m, e = np.frexp(np.abs(flat[i : i + _SUM_CHUNK]))
        e -= _LOW + 1
        sums = np.bincount(e, m)
        for k in np.flatnonzero(sums):
            total += int(sums[k] * 2.0**53) << int(k)
    return Fraction(total, 2 ** (52 - _LOW))


def quantize_act_float(v, scale: float) -> np.ndarray:
    """Reference float activation: clamp(floor(v / s_a), 0, 3) with s_a = ``scale``."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError("activation input contains NaN or Inf")
    with np.errstate(over="ignore"):  # a quotient past the float range clamps all the same
        return np.clip(np.floor(v / scale), 0, NUM_CODES - 1).astype(np.uint8)


def act_codes(bn: BnParams, s, acc: np.ndarray) -> np.ndarray:
    """One BnAct's 2-bit codes of the accumulators ``acc`` (C, ...) scaled by ``s``.

    The defining expression, in 64-bit reals and in this op order:
    ``quantize_act_float(gamma * (s * acc - mean) / sqrt(var + eps) + beta, s_a)``,
    each parameter broadcast along ``acc``'s leading (channel) axis; ``s``
    is a scalar or broadcasts against ``acc``.  The float oracle runs
    every BnAct through it, and :func:`fuse_thresholds` folds it into
    thresholds; so one function defines what a code is.  It holds one
    map of 64-bit reals beside the quantizer's temporaries.
    """
    col = (-1,) + (1,) * (np.ndim(acc) - 1)
    v = np.multiply(s, acc, dtype=np.float64)
    v -= bn.mean.reshape(col)
    v *= bn.gamma.reshape(col)
    v /= np.sqrt(bn.var + bn.epsilon).reshape(col)
    v += bn.beta.reshape(col)
    return quantize_act_float(v, bn.act_scale)


def fuse_thresholds(alpha, bn: BnParams, acc_bound: int) -> ThresholdTable:
    """Fold per-channel scale, batch norm, and activation into thresholds.

    ``alpha`` is scalar or per-channel, the scale s of the accumulator,
    and ``acc_bound`` = b the producing edge's static accumulator bound
    (3 * fan_in plus any residual contributions), which becomes the
    table's ``bound``.  Each threshold is the integer preimage of
    :func:`act_codes` at y = s * acc: for u = 1, 2, 3, the least acc
    (ascending, gamma >= 0) or the greatest (descending, gamma < 0) in
    [-b, b] whose code reaches u, or the sentinel +/-(b + 1) where no acc
    in range crosses u or every acc does.  So a gamma of zero (or -0.0),
    whose code q is constant, comes out as q sentinels -(b + 1) followed
    by 3 - q sentinels b + 1.  The expression must stay finite over the
    whole range: a channel where it overflows at acc = +/-b raises
    :class:`DomainError`.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if not (np.isfinite(alpha).all() and (alpha > 0).all()):
        raise DomainError("alpha must be finite and positive")
    b = acc_bound
    s = np.broadcast_to(alpha, (bn.channels,))[:, None]
    ascending = bn.gamma >= 0.0
    d = np.where(ascending, 1, -1)[:, None]  # the code of acc = d * x never falls as x rises
    u = np.arange(1, NUM_CODES)

    def reached(x: np.ndarray) -> np.ndarray:  # code(d * x) >= u per (channel, u), |x| <= b
        return act_codes(bn, s, d * x) >= u

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:  # monotone in acc, so finite at both ends means finite everywhere between
            low, high = (reached(np.full((bn.channels, NUM_CODES - 1), e)) for e in (-b, b))
        except DomainError:
            raise DomainError(f"fold over the accumulator range +/-{b} is not finite") from None
        # the real-arithmetic preimage ceil(d * (u * s_a - B) / A) seeds the search
        sd = np.sqrt(bn.var + bn.epsilon)
        seed = (u * bn.act_scale - (bn.beta - bn.gamma * bn.mean / sd)[:, None]) * d
        seed /= (bn.gamma * alpha / sd)[:, None]
    live = high & ~low  # the answer x lies in (-b, b]: reached(x - 1) < reached(x)
    hi = np.clip(np.ceil(np.where(np.isnan(seed), 0.0, seed)), 1 - b, b).astype(np.int64)
    lo = hi - 1
    while True:  # move each live bracket, doubling its width, until reached(lo) < reached(hi)
        up, down = live & ~reached(hi), live & reached(lo)
        if not (up.any() or down.any()):
            break
        lo, hi = np.where(up, hi, lo), np.where(up, np.minimum(hi + 2 * (hi - lo), b), hi)
        lo, hi = np.where(down, np.maximum(lo - 2 * (hi - lo), -b), lo), np.where(down, lo, hi)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        r = reached(mid)
        lo, hi = np.where(r, lo, mid), np.where(r, mid, hi)
    t = np.sort(d * np.where(live, hi, np.where(low, -(b + 1), b + 1)), axis=1)
    return ThresholdTable(t, ascending, b)


def apply_thresholds(acc: np.ndarray, tbl: ThresholdTable) -> np.ndarray:
    """Turn an integer accumulator map into its (2, words, H, W) packed code planes.

    Applies the sign-folded hi/lo rule (module docstring), each channel's
    sign +1 or -1, with pure integer compares and packs both bits along
    the channel axis; this is the engine's only activation path.  ``acc`` is (C, H, W) with
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
