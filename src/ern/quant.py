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

Thresholds are stored sorted ascending with a direction flag.  All folding
is done in 64-bit reals with a fixed evaluation order; the integer
threshold path is canonical at real-arithmetic boundary ties.

At run time the direction folds into a per-channel sign s = +/-1, so
every channel counts the same way against sorted int32 thresholds ts:

    code = #{ j : s * acc >= ts_j }

(a descending channel has ts = -t reversed; a degenerate one has
s = +1 and ``const_code`` copies of the int32 minimum followed by the
int32 maximum).  Because ts is sorted, the three compares c1 >= c2 >= c3
are nested, so the code's bits come out directly:

    hi = (s * acc >= ts_2)        lo = c1 xor c2 xor c3

and both are packed straight into the next layer's bitplanes; no code
map is ever written.  Clamping thresholds into the int32 range is exact
for every accumulator with |acc| <= ``ACC_LIMIT`` (2**31 - 2), the range
the int32 convolution and residual add guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .instrument import note_float_ops
from .tensor import ACC_DTYPE, ACC_LIMIT, pack_bitplanes, padded_channels

NUM_CODES = 4  # 2-bit activations
_ACC = np.iinfo(ACC_DTYPE)


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

    ``t`` is (C, 3) int64, sorted ascending per channel.  Ascending
    channels output #{j : acc >= t_j}; descending #{j : acc <= t_j}.
    Channels with gamma == 0 are degenerate and output ``const_code``.
    Construction checks those invariants and builds the sign-folded
    run-time form, ``sign`` (C, 1, 1) and ``ts`` (3, C, 1, 1), both int32.
    """

    t: np.ndarray
    ascending: np.ndarray
    degenerate: np.ndarray
    const_code: np.ndarray
    sign: np.ndarray = field(init=False, compare=False, repr=False)
    ts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.ndim != 2 or t.shape[1] != NUM_CODES - 1 or not np.issubdtype(t.dtype, np.integer):
            raise ShapeError(f"thresholds must be integer (C, {NUM_CODES - 1}), got {t.shape}")
        c = t.shape[0]
        flags = {n: np.asarray(getattr(self, n)) for n in ("ascending", "degenerate", "const_code")}
        for name, arr in flags.items():
            if arr.shape != (c,):
                raise ShapeError(f"{name} must have {c} entries, got shape {arr.shape}")
        if (t[:, 1:] < t[:, :-1]).any():
            raise DomainError("thresholds must be sorted ascending per channel")
        if ((flags["const_code"] < 0) | (flags["const_code"] >= NUM_CODES)).any():
            raise DomainError(f"constant codes must lie in 0..{NUM_CODES - 1}")
        t = t.astype(np.int64, copy=False)
        ascending = flags["ascending"].astype(bool, copy=False)
        degenerate = flags["degenerate"].astype(bool, copy=False)
        const_code = flags["const_code"].astype(np.uint8, copy=False)

        # clamp before negating so nothing overflows; both clamps keep every
        # compare's outcome for |acc| <= ACC_LIMIT
        ts = np.clip(t, _ACC.min, _ACC.max)
        ts = np.clip(np.where(ascending[:, None], ts, -ts[:, ::-1]), _ACC.min, _ACC.max)
        fixed = np.arange(NUM_CODES - 1) < const_code[:, None]
        ts[degenerate] = np.where(fixed, _ACC.min, _ACC.max)[degenerate]
        sign = np.where(ascending | degenerate, 1, -1).astype(ACC_DTYPE).reshape(c, 1, 1)
        ts = np.ascontiguousarray(ts.T, dtype=ACC_DTYPE).reshape(NUM_CODES - 1, c, 1, 1)
        for name, value in (
            ("t", t),
            ("ascending", ascending),
            ("degenerate", degenerate),
            ("const_code", const_code),
            ("sign", sign),
            ("ts", ts),
        ):
            object.__setattr__(self, name, value)

    @property
    def channels(self) -> int:
        return self.t.shape[0]


def binarize_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize float conv weights: sign tensor plus per-output-channel scale.

    sign(0) = +1, and alpha[o] is the mean absolute value of filter o,
    which minimizes the L2 error of alpha * signs among per-channel-scalar
    binary approximations.  The weights are read in their own dtype (a
    checkpoint's float32) and alpha is summed in 64-bit reals, so no
    widened copy of the layer is made.  An all-zero filter yields alpha
    0; callers must substitute a positive value before packing.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (OC, IC, kh, kw), got {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("weights contain NaN or Inf")
    signs = 2 * (w >= 0).astype(np.int8) - 1
    alpha = np.abs(w).mean(axis=(1, 2, 3), dtype=np.float64)
    return signs, alpha


def quantize_act_float(v, scale: float) -> np.ndarray:
    """Reference float activation: clamp(floor(v / s_a), 0, 3) with s_a = ``scale``."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError("activation input contains NaN or Inf")
    note_float_ops(2 * v.size)
    return np.clip(np.floor(v / scale), 0, NUM_CODES - 1).astype(np.uint8)


def fuse_thresholds(alpha, bn: BnParams, acc_bound: int) -> ThresholdTable:
    """Fold per-channel scale, batch norm, and activation into thresholds.

    ``alpha`` is scalar or per-channel.  ``acc_bound`` is the producing
    edge's static accumulator bound (3 * fan_in plus any residual
    contributions); thresholds outside +/-acc_bound are clamped to
    sentinel values one past the bound -- never/always crossed, identical
    semantics, bounded storage.  The folded value A * acc + B must stay
    finite over the whole range: a channel whose |A| * acc_bound + |B|
    overflows raises :class:`DomainError`.
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
        reach = np.abs(a_coef) * acc_bound + np.abs(b_coef)
    if not np.isfinite(reach).all():
        raise DomainError(f"fold |A| * {acc_bound} + |B| over the accumulator range is not finite")

    degenerate = a_coef == 0.0
    ascending = a_coef > 0.0
    const_code = np.clip(
        np.floor(np.divide(b_coef, bn.act_scale, where=degenerate, out=np.zeros(c))),
        0,
        NUM_CODES - 1,
    ).astype(np.uint8)
    const_code[~degenerate] = 0

    u = np.arange(1, NUM_CODES, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bounds = (u[None, :] * bn.act_scale - b_coef[:, None]) / a_coef[:, None]
    rounded = np.where(ascending[:, None], np.ceil(bounds), np.floor(bounds))
    limit = float(acc_bound + 1)
    rounded = np.clip(np.nan_to_num(rounded, nan=0.0, posinf=limit, neginf=-limit), -limit, limit)
    t = np.sort(rounded, axis=1).astype(np.int64)
    t[degenerate] = 0
    return ThresholdTable(t=t, ascending=ascending, degenerate=degenerate, const_code=const_code)


def apply_thresholds(acc: np.ndarray, tbl: ThresholdTable) -> np.ndarray:
    """Turn an integer accumulator map into its (2, words, H, W) packed code planes.

    Applies the sign-folded hi/lo rule (module docstring) with pure
    integer compares and packs both bits along the channel axis; this is
    the engine's only activation path.  ``acc`` is (C, H, W) with
    |acc| <= ``ACC_LIMIT``, checked for every integer dtype (the sign fold
    and the int32 sentinels are exact only inside it); an accumulator
    wider than int32 is then narrowed.
    """
    acc = np.asarray(acc)
    if not np.issubdtype(acc.dtype, np.integer):
        raise DomainError(f"accumulator must be integer-typed, got {acc.dtype}")
    if acc.ndim != 3 or acc.shape[0] != tbl.channels:
        raise ShapeError(
            f"accumulator shape {acc.shape} does not match {tbl.channels} table channels"
        )
    if acc.size and max(int(acc.max()), -int(acc.min())) > ACC_LIMIT:
        raise DomainError(f"accumulator magnitude exceeds {ACC_LIMIT}")
    acc = acc.astype(ACC_DTYPE, copy=False)
    c, h, w = acc.shape
    folded = acc * tbl.sign
    bits = np.zeros((2, padded_channels(c), h, w), dtype=bool)
    hi, lo = bits[0, :c], bits[1, :c]
    np.greater_equal(folded, tbl.ts[1], out=hi)
    np.greater_equal(folded, tbl.ts[0], out=lo)
    lo ^= hi
    lo ^= folded >= tbl.ts[2]
    return pack_bitplanes(bits)
