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

Thresholds are stored sorted ascending with a direction flag.  All folding
is done in 64-bit reals with a fixed evaluation order; the integer
threshold path is canonical at real-arithmetic boundary ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .instrument import note_float_ops

NUM_CODES = 4  # 2-bit activations
_WIDE_SENTINEL = np.int64(1) << 62  # threshold clamp when no accumulator bound is known


@dataclass(frozen=True)
class BnParams:
    """Per-channel batch-norm statistics (inference view)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float

    def __post_init__(self):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.isfinite(arr).all():
                raise DomainError(f"batch-norm {name} contains NaN or Inf")
            object.__setattr__(self, name, arr)
        if (self.running_var < 0).any():
            raise DomainError("running_var must be non-negative")
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class ActParams:
    """Quantized activation parameters: the input scale of 2-bit codes.

    The scale is per-layer; a per-channel vector is accepted as well (it
    folds into per-channel thresholds identically).
    """

    input_scale: np.ndarray

    def __post_init__(self):
        scale = np.atleast_1d(np.asarray(self.input_scale, dtype=np.float64))
        if not (np.isfinite(scale).all() and (scale > 0).all()):
            raise DomainError("activation scale must be finite and positive")
        object.__setattr__(self, "input_scale", scale)


@dataclass(frozen=True)
class ThresholdTable:
    """Fused (scale o batch-norm o activation) as integer thresholds.

    ``t`` is (C, 3) int64, sorted ascending per channel.  Ascending
    channels output #{j : acc >= t_j}; descending #{j : acc <= t_j}.
    Channels with gamma == 0 are degenerate and output ``const_code``.
    """

    t: np.ndarray
    ascending: np.ndarray
    degenerate: np.ndarray
    const_code: np.ndarray

    @property
    def channels(self) -> int:
        return self.t.shape[0]


def binarize_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize float conv weights: sign tensor plus per-output-channel scale.

    sign(0) = +1, and alpha[o] is the mean absolute value of filter o,
    which minimizes the L2 error of alpha * signs among per-channel-scalar
    binary approximations.  An all-zero filter yields alpha 0; callers
    must substitute a positive value before packing.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (OC, IC, kh, kw), got {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("weights contain NaN or Inf")
    signs = np.where(w >= 0, 1, -1).astype(np.int8)
    alpha = np.abs(w).mean(axis=(1, 2, 3))
    return signs, alpha


def quantize_act_float(v, p: ActParams) -> np.ndarray:
    """Reference float activation: clamp(floor(v / s_a), 0, 3)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError("activation input contains NaN or Inf")
    scale = p.input_scale if p.input_scale.size == 1 else p.input_scale.reshape(
        (-1,) + (1,) * (v.ndim - 1)
    )
    note_float_ops(2 * v.size)
    return np.clip(np.floor(v / scale), 0, NUM_CODES - 1).astype(np.uint8)


def fuse_thresholds(alpha, bn: BnParams, act: ActParams, acc_bound: int | None = None) -> ThresholdTable:
    """Fold per-channel scale, batch norm, and activation into thresholds.

    ``alpha`` is scalar or per-channel.  When ``acc_bound`` (the producing
    layer's accumulator bound, 3 * fan_in plus any residual contributions)
    is given, thresholds outside +/-acc_bound are clamped to sentinel
    values one past the bound -- never/always crossed, identical semantics,
    bounded storage.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if not (np.isfinite(alpha).all() and (alpha > 0).all()):
        raise DomainError("alpha must be finite and positive")
    c = bn.channels
    alpha = np.broadcast_to(alpha, (c,))
    scale = np.broadcast_to(act.input_scale, (c,))

    sd = np.sqrt(bn.running_var + bn.epsilon)
    a_coef = bn.gamma * alpha / sd
    b_coef = bn.beta - bn.gamma * bn.running_mean / sd

    degenerate = a_coef == 0.0
    ascending = a_coef > 0.0
    const_code = np.clip(
        np.floor(np.divide(b_coef, scale, where=degenerate, out=np.zeros(c))), 0, NUM_CODES - 1
    ).astype(np.uint8)
    const_code[~degenerate] = 0

    u = np.arange(1, NUM_CODES, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bounds = (u[None, :] * scale[:, None] - b_coef[:, None]) / a_coef[:, None]
    rounded = np.where(ascending[:, None], np.ceil(bounds), np.floor(bounds))
    limit = float(_WIDE_SENTINEL if acc_bound is None else acc_bound + 1)
    rounded = np.clip(np.nan_to_num(rounded, nan=0.0, posinf=limit, neginf=-limit), -limit, limit)
    t = np.sort(rounded, axis=1).astype(np.int64)
    t[degenerate] = 0
    return ThresholdTable(t=t, ascending=ascending, degenerate=degenerate, const_code=const_code)


def apply_thresholds(acc: np.ndarray, tbl: ThresholdTable) -> np.ndarray:
    """Turn an integer accumulator map into 2-bit codes via the count rule.

    Pure integer comparisons; this is the engine's only activation path.
    """
    acc = np.asarray(acc)
    if not np.issubdtype(acc.dtype, np.integer):
        raise DomainError(f"accumulator must be integer-typed, got {acc.dtype}")
    if acc.ndim != 3 or acc.shape[0] != tbl.channels:
        raise ShapeError(
            f"accumulator shape {acc.shape} does not match {tbl.channels} table channels"
        )
    asc = tbl.ascending[:, None, None]
    codes = np.zeros(acc.shape, dtype=np.uint8)
    for j in range(tbl.t.shape[1]):
        tj = tbl.t[:, j, None, None]
        codes += np.where(asc, acc >= tj, acc <= tj)
    deg = tbl.degenerate[:, None, None]
    if deg.any():
        codes = np.where(deg, tbl.const_code[:, None, None], codes)
    return codes
