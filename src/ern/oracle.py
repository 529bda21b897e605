"""Float reference executor and integer-engine cross-checking.

The oracle evaluates the same quantized network in 64-bit reals, straight
from the defining math: binary signs convolved with code maps by im2col,
scaled by alpha (or the shared constant c), batch-normalized, and passed
through the explicit float quantizer.  It builds on the manifest's own
graph and reads each BnAct's :class:`ern.quant.BnParams` as the manifest
holds it, already checked and in 64-bit reals.  It shares no kernel code
with the integer engine, so agreement between the two certifies both.

The convolution is a float32 GEMM whose partial sums are integers below
2**24, so it is exact, and its result is widened to 64-bit reals; the
only rounding happens when a scale or the batch norm touches a value.
Residual branches therefore stay exactly c times the engine's integer
accumulators: the oracle adds the unscaled (integer-valued) tensors and
applies c lazily.

A cross-check can still legitimately disagree with the engine at
positions where the pre-quantization value sits essentially on a code
boundary: the folded thresholds and the direct float composition round
differently there.  Those positions are detected (|v / s_a| within 1e-9
of an integer), counted, and excluded; any other disagreement fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .quant import BnParams, quantize_act_float
from .graph import (
    AvgPoolScale,
    BnAct,
    Conv,
    FinalConv,
    GraphDef,
    PixelEmbed,
    ResidualAdd,
    execute,
)

TIE_EPS = 1e-9  # |v / s_a - round(v / s_a)| below this is a code-boundary tie
LOGIT_RTOL = 1e-6  # max relative logit error a passing cross-check allows


# --------------------------------------------------------------------------
# model construction


@dataclass(eq=False)
class OracleModel:
    """Pre-folding float view of a compiled model."""

    graph: GraphDef
    shared_const: float
    signs: dict[str, np.ndarray]  # (OC, IC, kh, kw) int8, +-1
    edge_scale: dict[str, np.ndarray]  # acc edge -> (OC,) effective scale
    bns: dict[str, BnParams]  # the manifest's parameters per BnAct node
    alpha_out: float


def oracle_from_manifest(manifest, shared_const: float | None = None) -> OracleModel:
    """Build the float reference on ``manifest.graph()`` with compilation's scale policy.

    Must see the same manifest and shared constant as the compiled model,
    or divergence is by construction rather than by defect.
    """
    g = manifest.graph()
    c = shared_const if shared_const is not None else manifest.shared_const
    c = 1.0 if c is None else float(c)
    if not (np.isfinite(c) and c > 0):
        raise ConfigError(f"shared constant must be finite and > 0, got {c}")

    signs: dict[str, np.ndarray] = {}
    edge_scale: dict[str, np.ndarray] = {}
    alpha_out = 1.0
    for node in g.convs:
        w = manifest.convs.get(node.name)
        if w is None:
            raise ConfigError(f"layer '{node.name}' missing from manifest")
        # signs read the manifest's floats as they are; scales widen to 64 bits
        w = np.asarray(w)
        signs[node.name] = 2 * (w >= 0.0).astype(np.int8) - 1
        if isinstance(node, FinalConv):
            alpha_out = float(np.mean(np.abs(w.astype(np.float64)))) or 1.0
            edge_scale[node.dst] = np.full(node.spec.out_ch, alpha_out)
        elif g.edges[node.dst].const_scaled:
            edge_scale[node.dst] = np.full(node.spec.out_ch, c)
        else:
            alpha = np.abs(w.astype(np.float64)).mean(axis=(1, 2, 3))
            edge_scale[node.dst] = np.where(alpha == 0.0, 1.0, alpha)
    for n in g.nodes:
        if isinstance(n, ResidualAdd):
            edge_scale[n.dst] = edge_scale[n.src_a]

    bns = {}
    for bn in g.bnacts:
        rec = manifest.bnacts.get(bn.name)
        if rec is None:
            raise ConfigError(f"layer '{bn.name}' missing from manifest")
        bns[bn.name] = rec
    return OracleModel(
        graph=g,
        shared_const=c,
        signs=signs,
        edge_scale=edge_scale,
        bns=bns,
        alpha_out=alpha_out,
    )


# --------------------------------------------------------------------------
# float execution


def _thermo_codes(img: np.ndarray, k: int) -> np.ndarray:
    # independent of the table-driven encoder: evaluate the defining map
    s = max(1, 255 // (3 * k))
    w = 1.0 / (s * k)
    b = 1.0 - (np.arange(1, k + 1)) / k
    x = img.astype(np.float64)
    z = np.floor(w * x[:, None, :, :] + b[None, :, None, None])
    z = np.clip(z, 0, 3)
    c, kk, h, wd = z.shape
    return z.reshape(c * kk, h, wd)


def _conv_im2col(codes: np.ndarray, w_signs: np.ndarray, stride, padding) -> np.ndarray:
    """Convolve 2-bit codes with +/-1 signs as one float32 GEMM; returns float64.

    Every product and partial sum is an integer of magnitude at most
    3 * fan_in, and integers below 2**24 are exact in float32, so the
    result is exact whatever order the GEMM sums in.
    """
    ic, h, wd = codes.shape
    oc, wic, kh, kw = w_signs.shape
    if wic != ic:
        raise ShapeError(f"conv weights expect {wic} channels, got {ic}")
    if 3 * ic * kh * kw >= 2**24:
        raise ShapeError(f"fan-in {ic * kh * kw} is too large for an exact float32 GEMM")
    sh, sw = stride
    ph, pw = padding
    x = np.zeros((ic, h + 2 * ph, wd + 2 * pw), dtype=np.float32)
    x[:, ph : ph + h, pw : pw + wd] = codes
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"empty conv output for input {h}x{wd}")
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::sh, ::sw][:, :oh, :ow]  # (ic, oh, ow, kh, kw)
    cols = win.transpose(0, 3, 4, 1, 2).reshape(ic * kh * kw, oh * ow)
    acc = w_signs.reshape(oc, -1).astype(np.float32) @ cols
    return acc.astype(np.float64).reshape(oc, oh, ow)


@dataclass(eq=False)
class OracleResult:
    logits: np.ndarray
    # every edge: act2 -> uint8 codes, acc -> integer-valued f64, logits -> f64
    values: dict[str, np.ndarray] = field(default_factory=dict)
    pre: dict[str, np.ndarray] = field(default_factory=dict)  # BnAct name -> float v


def oracle_execute(om: OracleModel, img: np.ndarray) -> OracleResult:
    """Run the float reference on one image, keeping every intermediate."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image, got {img.shape}")
    res = OracleResult(logits=np.zeros(0))
    values = res.values
    for node in om.graph.nodes:
        if isinstance(node, PixelEmbed):
            values[node.dst] = _thermo_codes(img, node.k).astype(np.uint8)
        elif isinstance(node, (Conv, FinalConv)):
            values[node.dst] = _conv_im2col(
                values[node.src], om.signs[node.name], node.spec.stride, node.spec.padding
            )
        elif isinstance(node, BnAct):
            bn = om.bns[node.name]
            y = om.edge_scale[node.src][:, None, None] * values[node.src]
            sd = np.sqrt(bn.var + bn.epsilon)[:, None, None]
            v = bn.gamma[:, None, None] * (y - bn.mean[:, None, None]) / sd + bn.beta[:, None, None]
            values[node.dst] = quantize_act_float(v, bn.act_scale)
            res.pre[node.name] = v
        elif isinstance(node, ResidualAdd):
            values[node.dst] = values[node.src_a] + values[node.src_b]
        elif isinstance(node, AvgPoolScale):
            scaled = om.alpha_out * values[node.src]
            res.logits = scaled.mean(axis=(1, 2))
            values[node.dst] = res.logits
    return res


# --------------------------------------------------------------------------
# cross-checking


@dataclass
class LayerReport:
    mismatches: int = 0  # non-boundary code disagreements
    boundary: int = 0  # disagreements excused as quantization-boundary ties


@dataclass
class CrossCheckReport:
    ok: bool = True
    images: int = 0
    layers: dict[str, LayerReport] = field(default_factory=dict)
    first_divergence: str | None = None
    max_logit_rel_err: float = 0.0
    residual_scaling_exact: bool = True

    def summary(self) -> str:
        lines = [
            f"images checked: {self.images}",
            f"max logit relative error: {self.max_logit_rel_err:.3e}",
            f"residual branches exactly c x integer: {self.residual_scaling_exact}",
        ]
        for name, rep in self.layers.items():
            if rep.mismatches or rep.boundary:
                lines.append(
                    f"  {name}: {rep.mismatches} mismatches, {rep.boundary} boundary ties"
                )
        if self.first_divergence:
            lines.append(f"first divergent layer: {self.first_divergence}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "images": self.images,
                "max_logit_rel_err": self.max_logit_rel_err,
                "residual_scaling_exact": self.residual_scaling_exact,
                "first_divergence": self.first_divergence,
                "layers": {
                    n: {"mismatches": r.mismatches, "boundary": r.boundary}
                    for n, r in self.layers.items()
                },
            },
            indent=2,
        )


def cross_check(model, om: OracleModel, images) -> CrossCheckReport:
    """Compare integer execution against the float reference image by image.

    Passes iff every 2-bit code map matches outside boundary ties, the
    residual branch values are exactly c times the integer accumulators,
    and logits agree within ``LOGIT_RTOL`` relative.
    """
    g: GraphDef = model.graph
    report = CrossCheckReport()
    embed = g.steps[0].node
    report.layers[embed.name] = LayerReport()
    for bn in g.bnacts:
        report.layers[bn.name] = LayerReport()

    adds = [n for n in g.nodes if isinstance(n, ResidualAdd)]
    for img in images:
        ir = execute(model, img, record=True)
        orr = oracle_execute(om, img)
        report.images += 1

        # embed codes: both routes are exact integer maps, no tie excuse
        diff = int(np.count_nonzero(ir.values[embed.dst] != orr.values[embed.dst]))
        if diff:
            report.layers[embed.name].mismatches += diff
            report.first_divergence = report.first_divergence or embed.name

        for bn in g.bnacts:
            a = ir.values[bn.dst]
            b = orr.values[bn.dst]
            diffmask = a != b
            if not diffmask.any():
                continue
            ratio = orr.pre[bn.name] / om.bns[bn.name].act_scale
            near = np.abs(ratio - np.rint(ratio)) < TIE_EPS
            hard = int(np.count_nonzero(diffmask & ~near))
            tied = int(np.count_nonzero(diffmask & near))
            report.layers[bn.name].mismatches += hard
            report.layers[bn.name].boundary += tied
            if hard:
                report.first_divergence = report.first_divergence or bn.name

        c = model.shared_const
        for add in adds:
            for src in (add.src_a, add.src_b):
                want = c * ir.values[src].astype(np.float64)
                if not np.array_equal(c * orr.values[src], want):
                    report.residual_scaling_exact = False

        lf = orr.logits
        li = ir.logits
        denom = max(float(np.max(np.abs(lf))), 1e-30)
        rel = float(np.max(np.abs(li - lf))) / denom
        report.max_logit_rel_err = max(report.max_logit_rel_err, rel)

    hard_total = sum(r.mismatches for r in report.layers.values())
    report.ok = (
        hard_total == 0
        and report.residual_scaling_exact
        and report.max_logit_rel_err <= LOGIT_RTOL
    )
    if not report.ok and report.first_divergence is None and hard_total == 0:
        report.first_divergence = "logits"
    return report
