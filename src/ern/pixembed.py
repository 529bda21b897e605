"""Generalized thermometer encoding of 8-bit pixels into 2-bit activations.

An 8-bit value x is mapped to a length-k vector of 2-bit codes through a
per-index affine function followed by floor and clamp:

    s    = max(1, floor(255 / (3 * k)))      # bin width
    w_i  = 1 / (s * k)
    b_i  = 1 - (i + 1) / k
    z_i  = clamp(floor(w_i * x + b_i), 0, 3)

Every output channel is monotonically non-decreasing in x, and distinct
output vectors are totally ordered element-wise.  With k=10 a 3-channel
RGB image becomes a 30-channel 2-bit activation map.

Channel ordering is color-major: the k channels of R first, then G, then B.
Any fixed order is valid (the first conv layer is permutation-covariant);
this one is the documented file-format convention.

The encoder writes packed bitplanes directly.  Colour c's k channels sit
at fixed lanes, so for every 8-bit value the hi and lo words they
contribute are precomputed once per k from the code table; an image is
then three table lookups OR-ed together per word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .quant import NUM_CODES
from .tensor import pack_activations


@dataclass(frozen=True)
class ThermoParams:
    k: int
    s: int
    w: np.ndarray  # per-index slope, length k
    b: np.ndarray  # per-index offset, length k
    table: np.ndarray  # (k, 256) uint8 code of every 8-bit input, read-only
    # (3, 2, n, 256) uint64: hi and lo planes of n words per colour and input, read-only
    words: np.ndarray

    @property
    def levels(self) -> int:
        """Distinct code vectors over the 8-bit input range."""
        return (NUM_CODES - 1) * self.k + 1


@functools.cache
def thermo_params(k: int) -> ThermoParams:
    """Build 2-bit encoding parameters for vector length k.

    Cached per k, so the code and word tables are built once; every array
    is read-only because all callers share it.
    """
    if k < 1:
        raise DomainError(f"thermometer length k must be >= 1, got {k}")
    s = max(1, int(255 // ((NUM_CODES - 1) * k)))
    idx = np.arange(k, dtype=np.float64)
    w = np.full(k, 1.0 / (s * k), dtype=np.float64)
    b = 1.0 - (idx + 1.0) / k
    table = _code_table(w, b)
    words = _word_tables(table)
    for arr in (w, b, table, words):
        arr.flags.writeable = False
    return ThermoParams(k=k, s=s, w=w, b=b, table=table, words=words)


def _code_table(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(k, 256) uint8 table of codes for every possible 8-bit input."""
    x = np.arange(256, dtype=np.float64)
    y = w[:, None] * x[None, :] + b[:, None]
    z = np.clip(np.floor(y), 0, NUM_CODES - 1)
    return z.astype(np.uint8)


def _word_tables(table: np.ndarray) -> np.ndarray:
    """(3, 2, n, 256) packed hi and lo planes of each colour's k codes, n = words per plane.

    Entry [c, ..., x] is the planes of a 1x1 pixel whose colour c equals x
    and whose other colours encode to code 0, so OR-ing one entry per
    colour gives the planes of any pixel.
    """
    k = table.shape[0]
    codes = np.zeros((3, 3 * k, 1, 256), dtype=np.uint8)
    for c in range(3):
        codes[c, c * k : (c + 1) * k, 0] = table
    return np.stack([pack_activations(x)[:, :, 0] for x in codes])


def encode_pixel(x: int, p: ThermoParams) -> np.ndarray:
    """Encode one 8-bit value into its length-k code vector."""
    if not 0 <= int(x) <= 255:
        raise DomainError(f"pixel value must be in [0, 255], got {x}")
    return p.table[:, int(x)].copy()


def encode_image(img: np.ndarray, p: ThermoParams) -> np.ndarray:
    """Encode an 8-bit (3, H, W) image into the (2, words, H, W) planes of 3k channels.

    Output channel c*k + i holds code i of input channel c.
    """
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"image must be (3, H, W), got {img.shape}")
    if img.dtype != np.uint8:
        if not np.issubdtype(img.dtype, np.integer):
            raise DomainError(f"image must hold 8-bit integers, got dtype {img.dtype}")
        if img.min() < 0 or img.max() > 255:
            raise DomainError("image values must be in [0, 255]")
        img = img.astype(np.uint8)
    planes = p.words[0][:, :, img[0]]  # (2, n, H, W)
    planes |= p.words[1][:, :, img[1]]
    planes |= p.words[2][:, :, img[2]]
    return planes
