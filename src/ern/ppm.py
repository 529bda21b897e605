"""Binary PPM (P6) images, the only image format the CLI ingests.

P6 keeps ingestion bit-exact with no decoder dependency: a text header
(magic, width, height, maxval, '#' comments allowed) followed by raw RGB
bytes.  Only maxval 255 is accepted.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError


def _parse_header(data: bytes) -> tuple[int, int, int, int]:
    """Return (width, height, maxval, pixel data offset)."""
    if data[:2] != b"P6":
        raise FormatError(f"not a P6 file (starts with {data[:2]!r})")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError("header ends before width/height/maxval")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(data[start:pos]))
            except ValueError:  # past int()'s digit limit
                raise FormatError(f"header number of {pos - start} digits") from None
        else:
            raise FormatError(f"unexpected byte {ch!r} in header")
    # exactly one whitespace byte separates maxval from pixel data
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"maxval {maxval} unsupported, need 255")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    return width, height, maxval, pos


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a P6 file into a (3, H, W) uint8 array."""
    return decode_ppm(Path(path).read_bytes())


def decode_ppm(data: bytes) -> np.ndarray:
    """Decode P6 bytes into a (3, H, W) uint8 array; any defect is a FormatError."""
    width, height, _, offset = _parse_header(data)
    need = width * height * 3
    pixels = data[offset : offset + need]
    if len(pixels) < need:
        raise FormatError(f"pixel data truncated: {len(pixels)} of {need} bytes")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return np.ascontiguousarray(arr.transpose(2, 0, 1))


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    """Write a (3, H, W) uint8 array as P6."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3 or img.dtype != np.uint8:
        raise FormatError(f"need (3, H, W) uint8, got {img.dtype} {img.shape}")
    _, h, w = img.shape
    header = f"P6\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + img.transpose(1, 2, 0).tobytes())
