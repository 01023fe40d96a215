"""Raster images and bit-exact PNM (PGM/PPM) input and output.

Only two formats are parsed: binary PPM ("P6", 8-bit RGB) for scene images
and binary PGM ("P5", 16-bit gray, big-endian samples) for instance maps. The
header is the four whitespace-delimited tokens `magic width height maxval`
followed by exactly one whitespace byte, then the raw sample payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PnmFormatError(ValueError):
    """Bytes that do not parse as one of the supported PNM dialects."""


_WHITESPACE = b" \t\n\r\x0b\x0c"
# (magic, maxval) -> per-pixel sample shape and wire dtype of the payload
_LAYOUTS = {(b"P6", 255): ((3,), np.dtype("u1")), (b"P5", 65535): ((), np.dtype(">u2"))}
# per-pixel sample shape -> (magic, maxval) and wire dtype: the formats a RasterImage holds
_BY_TAIL = {tail: (key, wire) for key, (tail, wire) in _LAYOUTS.items()}


@dataclass(eq=False)
class RasterImage:
    """8-bit RGB pixels of shape (h, w, 3) or 16-bit gray pixels of shape (h, w);
    a gray raster is an instance map (pixel = instance id, 0 = background)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = self.pixels
        if px.ndim < 2 or px.shape[2:] not in _BY_TAIL:
            raise ValueError(f"unsupported pixel shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        expected = _BY_TAIL[px.shape[2:]][1].newbyteorder("=")
        if px.dtype != expected:
            raise ValueError(f"{'RGB' if px.ndim == 3 else 'gray'} pixels must be {expected}, got {px.dtype}")
        self.pixels = np.ascontiguousarray(px)

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def _next_token(data: bytes, pos: int, skip_leading: bool) -> tuple[bytes, int]:
    n = len(data)
    if skip_leading:
        while pos < n and data[pos : pos + 1] in _WHITESPACE:
            pos += 1
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if pos == start:
        raise PnmFormatError("truncated header")
    return data[start:pos], pos


def read_pnm(path) -> RasterImage:
    """Read a P5/P6 file; raises PnmFormatError, naming the file, on any deviation."""
    try:
        return _parse_pnm(Path(path).read_bytes())
    except PnmFormatError as exc:
        raise PnmFormatError(f"{path}: {exc}") from None


def _parse_pnm(data: bytes) -> RasterImage:
    magic, pos = _next_token(data, 0, skip_leading=False)
    if magic not in (b"P5", b"P6"):
        raise PnmFormatError(f"unsupported magic {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos, skip_leading=True)
        if not token.isdigit():
            raise PnmFormatError(f"non-numeric header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmFormatError("image dimensions must be positive")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmFormatError("missing whitespace after maxval")
    pos += 1
    layout = _LAYOUTS.get((magic, maxval))
    if layout is None:
        raise PnmFormatError(f"unsupported {magic.decode()} maxval {maxval}")
    tail, wire = layout
    payload = data[pos:]
    expected = width * height * math.prod(tail) * wire.itemsize
    if len(payload) != expected:
        raise PnmFormatError(f"payload is {len(payload)} bytes, expected {expected}")
    px = np.frombuffer(payload, dtype=wire).astype(wire.newbyteorder("=")).reshape((height, width) + tail)
    return RasterImage(px)


def write_pnm(image: RasterImage, path) -> None:
    """Write the canonical byte representation for the image's format."""
    (magic, maxval), wire = _BY_TAIL[image.pixels.shape[2:]]
    # written in two parts, and 8-bit samples without a copy of the array
    with open(path, "wb") as f:
        f.write(b"%s %d %d %d\n" % (magic, image.width, image.height, maxval))
        f.write(image.pixels.astype(wire, copy=False))
