"""Raster images and bit-exact PNM (PGM/PPM) input and output.

Only two formats are parsed: binary PPM ("P6", 8-bit RGB) for scene images
and binary PGM ("P5", 16-bit gray, big-endian samples) for instance maps. The
header is the four whitespace-delimited tokens `magic width height maxval`
followed by exactly one whitespace byte, then the raw sample payload.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

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
    with open(path, "rb") as f:
        shape, wire, pos = _header(f, path)
        # straight into the array the image keeps: no second buffer of the payload's size
        px = np.empty(shape, dtype=wire.newbyteorder("="))
        f.seek(pos)
        if f.readinto(px) != px.nbytes:
            raise PnmFormatError(f"{path}: file shrank while it was read")
    if not wire.isnative:
        # to the machine's byte order in place; numpy needs no temporary for a
        # 1-d copy onto itself, and this is faster than ndarray.byteswap
        flat = px.reshape(-1)
        np.copyto(flat, flat.view(wire))
    return RasterImage(px)


def pnm_shape(path) -> tuple[int, ...]:
    """The pixel shape of a P5/P6 file, (h, w) or (h, w, 3), with the checks and
    errors of ``read_pnm``; only the header is read, and the payload's length
    is taken from the file size."""
    with open(path, "rb") as f:
        return _header(f, path)[0]


def _header(f, path) -> tuple[tuple[int, ...], np.dtype, int]:
    """``_parse_header`` of an open file, mapped so that only the pages it reads
    are read; its errors name the file."""
    try:
        if os.fstat(f.fileno()).st_size == 0:  # an empty file cannot be mapped
            return _parse_header(b"")
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return _parse_header(data)
    except PnmFormatError as exc:
        raise PnmFormatError(f"{path}: {exc}") from None


def _parse_header(data) -> tuple[tuple[int, ...], np.dtype, int]:
    """Pixel shape, wire dtype and payload offset of a file's bytes, whose
    payload must be exactly as long as the header says."""
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
    expected = width * height * math.prod(tail) * wire.itemsize
    if len(data) - pos != expected:
        raise PnmFormatError(f"payload is {len(data) - pos} bytes, expected {expected}")
    return (height, width) + tail, wire, pos


def write_pnm(image: RasterImage, path) -> None:
    """Write the canonical byte representation for the image's format."""
    (magic, maxval), wire = _BY_TAIL[image.pixels.shape[2:]]
    # written in two parts, and 8-bit samples without a copy of the array
    with open(path, "wb") as f:
        f.write(b"%s %d %d %d\n" % (magic, image.width, image.height, maxval))
        f.write(image.pixels.astype(wire, copy=False))
