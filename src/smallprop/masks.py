"""Binary pixel masks with a canonical run-length encoding and exact geometry.

The encoding is normative for the proposal exchange format: runs are listed
in row-major scan order and alternate background/foreground, with the first
run counting background pixels (possibly zero). No other run may be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np


class MaskFormatError(ValueError):
    """Run-length data that violates the mask format."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box; (x, y) is the top-left corner."""

    x: int
    y: int
    w: int
    h: int

    def intersects(self, other: "BBox") -> bool:
        return (
            self.x < other.x + other.w
            and other.x < self.x + self.w
            and self.y < other.y + other.h
            and other.y < self.y + self.h
        )


@dataclass(eq=True)
class BinaryMask:
    """Run-length-encoded binary mask, immutable after construction."""

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"mask dimensions must be positive, got {self.width}x{self.height}")
        runs = tuple(int(r) for r in self.runs)
        self.runs = runs
        if not runs:
            raise MaskFormatError("runs must be non-empty")
        if min(runs) < 0:
            raise MaskFormatError("negative run length")
        if 0 in runs[1:]:
            raise MaskFormatError("zero-length run after the first")
        total = sum(runs)
        if total != self.width * self.height:
            raise MaskFormatError(
                f"runs sum to {total}, expected {self.width}x{self.height}={self.width * self.height}"
            )

    @cached_property
    def area(self) -> int:
        """Number of foreground pixels."""
        return sum(self.runs[1::2])

    @cached_property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Foreground [start, stop) intervals in flattened row-major order."""
        ends = tuple(accumulate(self.runs))
        return tuple(zip(ends[0::2], ends[1::2]))

    @cached_property
    def bbox(self) -> BBox:
        """Tight bounding box; zero-size at the origin for an empty mask."""
        if not self.intervals:
            return BBox(0, 0, 0, 0)
        w = self.width
        y0 = self.intervals[0][0] // w
        y1 = (self.intervals[-1][1] - 1) // w
        x0, x1 = w, 0
        for s, e in self.intervals:
            row, c0 = divmod(s, w)
            c1 = e - row * w
            if c1 > w:
                # crosses a row end, so it touches both canvas edges
                return BBox(0, y0, w, y1 - y0 + 1)
            if c0 < x0:
                x0 = c0
            if c1 > x1:
                x1 = c1
        return BBox(x0, y0, x1 - x0, y1 - y0 + 1)


def box_overlaps(a: Sequence[BBox], b: Sequence[BBox]) -> np.ndarray:
    """Boolean matrix whose [i, j] entry is ``a[i].intersects(b[j])``.

    Masks whose boxes do not intersect share no pixel, so their IoU is 0.0;
    callers use this to skip ``mask_iou`` on such pairs.
    """
    ea = np.array([(q.x, q.y, q.x + q.w, q.y + q.h) for q in a], dtype=np.int64).reshape(-1, 4)
    eb = np.array([(q.x, q.y, q.x + q.w, q.y + q.h) for q in b], dtype=np.int64).reshape(-1, 4)
    ea, eb = ea[:, None, :], eb[None, :, :]
    return (
        (ea[..., 0] < eb[..., 2])
        & (eb[..., 0] < ea[..., 2])
        & (ea[..., 1] < eb[..., 3])
        & (eb[..., 1] < ea[..., 3])
    )


def require_same_canvas(masks: Iterable[BinaryMask]) -> None:
    """Raise the ValueError of ``mask_iou`` unless all masks share one canvas size."""
    sizes = sorted({(m.width, m.height) for m in masks})
    if len(sizes) > 1:
        raise ValueError(
            "mask dimensions differ: " + " vs ".join(f"{w}x{h}" for w, h in sizes)
        )


def _row_segments(mask: BinaryMask) -> Iterator[tuple[int, int, int]]:
    """Yield (row, col_start, col_stop) foreground segments, stop exclusive."""
    w = mask.width
    for s, e in mask.intervals:
        row = s // w
        while s < e:
            row_end = (row + 1) * w
            stop = min(e, row_end)
            yield row, s - row * w, stop - row * w
            s = stop
            row += 1


def mask_from_intervals(
    width: int, height: int, intervals: Iterable[tuple[int, int]]
) -> BinaryMask:
    """Build a mask from sorted flattened foreground intervals.

    Overlapping or adjacent intervals are merged so the result is canonical.
    """
    merged: list[list[int]] = []
    for s, e in intervals:
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            if s < merged[-1][0]:
                raise MaskFormatError("intervals must be sorted by start")
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    size = width * height
    runs: list[int] = []
    pos = 0
    for s, e in merged:
        if s < 0 or e > size:
            raise MaskFormatError("interval outside the mask")
        runs.append(s - pos)
        runs.append(e - s)
        pos = e
    if pos < size or not runs:
        runs.append(size - pos)
    return BinaryMask(width, height, tuple(runs))


def rle_encode(bitmap) -> BinaryMask:
    """Encode a row-major boolean grid into canonical RLE."""
    grid = np.asarray(bitmap)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("bitmap must be a non-empty 2-d grid")
    flat = grid.astype(bool).ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    h, w = grid.shape
    return BinaryMask(int(w), int(h), tuple(runs))


def rle_decode(mask: BinaryMask) -> np.ndarray:
    """Decode to a (height, width) boolean grid; exact inverse of rle_encode."""
    runs = np.asarray(mask.runs, dtype=np.int64)
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, runs)
    return flat.reshape(mask.height, mask.width)


def mask_area(mask: BinaryMask) -> int:
    return mask.area


def mask_bbox(mask: BinaryMask) -> BBox:
    return mask.bbox


def intersection_area(a: BinaryMask, b: BinaryMask) -> int:
    """Foreground overlap in pixels, linear in the number of runs."""
    ai = a.intervals
    bi = b.intervals
    i = j = 0
    inter = 0
    while i < len(ai) and j < len(bi):
        s = ai[i][0] if ai[i][0] > bi[j][0] else bi[j][0]
        e = ai[i][1] if ai[i][1] < bi[j][1] else bi[j][1]
        if s < e:
            inter += e - s
        if ai[i][1] < bi[j][1]:
            i += 1
        else:
            j += 1
    return inter


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union; 0.0 when either mask is empty."""
    if a.width != b.width or a.height != b.height:
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if a.area == 0 or b.area == 0:
        return 0.0
    if not a.bbox.intersects(b.bbox):
        return 0.0
    inter = intersection_area(a, b)
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def shift_mask(mask: BinaryMask, dx: int, dy: int) -> BinaryMask:
    """Translate the foreground by (dx, dy), clipping pixels that leave the canvas."""
    if dx == 0 and dy == 0:
        return mask
    w, h = mask.width, mask.height
    intervals = []
    for row, c0, c1 in _row_segments(mask):
        ny = row + dy
        if ny < 0 or ny >= h:
            continue
        a = c0 + dx
        b = c1 + dx
        if a < 0:
            a = 0
        if b > w:
            b = w
        if a < b:
            intervals.append((ny * w + a, ny * w + b))
    return mask_from_intervals(w, h, intervals)


def crop_mask(mask: BinaryMask, x0: int, y0: int, width: int, height: int) -> BinaryMask:
    """Cut the window [x0, x0+width) x [y0, y0+height) into a new mask."""
    if x0 < 0 or y0 < 0 or x0 + width > mask.width or y0 + height > mask.height:
        raise ValueError("crop window outside the mask")
    if width < 1 or height < 1:
        raise ValueError("crop window must be non-empty")
    x1 = x0 + width
    y1 = y0 + height
    intervals = []
    for row, c0, c1 in _row_segments(mask):
        if row < y0 or row >= y1:
            continue
        a = c0 if c0 > x0 else x0
        b = c1 if c1 < x1 else x1
        if a < b:
            intervals.append(((row - y0) * width + (a - x0), (row - y0) * width + (b - x0)))
    return mask_from_intervals(width, height, intervals)


def embed_mask(mask: BinaryMask, x0: int, y0: int, width: int, height: int) -> BinaryMask:
    """Place a mask at offset (x0, y0) on a larger width x height canvas."""
    if x0 < 0 or y0 < 0 or x0 + mask.width > width or y0 + mask.height > height:
        raise ValueError("embedded mask does not fit inside the target canvas")
    intervals = [
        ((row + y0) * width + (c0 + x0), (row + y0) * width + (c1 + x0))
        for row, c0, c1 in _row_segments(mask)
    ]
    return mask_from_intervals(width, height, intervals)
