"""Binary pixel masks stored as a tight bounding box plus a bitmap of that box.

Moving a mask (a crop, a simulated jitter) is box arithmetic plus slices of
small arrays, so no operation touches pixels outside the object. A mask is
made from a tight bitmap or by moving another mask, and encodes its runs only
when asked. The run-length encoding is the wire format of the proposal
exchange files and is normative there: runs are listed in row-major scan order
over the full canvas and alternate background/foreground, with the first run
counting background pixels (possibly zero). No other run may be zero. A
file's records never become masks: the column functions below check, cut and
move the runs of many records at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


MAX_PIXELS = 2**63 - 1  # a canvas's pixel positions are int64


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


_set = object.__setattr__


class BinaryMask:
    """Binary mask on a width x height canvas, immutable once made.

    ``bbox`` is the tight box of the foreground (zero-size at the origin for
    an empty mask), ``area`` its pixel count and ``bitmap`` the read-only
    boolean grid of the box. Masks are made only from a tight bitmap
    (``extract_instances``) or by a move (``crop_mask``, ``simulate``).
    """

    __slots__ = ("width", "height", "bbox", "area", "bitmap", "_runs")

    @property
    def runs(self) -> tuple[int, ...]:
        """Canonical run-length encoding over the full canvas."""
        if self._runs is None:
            _set(self, "_runs", _encode(self))
        return self._runs

    def __setattr__(self, name, value):
        raise AttributeError(f"BinaryMask is immutable; cannot set {name!r}")


_NO_PIXELS = np.zeros((0, 0), dtype=bool)


def _stops(runs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Where each run stops on its own mask's canvas, for masks whose runs are
    laid end to end, mask k's at ``runs[offsets[k]:offsets[k + 1]]``. One cumsum
    places every run; taking off the sum of the runs before a mask gives its
    own positions, and a wrapped int64 sum wraps back."""
    first = offsets[:-1]
    stops = np.cumsum(runs)
    stops -= np.repeat(stops[first] - runs[first], np.diff(offsets))
    return stops


def _foreground(runs: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, start, length) of each foreground run of valid runs laid out as
    for ``_stops``; a start is a position on the mask's own canvas."""
    counts = np.diff(offsets)
    fg = np.flatnonzero((np.arange(len(runs)) - np.repeat(offsets[:-1], counts)) % 2)  # odd places
    lengths = runs[fg]
    return np.repeat(np.arange(len(counts)), counts // 2), _stops(runs, offsets)[fg] - lengths, lengths


def _valid(runs: np.ndarray, offsets: np.ndarray, widths: np.ndarray, heights: np.ndarray) -> bool:
    """True iff the runs of every mask, laid out as for ``_stops``, are valid
    on its width x height canvas: a canvas of positive sides and at most
    ``MAX_PIXELS`` pixels, at least one run, none negative, none zero after the
    first, summing to width * height. All masks at once, on int64 values;
    ``exchange._broken`` states the same rules for one record."""
    if not (np.diff(offsets).all() and (widths >= 1).all() and (heights >= 1).all()):
        return False
    if (widths > MAX_PIXELS // heights).any():
        return False
    later = np.ones(len(runs), dtype=bool)
    later[offsets[:-1]] = False
    stops = _stops(runs, offsets)
    # with no run negative, a stop below 0 is a sum that wrapped past int64
    bad = (runs < 0) | later & (runs == 0) | (stops < 0)
    return not bad.any() and np.array_equal(stops[offsets[1:] - 1], widths * heights)


def _made(width, height, bbox, area, bitmap) -> BinaryMask:
    """The mask whose read-only ``bitmap`` fills its tight box ``bbox`` with
    ``area`` pixels; a whole move makes one on its source's bitmap."""
    mask = object.__new__(BinaryMask)
    _set(mask, "width", width)
    _set(mask, "height", height)
    _set(mask, "bbox", bbox)
    _set(mask, "area", area)
    _set(mask, "bitmap", bitmap)
    _set(mask, "_runs", None)
    return mask


def _tight(width: int, height: int, x: int, y: int, bitmap: np.ndarray, area: int) -> BinaryMask:
    """Mask whose box at (x, y) is exactly ``bitmap``, a tight grid of ``area``
    pixels that the mask now owns and makes read-only."""
    bitmap.flags.writeable = False
    return _made(width, height, BBox(x, y, *bitmap.shape[::-1]), area, bitmap)


def _trimmed(width: int, height: int, x: int, y: int, bitmap: np.ndarray) -> BinaryMask:
    """Mask of ``bitmap`` placed at (x, y), its box shrunk to the foreground."""
    pixels = bitmap.tobytes()
    first = pixels.find(1)
    if first < 0:
        return _tight(width, height, 0, 0, _NO_PIXELS, 0)
    w = bitmap.shape[1]
    cols = bitmap.any(axis=0).tobytes()
    r0, r1 = first // w, pixels.rfind(1) // w + 1
    c0, c1 = cols.find(1), cols.rfind(1) + 1
    tight = bitmap[r0:r1, c0:c1].copy()
    return _tight(width, height, x + c0, y + r0, tight, int(np.count_nonzero(tight)))


def _part(mask, width, height, dx, dy, x0, y0, x1, y1) -> BinaryMask:
    """Pixels of ``mask`` inside [x0, x1) x [y0, y1), moved by (dx, dy) onto a new canvas."""
    b = mask.bbox
    cx0, cy0 = max(b.x, x0), max(b.y, y0)
    cx1, cy1 = min(b.x + b.w, x1), min(b.y + b.h, y1)
    if cx0 >= cx1 or cy0 >= cy1:
        return _trimmed(width, height, 0, 0, _NO_PIXELS)
    if cx1 - cx0 == b.w and cy1 - cy0 == b.h:  # all of it: the same pixels, moved
        return _made(width, height, BBox(b.x + dx, b.y + dy, b.w, b.h), mask.area, mask.bitmap)
    sub = mask.bitmap[cy0 - b.y : cy1 - b.y, cx0 - b.x : cx1 - b.x]
    return _trimmed(width, height, cx0 + dx, cy0 + dy, sub)


def _encode(m: BinaryMask) -> tuple[int, ...]:
    """The canonical runs of mask ``m``.

    The bitmap is laid out between two background pixels, with a background
    pixel after each row unless the box is as wide as the canvas: then its
    rows follow each other as on the canvas, and a run goes on into the next
    row. So one diff finds every run's start and stop.
    """
    width, size, b = m.width, m.width * m.height, m.bbox
    if m.area == 0:
        return (size,)
    padded = b.w + (b.w < width)
    rows = np.zeros(b.h * padded + 2, dtype=np.int8)
    rows[1 : 1 + b.h * padded].reshape(-1, padded)[:, : b.w] = m.bitmap
    flips = np.flatnonzero(rows[1:] != rows[:-1])  # before pixel f + 1, the f-th of the laid-out bitmap
    bounds = flips + flips // padded * (width - padded) + (b.y * width + b.x)  # start, stop, start, ...
    runs = [bounds[0].item(), *(bounds[1:] - bounds[:-1]).tolist()]
    tail = size - bounds[-1].item()
    return tuple(runs + [tail] if tail else runs)


def _row_spans(owner, starts, lengths, widths, xs, ys, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, starts, stops) of the foreground row spans of masks given by
    their foreground runs, as ``_foreground`` yields them, on canvases
    ``widths`` wide whose top-left corners sit at (``xs``, ``ys``) on a canvas
    ``width`` wide: span i covers positions [starts[i], stops[i]) of one row of
    that canvas, and mask k's spans, in scan order, are those from offsets[k]
    to offsets[k + 1]. Each run is cut at the row ends it crosses, then moved."""
    w = widths[owner]
    row = starts // w
    pieces = (starts + lengths - 1) // w - row + 1
    run = np.repeat(np.arange(len(starts)), pieces)
    row = row[run] + np.arange(len(run)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    owner, w = owner[run], w[run]
    lo = np.maximum(starts[run], row * w)
    hi = np.minimum(starts[run] + lengths[run], row * w + w)
    shift = (ys[owner] + row) * width + xs[owner] - row * w  # a position on its canvas to one on the big one
    return _offsets_of(np.bincount(owner, minlength=len(widths))), lo + shift, hi + shift


def _span_runs(offsets, starts, stops, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical runs, laid out as for ``_stops``, of masks on a canvas of
    ``size`` pixels given by the (offsets, starts, stops) of ``_row_spans``. A span
    that ends at a row end and one that starts the next row at x = 0 are one
    run, so where a stop is the next start of the same mask both go."""
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    goes_on = np.zeros(len(starts) + 1, dtype=bool)  # span i goes on span i - 1's run
    goes_on[1:-1] = (stops[:-1] == starts[1:]) & (owner[:-1] == owner[1:])
    opens, closes = ~goes_on[:-1], ~goes_on[1:]
    bounds = np.stack((starts[opens], stops[closes]), axis=1).ravel()  # start, stop, start, ... of each run
    pairs = np.bincount(owner[opens], minlength=len(offsets) - 1)
    ends = 2 * np.cumsum(pairs)  # where each mask's bounds end
    has = pairs > 0
    firsts, lasts = ends[has] - 2 * pairs[has], ends[has] - 1
    runs = np.diff(bounds, prepend=0)
    runs[firsts] = bounds[firsts]  # a mask's first run is its first start
    tail = np.full(len(pairs), size, dtype=np.int64)
    tail[has] -= bounds[lasts]
    runs = np.insert(runs, ends[tail > 0], tail[tail > 0])
    return runs, _offsets_of(2 * pairs + (tail > 0))


def _offsets_of(counts: np.ndarray) -> np.ndarray:
    """The offsets, from 0, of segments of ``counts`` laid end to end."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sum of each segment of integer ``values`` laid out by ``offsets``, in
    exact int64: differences of one cumsum, and a wrapped sum wraps back."""
    return np.diff(np.concatenate(([0], np.cumsum(values, dtype=np.int64)))[offsets])


def _segments(offsets: np.ndarray, index) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, where) of segments ``index`` of an array laid out by
    ``offsets``, taken end to end in ``index``'s order: the new segments'
    offsets, and the positions in the array of their elements."""
    counts = np.diff(offsets)[index]
    taken = _offsets_of(counts)
    return taken, np.repeat(offsets[:-1][index] - taken[:-1], counts) + np.arange(taken[-1])


def require_same_canvas(sizes: Iterable[tuple[int, int]]) -> None:
    """Raise a ValueError naming the sizes unless all (width, height) ``sizes`` are one."""
    sizes = sorted(set(sizes))
    if len(sizes) > 1:
        raise ValueError(
            "mask dimensions differ: " + " vs ".join(f"{w}x{h}" for w, h in sizes)
        )


def crop_mask(mask: BinaryMask, x0: int, y0: int, width: int, height: int) -> BinaryMask:
    """Cut the window [x0, x0+width) x [y0, y0+height) into a new mask."""
    if x0 < 0 or y0 < 0 or x0 + width > mask.width or y0 + height > mask.height:
        raise ValueError("crop window outside the mask")
    if width < 1 or height < 1:
        raise ValueError("crop window must be non-empty")
    return _part(mask, width, height, -x0, -y0, x0, y0, x0 + width, y0 + height)
