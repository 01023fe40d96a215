"""Binary pixel masks stored as their foreground row runs.

Each run of foreground on a row is one entry of a mask, its row and its
[x0, x1) pixel range; a crop or a simulated jitter clips and shifts them. The
run-length encoding is the wire format of the proposal exchange files and is
normative there: runs are listed in row-major scan order over the full canvas
and alternate background/foreground, with the first run counting background
pixels (possibly zero). No other run may be zero. A file's records never
become masks: the column functions below check, cut and move the runs of many
records at once.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``rows`` holds its foreground row runs, read-only, in scan order: entry i
    is (y, x0, x1), pixels [x0, x1) of row y. ``bbox`` is the tight box of the
    foreground (zero-size at the origin for an empty mask) and ``area`` its
    pixel count.
    """

    __slots__ = ("width", "height", "bbox", "area", "rows", "_runs")

    @property
    def runs(self) -> tuple[int, ...]:
        """Canonical run-length encoding over the full canvas, encoded when first asked."""
        if self._runs is None:
            ys, x0s, x1s = self.rows.T
            starts = ys * self.width
            runs, _ = _span_runs(np.array([0, len(ys)]), starts + x0s, starts + x1s, self.width * self.height)
            _set(self, "_runs", tuple(runs.tolist()))
        return self._runs

    def __setattr__(self, name, value):
        raise AttributeError(f"BinaryMask is immutable; cannot set {name!r}")


def _mask(width, height, bbox, area, rows, runs) -> BinaryMask:
    """The mask of these slots (``runs`` None until asked), its rows made read-only."""
    mask = object.__new__(BinaryMask)
    for name, value in zip(BinaryMask.__slots__, (width, height, bbox, area, rows, runs)):
        _set(mask, name, value)
    mask.rows.flags.writeable = False
    return mask


def _masks(width: int, height: int, offsets, rows, runs=None) -> list[BinaryMask]:
    """The non-empty masks on a width x height canvas whose row runs are laid
    out by ``offsets``: mask k's are rows[offsets[k]:offsets[k + 1]], and its
    encoding runs[k] if ``runs`` is given."""
    cuts, ends = offsets[:-1], offsets[1:]
    ys, x0s, x1s = rows.T
    boxes = zip(np.minimum.reduceat(x0s, cuts).tolist(), ys[cuts].tolist(), np.maximum.reduceat(x1s, cuts).tolist(),
                ys[ends - 1].tolist(), np.add.reduceat(x1s - x0s, cuts).tolist(), cuts.tolist(), ends.tolist(),
                runs or [None] * len(cuts))
    return [_mask(width, height, BBox(x0, y0, x1 - x0, y1 + 1 - y0), area, rows[a:b], encoding)
            for x0, y0, x1, y1, area, a, b, encoding in boxes]


def _clipped(rows, x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray]:
    """(clipped, inside): row runs ``rows`` clipped to windows [x0, x1) x
    [y0, y1), one for all runs or one per run. A clipped run's pixels lie in
    its window iff ``inside``."""
    clipped, ys = rows.copy(), rows[:, 0]
    np.maximum(rows[:, 1], x0, out=clipped[:, 1])
    np.minimum(rows[:, 2], x1, out=clipped[:, 2])
    return clipped, (clipped[:, 1] < clipped[:, 2]) & (y0 <= ys) & (ys < y1)


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
    run. Each mask's bounds are laid out as start, stop, ..., then ``size``, so
    one difference of neighbours gives its runs; a last run of 0 goes."""
    n = len(offsets) - 1
    owner = np.repeat(np.arange(n), offsets[1:] - offsets[:-1])
    opens = np.ones(len(starts) + 1, dtype=bool)  # span i opens a run unless it goes on span i - 1's,
    opens[1:-1] = (stops[:-1] != starts[1:]) | (owner[:-1] != owner[1:])
    opens, closes = opens[:-1], opens[1:]  # so it closes one where span i + 1 opens one, or it is the last
    owner = owner[opens]  # of each run
    pairs = np.bincount(owner, minlength=n)
    at = 2 * np.arange(len(owner)) + owner  # where each run's start goes
    bounds = np.empty(2 * len(owner) + n, dtype=np.int64)
    bounds[at] = starts[opens]
    bounds[at + 1] = stops[closes]
    ends = 2 * np.cumsum(pairs) + np.arange(n)  # where each mask's size bound goes
    bounds[ends] = size
    firsts = ends - 2 * pairs
    runs = bounds.copy()
    runs[1:] -= bounds[:-1]
    runs[firsts] = bounds[firsts]
    keep = runs != 0  # no run but a first may be 0
    keep[firsts] = True
    return runs[keep], np.concatenate(([0], np.cumsum(keep)[ends]))


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


def crop_mask(mask: BinaryMask, x0: int, y0: int, width: int, height: int) -> BinaryMask:
    """Cut the window [x0, x0+width) x [y0, y0+height) into a new mask."""
    if x0 < 0 or y0 < 0 or x0 + width > mask.width or y0 + height > mask.height:
        raise ValueError("crop window outside the mask")
    if width < 1 or height < 1:
        raise ValueError("crop window must be non-empty")
    b, x1, y1, shift = mask.bbox, x0 + width, y0 + height, (y0, x0, x0)
    if x0 <= b.x and b.x + b.w <= x1 and y0 <= b.y and b.y + b.h <= y1:  # all of it: the same runs, moved
        return _mask(width, height, BBox(b.x - x0, b.y - y0, b.w, b.h), mask.area, mask.rows - shift, None)
    clipped, inside = _clipped(mask.rows, x0, y0, x1, y1)
    rows = clipped[inside] - shift
    if not len(rows):
        return _mask(width, height, BBox(0, 0, 0, 0), 0, rows, None)
    return _masks(width, height, np.array([0, len(rows)]), rows)[0]
