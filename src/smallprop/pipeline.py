"""End-to-end proposal generation: per-tile detection, remapping, NMS, top-K.

Tiles are independent work units; the merge, suppression, ranking, and
truncation steps are a deterministic sequential reduction, so output never
depends on tile completion order. Whole-image mode is the degenerate one-tile
grid, which makes the two paths bit-compatible by construction.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .annotations import _id_runs
from .detector import DetectorProfile, _emitted, detectable_range
from .exchange import ExchangeFormatError, ProposalBatch
from .masks import _clipped, _foreground, _offsets_of, _row_spans, _segments, _span_runs, _sums
from .prng import stream_seed
from .synth import Scene
from .tiling import Tile, TileGridSpec, plan_grid

# a simulated detector, or the records of one scene's exchange file
ProposalSource = Union[DetectorProfile, ProposalBatch]


class Spans:
    """A scene's candidate proposals on a width x height image as columns:
    ``objectness`` and ``areas``, which rank them, and the foreground row
    spans of each, by which they are compared and written. Candidate k's
    spans, in scan order, are ``starts[i]`` to ``stops[i]`` (image positions,
    y * width + x, one row each) for i from ``offsets[k]`` to ``offsets[k + 1]``."""

    __slots__ = ("width", "height", "objectness", "areas", "offsets", "starts", "stops")

    def __init__(self, width, height, objectness, areas, offsets, starts, stops) -> None:
        self.width, self.height, self.objectness, self.areas = width, height, objectness, areas
        self.offsets, self.starts, self.stops = offsets, starts, stops

    def __len__(self) -> int:
        return len(self.areas)

    def batch(self, index) -> ProposalBatch:
        """The candidates at ``index``, an integer array, in its order, as
        whole-image records on lines 1 to n, their runs made from their spans."""
        offsets, where = _segments(self.offsets, index)
        runs, offsets = _span_runs(offsets, self.starts[where], self.stops[where], self.width * self.height)
        n = len(offsets) - 1
        return ProposalBatch(np.arange(1, n + 1), np.full(n, -1), np.full(n, self.width), np.full(n, self.height),
                             self.objectness[index], runs, offsets, self.areas[index])


def fit(batch: ProposalBatch, width: int, height: int, tiles: Sequence[Tile] = ()) -> np.ndarray:
    """The (x, y, w, h) row of each record's frame on a width x height image,
    every record's fit checked at once: a whole-image record (tile index -1)
    must match the image size; a tile record must name a tile of ``tiles``
    that lies inside the image, and match the tile's size. Without ``tiles``
    only whole-image records are accepted. The first record that does not
    fit is an ``ExchangeFormatError`` naming its line."""
    # each record's frame: its tile, or the image itself, the last row
    frames = np.array([*tiles, (-1, 0, 0, width, height)], dtype=np.int64)[:, 1:]
    whole = batch.tiles < 0
    known = whole | (batch.tiles < len(tiles))
    frame = frames[np.where(whole | ~known, len(tiles), batch.tiles)]
    sized = (batch.widths == frame[:, 2]) & (batch.heights == frame[:, 3])
    inside = (frame[:, :2] >= 0).all(axis=1) & (frame[:, :2] + frame[:, 2:] <= (width, height)).all(axis=1)
    fits = known & sized & inside
    if not fits.all():
        k = int(np.argmin(fits))
        w, h, tile = batch.widths.item(k), batch.heights.item(k), batch.tiles.item(k)
        x0, y0, tile_w, tile_h = frame[k].tolist()
        if tile < 0:
            why = f"whole-image record is {w}x{h}, image is {width}x{height}"
        elif not tiles:
            why = f"tile_index {tile}: only whole-image records are accepted"
        elif not known[k]:
            why = f"unknown tile_index {tile}; grid has {len(tiles)} tiles"
        elif not sized[k]:
            why = f"local mask is {w}x{h}, tile is {tile_w}x{tile_h}"
        else:
            why = f"tile at ({x0}, {y0}) does not fit inside the {width}x{height} image"
        raise ExchangeFormatError(f"line {batch.lines.item(k)}: {why}")
    return frame


def place(batch: ProposalBatch, width: int, height: int, tiles: Sequence[Tile] = ()) -> Spans:
    """The records of ``batch`` that ``fit`` the image, as their row spans on
    it: each foreground run cut at its frame's row ends, then moved by the
    frame's origin."""
    frame = fit(batch, width, height, tiles)
    spans = _row_spans(*_foreground(batch.runs, batch.offsets), batch.widths, frame[:, 0], frame[:, 1], width)
    return Spans(width, height, batch.objectness, batch.areas, *spans)


_PAIRS = 1 << 18  # how many span pairs nms compares at once, unless one candidate has more


def _sweeps(starts: np.ndarray, stops: np.ndarray, c: np.ndarray, k: np.ndarray | None = None) -> tuple:
    """The sweeps that find every pair of spans that share pixels: two spans
    of ``c``, or given ``k`` one span of ``c`` and one of ``k``. Both are
    indices into ``starts`` and ``stops``, sorted by start. Each sweep is
    (xs, ys, lo, hi): span xs[i] overlaps spans ys[lo[i]:hi[i]], which start
    inside it, at or after its start, so each pair shares min(stops) - start
    of the ys span pixels. A span that stops where another starts shares no
    pixel with it."""
    cs, ce = starts[c], stops[c]
    if k is None:
        return ((c, c, np.arange(1, len(c) + 1), np.searchsorted(cs, ce)),)  # later spans of c
    ks, ke = starts[k], stops[k]
    return (
        (c, k, np.searchsorted(ks, cs), np.searchsorted(ks, ce)),  # spans of k from each start of c on
        (k, c, np.searchsorted(cs, ks, "right"), np.searchsorted(cs, ke)),  # spans of c after each start of k
    )


def _overlaps(sweeps: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(x, y): the pairs of spans that ``sweeps`` find, y starting inside x."""
    x, y = [], []
    for xs, ys, lo, hi in sweeps:
        counts = hi - lo
        i = np.repeat(np.arange(len(lo)), counts)
        x.append(xs[i])
        y.append(ys[np.arange(len(i)) + np.repeat(lo - np.cumsum(counts) + counts, counts)])
    return np.concatenate(x), np.concatenate(y)


def _shared(owner: np.ndarray, starts: np.ndarray, stops: np.ndarray, sweeps: tuple) -> tuple:
    """(a, b, shared): the pairs a < b of masks whose spans ``sweeps`` find
    sharing pixels, ascending, and how many pixels each pair shares, as
    int64. Span i covers [starts[i], stops[i]) and belongs to mask owner[i]."""
    x, y = _overlaps(sweeps)
    a, b = owner[x], owner[y]
    n = int(max(a.max(initial=0), b.max(initial=0))) + 1
    pair, slot = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    shared = np.bincount(slot, weights=np.minimum(stops[x], stops[y]) - starts[y]).astype(np.int64)
    return pair // n, pair % n, shared


def _found(sweeps: tuple) -> int:
    """How many pairs of spans ``sweeps`` find."""
    return sum(int((hi - lo).sum()) for *_, lo, hi in sweeps)


def nms(candidates: Spans, iou_threshold: float, top_k: int | None = None) -> np.ndarray:
    """Greedy suppression: the indices of the candidates kept, in visit order.
    A candidate is kept iff its IoU with every kept one is below the threshold.

    Candidates are visited by objectness descending, ties broken by mask area
    descending, then index. Given ``top_k``, the visit stops once that many
    are kept: the kept list only grows at its end, so they are the first
    ``top_k`` of the full output.

    IoU is computed only for the pairs that share pixels, found by sweeping
    the spans sorted by position (``_sweeps``); any other pair's IoU is 0.0,
    below every threshold in (0, 1]. The visit goes in chunks, the first
    holding every candidate. A chunk's candidates are compared with the ones
    kept before it, which suppress some, then those left with each other,
    never with a later chunk's. A chunk of more than one candidate whose
    sweep would find more than ``_PAIRS`` span pairs is cut, before those
    pairs are made, to at most half, in proportion to the pairs found; one
    whose sweeps find under a quarter of that lets the next chunk double.
    So a sweep makes at most ``_PAIRS`` span pairs, or one candidate's with
    the kept ones, however many masks pile up on a row; a sparse scene is
    one chunk.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("nms_iou must lie in (0, 1]")
    n, areas, offsets = len(candidates), candidates.areas, candidates.offsets
    starts, stops = candidates.starts, candidates.stops
    owner = np.repeat(np.arange(n), np.diff(offsets))

    def spans(index):  # the spans of candidates ``index``, sorted by start
        where = _segments(offsets, np.sort(index))[1]
        return where[np.argsort(starts[where], kind="stable")]

    def close(sweeps):  # the candidate pairs that the sweeps find whose IoU reaches the threshold
        a, b, inter = _shared(owner, starts, stops, sweeps)
        hit = inter / (areas[a] + areas[b] - inter) >= iou_threshold
        return a[hit], b[hit]

    visit = np.lexsort((-areas, -candidates.objectness))  # a stable sort: ties keep index order
    suppressed = bytearray(n)
    flags = np.frombuffer(suppressed, dtype=np.uint8)
    kept, done, size = [], 0, n
    while done < n and len(kept) != top_k:
        chunk = visit[done : done + size]
        found = 0
        if kept:  # the candidates close to a kept one are suppressed
            cross = _sweeps(starts, stops, spans(chunk), spans(np.array(kept)))
            found = _found(cross)
            if found > _PAIRS and len(chunk) > 1:
                size = max(1, min(len(chunk) // 2, len(chunk) * _PAIRS // found))
                continue
            flags[np.concatenate(close(cross))] = 1  # the kept ones too, which are visited
        left = chunk[flags[chunk] == 0]
        inner = _sweeps(starts, stops, spans(left))
        found = max(found, _found(inner))
        if found > _PAIRS and len(chunk) > 1:
            size = max(1, min(len(chunk) // 2, len(chunk) * _PAIRS // found))
            continue
        done, size = done + len(chunk), size * 2 if 4 * found < _PAIRS else size
        a, b = close(inner)
        a, b = np.concatenate((a, b)), np.concatenate((b, a))
        by = np.argsort(a, kind="stable")
        a, rivals = a[by], b[by].tolist()
        first, last = np.searchsorted(a, left).tolist(), np.searchsorted(a, left, "right").tolist()
        for i, lo, hi in zip(left.tolist(), first, last):
            if len(kept) == top_k:
                break
            if not suppressed[i]:
                kept.append(i)
                for j in rivals[lo:hi]:
                    suppressed[j] = 1
    return np.array(kept, dtype=np.int64)


def _simulated_spans(scene: Scene, tiles: list[Tile], profile: DetectorProfile) -> Spans:
    """What the simulated detector emits for each tile, as ``Spans`` on the
    image, made from the instance map's row runs: tiles in order, each tile's
    objects by id. A (tile, object) pair is tried if the object's box meets
    the tile. Its box in the tile, the box of its runs clipped to the tile
    (side 0 if none is left), takes ``simulate``'s band filter. A pair that
    passes goes to ``_emitted`` with the tile as its frame: what a crop to the
    tile, ``simulate`` and a move back onto the image keep."""
    width, height = scene.width, scene.height
    ids, runs_of, rows = _id_runs(scene.instances.pixels)
    ys, x0s, x1s = rows.T
    first = runs_of[:-1]
    frames = np.array(tiles, dtype=np.int64)[:, 1:]  # x0, y0, w, h
    frames[:, 2:] += frames[:, :2]  # x0, y0, x1, y1
    x0, y0, x1, y1 = frames.T[..., None]  # each tile's frame against each object's box
    pair_tile, pair_obj = np.nonzero((x0 < np.maximum.reduceat(x1s, first)) & (np.minimum.reduceat(x0s, first) < x1)
                                     & (y0 < ys[runs_of[1:] - 1] + 1) & (ys[first] < y1))
    offsets, where = _segments(runs_of, pair_obj)
    clipped, inside = _clipped(rows[where], *np.repeat(frames[pair_tile], np.diff(offsets), axis=0).T)
    r, lo, hi = clipped.T
    cuts = offsets[:-1]
    w = np.maximum.reduceat(np.where(inside, hi, 0), cuts) - np.minimum.reduceat(np.where(inside, lo, width), cuts)
    h = np.maximum.reduceat(np.where(inside, r + 1, 0), cuts) - np.minimum.reduceat(np.where(inside, r, height), cuts)
    scale = min(profile.input_w / tiles[0].w, profile.input_h / tiles[0].h)  # every tile has the grid's size
    eff = np.maximum(np.maximum(w, h), 0) * scale
    s_min, s_max = detectable_range(profile)
    tried = np.flatnonzero((eff >= s_min) & (eff <= s_max))
    tile = pair_tile[tried]
    regions = stream_seed(profile.seed, frames[:, 0], frames[:, 1])  # each tile's stream
    offsets, where = _segments(offsets, tried)
    inside = inside[where]  # the tried pairs' runs in their tiles
    objectness, areas, offsets, rows = _emitted(profile, regions[tile], ids[pair_obj[tried]], eff[tried], frames[tile],
                                                _offsets_of(_sums(inside, offsets)), clipped[where[inside]])
    starts = rows[:, 0] * width
    return Spans(width, height, objectness, areas, offsets, starts + rows[:, 1], starts + rows[:, 2])


def run_tiled(
    scene: Scene, source: ProposalSource, grid: TileGridSpec, nms_iou: float = 0.7, top_k: int = 100
) -> ProposalBatch:
    """Tile the scene, collect per-tile proposals, merge, suppress, truncate:
    the kept proposals as whole-image records, in rank order."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    tiles = plan_grid(scene.width, scene.height, grid)
    if isinstance(source, DetectorProfile):
        candidates = _simulated_spans(scene, tiles, source)
    else:
        candidates = place(source, scene.width, scene.height, tiles)
    return candidates.batch(nms(candidates, nms_iou, top_k))


def run_whole(
    scene: Scene, source: ProposalSource, nms_iou: float = 0.7, top_k: int = 100
) -> ProposalBatch:
    """Single-region run: the degenerate one-tile grid over the full image."""
    whole = TileGridSpec(scene.width, scene.height, scene.width, scene.height)
    return run_tiled(scene, source, whole, nms_iou, top_k)
