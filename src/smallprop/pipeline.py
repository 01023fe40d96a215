"""End-to-end proposal generation: per-tile detection, remapping, NMS, top-K.

Tiles are independent work units; the merge, suppression, ranking, and
truncation steps are a deterministic sequential reduction, so output never
depends on tile completion order. Whole-image mode is the degenerate one-tile
grid, which makes the two paths bit-compatible by construction.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .detector import DetectorProfile, Proposal, _emitter
from .exchange import ExchangeFormatError, ProposalBatch
from .masks import BBox, box_overlaps, box_rows, crop_mask, mask_iou, require_same_canvas
from .synth import Scene
from .tiling import Tile, TileGridSpec, plan_grid, remap_mask

# a simulated detector, or the records of one scene's exchange file
ProposalSource = Union[DetectorProfile, ProposalBatch]


class Placed:
    """The records of an exchange batch on a width x height image, as ``place``
    checked them: the columns NMS ranks and compares boxes by (``objectness``,
    ``areas``, and ``boxes``, (x, y, w, h) rows on the image), and, as a
    sequence, each record's proposal on the image, made only when asked for."""

    def __init__(self, batch: ProposalBatch, width: int, height: int, tiles: Sequence[Tile], boxes) -> None:
        self.batch, self.width, self.height, self.tiles = batch, width, height, tiles
        self.objectness, self.areas, self.boxes = batch.objectness, batch.areas, boxes

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, k: int) -> Proposal:
        mask, tile = self.batch.mask(k), self.batch.tiles.item(k)
        if tile >= 0:
            mask = remap_mask(self.tiles[tile], mask, self.width, self.height)
        return Proposal(mask, self.objectness.item(k))


def place(batch: ProposalBatch, width: int, height: int, tiles: Sequence[Tile] = ()) -> Placed:
    """The records of ``batch`` placed on a width x height image by box
    arithmetic, every record's fit checked at once: a whole-image record
    (tile index -1) must match the image size; a tile record must name a tile
    of ``tiles`` that lies inside the image, and match the tile's size.
    Without ``tiles`` only whole-image records are accepted. The first record
    that does not fit is an ``ExchangeFormatError`` naming its line."""
    # each record's frame: its tile, or the image itself, the last row
    frames = np.array([(t.x0, t.y0, t.w, t.h) for t in tiles] + [(0, 0, width, height)], dtype=np.int64)
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
    boxes = batch.boxes.copy()
    boxes[:, :2] += frame[:, :2]
    return Placed(batch, width, height, tiles, boxes)


def _columns(proposals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The objectness, areas and (x, y, w, h) box rows of placed records or of proposals on one canvas."""
    if isinstance(proposals, Placed):
        return proposals.objectness, proposals.areas, proposals.boxes
    masks = [p.mask for p in proposals]
    require_same_canvas((m.width, m.height) for m in masks)
    return (np.array([p.objectness for p in proposals], dtype=float),
            np.array([m.area for m in masks], dtype=np.int64), box_rows([m.bbox for m in masks]))


def nms(
    proposals: Sequence[Proposal], iou_threshold: float, top_k: int | None = None
) -> list[Proposal]:
    """Greedy suppression: keep a proposal iff IoU < threshold with all kept.

    Candidates are visited by objectness descending, ties broken by mask area
    descending, then insertion order; output retains that order. Given
    ``top_k``, the visit stops once that many are kept: the kept list only
    grows at its end, so they are the first ``top_k`` of the full output.

    A candidate is compared only with kept proposals whose bounding boxes
    intersect its own: any other pair shares no pixel, so its IoU is 0.0,
    below every threshold in (0, 1], and skipping it cannot change the output.
    The visit orders and compares boxes by the proposals' columns, so of
    ``Placed`` records it makes only the proposals it visits, each of which
    it compares or keeps.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("nms_iou must lie in (0, 1]")
    objectness, areas, boxes = _columns(proposals)
    overlaps = box_overlaps(boxes, boxes)
    is_kept = np.zeros(len(areas), dtype=bool)
    kept: dict[int, Proposal] = {}  # by index, in visit order
    for i in np.lexsort((-areas, -objectness)).tolist():  # a stable sort: ties keep insertion order
        if len(kept) == top_k:
            break
        cand = proposals[i]
        rivals = np.flatnonzero(overlaps[i] & is_kept).tolist()
        if all(mask_iou(cand.mask, kept[j].mask) < iou_threshold for j in rivals):
            is_kept[i] = True
            kept[i] = cand
    return list(kept.values())


def _simulated_proposals(
    scene: Scene, tiles: list[Tile], profile: DetectorProfile
) -> list[Proposal]:
    """What ``simulate`` emits for each tile's ground truth, cropped to the
    tile, remapped to the image: tiles in order, each tile's objects by id.

    An object's box in the tile is its own box if it lies inside the tile,
    else the box of its crop to the tile; an empty crop's box has side 0,
    which no detectable band holds. The emit step then moves the object's
    pixels inside the tile on the image canvas, which are the pixels that
    crop, ``simulate`` and remap keep.
    """
    objects = scene.objects
    boxes = [o.mask.bbox for o in objects]
    visible = box_overlaps(box_rows([BBox(t.x0, t.y0, t.w, t.h) for t in tiles]), box_rows(boxes))
    emit = _emitter(profile, tiles[0].w, tiles[0].h)  # every tile has the grid's size
    out = []
    for tile, row in zip(tiles, visible):
        x0, y0, x1, y1 = tile.x0, tile.y0, tile.x0 + tile.w, tile.y0 + tile.h
        for i in np.flatnonzero(row).tolist():
            obj, box = objects[i], boxes[i]
            if box.x < x0 or box.y < y0 or box.x + box.w > x1 or box.y + box.h > y1:
                box = crop_mask(obj.mask, x0, y0, tile.w, tile.h).bbox
            proposal = emit(obj.mask, box, x0, y0, (x0, y0), obj.instance_id)
            if proposal is not None:
                out.append(proposal)
    return out


def run_tiled(
    scene: Scene, source: ProposalSource, grid: TileGridSpec, nms_iou: float = 0.7, top_k: int = 100
) -> list[Proposal]:
    """Tile the scene, collect per-tile proposals, merge, suppress, truncate."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    tiles = plan_grid(scene.width, scene.height, grid)
    if isinstance(source, DetectorProfile):
        raw = _simulated_proposals(scene, tiles, source)
    else:
        raw = place(source, scene.width, scene.height, tiles)
    return nms(raw, nms_iou, top_k)


def run_whole(
    scene: Scene, source: ProposalSource, nms_iou: float = 0.7, top_k: int = 100
) -> list[Proposal]:
    """Single-region run: the degenerate one-tile grid over the full image."""
    whole = TileGridSpec(scene.width, scene.height, scene.width, scene.height)
    return run_tiled(scene, source, whole, nms_iou, top_k)
