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
from .exchange import ExchangeFormatError
from .masks import BBox, box_overlaps, crop_mask, mask_iou, require_same_canvas
from .synth import Scene
from .tiling import Tile, TileGridSpec, plan_grid, remap_mask

# a simulated detector, or the (line number, tile_index, proposal) records of one scene's exchange file
ProposalSource = Union[DetectorProfile, Sequence[tuple[int, int | None, Proposal]]]


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
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("nms_iou must lie in (0, 1]")
    masks = [p.mask for p in proposals]
    require_same_canvas(masks)
    order = sorted(
        range(len(proposals)),
        key=lambda i: (-proposals[i].objectness, -proposals[i].mask.area, i),
    )
    boxes = [m.bbox for m in masks]
    overlaps = box_overlaps(boxes, boxes)
    is_kept = np.zeros(len(proposals), dtype=bool)
    kept: list[Proposal] = []
    for i in order:
        if len(kept) == top_k:
            break
        cand = masks[i]
        rivals = np.flatnonzero(overlaps[i] & is_kept)
        if all(mask_iou(cand, masks[j]) < iou_threshold for j in rivals):
            is_kept[i] = True
            kept.append(proposals[i])
    return kept


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
    visible = box_overlaps([BBox(t.x0, t.y0, t.w, t.h) for t in tiles], boxes)
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


def place_proposal(
    lineno: int, tile_index: int | None, proposal: Proposal, width: int, height: int, tiles: Sequence[Tile] = ()
) -> Proposal:
    """The image-coordinate proposal of the exchange record on line ``lineno``:
    a whole-image one (``tile_index`` None) must match the image size; a tile
    one must name a tile of ``tiles`` and is remapped from it, which checks the
    tile size. Without ``tiles`` only whole-image records are accepted. A record
    that does not fit is an ``ExchangeFormatError`` naming the line."""
    m = proposal.mask
    try:
        if tile_index is None:
            if m.width != width or m.height != height:
                raise ValueError(f"whole-image record is {m.width}x{m.height}, image is {width}x{height}")
            return proposal
        if not tiles:
            raise ValueError(f"tile_index {tile_index}: only whole-image records are accepted")
        if not 0 <= tile_index < len(tiles):
            raise ValueError(f"unknown tile_index {tile_index}; grid has {len(tiles)} tiles")
        return Proposal(remap_mask(tiles[tile_index], m, width, height), proposal.objectness)
    except ValueError as exc:
        raise ExchangeFormatError(f"line {lineno}: {exc}") from None


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
        raw = [place_proposal(*line, scene.width, scene.height, tiles) for line in source]
    return nms(raw, nms_iou, top_k)


def run_whole(
    scene: Scene, source: ProposalSource, nms_iou: float = 0.7, top_k: int = 100
) -> list[Proposal]:
    """Single-region run: the degenerate one-tile grid over the full image."""
    whole = TileGridSpec(scene.width, scene.height, scene.width, scene.height)
    return run_tiled(scene, source, whole, nms_iou, top_k)
