"""Set-up for the exchange workload: tile-indexed proposal files per scene.

The files stand in for an external model. Each tile gets the simulated
detector's tile-local proposals (the scene's ground truth cropped to the tile,
then ``simulate`` with a fixed detector seed) followed by seeded distractor
ellipses whose objectness stays below 0.5. Run with the default grid, the
pipeline parses these records and remaps them instead of simulating.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from smallprop.annotations import GroundTruthObject
from smallprop.detector import preset, simulate
from smallprop.exchange import ProposalRecord, write_proposals
from smallprop.masks import BBox, crop_mask
from smallprop.synth import list_scene_stems, load_scene
from smallprop.tiling import TileGridSpec, plan_grid

DETECTOR_SEED = 7
DISTRACTORS_PER_TILE = 6
GRID = TileGridSpec(320, 240, 160, 120)


def _tile_gt(objects, tile) -> list[GroundTruthObject]:
    box = BBox(tile.x0, tile.y0, tile.w, tile.h)
    out = []
    for obj in objects:
        if not obj.mask.bbox.intersects(box):
            continue
        local = crop_mask(obj.mask, tile.x0, tile.y0, tile.w, tile.h)
        if local.area:
            out.append(GroundTruthObject.from_mask(obj.instance_id, local))
    return out


def _distractor(rng: random.Random, w: int, h: int) -> tuple[float, tuple[int, ...]]:
    """Objectness and RLE runs of a random ellipse inside a w x h tile."""
    cx, cy = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
    ax, ay = rng.uniform(2.0, 14.0), rng.uniform(2.0, 14.0)
    spans = []
    for y in range(max(0, math.ceil(cy - ay)), min(h - 1, math.floor(cy + ay)) + 1):
        half = ax * math.sqrt(max(0.0, 1.0 - ((y - cy) / ay) ** 2))
        x0, x1 = max(0, math.ceil(cx - half)), min(w - 1, math.floor(cx + half))
        if x0 <= x1:
            spans.append((y * w + x0, y * w + x1 + 1))
    if not spans:
        p = round(cy) * w + round(cx)
        spans = [(p, p + 1)]
    runs, pos = [], 0
    for start, stop in spans:
        if runs and start == pos:
            runs[-1] += stop - start
        else:
            runs += [start - pos, stop - start]
        pos = stop
    if pos < w * h:
        runs.append(w * h - pos)
    return rng.uniform(0.05, 0.45), tuple(runs)


def write_exchange(scene_dir, out_dir, seed: int) -> int:
    """Write <stem>.jsonl for every scene; returns the number of records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profile = preset("attentionmask", jitter=2, objectness_noise=0.1, seed=DETECTOR_SEED)
    total = 0
    for index, stem in enumerate(list_scene_stems(scene_dir)):
        scene = load_scene(scene_dir, stem)
        rng = random.Random(seed * 100_003 + index)
        records = []
        for tile in plan_grid(scene.width, scene.height, GRID):
            gt = _tile_gt(scene.objects, tile)
            for p in simulate(profile, tile.w, tile.h, gt, origin=(tile.x0, tile.y0)):
                records.append(ProposalRecord(stem, tile.w, tile.h, p.objectness, p.mask.runs, tile.index))
            for _ in range(DISTRACTORS_PER_TILE):
                objectness, runs = _distractor(rng, tile.w, tile.h)
                records.append(ProposalRecord(stem, tile.w, tile.h, objectness, runs, tile.index))
        write_proposals(records, out / f"{stem}.jsonl")
        total += len(records)
    return total
