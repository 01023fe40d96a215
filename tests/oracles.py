"""Brute-force reference implementations used to validate the package.

Everything here works on decoded pixel grids and plain Python so it shares no
code path with the run-length implementations under test. Of the package it
takes only the ``ProposalBatch`` container, to hand grids to that code as
records (``grid_batch``).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from smallprop.exchange import ProposalBatch

M64 = (1 << 64) - 1

THRESHOLDS = [t / 100 for t in range(50, 100, 5)]

XS_BOUND = 22.5**2
S_BOUND = 32**2


def ref_splitmix64(seed: int, n: int) -> list[int]:
    out = []
    x = seed & M64
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out



class _RefStream:
    """random/randint/uniform over a precomputed ref_splitmix64 stream."""

    def __init__(self, seed: int, n: int) -> None:
        self._draws = iter(ref_splitmix64(seed, n))

    def random(self) -> float:
        return (next(self._draws) >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        return lo + next(self._draws) % (hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.random() * (hi - lo)


def _ref_draw_disk(img, labels, cx, cy, r, color, idx) -> None:
    h, w = labels.shape
    y0 = max(int(math.ceil(cy - r)), 0)
    y1 = min(int(math.floor(cy + r)), h - 1)
    for y in range(y0, y1 + 1):
        half = math.sqrt(max(r * r - (y - cy) ** 2, 0.0))
        x0 = max(int(math.ceil(cx - half)), 0)
        x1 = min(int(math.floor(cx + half)), w - 1)
        if x0 <= x1:
            img[y, x0 : x1 + 1] = color
            labels[y, x0 : x1 + 1] = idx


def _ref_draw_ellipse(img, labels, cx, cy, ax, ay, color) -> None:
    h, w = labels.shape
    y0 = max(int(math.ceil(cy - ay)), 0)
    y1 = min(int(math.floor(cy + ay)), h - 1)
    for y in range(y0, y1 + 1):
        t = 1.0 - ((y - cy) / ay) ** 2
        half = ax * math.sqrt(max(t, 0.0))
        x0 = max(int(math.ceil(cx - half)), 0)
        x1 = min(int(math.floor(cx + half)), w - 1)
        if x0 <= x1:
            img[y, x0 : x1 + 1] = color
            labels[y, x0 : x1 + 1] = 0


def ref_scene(spec) -> tuple[np.ndarray, np.ndarray]:
    """(pixels, labels) of a SceneSpec, drawn shape by shape and row by row.

    Apples are disks drawn in index order, then leaves are ellipses drawn over
    them; apples left with fewer than min_visible pixels are erased from the
    labels. The scene makes h + 7 * (n_apples + n_leaves) draws: one shade per
    row, then 7 per apple and 7 per leaf.
    """
    w, h = spec.width, spec.height
    rng = _RefStream(spec.seed, h + 7 * (spec.n_apples + spec.n_leaves))
    shade = np.array([rng.randint(0, 18) for _ in range(h)], dtype=np.uint8)[:, None]
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:, :, 0] = 30 + shade
    img[:, :, 1] = 66 + shade
    img[:, :, 2] = 36 + shade // 2
    labels = np.zeros((h, w), dtype=np.uint16)

    # radius bands of the XS and larger apples, and the leaf half-axis ranges
    xs_hi = max(min(12.0, spec.radius_max), spec.radius_min)
    big_lo = min(max(13.3, spec.radius_min), spec.radius_max)
    for idx in range(1, spec.n_apples + 1):
        take_xs = rng.random() < spec.xs_fraction
        if take_xs:
            r = rng.uniform(spec.radius_min, xs_hi)
        else:
            r = rng.uniform(big_lo, spec.radius_max)
        cx = rng.uniform(0.0, float(w))
        cy = rng.uniform(0.0, float(h))
        color = (rng.randint(150, 215), rng.randint(35, 85), rng.randint(30, 70))
        _ref_draw_disk(img, labels, cx, cy, r, color, idx)

    for _ in range(spec.n_leaves):
        cx = rng.uniform(0.0, float(w))
        cy = rng.uniform(0.0, float(h))
        ax = rng.uniform(18.0, 44.0)
        ay = rng.uniform(8.0, 18.0)
        color = (rng.randint(120, 200), rng.randint(45, 105), rng.randint(30, 75))
        _ref_draw_ellipse(img, labels, cx, cy, ax, ay, color)

    counts = np.bincount(labels.ravel(), minlength=spec.n_apples + 1)
    weak = np.flatnonzero((counts > 0) & (counts < spec.min_visible))
    if weak.size:
        labels[np.isin(labels, weak)] = 0
    return img, labels

def grid_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    return inter / union if union else 0.0


def grid_bbox(grid: np.ndarray) -> tuple[int, int, int, int]:
    ys, xs = np.nonzero(grid)
    if ys.size == 0:
        return 0, 0, 0, 0
    return (
        int(xs.min()),
        int(ys.min()),
        int(xs.max() - xs.min() + 1),
        int(ys.max() - ys.min() + 1),
    )


def grid_runs(grid) -> tuple[int, ...]:
    """Canonical run-length encoding of a row-major grid: the gaps between the
    pixels of the flattened grid that differ from the one before, background first."""
    flat = np.asarray(grid, dtype=bool).ravel()
    cuts = [0, *(np.flatnonzero(flat[1:] != flat[:-1]) + 1).tolist(), flat.size]
    runs = [b - a for a, b in zip(cuts, cuts[1:])]
    return tuple([0, *runs] if flat[0] else runs)


def mask_grid(mask) -> np.ndarray:
    """The full-canvas boolean grid of a mask or a ``ProposalRecord`` (its width,
    height and runs), decoded from its runs (the wire format)."""
    runs = np.array(mask.runs)
    return np.repeat(np.arange(runs.size) % 2 == 1, runs).reshape(mask.height, mask.width)


def mask_spans(mask) -> list[tuple[int, int]]:
    """The [start, stop) flat positions of a mask's row runs, read off its
    ``rows``, to compare with ``grid_spans``."""
    w = mask.width
    return [(y * w + a, y * w + b) for y, a, b in mask.rows.tolist()]


def rect_grid(w: int, h: int, x0: int, y0: int, rw: int, rh: int) -> np.ndarray:
    """The h x w grid of a filled rectangle clipped to the canvas."""
    grid = np.zeros((h, w), dtype=bool)
    grid[max(y0, 0) : max(y0 + rh, 0), max(x0, 0) : max(x0 + rw, 0)] = True
    return grid


def grid_batch(proposals) -> ProposalBatch:
    """The whole-image records on lines 1 to n of ``proposals``, (grid,
    objectness) pairs, as batch columns: each grid's runs by ``grid_runs`` and
    its area by counting its pixels."""
    runs = [grid_runs(grid) for grid, _ in proposals]
    n = len(runs)
    return ProposalBatch(
        np.arange(1, n + 1), np.full(n, -1),
        np.array([grid.shape[1] for grid, _ in proposals], dtype=np.int64),
        np.array([grid.shape[0] for grid, _ in proposals], dtype=np.int64),
        np.array([o for _, o in proposals], dtype=float),
        np.array([r for rs in runs for r in rs], dtype=np.int64),
        np.cumsum([0] + [len(rs) for rs in runs]),
        np.array([int(grid.sum()) for grid, _ in proposals], dtype=np.int64),
    )


def verify_coverage(img_w: int, img_h: int, tiles) -> bool:
    """True iff every image pixel lies inside at least one tile."""
    covered = np.zeros((img_h, img_w), dtype=bool)
    for t in tiles:
        x0 = max(t.x0, 0)
        y0 = max(t.y0, 0)
        x1 = min(t.x0 + t.w, img_w)
        y1 = min(t.y0 + t.h, img_h)
        if x0 < x1 and y0 < y1:
            covered[y0:y1, x0:x1] = True
    return bool(covered.all())


def ref_nms(proposals, iou_threshold) -> list[int]:
    """All-pairs greedy NMS over (grid, objectness) pairs: the indices kept,
    in visit order; keep iff IoU < threshold with all kept."""
    order = sorted(range(len(proposals)), key=lambda i: (-proposals[i][1], -int(proposals[i][0].sum()), i))
    kept = []
    for i in order:
        if all(grid_iou(proposals[i][0], proposals[j][0]) < iou_threshold for j in kept):
            kept.append(i)
    return kept


def greedy_assign(entries):
    """entries: (iou, gt_id, prop_idx); returns [(gt_id, prop_idx, iou)]."""
    entries = sorted(entries, key=lambda t: (-t[0], t[1], t[2]))
    taken_g, taken_p, out = set(), set(), []
    for iou, g, p in entries:
        if g in taken_g or p in taken_p:
            continue
        taken_g.add(g)
        taken_p.add(p)
        out.append((g, p, iou))
    return out


def _category(area: int) -> str:
    if area < XS_BOUND:
        return "XS"
    if area <= S_BOUND:
        return "S"
    return "M"


def oracle_report(per_image):
    """Dataset AR report computed from decoded grids.

    per_image: list of (gt, proposals) where gt is [(gt_id, grid)] and
    proposals is [(grid, objectness)]. Returns a dict shaped like ARReport.
    """
    prepared = []
    for gt, proposals in per_image:
        ranked = sorted(proposals, key=lambda p: -p[1])[:100]
        entries = []
        for gid, ggrid in gt:
            for pi, (pgrid, _) in enumerate(ranked):
                iou = grid_iou(ggrid, pgrid)
                if iou > 0.0:
                    entries.append((iou, gid, pi))
        prepared.append((gt, entries))

    def pooled(budget, category):
        total = 0
        matched = []
        for gt, entries in prepared:
            if category is None:
                sel = gt
            else:
                sel = [(gid, g) for gid, g in gt if _category(int(g.sum())) == category]
            total += len(sel)
            if not sel:
                continue
            allowed = {gid for gid, _ in sel}
            sub = [e for e in entries if e[2] < budget and e[1] in allowed]
            matched.extend(iou for _, _, iou in greedy_assign(sub))
        if total == 0:
            return None, 0
        recalls = [sum(1 for v in matched if v >= t) / total for t in THRESHOLDS]
        return sum(recalls) / len(THRESHOLDS), total

    ar10, _ = pooled(10, None)
    ar100, _ = pooled(100, None)
    out = {"ar_at_10": ar10, "ar_at_100": ar100, "gt_counts": {}}
    for cat in ("XS", "S", "M"):
        ar, n = pooled(100, cat)
        out[f"ar_{cat.lower()}_at_100"] = ar
        out["gt_counts"][cat] = n
    return out


def ref_pairs(labels, grids):
    """Every positive-IoU (iou, gt id, proposal index) pair of an instance grid
    and proposal grids, sorted by IoU desc, then id, then index."""
    pairs = []
    for gid in sorted(set(labels.ravel().tolist()) - {0}):
        for pi, grid in enumerate(grids):
            iou = grid_iou(labels == gid, grid)
            if iou > 0.0:
                pairs.append((iou, gid, pi))
    return sorted(pairs, key=lambda t: (-t[0], t[1], t[2]))


def average_recall(gids, pairs) -> float:
    """Mean recall over the ten IoU thresholds of ground-truth ids ``gids``
    for a single image's match() pairs."""
    if not gids:
        raise ValueError("average recall is undefined for empty ground truth")
    ious = {gid: iou for gid, _, iou in pairs}
    recalls = [sum(1 for g in gids if ious.get(g, 0.0) >= t) / len(gids) for t in THRESHOLDS]
    return sum(recalls) / len(THRESHOLDS)


def embedded(grid: np.ndarray, tile, width: int, height: int) -> np.ndarray:
    """The width x height grid holding ``grid``, a tile's local grid, at the
    tile's origin (x0, y0), background elsewhere."""
    out = np.zeros((height, width), dtype=bool)
    out[tile.y0 : tile.y0 + tile.h, tile.x0 : tile.x0 + tile.w] = grid
    return out


def shifted(grid: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """``grid`` moved by (dx, dy), pixels that leave it dropped."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    if abs(dx) < w and abs(dy) < h:  # else every pixel leaves
        out[max(dy, 0) : h + min(dy, 0), max(dx, 0) : w + min(dx, 0)] = grid[
            max(-dy, 0) : h - max(dy, 0), max(-dx, 0) : w - max(dx, 0)
        ]
    return out


def grid_spans(grid: np.ndarray) -> list[tuple[int, int]]:
    """The [start, stop) flat positions of each row's runs of foreground pixels, in scan order."""
    height, width = grid.shape
    out = []
    for y in range(height):
        row = grid[y].tolist() + [False]
        start = None
        for x, on in enumerate(row):
            if on and start is None:
                start = x
            elif not on and start is not None:
                out.append((y * width + start, y * width + x))
                start = None
    return out


def ref_stream_seed(base: int, *keys: int) -> int:
    """The seed of the stream keyed by ``keys`` from ``base``: for each key in
    turn, the first draw of the stream from the seed so far xor the key."""
    stream = base & M64
    for key in keys:
        stream = ref_splitmix64(stream ^ (key & M64), 1)[0]
    return stream


def ref_emitted(profile, region: int, instance_id: int, side: float, frame, runs):
    """One (region, object) pair of the simulated detector's emit step, from
    its definition: dx, dy and noise, the first three draws of the stream
    keyed by the id from the region's; each move is a uniform integer in
    [-jitter, jitter], cut to the frame's side; the runs (y, x0, x1) moved
    and clipped to the frame (x0, y0, x1, y1); the objectness. Returns (dx,
    dy, objectness, the runs left, their area)."""
    draw_dx, draw_dy, draw_noise = ref_splitmix64(ref_stream_seed(region, instance_id), 3)
    fx0, fy0, fx1, fy1 = frame
    span = 2 * profile.jitter + 1
    dx = min(max(draw_dx % span - profile.jitter, fx0 - fx1), fx1 - fx0)
    dy = min(max(draw_dy % span - profile.jitter, fy0 - fy1), fy1 - fy0)
    left = [(y + dy, max(x0 + dx, fx0), min(x1 + dx, fx1)) for y, x0, x1 in runs
            if fy0 <= y + dy < fy1 and max(x0 + dx, fx0) < min(x1 + dx, fx1)]
    objectness = (1.0 - profile.objectness_noise * ((draw_noise >> 11) * 2.0**-53)) * ref_band_score(profile, side)
    return dx, dy, objectness, left, sum(x1 - x0 for _, x0, x1 in left)


def ref_band_score(profile, side: float) -> float:
    """The detector's band score of a rescaled side, from its definition: 2 to
    the minus (log distance of the side's fill of a window from the fill band's
    geometric center, over the band's log half-width), best over the levels."""
    center = math.sqrt(profile.fill_min * profile.fill_max)
    half = math.log(profile.fill_max / profile.fill_min) / 2.0
    return max(2.0 ** (-abs(math.log(side / (profile.window_cells * d) / center)) / half) for d in profile.levels)


def region_decision(profile, grid: np.ndarray, instance_id: int, origin: tuple[int, int]):
    """The simulated detector's emission for one object of a region, written
    out from its definition: ``grid`` is the object's pixels on the region's
    grid. The band filter on the longer side of its box, rescaled by the
    region's input scale; then dx, dy and noise, the first three draws of the
    stream keyed by (seed, x0, y0, id); the grid moved by (dx, dy) with the
    pixels that leave it dropped; then the score. (objectness, moved grid), or
    None if the object is out of band or no pixel is left."""
    region_h, region_w = grid.shape
    _, _, box_w, box_h = grid_bbox(grid)
    eff = max(box_w, box_h) * min(profile.input_w / region_w, profile.input_h / region_h)
    cells = profile.window_cells
    if not profile.fill_min * cells * min(profile.levels) <= eff <= profile.fill_max * cells * max(profile.levels):
        return None
    draw_dx, draw_dy, draw_noise = ref_splitmix64(ref_stream_seed(profile.seed, *origin, instance_id), 3)
    span = 2 * profile.jitter + 1
    moved = shifted(grid, draw_dx % span - profile.jitter, draw_dy % span - profile.jitter)
    if not moved.any():
        return None
    return (1.0 - profile.objectness_noise * ((draw_noise >> 11) * 2.0**-53)) * ref_band_score(profile, eff), moved


def ref_simulate(labels: np.ndarray, tiles, profile) -> list[tuple[float, np.ndarray]]:
    """(objectness, image grid) of each candidate the simulated detector emits
    on an instance grid, tiles in order and each tile's ids ascending: the id's
    pixels in the tile, ``labels[tile] == id``, through ``region_decision``,
    embedded back in the image's grid."""
    height, width = labels.shape
    out = []
    for tile in tiles:
        region = labels[tile.y0 : tile.y0 + tile.h, tile.x0 : tile.x0 + tile.w]
        for gid in sorted(set(region.ravel().tolist()) - {0}):
            decided = region_decision(profile, region == gid, gid, (tile.x0, tile.y0))
            if decided:
                out.append((decided[0], embedded(decided[1], tile, width, height)))
    return out


class RefTile(NamedTuple):
    """A tile's origin and size, as ``ref_simulate`` and ``embedded`` read them."""

    x0: int
    y0: int
    w: int
    h: int


def ref_loop(spec, count: int, seed: int, profile, nms_iou: float, top_k: int, grid=None):
    """What ``synth --count count --seed seed`` with the fields of scene spec
    ``spec``, then ``run`` with detector ``profile``, ``--nms-iou`` and
    ``--top-k``, then ``eval`` make, composed from the stage references:
    (records, report). ``grid`` is (tile_w, tile_h, stride_x, stride_y) in
    tiled mode and None in whole mode, one tile over the image.

    Scene k is ``ref_scene`` of the spec seeded by the stream keyed by k from
    ``seed``; its tiles go row by row from the origin in steps of the stride,
    the last of each row and column moved back to end at the image's edge.
    ``ref_simulate``'s candidates go through ``ref_nms``, then the first
    ``top_k`` kept are written with objectness kept to six decimals. records[k]
    holds the (objectness, runs) of scene k's lines, in order, and the report
    is ``oracle_report`` of every scene's ground truth and written records."""
    records, per_image = [], []
    for index in range(count):
        _, labels = ref_scene(replace(spec, seed=ref_stream_seed(seed, index)))
        height, width = labels.shape
        tile_w, tile_h, stride_x, stride_y = grid or (width, height, width, height)
        xs = [*range(0, width - tile_w, stride_x), width - tile_w]
        ys = [*range(0, height - tile_h, stride_y), height - tile_h]
        candidates = [(g, o) for o, g in ref_simulate(labels, [RefTile(x, y, tile_w, tile_h) for y in ys for x in xs],
                                                      profile)]
        written = [(candidates[i][0], round(candidates[i][1], 6) + 0.0)
                   for i in ref_nms(candidates, nms_iou)[:top_k]]
        records.append([(o, grid_runs(g)) for g, o in written])
        gt = [(gid, labels == gid) for gid in sorted(set(labels.ravel().tolist()) - {0})]
        per_image.append((gt, written))
    return records, oracle_report(per_image)


def make_random_instance(rng):
    """Random small dataset in both package and oracle representations.

    Returns (per_image_pkg, per_image_oracle): up to 5 images, 10 ground-truth
    objects, and 20 proposals per image, with areas spanning all three size
    categories. The package form of an image is (int32 instance grid,
    proposals), the oracle form (ground truth, proposals), with ground truth
    as (id, grid) pairs and proposals as (grid, objectness) pairs.
    """
    per_pkg = []
    per_oracle = []
    for _ in range(int(rng.integers(1, 6))):
        w = int(rng.integers(16, 97))
        h = int(rng.integers(16, 97))
        labels = np.zeros((h, w), np.int32)
        n_gt = int(rng.integers(0, 11))
        ids = rng.choice(np.arange(1, 60), size=n_gt, replace=False)
        for gid in ids:
            rw = int(rng.integers(2, max(3, w // 2)))
            rh = int(rng.integers(2, max(3, h // 2)))
            x0 = int(rng.integers(0, w - rw + 1))
            y0 = int(rng.integers(0, h - rh + 1))
            labels[y0 : y0 + rh, x0 : x0 + rw] = gid
        gt = [(gid, labels == gid) for gid in sorted(int(g) for g in np.unique(labels) if g)]
        proposals = []
        for _ in range(int(rng.integers(0, 21))):
            score = float(rng.integers(0, 1000)) / 1000
            if gt and rng.random() < 0.6:
                gid = int(rng.choice([g for g, _ in gt]))
                grid = shifted(labels == gid, int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                if not grid.any():
                    continue
            else:
                rw = int(rng.integers(2, max(3, w // 2)))
                rh = int(rng.integers(2, max(3, h // 2)))
                x0 = int(rng.integers(0, w - rw + 1))
                y0 = int(rng.integers(0, h - rh + 1))
                grid = rect_grid(w, h, x0, y0, rw, rh)
            proposals.append((grid, score))
        per_pkg.append((labels, proposals))
        per_oracle.append((gt, proposals))
    return per_pkg, per_oracle


def ref_read_records(path) -> list[tuple[int, int, tuple[int, ...], int]]:
    """(line, tile index or -1, foreground pixel positions, area) of each
    record of a valid proposal file: every line parsed on its own and its
    runs decoded onto a grid."""
    out = []
    for lineno, line in enumerate(open(path).read().split("\n"), start=1):
        if not line.strip():
            continue
        doc = json.loads(line)
        grid = np.zeros(doc["width"] * doc["height"], dtype=bool)
        pos = 0
        for k, run in enumerate(doc["runs"]):
            grid[pos : pos + run] = k % 2 == 1
            pos += run
        out.append((lineno, doc.get("tile_index", -1), tuple(np.flatnonzero(grid).tolist()), int(grid.sum())))
    return out


def ref_record_error(width, height, objectness, runs) -> str | None:
    """The message of the first rule that a record's decoded width, height,
    objectness and runs break, or None if they break none: the field types,
    then the README's rules in its order. The canvas has positive sides and
    at most 2**63 - 1 pixels; runs are non-empty integers, none negative, none
    zero after the first, summing to width*height; objectness, kept to six
    decimals, lies in [0, 1]; the mask has a foreground pixel."""
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int:  # a bool is not an integer here
            return f"{name} must be an integer"
    if type(objectness) not in (int, float):
        return "objectness must be a number"
    if type(runs) is not list:
        return "runs must be a list of integers"
    if width <= 0 or height <= 0:
        return f"mask dimensions must be positive, got {width}x{height}"
    pixels = width * height
    if pixels >= 2**63:
        return f"mask of {width}x{height} has more than 2**63 - 1 pixels"
    if any(type(r) is not int for r in runs):
        return "runs must be integers"
    if len(runs) == 0:
        return "runs must be non-empty"
    if any(r < 0 for r in runs):
        return "negative run length"
    if any(r == 0 for r in runs[1:]):
        return "zero-length run after the first"
    total = 0
    for r in runs:
        total += r
    if total != pixels:
        return f"runs sum to {total}, expected {width}x{height}={pixels}"
    try:
        value = round(float(objectness), 6)
    except OverflowError:  # an integer past float range
        return "int too large to convert to float"
    if not (value >= 0.0 and value <= 1.0):  # NaN fails both
        return f"objectness {value} outside [0, 1]"
    if not any(runs[1::2]):
        return "proposal mask is empty"
    return None
