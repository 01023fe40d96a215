"""Average Recall evaluation: matching, AR at proposal budgets, reports.

Matching is greedy one-to-one by IoU descending. Recall is pooled over all
ground truth in the dataset (not averaged per image), evaluated at the ten
IoU thresholds 0.50, 0.55, ..., 0.95; AR is the mean of the ten recalls.
Size-stratified AR restricts the ground-truth set to one category while the
proposal set stays unrestricted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annotations import SizeCategory, size_category
from .exchange import ProposalBatch
from .masks import _foreground, require_same_canvas
from .pipeline import place
from .raster import RasterImage

IOU_THRESHOLDS = tuple(t / 100 for t in range(50, 100, 5))
BUDGETS = (10, 100)

# fill/contour palette for matched objects; pure red is reserved for misses
_PALETTE = (
    (255, 230, 0),
    (0, 200, 255),
    (255, 0, 255),
    (0, 255, 128),
    (255, 140, 0),
    (150, 60, 255),
    (0, 255, 255),
    (255, 255, 255),
)
_MISS_COLOR = (255, 0, 0)


@dataclass
class ARReport:
    system: str
    ar_at_10: float | None
    ar_at_100: float | None
    ar_xs_at_100: float | None
    ar_s_at_100: float | None
    ar_m_at_100: float | None
    gt_counts: dict[str, int]


# (report column, ARReport field, proposal budget, size category or None for all)
CELLS = (
    ("AR@10", "ar_at_10", 10, None),
    ("AR@100", "ar_at_100", 100, None),
    ("AR^XS@100", "ar_xs_at_100", 100, SizeCategory.XS),
    ("AR^S@100", "ar_s_at_100", 100, SizeCategory.S),
    ("AR^M@100", "ar_m_at_100", 100, SizeCategory.M),
)
_SIZES = tuple(c.value for *_, c in CELLS if c is not None)  # keys of gt_counts, in table order


def _objects(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct nonzero ids of an instance grid, ascending, and their pixel counts."""
    return np.unique(labels[labels != 0], return_counts=True)


def _pairs_under(labels, ids, areas, batch: ProposalBatch) -> list[tuple[float, int, int]]:
    """All positive-IoU (iou, id, proposal index) pairs of an instance grid's
    objects ``ids`` of pixel counts ``areas`` and the records of ``batch``,
    sorted by IoU desc, id, index.

    One histogram of the ids under the records' foreground pixels, taken from
    their runs, so no bitmap is decoded; ids are compressed to the objects
    present, so memory follows the pixels and the objects, not the largest id.
    IoU is the correctly rounded quotient of integer intersection and union.
    """
    if not (ids.size and len(batch)):
        return []
    height, width = labels.shape
    require_same_canvas([(width, height), *zip(batch.widths.tolist(), batch.heights.tolist())])
    owner, starts, lengths = _foreground(batch.runs, batch.offsets)
    owner = np.repeat(owner, lengths)
    pixel = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(owner.size)
    # ids compressed to the objects present: background is column 0, ids[k] column k + 1
    n = ids.size + 1
    key = owner * n + np.searchsorted(ids, labels.ravel()[pixel], side="right")
    inter = np.bincount(key, minlength=len(batch) * n).reshape(len(batch), n)[:, 1:]
    pi, gi = np.nonzero(inter)
    shared = inter[pi, gi]
    iou = shared / (batch.areas[pi] + areas[gi] - shared)
    gid = ids[gi]
    order = np.lexsort((pi, gid, -iou))
    return list(zip(iou[order].tolist(), gid[order].tolist(), pi[order].tolist()))


def _greedy(pairs) -> list[tuple[int, int, float]]:
    taken_gt: set[int] = set()
    taken_prop: set[int] = set()
    out = []
    for iou, gid, pi in pairs:
        if gid in taken_gt or pi in taken_prop:
            continue
        taken_gt.add(gid)
        taken_prop.add(pi)
        out.append((gid, pi, iou))
    return out


def match(labels: np.ndarray, batch: ProposalBatch) -> tuple[tuple[int, int, float], ...]:
    """Greedily assign the records of a batch to the objects of an instance
    grid; zero-IoU pairs never match.

    Returns the one-to-one pairs (gt id, record index, iou). The batch is
    expected to be truncated to the evaluation budget already.
    """
    return tuple(_greedy(_pairs_under(labels, *_objects(labels), batch)))


def _pooled_ar(per_image, budget: int, category: SizeCategory | None) -> tuple[float | None, int]:
    """Dataset-pooled AR for one budget and optional category restriction."""
    total_gt = 0
    matched_ious: list[float] = []
    for sizes, pairs in per_image:
        allowed = {g for g, c in sizes.items() if category in (None, c)}
        total_gt += len(allowed)
        if not allowed:
            continue
        sub = [p for p in pairs if p[2] < budget and p[1] in allowed]
        matched_ious.extend(iou for _, _, iou in _greedy(sub))
    if total_gt == 0:
        return None, 0
    recalls = [
        sum(1 for v in matched_ious if v >= t) / total_gt for t in IOU_THRESHOLDS
    ]
    return sum(recalls) / len(IOU_THRESHOLDS), total_gt


def score_image(
    labels: np.ndarray, batch: ProposalBatch
) -> tuple[dict[int, SizeCategory], list[tuple[float, int, int]]]:
    """One image's share of a dataset report: the size category of each object
    of the instance grid ``labels`` ({id: category}, the ground truth as
    ``extract_instances`` finds it), and the positive-IoU (iou, id, proposal
    index) pairs of a batch's records ranked by objectness descending
    (stable) and truncated to the largest budget.
    """
    ranked = batch.top(max(BUDGETS))
    ids, areas = _objects(labels)
    sizes = {g: size_category(a) for g, a in zip(ids.tolist(), areas.tolist())}
    return sizes, _pairs_under(labels, ids, areas, ranked)


def evaluate_dataset(scored, system: str = "run") -> ARReport:
    """Dataset-level AR report pooled over each image's ``score_image`` result.

    Each budget is matched on its own, over the pairs of the proposals ranked
    within it; category cells with zero ground truth are reported as absent
    rather than zero.
    """
    scored = list(scored)
    cells = {}
    counts = {}
    for _, field, budget, category in CELLS:
        cells[field], n = _pooled_ar(scored, budget, category)
        if category is not None:
            counts[category.value] = n
    return ARReport(system=system, gt_counts=counts, **cells)


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def report_text(reports: Sequence[ARReport]) -> str:
    """Aligned plain-text table, one row per system."""
    name_w = max([len("System")] + [len(r.system) for r in reports])
    header = "System".ljust(name_w) + "".join(f"{c:>12}" for c, *_ in CELLS)
    lines = [header]
    for r in reports:
        cells = "".join(f"{_cell(getattr(r, f)):>12}" for _, f, *_ in CELLS)
        lines.append(r.system.ljust(name_w) + cells)
    return "\n".join(lines) + "\n"


def report_json(reports: Sequence[ARReport]) -> str:
    """Canonical JSON document with fixed key order."""
    docs = []
    for r in reports:
        doc = {"system": r.system}
        for _, f, *_ in CELLS:
            doc[f] = getattr(r, f)
        doc["gt_counts"] = {k: r.gt_counts.get(k, 0) for k in _SIZES}
        docs.append(doc)
    payload = {
        "columns": [c for c, *_ in CELLS],
        "iou_thresholds": list(IOU_THRESHOLDS),
        "budgets": list(BUDGETS),
        "reports": docs,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_csv(reports: Sequence[ARReport]) -> str:
    """RFC 4180 rows, so a system name holding a comma, quote or newline is quoted."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["system"] + [f for _, f, *_ in CELLS] + [f"gt_{k.lower()}" for k in _SIZES])
    for r in reports:
        cells = ["" if (v := getattr(r, f)) is None else f"{v:.6f}" for _, f, *_ in CELLS]
        rows.writerow([r.system] + cells + [r.gt_counts.get(k, 0) for k in _SIZES])
    return out.getvalue()


def _contour(grid: np.ndarray) -> np.ndarray:
    """Foreground pixels with at least one 4-neighbor outside the mask."""
    interior = grid.copy()
    interior[1:, :] &= grid[:-1, :]
    interior[:-1, :] &= grid[1:, :]
    interior[:, 1:] &= grid[:, :-1]
    interior[:, :-1] &= grid[:, 1:]
    interior[0, :] = False
    interior[-1, :] = False
    interior[:, 0] = False
    interior[:, -1] = False
    return grid & ~interior


def _box_grid(starts: np.ndarray, stops: np.ndarray, width: int) -> tuple[int, int, np.ndarray]:
    """(x, y, grid) of one mask's row spans on an image ``width`` wide, as
    ``place`` makes them: the corner of the spans' tight box and the boolean
    grid of that box."""
    rows, xs = np.divmod(starts, width)
    lengths = stops - starts
    x, y = int(xs.min()), int(rows[0])
    w, h = int((xs + lengths).max()) - x, int(rows[-1]) + 1 - y
    firsts = (rows - y) * w + xs - x  # each span's first pixel in the grid
    grid = np.zeros(h * w, dtype=bool)
    grid[np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())] = True
    return x, y, grid.reshape(h, w)


def render_overlay(image: RasterImage, labels: np.ndarray, batch: ProposalBatch) -> RasterImage:
    """Draw the matched records of a batch filled with a colored contour,
    misses in red.

    Objects of the instance grid ``labels`` are drawn by id ascending. Each
    shows only its assigned (best-IoU) record, drawn from its row spans; an
    unmatched one is drawn as an unfilled red contour of its pixels.
    """
    if image.channels != 3:
        raise ValueError("overlay rendering needs an RGB image")
    by_gt = {gid: pi for gid, pi, _ in match(labels, batch)}
    height, width = labels.shape
    spans = place(batch, width, height)
    canvas = image.pixels.astype(np.int16)
    for gid in _objects(labels)[0].tolist():
        if gid in by_gt:
            color = np.array(_PALETTE[gid % len(_PALETTE)], dtype=np.int16)
            i, j = spans.offsets[by_gt[gid] : by_gt[gid] + 2].tolist()
            x, y, grid = _box_grid(spans.starts[i:j], spans.stops[i:j], width)
            # the box is tight, so a foreground pixel on its edge is contour as on the canvas
            window = canvas[y : y + grid.shape[0], x : x + grid.shape[1]]
            window[grid] = (window[grid] + color) // 2
            window[_contour(grid)] = color
        else:
            canvas[_contour(labels == gid)] = np.array(_MISS_COLOR, dtype=np.int16)
    return RasterImage(canvas.astype(np.uint8))
