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

from .annotations import SizeCategory, _id_runs, size_category
from .exchange import ProposalBatch
from .masks import _sums
from .pipeline import Spans, _shared, _sweeps, place
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


def _truth(labels: np.ndarray) -> tuple[np.ndarray, Spans]:
    """(ids, objects): the distinct nonzero ids of an instance grid, ascending,
    and its objects as ``Spans`` without objectness, each id's row runs as its
    spans and their pixel count as its area."""
    height, width = labels.shape
    ids, offsets, rows = _id_runs(labels)
    ys, x0s, x1s = rows.T
    return ids, Spans(width, height, None, _sums(x1s - x0s, offsets), offsets, ys * width + x0s, ys * width + x1s)


def _pairs(ids: np.ndarray, objects: Spans, records: Spans) -> list[tuple[float, int, int]]:
    """All positive-IoU (iou, id, record index) pairs of the objects ``ids``
    of ``_truth`` and ``records``, which ``place`` put on their image,
    sorted by IoU desc, id, index.

    One cross sweep over the two span sets laid end to end, records numbered
    first, feeds ``_shared``, the kernel of ``nms``. An object's runs on a row
    are disjoint, so a record's span meets at most as many runs as it has
    pixels. IoU is the correctly rounded quotient of integer intersection and
    union.
    """
    n = len(records)
    starts, stops = np.concatenate((records.starts, objects.starts)), np.concatenate((records.stops, objects.stops))
    owner = np.repeat(np.arange(n + len(ids)), np.concatenate((np.diff(records.offsets), np.diff(objects.offsets))))
    sweeps = _sweeps(starts, stops, np.argsort(records.starts), len(records.starts) + np.argsort(objects.starts))
    pi, gi, shared = _shared(owner, starts, stops, sweeps)
    gi -= n  # objects are numbered after the records
    iou = shared / (records.areas[pi] + objects.areas[gi] - shared)
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


def _assign(labels: np.ndarray, batch: ProposalBatch) -> tuple[np.ndarray, Spans, Spans, list[tuple[int, int, float]]]:
    """(ids, objects, records, assigned): the objects of an instance grid as
    ``_truth`` gives them, the records of a batch placed on that grid, and the
    one-to-one (gt id, record index, iou) pairs that greedily assign the
    records to the objects; zero-IoU pairs never match. The batch is expected
    to be truncated to the evaluation budget already.
    """
    ids, objects = _truth(labels)
    records = place(batch, objects.width, objects.height)
    return ids, objects, records, _greedy(_pairs(ids, objects, records))


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
    of the instance grid ``labels`` ({id: category}, an object being all the
    pixels of one nonzero id), and the positive-IoU (iou, id, proposal index)
    pairs of a batch's records ranked by objectness descending (stable) and
    truncated to the largest budget.
    """
    ids, objects = _truth(labels)
    sizes = {g: size_category(a) for g, a in zip(ids.tolist(), objects.areas.tolist())}
    return sizes, _pairs(ids, objects, place(batch.top(max(BUDGETS)), objects.width, objects.height))


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
    """(x, y, grid) of one mask's row spans on an image ``width`` wide, one
    row each and in scan order, as ``Spans`` hold them: the corner of the
    spans' tight box and the boolean grid of that box."""
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
    unmatched one is drawn as an unfilled red contour of its own row runs.
    """
    if image.channels != 3:
        raise ValueError("overlay rendering needs an RGB image")
    ids, objects, records, assigned = _assign(labels, batch)
    by_gt = {gid: pi for gid, pi, _ in assigned}
    canvas = image.pixels.astype(np.int16)
    for k, gid in enumerate(ids.tolist()):
        matched = gid in by_gt
        spans, at = (records, by_gt[gid]) if matched else (objects, k)
        i, j = spans.offsets[at : at + 2].tolist()
        x, y, grid = _box_grid(spans.starts[i:j], spans.stops[i:j], spans.width)
        # the box is tight, so a foreground pixel on its edge is contour as on the canvas
        window = canvas[y : y + grid.shape[0], x : x + grid.shape[1]]
        color = np.array(_PALETTE[gid % len(_PALETTE)] if matched else _MISS_COLOR, dtype=np.int16)
        if matched:
            window[grid] = (window[grid] + color) // 2
        window[_contour(grid)] = color
    return RasterImage(canvas.astype(np.uint8))
