"""Per-object ground truth extracted from grids of instance ids.

Size categories partition object areas: XS below 22.5^2 pixels, M strictly
above 32^2 pixels, S the closed band in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .masks import BinaryMask, _masks

XS_MAX_AREA = 22.5**2  # exclusive upper bound for XS
S_MAX_AREA = 32**2  # inclusive upper bound for S


class SizeCategory(Enum):
    XS = "XS"
    S = "S"
    M = "M"


def size_category(area: int) -> SizeCategory:
    """Map a positive pixel area to its size category."""
    if area < 1:
        raise ValueError(f"degenerate annotation with area {area}")
    if area < XS_MAX_AREA:
        return SizeCategory.XS
    if area <= S_MAX_AREA:
        return SizeCategory.S
    return SizeCategory.M


@dataclass
class GroundTruthObject:
    instance_id: int
    mask: BinaryMask  # its size category is size_category(mask.area)

    @classmethod
    def from_mask(cls, instance_id: int, mask: BinaryMask) -> "GroundTruthObject":
        size_category(mask.area)  # rejects an empty mask
        return cls(instance_id, mask)


def _id_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, offsets, rows): the distinct nonzero ids of a 2-D grid of
    instance ids, ascending, and each one's row runs (y, x0, x1) in scan
    order, rows[offsets[k]:offsets[k + 1]] for id k. One diff over the grid,
    cut at each row start, finds every run of one id in a row; a stable sort
    by id groups them."""
    width = labels.shape[1]
    flat = labels.ravel()
    cut = np.empty(flat.size, dtype=bool)  # where a run of one id starts: at a new id, and at each row start
    np.not_equal(flat[1:], flat[:-1], out=cut[1:])
    cut[::max(width, 1)] = True  # a grid of width 0 has no row start, nor any pixel
    starts = np.flatnonzero(cut)
    ids = flat[starts].astype(np.int64)
    order = np.flatnonzero(ids)
    order = order[np.argsort(ids[order], kind="stable")]
    ids, ys = ids[order], starts[order] // width
    rows = np.column_stack((ys, starts[order] - ys * width, np.append(starts[1:], flat.size)[order] - ys * width))
    first = np.flatnonzero(np.diff(ids, prepend=0))
    return ids[first], np.append(first, len(ids)), rows


def extract_instances(labels: np.ndarray) -> list[GroundTruthObject]:
    """One object per distinct nonzero id of a 2-D grid of instance ids (0 =
    background, ids need not be contiguous), sorted by id ascending, its mask
    the id's row runs."""
    height, width = labels.shape
    ids, offsets, rows = _id_runs(labels)
    return [GroundTruthObject(i, m) for i, m in zip(ids.tolist(), _masks(width, height, offsets, rows))]
