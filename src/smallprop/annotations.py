"""Per-object ground truth extracted from grids of instance ids.

Size categories partition object areas: XS below 22.5^2 pixels, M strictly
above 32^2 pixels, S the closed band in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .masks import BinaryMask, _tight

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


def extract_instances(labels: np.ndarray) -> list[GroundTruthObject]:
    """One object per distinct nonzero id of a 2-D grid of instance ids (0 =
    background, ids need not be contiguous), sorted by id ascending.

    Each mask is ``labels[box] == id`` over the bounding box of the id, made
    with the box and pixel count that sorting the ids gives.
    """
    height, width = labels.shape
    positions = np.flatnonzero(labels != 0)  # a bool scan is much faster than a uint16 one
    if positions.size == 0:
        return []
    ids = labels.ravel()[positions]
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    ys, xs = np.divmod(positions[order], width)
    starts = np.flatnonzero(np.diff(ids, prepend=0))
    stops = np.append(starts[1:], ids.size) - 1
    bounds = zip(
        ids[starts].tolist(),
        ys[starts].tolist(),
        (ys[stops] + 1).tolist(),
        np.minimum.reduceat(xs, starts).tolist(),
        (np.maximum.reduceat(xs, starts) + 1).tolist(),
        (stops - starts + 1).tolist(),
    )
    # the box of each id is tight and its pixel count is its area, so nothing is trimmed or counted again
    return [
        GroundTruthObject(i, _tight(width, height, x0, y0, labels[y0:y1, x0:x1] == i, area))
        for i, y0, y1, x0, x1, area in bounds
    ]
