"""Per-object ground truth extracted from instance-labeled rasters.

Size categories partition object areas: XS below 22.5^2 pixels, M strictly
above 32^2 pixels, S the closed band in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .masks import BinaryMask
from .raster import RasterImage

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


@dataclass(eq=False)
class InstanceMap:
    """Grid of instance ids, 0 = background; ids need not be contiguous."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels)
        if lab.ndim != 2 or lab.size == 0:
            raise ValueError("labels must be a non-empty 2-d grid")
        if lab.dtype != np.uint16:
            if np.issubdtype(lab.dtype, np.integer) and lab.min() >= 0 and lab.max() <= 0xFFFF:
                lab = lab.astype(np.uint16)
            else:
                raise ValueError("labels must be 16-bit unsigned instance ids")
        self.labels = np.ascontiguousarray(lab)

    @property
    def width(self) -> int:
        return int(self.labels.shape[1])

    @property
    def height(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class GroundTruthObject:
    instance_id: int
    mask: BinaryMask
    area: int
    category: SizeCategory

    @classmethod
    def from_mask(cls, instance_id: int, mask: BinaryMask) -> "GroundTruthObject":
        area = mask.area
        return cls(instance_id, mask, area, size_category(area))


def extract_instances(imap: InstanceMap) -> list[GroundTruthObject]:
    """One object per distinct nonzero id, sorted by id ascending.

    Each mask is ``labels[box] == id`` over the bounding box of the id.
    """
    labels = imap.labels
    positions = np.flatnonzero(labels != 0)  # a bool scan is much faster than a uint16 one
    if positions.size == 0:
        return []
    ids = labels.ravel()[positions]
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    ys, xs = np.divmod(positions[order], imap.width)
    starts = np.flatnonzero(np.diff(ids, prepend=0))
    stops = np.append(starts[1:], ids.size) - 1
    bounds = zip(
        ids[starts].tolist(),
        ys[starts].tolist(),
        (ys[stops] + 1).tolist(),
        np.minimum.reduceat(xs, starts).tolist(),
        (np.maximum.reduceat(xs, starts) + 1).tolist(),
    )
    return [
        GroundTruthObject.from_mask(
            i, BinaryMask.from_bitmap(imap.width, imap.height, x0, y0, labels[y0:y1, x0:x1] == i)
        )
        for i, y0, y1, x0, x1 in bounds
    ]


def instance_map_from_raster(image: RasterImage) -> InstanceMap:
    """Interpret a 16-bit gray raster as instance ids."""
    if image.channels != 1 or image.depth != 16:
        raise ValueError("instance maps are 16-bit gray rasters")
    return InstanceMap(image.pixels)


def instance_map_to_raster(imap: InstanceMap) -> RasterImage:
    return RasterImage(imap.labels, 16)
