"""Overlapping tile grids: planning.

Grids place tile origins every stride pixels starting at 0; the final row and
column are clamped so the last tile ends exactly at the image border, which
guarantees full coverage without padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple


@dataclass(eq=True)
class TileGridSpec:
    tile_w: int
    tile_h: int
    stride_x: int
    stride_y: int

    def __post_init__(self) -> None:
        if self.tile_w < 1 or self.tile_h < 1:
            raise ValueError("tile dimensions must be positive")
        if self.stride_x < 1 or self.stride_y < 1:
            raise ValueError("strides must be positive")
        # strides above the tile size would leave uncovered gaps between tiles
        if self.stride_x > self.tile_w or self.stride_y > self.tile_h:
            raise ValueError("strides must not exceed the tile size")


class Tile(NamedTuple):
    index: int
    x0: int
    y0: int
    w: int
    h: int


def plan_grid(img_w: int, img_h: int, spec: TileGridSpec) -> list[Tile]:
    """Row-major list of tiles covering every pixel of the image."""
    if spec.tile_w > img_w or spec.tile_h > img_h:
        raise ValueError(f"tile {spec.tile_w}x{spec.tile_h} larger than image {img_w}x{img_h}")
    xs = [*range(0, img_w - spec.tile_w, spec.stride_x), img_w - spec.tile_w]  # the last origin is clamped
    ys = [*range(0, img_h - spec.tile_h, spec.stride_y), img_h - spec.tile_h]
    return [Tile(index, x, y, spec.tile_w, spec.tile_h) for index, (y, x) in enumerate(product(ys, xs))]
