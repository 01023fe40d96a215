import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallprop.annotations import extract_instances
from smallprop.masks import crop_mask
from smallprop.tiling import Tile, TileGridSpec, plan_grid
from oracles import embedded, mask_grid, verify_coverage


def test_grid_1280x720_non_overlapping():
    tiles = plan_grid(1280, 720, TileGridSpec(320, 240, 320, 240))
    assert len(tiles) == 12
    assert {(t.x0, t.y0) for t in tiles} == {(x, y) for x in (0, 320, 640, 960) for y in (0, 240, 480)}
    assert tiles[0].index == 0 and tiles[-1].index == 11


def test_grid_single_tile():
    tiles = plan_grid(640, 480, TileGridSpec(640, 480, 640, 480))
    assert tiles == [Tile(0, 0, 0, 640, 480)]


def test_grid_half_stride():
    tiles = plan_grid(1280, 720, TileGridSpec(320, 240, 160, 120))
    assert len(tiles) == 35


def test_grid_clamps_final_origin():
    tiles = plan_grid(1000, 240, TileGridSpec(320, 240, 300, 240))
    assert [t.x0 for t in tiles] == [0, 300, 600, 680]


def test_grid_rejects_oversize_tile():
    with pytest.raises(ValueError):
        plan_grid(300, 300, TileGridSpec(320, 240, 160, 120))


def test_spec_rejects_stride_beyond_tile():
    with pytest.raises(ValueError):
        TileGridSpec(320, 240, 400, 120)


def test_coverage_examples():
    tiles = plan_grid(1280, 720, TileGridSpec(320, 240, 320, 240))
    assert verify_coverage(1280, 720, tiles)
    assert not verify_coverage(1280, 720, tiles[:1])


grid_specs = st.tuples(st.integers(1, 40), st.integers(1, 40), st.data())


@settings(max_examples=60)
@given(st.integers(1, 50), st.integers(1, 50), st.data())
def test_plan_grid_properties(img_w, img_h, data):
    tw = data.draw(st.integers(1, img_w))
    th = data.draw(st.integers(1, img_h))
    sx = data.draw(st.integers(1, tw))
    sy = data.draw(st.integers(1, th))
    tiles = plan_grid(img_w, img_h, TileGridSpec(tw, th, sx, sy))
    assert verify_coverage(img_w, img_h, tiles)
    assert (tiles[0].x0, tiles[0].y0) == (0, 0)
    last = tiles[-1]
    assert last.x0 + last.w == img_w and last.y0 + last.h == img_h
    assert [t.index for t in tiles] == list(range(len(tiles)))


@settings(max_examples=60)
@given(st.integers(2, 30), st.integers(2, 30), st.data())
def test_crop_to_a_tile_recovers_tile_region(img_w, img_h, data):
    tw = data.draw(st.integers(1, img_w))
    th = data.draw(st.integers(1, img_h))
    x0 = data.draw(st.integers(0, img_w - tw))
    y0 = data.draw(st.integers(0, img_h - th))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((img_h, img_w)) < 0.4
    tile = Tile(0, x0, y0, tw, th)
    # the grid's pixels as one object (none if it has no pixel), cropped to the tile and put back
    back = np.zeros_like(grid)
    for obj in extract_instances(grid.astype(np.uint8)):
        back = embedded(mask_grid(crop_mask(obj.mask, x0, y0, tw, th)), tile, img_w, img_h)
    ref = np.zeros_like(grid)
    ref[y0 : y0 + th, x0 : x0 + tw] = grid[y0 : y0 + th, x0 : x0 + tw]
    assert np.array_equal(back, ref)


def test_even_partition_when_stride_equals_tile():
    tiles = plan_grid(12, 9, TileGridSpec(4, 3, 4, 3))
    seen = np.zeros((9, 12), int)
    for t in tiles:
        seen[t.y0 : t.y0 + t.h, t.x0 : t.x0 + t.w] += 1
    assert (seen == 1).all()
