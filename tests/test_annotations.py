import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from smallprop.annotations import SizeCategory, extract_instances, size_category
from smallprop.raster import RasterImage, write_pnm
from smallprop.synth import read_instances
from oracles import grid_bbox, grid_spans, mask_grid, mask_spans


def test_boundary_areas():
    assert size_category(506) is SizeCategory.XS
    assert size_category(507) is SizeCategory.S
    assert size_category(1024) is SizeCategory.S
    assert size_category(1025) is SizeCategory.M


def test_zero_area_rejected():
    with pytest.raises(ValueError):
        size_category(0)


@given(st.integers(1, 5000))
def test_every_area_has_exactly_one_category(area):
    assert size_category(area) in SizeCategory


def test_extract_empty_map():
    # grids without a pixel too: a row of width 0 has no start to cut at
    for shape in ((3, 3), (3, 0), (0, 3), (0, 0)):
        assert extract_instances(np.zeros(shape, np.uint16)) == []


def test_extract_single_block():
    labels = np.zeros((4, 4), np.uint16)
    labels[1:3, 1:3] = 7
    objs = extract_instances(labels)
    assert len(objs) == 1
    obj = objs[0]
    assert obj.instance_id == 7
    assert obj.mask.area == 4
    assert size_category(obj.mask.area) is SizeCategory.XS
    assert np.array_equal(mask_grid(obj.mask), labels == 7)


def test_extract_orders_by_id():
    labels = np.zeros((2, 4), np.uint16)
    labels[0, 3] = 3
    labels[1, 0] = 1
    objs = extract_instances(labels)
    assert [o.instance_id for o in objs] == [1, 3]


def test_split_instance_stays_one_object():
    # occlusion can split one id into several components; ids are authoritative
    labels = np.zeros((3, 5), np.uint16)
    labels[0, 0] = 2
    labels[2, 4] = 2
    objs = extract_instances(labels)
    assert len(objs) == 1
    assert objs[0].mask.area == 2


@given(hnp.arrays(np.uint16, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=st.integers(0, 4)))
def test_extraction_preserves_foreground(labels):
    objs = extract_instances(labels)
    assert sum(o.mask.area for o in objs) == int((labels != 0).sum())
    for o in objs:
        assert np.array_equal(mask_grid(o.mask), labels == o.instance_id)


def test_instance_map_pgm_roundtrip(tmp_path):
    labels = np.zeros((3, 4), np.uint16)
    labels[1, 2] = 40000
    path = tmp_path / "ids.pgm"
    write_pnm(RasterImage(labels), path)
    again = read_instances(path)
    assert np.array_equal(again.pixels, labels)


def test_instance_map_rejects_rgb_raster(tmp_path):
    path = tmp_path / "rgb.pgm"
    write_pnm(RasterImage(np.zeros((2, 2, 3), np.uint8)), path)
    with pytest.raises(ValueError) as exc:
        read_instances(path)
    assert str(exc.value) == f"{path}: instance maps are 16-bit gray rasters"


def test_extracted_masks_match_the_pixel_oracle():
    # sparse, non-contiguous ids; ids on the borders, 1-pixel objects and ids split in two
    rng = np.random.default_rng(7)
    for _ in range(200):
        h, w = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        labels = np.zeros((h, w), np.uint16)
        ids = rng.choice(np.arange(1, 65535), size=int(rng.integers(0, 7)), replace=False)
        for i in ids:
            for _ in range(int(rng.integers(1, 3))):  # a second blob splits the id
                x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
                x1, y1 = int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1))
                labels[y0:y1, x0:x1] = i
        labels[rng.integers(0, h), rng.integers(0, w)] = 65535  # a 1-pixel object, or none if overdrawn
        objs = extract_instances(labels)
        assert [o.instance_id for o in objs] == sorted(set(labels.ravel().tolist()) - {0})
        for o in objs:
            grid = labels == o.instance_id
            assert (o.mask.bbox.x, o.mask.bbox.y, o.mask.bbox.w, o.mask.bbox.h) == grid_bbox(grid)
            assert o.mask.area == int(grid.sum())
            assert np.array_equal(mask_grid(o.mask), grid)
            assert mask_spans(o.mask) == grid_spans(grid)
            assert not o.mask.rows.flags.writeable
