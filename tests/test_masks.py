import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smallprop.annotations import extract_instances
from smallprop.masks import BBox, BinaryMask, _foreground, _row_spans, _span_runs, _valid, crop_mask
from smallprop.tiling import Tile
import oracles
from oracles import embedded, grid_bbox, grid_runs, grid_spans, mask_grid, mask_spans, rect_grid

grids = hnp.arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24)))


def _from_grid(grid) -> BinaryMask:
    """The mask of a full-canvas row-major grid made from its pixels, as
    extraction makes it: its row runs, none encoded. An empty grid's mask is
    the crop of the grid's canvas from a mask one column wider, whose only
    pixels lie in that column."""
    grid = np.asarray(grid, dtype=bool)
    h, w = grid.shape
    if grid.any():
        (obj,) = extract_instances(grid.astype(np.uint8))
        return obj.mask
    (beside,) = extract_instances(np.pad(grid, ((0, 0), (0, 1)), constant_values=True).astype(np.uint8))
    return crop_mask(beside.mask, 0, 0, w, h)


def test_encode_all_background():
    assert _from_grid(np.zeros((2, 2), bool)).runs == (4,)


def test_encode_all_foreground():
    assert _from_grid(np.ones((2, 2), bool)).runs == (0, 4)


def test_encode_checker():
    assert _from_grid([[1, 0], [0, 1]]).runs == (0, 1, 2, 1)


def test_row_run_examples():
    # each run of foreground on a row is one entry: its row y and its [x0, x1)
    assert _from_grid(np.zeros((2, 2), bool)).rows.tolist() == []
    assert _from_grid(np.ones((2, 2), bool)).rows.tolist() == [[0, 0, 2], [1, 0, 2]]
    assert _from_grid([[1, 0, 1], [0, 1, 1]]).rows.tolist() == [[0, 0, 1], [0, 2, 3], [1, 1, 3]]
    for grid in ([[1, 0], [0, 1]], [[1, 0, 1], [0, 1, 1]]):
        assert mask_spans(_from_grid(grid)) == grid_spans(np.array(grid, bool))


def test_corrupt_runs_rejected():
    # the checks of a file's runs, all records at once: a wrong sum, a zero
    # run after the first, a negative run, no run at all
    def valid(*records, width=2, height=2):
        runs = np.array([r for rs in records for r in rs], dtype=np.int64)
        n = len(records)
        return _valid(runs, np.cumsum([0] + [len(rs) for rs in records]), np.full(n, width), np.full(n, height))

    assert valid((4,), (0, 4), (0, 1, 2, 1))
    for bad in ((3,), (0, 2, 0, 2), (-1, 5), ()):
        assert not valid((0, 4), bad)
    assert not valid((0, 4), width=0) and not valid((2**32,), width=2**32, height=2**32)


def test_area_example():
    assert _from_grid(np.ones((2, 2), bool)).area == 4


def test_bbox_examples():
    assert _from_grid(rect_grid(10, 8, 2, 1, 3, 4)).bbox == BBox(2, 1, 3, 4)
    assert _from_grid(np.zeros((5, 5), bool)).bbox == BBox(0, 0, 0, 0)
    assert _from_grid(np.ones((3, 3), bool)).bbox == BBox(0, 0, 3, 3)


def test_crop_keeps_the_window_and_rejects_bad_ones():
    m = _from_grid(rect_grid(16, 12, 5, 4, 6, 5))
    part = crop_mask(m, 4, 2, 8, 8)
    assert part.area == int(mask_grid(m)[2:10, 4:12].sum())
    with pytest.raises(ValueError, match="crop window outside the mask"):
        crop_mask(m, 10, 10, 8, 8)
    for w, h in ((0, 3), (3, 0), (-1, 3)):
        with pytest.raises(ValueError, match="crop window must be non-empty"):
            crop_mask(m, 5, 5, w, h)


def test_runs_merge_across_row_end():
    # full rows, and a run from the right edge into the next row, are one run
    assert _from_grid([[0, 0, 0], [1, 1, 1], [1, 1, 1]]).runs == (3, 6)
    assert _from_grid([[0, 1, 1], [1, 1, 0]]).runs == (1, 4, 1)
    assert crop_mask(_from_grid(np.ones((3, 5), bool)), 1, 0, 3, 3).runs == (0, 9)


@given(grids)
def test_grid_runs_is_the_pixel_by_pixel_count(grid):
    # the oracle finds the change points with numpy; here they are counted one pixel at a time
    runs, value = [0], False
    for px in grid.ravel().tolist():
        if px != value:
            runs.append(0)
            value = px
        runs[-1] += 1
    assert grid_runs(grid) == tuple(runs)


@given(grids)
def test_roundtrip(grid):
    assert np.array_equal(mask_grid(_from_grid(grid)), grid)


@given(grids)
def test_bbox_matches_bruteforce(grid):
    m = _from_grid(grid)
    assert (m.bbox.x, m.bbox.y, m.bbox.w, m.bbox.h) == grid_bbox(grid)


@settings(max_examples=50)
@given(grids, st.data())
def test_crop_matches_bruteforce(grid, data):
    h, w = grid.shape
    cw = data.draw(st.integers(1, w))
    ch = data.draw(st.integers(1, h))
    x0 = data.draw(st.integers(0, w - cw))
    y0 = data.draw(st.integers(0, h - ch))
    part = crop_mask(_from_grid(grid), x0, y0, cw, ch)
    assert np.array_equal(mask_grid(part), grid[y0 : y0 + ch, x0 : x0 + cw])


def _assert_matches(mask, grid):
    """Every view of ``mask`` equals the brute-force one of its full-canvas grid."""
    h, w = grid.shape
    assert (mask.width, mask.height) == (w, h)
    assert np.array_equal(mask_grid(mask), grid)
    assert mask.area == int(grid.sum())
    assert (mask.bbox.x, mask.bbox.y, mask.bbox.w, mask.bbox.h) == grid_bbox(grid)
    assert mask_spans(mask) == grid_spans(grid)
    assert not mask.rows.flags.writeable
    assert mask.runs == grid_runs(grid)


@st.composite
def masked_grids(draw):
    """Random grids, some with full-width rows and pixels on every canvas edge."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    grid = draw(hnp.arrays(np.bool_, (h, w), elements=st.booleans() | st.just(False)))
    for y in draw(st.lists(st.integers(0, h - 1), max_size=2)):
        grid[y, :] = True
    if draw(st.booleans()):
        grid[0, draw(st.integers(0, w - 1))] = grid[-1, draw(st.integers(0, w - 1))] = True
        grid[draw(st.integers(0, h - 1)), 0] = grid[draw(st.integers(0, h - 1)), -1] = True
    return grid


@settings(max_examples=300)
@given(masked_grids(), st.data())
@example(np.zeros((3, 4), bool), None)
@example(np.ones((3, 4), bool), None)
@example(np.array([[0, 1, 1], [1, 1, 1], [1, 0, 0]], bool), None)
def test_mask_ops_match_grid_oracles(grid, data):
    h, w = grid.shape
    mask = _from_grid(grid)
    _assert_matches(mask, grid)
    if data is None:
        return

    cw, ch = data.draw(st.integers(1, w)), data.draw(st.integers(1, h))
    x0, y0 = data.draw(st.integers(0, w - cw)), data.draw(st.integers(0, h - ch))
    _assert_matches(crop_mask(mask, x0, y0, cw, ch), grid[y0 : y0 + ch, x0 : x0 + cw])

    # the mask as the tile at (ex, ey) of a larger image: the crop of that tile is the mask
    big_w, big_h = w + data.draw(st.integers(0, 4)), h + data.draw(st.integers(0, 4))
    ex, ey = data.draw(st.integers(0, big_w - w)), data.draw(st.integers(0, big_h - h))
    big = embedded(grid, Tile(0, ex, ey, w, h), big_w, big_h)
    _assert_matches(crop_mask(_from_grid(big), ex, ey, w, h), grid)


@settings(max_examples=200)
@given(masked_grids(), st.integers(0, 3), st.integers(0, 3))
@example(np.array([[0, 1, 1], [1, 1, 0]], bool), 1, 2)  # a run that goes on past a row end
@example(np.array([[0, 0, 1], [1, 0, 0]], bool), 0, 0)  # its pieces leave a column empty
@example(np.zeros((2, 3), bool), 1, 0)
def test_every_route_measures_when_made_and_moves_shift_its_row_runs(grid, ex, ey):
    # a mask is made from the instance map's row runs, as extraction makes
    # one, or by a move; no encoded run makes a mask
    h, w = grid.shape
    box = grid_bbox(grid)
    big = embedded(grid, Tile(0, ex, ey, w, h), w + ex, h + ey)
    drawn = [o.mask for o in extract_instances(big.astype(np.uint8))]  # none for an empty grid
    with pytest.raises(TypeError):
        BinaryMask(w, h, grid_runs(grid))
    # the box and area are plain slots set when made, and an extracted mask encodes no runs
    assert not hasattr(BinaryMask, "__getattr__")
    assert all(m._runs is None and not hasattr(m, "__dict__") for m in drawn)
    assert [(m.bbox.x, m.bbox.y, m.bbox.w, m.bbox.h) for m in drawn] == [grid_bbox(big)] * bool(grid.any())
    for large in drawn:
        moved = [crop_mask(large, ex, ey, w, h), crop_mask(large, 0, 0, w + ex, h + ey)]  # each moves it whole
        moved.append(crop_mask(moved[0], *box))  # so does a crop to the box, here a second time
        # a move keeps every row run of its source, shifted by the window's origin
        for m, (x, y) in zip(moved, ((ex, ey), (0, 0), (ex + box[0], ey + box[1]))):
            assert m.rows.tolist() == [[r - y, a - x, b - x] for r, a, b in large.rows.tolist()]
        assert all(m.area == large.area == int(grid.sum()) for m in moved)
        _assert_matches(large, big)
        _assert_matches(moved[0], grid)
        _assert_matches(moved[1], big)
        _assert_matches(moved[2], grid[box[1] : box[1] + box[3], box[0] : box[0] + box[2]])


def test_oracles_take_only_the_batch_type_from_the_package():
    # the references decode runs and move grids themselves, so they share no
    # code with what they check; they hand grids to it as a batch of records
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = [(node.module, a.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert [(m, n) for m, n in names if m and m.startswith("smallprop")] == [("smallprop.exchange", "ProposalBatch")]
    assert not [m for m in modules if m.startswith("smallprop")]


def _mask_set(rng, width, height):
    """Grids of up to six masks on one canvas: random boxes of random fill,
    full-width bands, single pixels, empty masks and boxes on a canvas edge."""
    grids = []
    for _ in range(int(rng.integers(0, 7))):
        grid = np.zeros((height, width), bool)
        kind = int(rng.integers(0, 5))
        if kind == 0:  # full canvas width: runs join across rows
            y0 = int(rng.integers(0, height))
            grid[y0 : int(rng.integers(y0 + 1, height + 1))] = True
            grid &= rng.random(grid.shape) < 0.9
        elif kind == 1:
            grid[int(rng.integers(0, height)), int(rng.integers(0, width))] = True
        elif kind == 2:
            pass
        else:
            x0, y0 = int(rng.integers(0, width)), int(rng.integers(0, height))
            x1, y1 = int(rng.integers(x0 + 1, width + 1)), int(rng.integers(y0 + 1, height + 1))
            if kind == 4:  # stretched to a random edge
                edge = int(rng.integers(0, 4))
                x0, y0, x1, y1 = (0, y0, x1, y1) if edge == 0 else (x0, 0, x1, y1) if edge == 1 else (
                    (x0, y0, width, y1) if edge == 2 else (x0, y0, x1, height))
            grid[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < rng.random()
        grids.append(grid)
    return grids


def _records(runs, offsets):
    """Each mask's runs, from runs laid out end to end."""
    return [tuple(runs[i:j].tolist()) for i, j in zip(offsets.tolist(), offsets[1:].tolist())]


def test_span_runs_match_the_pixel_oracle():
    rng = np.random.default_rng(20)
    for trial in range(400):
        width, height = int(rng.integers(1, 14)), int(rng.integers(1, 9))
        if trial % 5 == 0:
            height = 1  # a W x 1 canvas: every mask is full-height
        grids = _mask_set(rng, width, height)
        want = [grid_runs(g) for g in grids]
        # spans from runs, on the canvas itself (masks as wide as the canvas join their rows' spans into one run)
        runs = np.array([r for rs in want for r in rs], dtype=np.int64)
        offsets = np.cumsum([0] + [len(rs) for rs in want])
        n = len(want)
        spans = _row_spans(*_foreground(runs, offsets), np.full(n, width), np.zeros(n, int), np.zeros(n, int), width)
        assert _records(*_span_runs(*spans, width * height)) == want
        # a mask encoded alone has the same runs
        assert [_from_grid(g).runs for g in grids] == want


def test_row_spans_place_tile_masks_on_the_image():
    # each mask of a w x h canvas placed at (x, y) on a bigger canvas, a tile's
    # records on the image: the runs of the grid embedded there
    rng = np.random.default_rng(21)
    for _ in range(300):
        width, height = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        big_w, big_h = width + int(rng.integers(0, 6)), height + int(rng.integers(0, 6))
        grids = [g for g in _mask_set(rng, width, height) if g.any()]
        xs = rng.integers(0, big_w - width + 1, len(grids))
        ys = rng.integers(0, big_h - height + 1, len(grids))
        runs = np.array([r for g in grids for r in grid_runs(g)], dtype=np.int64)
        offsets = np.cumsum([0] + [len(grid_runs(g)) for g in grids])
        spans = _row_spans(*_foreground(runs, offsets), np.full(len(grids), width), xs, ys, big_w)
        want = []
        for g, x, y in zip(grids, xs.tolist(), ys.tolist()):
            embedded = np.zeros((big_h, big_w), bool)
            embedded[y : y + height, x : x + width] = g
            want.append(grid_runs(embedded))
        assert _records(*_span_runs(*spans, big_w * big_h)) == want


def test_spans_that_touch_are_one_run_only_across_a_row_end():
    # on a 4-wide canvas: [2, 4) of row 0 and [0, 1) of row 1 are one run, but
    # two masks whose spans touch stay apart
    offsets, starts, stops = np.array([0, 2, 3]), np.array([2, 4, 5]), np.array([4, 5, 6])
    runs, cuts = _span_runs(offsets, starts, stops, 8)
    assert _records(runs, cuts) == [(2, 3, 3), (5, 1, 2)]
    assert _records(*_span_runs(np.array([0, 0]), np.zeros(0, int), np.zeros(0, int), 8)) == [(8,)]


