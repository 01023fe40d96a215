import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smallprop import pipeline
from smallprop.annotations import GroundTruthObject, extract_instances
from smallprop.detector import PRESET_LEVELS, preset, simulate
from smallprop.masks import BBox, crop_mask
from smallprop.exchange import ExchangeFormatError, ProposalRecord, read_proposals, write_proposals
from smallprop.pipeline import _overlaps, _shared, _simulated_spans, _sweeps, nms, place, run_tiled, run_whole
from smallprop.synth import Scene, SceneSpec, generate_scene
from smallprop.tiling import Tile, TileGridSpec, plan_grid
from smallprop.raster import RasterImage
from oracles import (embedded, grid_batch, grid_bbox, grid_iou, grid_runs, grid_spans, mask_grid, rect_grid, ref_nms,
                     ref_simulate, region_decision)


def nms_of(props, iou_threshold, top_k=None):
    """The indices of the proposals, (grid, objectness) pairs, that ``nms``
    keeps of ``props`` on the first one's canvas, in its order."""
    height, width = props[0][0].shape if props else (1, 1)
    return nms(candidates(props, width, height), iou_threshold, top_k).tolist()


def candidates(props, width, height):
    """``props`` as whole-image records placed on a width x height image, as ``run`` places them."""
    return place(grid_batch(props), width, height)


def scene_from_labels(labels):
    labels = np.asarray(labels, dtype=np.uint16)
    return Scene(None, RasterImage(labels))


def exchange_batch(tmp_path, records):
    """The batch ``run --exchange`` reads from a file of ``records``, (tile_index
    or None, grid) pairs, one a line, each of objectness 0.5."""
    path = tmp_path / "x.jsonl"
    write_proposals([ProposalRecord("x", g.shape[1], g.shape[0], 0.5, grid_runs(g), t) for t, g in records], path)
    return read_proposals(path)


def disk_scene(w, h, centers_radii, min_visible=1):
    labels = np.zeros((h, w), np.uint16)
    for idx, (cx, cy, r) in enumerate(centers_radii, start=1):
        ys, xs = np.mgrid[0:h, 0:w]
        labels[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = idx
    return scene_from_labels(labels)


def test_nms_suppresses_duplicate():
    m = rect_grid(16, 16, 2, 2, 6, 6)
    assert nms_of([(m, 0.9), (m, 0.8)], 0.7) == [0]


def test_nms_keeps_disjoint_sorted():
    a = rect_grid(16, 16, 0, 0, 4, 4)
    b = rect_grid(16, 16, 10, 10, 4, 4)
    assert nms_of([(a, 0.4), (b, 0.8)], 0.5) == [1, 0]


def test_nms_three_offset_squares():
    a = rect_grid(30, 10, 0, 0, 10, 10)
    b = rect_grid(30, 10, 5, 0, 10, 10)
    c = rect_grid(30, 10, 10, 0, 10, 10)
    # brute-force pairwise IoUs justify the expected survivor set
    assert grid_iou(a, b) == pytest.approx(1 / 3)
    assert grid_iou(a, c) == 0.0
    assert nms_of([(a, 0.9), (b, 0.8), (c, 0.7)], 0.3) == [0, 2]


def test_nms_idempotent_and_bounded():
    rng = np.random.default_rng(3)
    props = []
    for i in range(12):
        x0, y0 = rng.integers(0, 20, 2)
        props.append((rect_grid(32, 32, int(x0), int(y0), 8, 8), float(rng.random())))
    kept = [props[i] for i in nms_of(props, 0.4)]
    assert nms_of(kept, 0.4) == list(range(len(kept)))
    for i, (p, _) in enumerate(kept):
        for q, _ in kept[:i]:
            assert grid_iou(p, q) < 0.4


def test_nms_tie_breaks_by_area_then_order():
    big = rect_grid(20, 20, 0, 0, 6, 6)
    small = rect_grid(20, 20, 10, 10, 3, 3)
    assert nms_of([(small, 0.5), (big, 0.5)], 0.9) == [1, 0]


def test_nms_suppresses_at_exactly_the_threshold():
    # IoU 2 / 4 = 0.5 exactly: kept only below the threshold, so 0.5 suppresses
    a = rect_grid(8, 2, 0, 0, 4, 1)
    b = rect_grid(8, 2, 0, 0, 2, 1)
    assert grid_iou(a, b) == 0.5
    props = [(a, 0.9), (b, 0.8)]
    spans = candidates(props, 8, 2)
    assert nms(spans, 0.5).tolist() == [0]
    assert nms(spans, 0.5000001).tolist() == [0, 1]


nonempty_pairs = hnp.arrays(np.bool_, st.tuples(st.integers(1, 16), st.integers(1, 16))).filter(np.any).flatmap(
    lambda g: st.tuples(st.just(g), hnp.arrays(np.bool_, g.shape).filter(np.any)))


@settings(max_examples=60)
@given(nonempty_pairs, st.floats(0.0, 1.0, exclude_min=True))
def test_nms_pair_decision_follows_grid_iou_either_way_round(pair, threshold):
    height, width = pair[0].shape
    iou = grid_iou(*pair)
    for ga, gb in (pair, pair[::-1]):
        for t in (threshold, iou) if iou else (threshold,):
            assert nms_of([(ga, 0.9), (gb, 0.5)], t) == ([0] if iou >= t else [0, 1])


def _random_grid(rng, width, height):
    """A random mask grid: a box of random fill, a band as wide as the canvas
    (its runs go on across row ends), a box on the canvas's right edge, or one pixel."""
    grid = np.zeros((height, width), bool)
    kind = int(rng.integers(0, 4))
    x0, y0 = int(rng.integers(0, width)), int(rng.integers(0, height))
    x1, y1 = int(rng.integers(x0 + 1, width + 1)), int(rng.integers(y0 + 1, height + 1))
    if kind == 0:
        grid[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < 0.8
    elif kind == 1:
        grid[y0:y1] = True
        grid[y0, : int(rng.integers(0, width))] = False  # the band may start and end mid-row
        grid[y1 - 1, int(rng.integers(1, width + 1)) :] = False
    elif kind == 2:
        grid[y0:y1, x0:] = True
    grid[y0, x0] = True  # never empty
    return grid


def _kept_records(props, iou_threshold, top_k):
    """(objectness, runs) of what brute-force NMS keeps of ``props``, (grid,
    objectness) pairs, truncated to ``top_k``."""
    return [(props[i][1], grid_runs(props[i][0])) for i in ref_nms(props, iou_threshold)[:top_k]]


def _written(batch):
    return [(r.objectness, r.runs) for r in batch.records("x")]


def test_span_nms_equals_brute_force_on_full_width_masks():
    # many masks as wide as the canvas, so their runs join across row ends;
    # objectness on a coarse lattice, so ties are common
    rng = np.random.default_rng(24)
    for _ in range(150):
        width, height = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        props = [(_random_grid(rng, width, height), int(rng.integers(0, 5)) / 4)
                 for _ in range(int(rng.integers(0, 9)))]
        t, k = int(rng.integers(1, 11)) / 10, int(rng.integers(1, 10))
        want = _kept_records(props, t, k)
        scene = scene_from_labels(np.zeros((height, width)))
        spans = candidates(props, width, height)
        assert _written(spans.batch(nms(spans, t, k))) == want
        assert _written(run_whole(scene, grid_batch(props), t, k)) == want


def test_span_nms_equals_brute_force_on_tile_records(tmp_path):
    # tile records on random grids, the last column and row of tiles clamped to
    # the image's edge, and tiles as wide as the image; each record's grid
    # embedded in the image's is the reference's proposal
    rng = np.random.default_rng(25)
    clamped = 0
    for trial in range(150):
        width, height = int(rng.integers(2, 24)), int(rng.integers(2, 18))
        tile_w = width if trial % 3 == 0 else int(rng.integers(1, width + 1))
        tile_h = int(rng.integers(1, height + 1))
        grid = TileGridSpec(tile_w, tile_h, int(rng.integers(1, tile_w + 1)), int(rng.integers(1, tile_h + 1)))
        tiles = plan_grid(width, height, grid)
        last = [t for t in tiles if t.x0 + t.w == width or t.y0 + t.h == height]
        records, props = [], []
        for _ in range(int(rng.integers(1, 9))):
            pool = last if rng.random() < 0.5 else tiles
            tile = pool[int(rng.integers(0, len(pool)))]
            clamped += tile.x0 % grid.stride_x != 0 or tile.y0 % grid.stride_y != 0
            local = _random_grid(rng, tile.w, tile.h)
            objectness = int(rng.integers(0, 5)) / 4
            records.append(ProposalRecord("x", tile.w, tile.h, objectness, grid_runs(local), tile.index))
            props.append((embedded(local, tile, width, height), objectness))
        write_proposals(records, tmp_path / "x.jsonl")
        t, k = int(rng.integers(1, 11)) / 10, int(rng.integers(1, 10))
        got = run_tiled(scene_from_labels(np.zeros((height, width))), read_proposals(tmp_path / "x.jsonl"), grid, t, k)
        assert _written(got) == _kept_records(props, t, k)
    assert clamped > 50


def test_spans_that_touch_share_no_pixel():
    # on an 8x2 canvas: a ends where b starts on row 0, and c ends at row 0's
    # end where d starts row 1; none of them overlaps another
    a, b = rect_grid(8, 2, 0, 0, 3, 1), rect_grid(8, 2, 3, 0, 2, 1)
    c, d = rect_grid(8, 2, 5, 0, 3, 1), rect_grid(8, 2, 0, 1, 4, 1)
    props = [(m, 0.5) for m in (a, b, c, d)]
    spans = candidates(props, 8, 2)
    order = np.argsort(spans.starts, kind="stable")
    starts, stops, every = spans.starts[order], spans.stops[order], np.arange(len(order))
    # all spans in one chunk; and each span against its neighbours as kept ones
    for c, k in ((every, None), (every[::2], every[1::2]), (every[1::2], every[::2])):
        assert all(len(column) == 0 for column in _overlaps(_sweeps(starts, stops, c, k)))
    assert nms(spans, 1e-9).tolist() == [3, 0, 2, 1]  # by area, then index


def test_shared_pixels_equal_grid_intersections():
    # the kernel of nms and eval: every pair of masks that shares pixels, with
    # the count, from one sweep over all spans and from one across two halves
    rng = np.random.default_rng(28)
    found = 0
    for _ in range(100):
        width, height = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        grids = [_random_grid(rng, width, height) for _ in range(int(rng.integers(0, 10)))]
        spans = candidates([(g, 0.5) for g in grids], width, height)
        owner = np.repeat(np.arange(len(grids)), np.diff(spans.offsets))
        starts, stops = spans.starts, spans.stops
        want = [(a, b, int((grids[a] & grids[b]).sum())) for a in range(len(grids)) for b in range(a + 1, len(grids))
                if (grids[a] & grids[b]).any()]
        every = np.argsort(starts, kind="stable")
        assert list(zip(*(c.tolist() for c in _shared(owner, starts, stops, _sweeps(starts, stops, every))))) == want
        half = len(grids) // 2  # masks below half against the others
        low, high = every[owner[every] < half], every[owner[every] >= half]
        across = [pair for pair in want if pair[0] < half <= pair[1]]
        got = _shared(owner, starts, stops, _sweeps(starts, stops, low, high))
        assert list(zip(*(c.tolist() for c in got))) == across
        found += len(across)
    assert found > 100


def test_chunked_visit_equals_brute_force(monkeypatch):
    # chunks of one candidate, of a few, and of all: the same kept list as
    # brute force, on random masks that are often as wide as the canvas
    rng = np.random.default_rng(26)
    for pairs in (1, 6, 40, 1 << 18):
        monkeypatch.setattr(pipeline, "_PAIRS", pairs)
        for _ in range(60):
            width, height = int(rng.integers(1, 12)), int(rng.integers(1, 10))
            props = [(_random_grid(rng, width, height), int(rng.integers(0, 5)) / 4)
                     for _ in range(int(rng.integers(0, 12)))]
            t, k = int(rng.integers(1, 11)) / 10, int(rng.integers(1, 13))
            spans = candidates(props, width, height)
            assert _written(spans.batch(nms(spans, t, k))) == _kept_records(props, t, k)


def test_near_duplicates_are_compared_a_chunk_at_a_time(monkeypatch):
    # 40 near-duplicate rectangles that each fill most of a 48x36 canvas, and
    # a small square inside them all, ranked first: one sweep of every pair
    # would hold 780 span pairs on most rows. Each chunk's sweep holds at most
    # about _PAIRS span pairs, or the pairs of the one candidate it visits
    rng = np.random.default_rng(27)
    rects = [(int(rng.integers(0, 4)), int(rng.integers(0, 4)), 44 - int(rng.integers(0, 3)), 32) for _ in range(40)]
    rects.append((10, 10, 8, 8))
    props = [(rect_grid(48, 36, *r), 0.99 if r[2] == 8 else float(rng.random())) for r in rects]

    def rows_shared(p, q):  # one span per row each: the rows on which they overlap
        x_overlap = p[0] < q[0] + q[2] and q[0] < p[0] + p[2]
        return x_overlap * max(0, min(p[1] + p[3], q[1] + q[3]) - max(p[1], q[1]))

    load = [sum(rows_shared(p, q) for q in rects if q is not p) for p in rects]
    assert sum(load) // 2 > 20000
    sweep, sizes = pipeline._overlaps, []
    monkeypatch.setattr(pipeline, "_overlaps", lambda *a: sizes.append(len((pairs := sweep(*a))[0])) or pairs)
    for pairs in (1, 3000):
        monkeypatch.setattr(pipeline, "_PAIRS", pairs)
        sizes.clear()
        assert nms(candidates(props, 48, 36), 0.7).tolist() == ref_nms(props, 0.7)
        assert len(sizes) > 5 and max(sizes) <= max(pairs, max(load))


def test_tile_records_at_exactly_the_threshold(tmp_path):
    # IoU 2 / 4 = 0.5 exactly, between records on the clamped last tile of a
    # 70x50 image under a 32x24 grid at stride 16x12, placed at (38, 26)
    tile = plan_grid(70, 50, TileGridSpec(32, 24, 16, 12))[-1]
    assert (tile.x0, tile.y0) == (38, 26)
    a, b = rect_grid(32, 24, 28, 23, 4, 1), rect_grid(32, 24, 30, 23, 2, 1)
    path = tmp_path / "x.jsonl"
    write_proposals([ProposalRecord("x", 32, 24, o, grid_runs(g), tile.index) for g, o in ((a, 0.9), (b, 0.8))], path)
    scene = scene_from_labels(np.zeros((50, 70)))
    grid = TileGridSpec(32, 24, 16, 12)
    assert run_tiled(scene, read_proposals(path), grid, 0.5).objectness.tolist() == [0.9]
    kept = run_tiled(scene, read_proposals(path), grid, 0.5000001)
    assert kept.objectness.tolist() == [0.9, 0.8]
    assert [r.runs for r in kept.records("x")] == [(49 * 70 + 66, 4), (49 * 70 + 68, 2)]


def test_nms_rejects_threshold_outside_unit_interval():
    # two disjoint proposals: a zero threshold used to suppress the second
    a = rect_grid(16, 16, 0, 0, 4, 4)
    b = rect_grid(16, 16, 10, 10, 4, 4)
    props = [(a, 0.9), (b, 0.8)]
    for t in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"nms_iou must lie in \(0, 1\]"):
            nms_of(props, t)
    assert len(nms_of(props, 1.0)) == 2


def test_nms_rejects_mixed_canvases():
    # the boxes are disjoint, so only the canvas check can notice: placing the
    # second record on the first one's image fails
    a = rect_grid(16, 16, 0, 0, 4, 4)
    b = rect_grid(16, 20, 10, 10, 4, 4)
    with pytest.raises(ExchangeFormatError, match="line 2: whole-image record is 16x20, image is 16x16"):
        nms_of([(a, 0.9), (b, 0.8)], 0.7)


def test_whole_run_empty_ground_truth():
    scene = scene_from_labels(np.zeros((240, 320)))
    assert len(run_whole(scene, preset("attentionmask"))) == 0


def test_single_tile_grid_equals_whole():
    scene = disk_scene(320, 240, [(60, 60, 14), (200, 120, 9), (280, 200, 20)])
    prof = preset("attentionmask-4-16", jitter=2, objectness_noise=0.2, seed=11)
    grid = TileGridSpec(320, 240, 320, 240)
    tiled = run_tiled(scene, prof, grid)
    whole = run_whole(scene, prof)
    assert len(tiled) > 0 and tiled.records("x") == whole.records("x")


def test_duplicate_across_tiles_collapses_to_one():
    # one apple fully visible in both tiles of a 2-tile grid, zero jitter
    scene = disk_scene(480, 240, [(235, 120, 15)])
    prof = preset("attentionmask", jitter=0)
    out = run_tiled(scene, prof, TileGridSpec(320, 240, 160, 240))
    assert len(out) == 1
    assert np.array_equal(mask_grid(out.records("x")[0]), scene.instances.pixels == 1)


def test_top_k_truncation():
    scene = disk_scene(320, 240, [(20 + 30 * i, 20 + 20 * j, 6) for i in range(10) for j in range(10)])
    prof = preset("attentionmask", objectness_noise=0.5, seed=3)
    out = run_tiled(scene, prof, TileGridSpec(320, 240, 320, 240), top_k=7)
    assert len(out) == 7
    scores = out.objectness.tolist()
    assert scores == sorted(scores, reverse=True)
    # the 7 highest of the full ranking survive
    full = run_tiled(scene, prof, TileGridSpec(320, 240, 320, 240), top_k=10**6)
    assert out.records("x") == full.records("x")[:7]


def test_whole_image_records_pass_through():
    scene = disk_scene(64, 48, [(20, 20, 8)])
    m = rect_grid(64, 48, 10, 10, 12, 12)
    out = run_whole(scene, grid_batch([(m, 0.75)]))
    assert len(out) == 1
    assert out.records("x")[0].runs == grid_runs(m) and out.objectness.tolist() == [0.75]


def test_tile_records_are_remapped(tmp_path):
    scene = disk_scene(64, 48, [(20, 20, 8)])
    grid = TileGridSpec(32, 24, 16, 12)
    local = rect_grid(32, 24, 2, 3, 5, 5)
    out = run_tiled(scene, exchange_batch(tmp_path, [(1, local)]), grid)
    assert len(out) == 1
    # tile 1 sits at (16, 0) in a row-major 3x3 grid
    assert grid_bbox(mask_grid(out.records("x")[0])) == (18, 3, 5, 5)


def on_tile(local, tile, width, height):
    """The spans ``place`` makes on a width x height image of one record, grid ``local``, on ``tile``."""
    records = grid_batch([(local, 0.5)])
    records.tiles = np.zeros(1, dtype=np.int64)
    return place(records, width, height, [tile])


def placed(local, tile, width, height):
    """The grid on a width x height image of one record, grid ``local``, on ``tile``."""
    return mask_grid(on_tile(local, tile, width, height).batch(np.arange(1)).records("x")[0])


def test_place_at_the_origin_tile_zero_pads():
    local = rect_grid(16, 12, 2, 3, 4, 4)
    tile = Tile(0, 0, 0, 16, 12)
    assert np.array_equal(placed(local, tile, 32, 24), embedded(local, tile, 32, 24))


def test_place_translates_by_the_tile_origin():
    grid = placed(rect_grid(320, 240, 5, 5, 10, 10), Tile(0, 160, 120, 320, 240), 1280, 720)
    assert int(grid.sum()) == 100
    assert np.array_equal(np.argwhere(grid).min(axis=0), (125, 165))


def test_place_cuts_runs_at_the_tile_row_ends():
    # one local run of 4 wraps from the tile's first row to its second: two spans on the image
    local, tile = np.zeros(32, bool), Tile(0, 5, 3, 8, 4)
    local[6:10] = True
    local = local.reshape(4, 8)
    assert grid_runs(local) == (6, 4, 22)
    spans = on_tile(local, tile, 20, 10)
    assert spans.starts.tolist() == [3 * 20 + 11, 4 * 20 + 5] and spans.stops.tolist() == [3 * 20 + 13, 4 * 20 + 7]
    assert np.array_equal(placed(local, tile, 20, 10), embedded(local, tile, 20, 10))


@settings(max_examples=60)
@given(st.integers(2, 30), st.integers(2, 30), st.data())
def test_place_puts_a_crop_back_where_it_was_cut(img_w, img_h, data):
    tw = data.draw(st.integers(1, img_w))
    th = data.draw(st.integers(1, img_h))
    x0 = data.draw(st.integers(0, img_w - tw))
    y0 = data.draw(st.integers(0, img_h - th))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((img_h, img_w)) < 0.4
    grid[y0, x0] = True  # no record is empty
    (obj,) = extract_instances(grid.astype(np.uint8))
    local = mask_grid(crop_mask(obj.mask, x0, y0, tw, th))
    ref = np.zeros_like(grid)
    ref[y0 : y0 + th, x0 : x0 + tw] = grid[y0 : y0 + th, x0 : x0 + tw]
    assert np.array_equal(placed(local, Tile(0, x0, y0, tw, th), img_w, img_h), ref)


TILE = np.ones((24, 32), bool)  # a record filling a tile of the 32x24 grid
WHOLE = np.ones((48, 64), bool)  # a whole-image record of the 64x48 scene


def test_unknown_tile_index_rejected(tmp_path):
    scene = disk_scene(64, 48, [(20, 20, 8)])
    batch = exchange_batch(tmp_path, [(t, TILE) for t in range(6)] + [(99, TILE)])
    with pytest.raises(ExchangeFormatError) as exc:
        run_tiled(scene, batch, TileGridSpec(32, 24, 16, 12))
    assert str(exc.value) == "line 7: unknown tile_index 99; grid has 9 tiles"


def test_tile_index_one_past_the_grid_is_not_the_whole_image(tmp_path):
    # the image's own frame follows the tiles' frames where records are placed
    scene = disk_scene(64, 48, [(20, 20, 8)])
    batch = exchange_batch(tmp_path, [(9, WHOLE)])
    with pytest.raises(ExchangeFormatError) as exc:
        run_tiled(scene, batch, TileGridSpec(32, 24, 16, 12))
    assert str(exc.value) == "line 1: unknown tile_index 9; grid has 9 tiles"


def test_tile_record_size_mismatch_rejected(tmp_path):
    scene = disk_scene(64, 48, [(20, 20, 8)])
    batch = exchange_batch(tmp_path, [(0, TILE), (2, TILE), (1, np.ones((24, 16), bool))])
    with pytest.raises(ExchangeFormatError) as exc:
        run_tiled(scene, batch, TileGridSpec(32, 24, 16, 12))
    assert str(exc.value) == "line 3: local mask is 16x24, tile is 32x24"


def test_record_dimension_mismatch_rejected(tmp_path):
    scene = disk_scene(64, 48, [(20, 20, 8)])
    # a huge declared canvas is rejected by its size, before any pixel is decoded
    for width, height in ((32, 24), (10**12, 1)):
        path = tmp_path / "x.jsonl"
        write_proposals([ProposalRecord("x", 64, 48, 0.5, (0, 64 * 48)),
                         ProposalRecord("x", width, height, 0.5, (0, width * height))], path)
        batch = read_proposals(path)
        with pytest.raises(ExchangeFormatError) as exc:
            run_whole(scene, batch)
        assert str(exc.value) == f"line 2: whole-image record is {width}x{height}, image is 64x48"


def test_tile_record_without_tiles_rejected(tmp_path):
    # eval and overlay place records without a grid
    batch = exchange_batch(tmp_path, [(None, WHOLE)] * 3 + [(0, TILE)])
    with pytest.raises(ExchangeFormatError) as exc:
        place(batch, 64, 48)
    assert str(exc.value) == "line 4: tile_index 0: only whole-image records are accepted"


# each record that does not fit, as (tile_index or None, grid); the tiles of place; the error it raises
_MISFITS = {
    "whole-image-size": ((None, TILE), [Tile(0, 0, 0, 32, 24)], "whole-image record is 32x24, image is 64x48"),
    "tile-without-tiles": ((0, TILE), [], "tile_index 0: only whole-image records are accepted"),
    "unknown-tile": ((3, TILE), [Tile(0, 0, 0, 32, 24)], "unknown tile_index 3; grid has 1 tiles"),
    "tile-size": ((0, np.ones((24, 16), bool)), [Tile(0, 0, 0, 32, 24)], "local mask is 16x24, tile is 32x24"),
    "tile-right-of-image": ((0, TILE), [Tile(0, 40, 0, 32, 24)], "tile at (40, 0) does not fit inside the 64x48 image"),
    "tile-above-image": ((0, TILE), [Tile(0, 0, -1, 32, 24)], "tile at (0, -1) does not fit inside the 64x48 image"),
    # the size is checked before the tile's place
    "tile-size-outside": ((0, np.ones((8, 8), bool)), [Tile(0, 40, 0, 32, 24)], "local mask is 8x8, tile is 32x24"),
}


@pytest.mark.parametrize("name", sorted(_MISFITS))
def test_each_misfit_names_its_line(tmp_path, name):
    # hand-made tiles reach the rule that a tile lies inside the image, which no grid of plan_grid breaks
    misfit, tiles, message = _MISFITS[name]
    whole = (None, WHOLE)
    batch = exchange_batch(tmp_path, [whole, misfit, whole])
    with pytest.raises(ExchangeFormatError) as exc:
        place(batch, 64, 48, tiles)
    assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize("first, second", [("unknown-tile", "whole-image-size"), ("whole-image-size", "unknown-tile")])
def test_first_misfit_in_file_order_wins_whatever_its_kind(tmp_path, first, second):
    whole = (None, WHOLE)
    batch = exchange_batch(tmp_path, [whole, _MISFITS[first][0], whole, _MISFITS[second][0], whole])
    with pytest.raises(ExchangeFormatError) as exc:
        place(batch, 64, 48, [Tile(0, 0, 0, 32, 24)])
    assert str(exc.value) == f"line 2: {_MISFITS[first][2]}"


def test_empty_record_mask_rejected(tmp_path):
    # no empty mask reaches the pipeline: the reader rejects a record without a foreground pixel
    with pytest.raises(ExchangeFormatError, match="line 2: proposal mask is empty"):
        exchange_batch(tmp_path, [(None, WHOLE), (None, np.zeros((48, 64), bool))])


def test_output_scores_non_increasing():
    scene = generate_scene(SceneSpec(width=320, height=240, n_apples=25, n_leaves=10, seed=21))
    prof = preset("attentionmask", jitter=1, objectness_noise=0.4, seed=2)
    out = run_tiled(scene, prof, TileGridSpec(160, 120, 80, 60))
    scores = out.objectness.tolist()
    assert scores == sorted(scores, reverse=True)
    assert 0 < len(out) <= 100


def test_config_validation():
    scene, grid = disk_scene(8, 8, []), TileGridSpec(8, 8, 8, 8)
    with pytest.raises(ValueError):
        run_tiled(scene, preset("fastmask"), grid, nms_iou=0.0)
    with pytest.raises(ValueError):
        run_tiled(scene, preset("fastmask"), grid, top_k=0)


def _assert_spans_are(spans, want):
    """``spans`` holds the candidates ``want``, (objectness, image grid) pairs,
    in order: the same objectness, areas, and spans, each row's runs in scan order."""
    assert spans.objectness.tolist() == [o for o, _ in want]
    assert spans.areas.tolist() == [int(g.sum()) for _, g in want]
    cuts, pairs = spans.offsets.tolist(), list(zip(spans.starts.tolist(), spans.stops.tolist()))
    assert cuts[0] == 0 and len(cuts) == len(want) + 1
    assert [pairs[i:j] for i, j in zip(cuts, cuts[1:])] == [grid_spans(g) for _, g in want]


def _per_region_reference(scene, tiles, profile):
    """The raw candidates of a tiled run, (objectness, image grid) pairs,
    composed from the public per-region API: each tile's ground truth cropped
    to it, ``simulate`` on the tile, each proposal's grid embedded in the
    image's. ``simulate`` must agree with ``oracles.region_decision``. Also
    counts the objects whose box meets a tile but whose crop to it is empty,
    and the proposals of objects wholly inside a tile that the jitter carried
    partly out of it."""
    raw, empty_crops, pushed_out = [], 0, 0
    areas = {o.instance_id: o.mask.area for o in scene.objects}
    for tile in tiles:
        origin = (tile.x0, tile.y0)
        gt = []
        for obj in scene.objects:
            if obj.mask.bbox.intersects(BBox(tile.x0, tile.y0, tile.w, tile.h)):
                local = crop_mask(obj.mask, tile.x0, tile.y0, tile.w, tile.h)
                if local.area:
                    gt.append(GroundTruthObject.from_mask(obj.instance_id, local))
                else:
                    empty_crops += 1
        decided = [region_decision(profile, mask_grid(g.mask), g.instance_id, origin) for g in gt]
        simulated = simulate(profile, tile.w, tile.h, gt, origin)
        emitted = [d for d in decided if d]
        assert [p.objectness for p in simulated] == [o for o, _ in emitted]
        assert all(np.array_equal(mask_grid(p.mask), grid) for p, (_, grid) in zip(simulated, emitted))
        raw += [(p.objectness, embedded(mask_grid(p.mask), tile, scene.width, scene.height)) for p in simulated]
        for g, d in zip(gt, decided):
            if d and g.mask.area == areas[g.instance_id] and d[1].sum() < g.mask.area:
                pushed_out += 1
    return raw, empty_crops, pushed_out


@pytest.mark.parametrize("name", sorted(PRESET_LEVELS))
def test_tiled_simulation_is_the_per_region_composition(name, monkeypatch):
    # small scenes under a 32x24 grid at stride 16x12: most objects cut a tile edge
    raw_of_run, simulated = [], pipeline._simulated_spans

    def recorded(*args):  # the candidates of each run, kept for the check
        raw_of_run.append(simulated(*args))
        return raw_of_run[-1]

    monkeypatch.setattr(pipeline, "_simulated_spans", recorded)
    grid = TileGridSpec(32, 24, 16, 12)
    emitted = empty_crops = pushed_out = 0
    for seed in range(4):
        scene = generate_scene(SceneSpec(width=96, height=64, n_apples=24, radius_min=2, radius_max=12,
                                         n_leaves=6, min_visible=1, seed=seed))
        tiles = plan_grid(scene.width, scene.height, grid)
        for jitter in (0, 2, 5):
            for noise in (0.0, 0.3):
                profile = preset(name, jitter=jitter, objectness_noise=noise, seed=seed)
                run_tiled(scene, profile, grid)
                got = raw_of_run.pop()
                want, empty, pushed = _per_region_reference(scene, tiles, profile)
                _assert_spans_are(got, want)
                emitted += len(got)
                empty_crops += empty
                pushed_out += pushed
    assert emitted > 100
    assert empty_crops > 0 and pushed_out > 0


# instance grids of a few ids, far apart in value, scattered so that an id
# often has several runs on one row
label_grids = st.tuples(st.integers(1, 20), st.integers(1, 14)).flatmap(
    lambda size: hnp.arrays(np.uint16, size, elements=st.sampled_from([0, 0, 0, 1, 2, 5, 300, 65535])))
_SPLIT = np.array([[0, 7, 7, 0, 7, 0, 300, 300, 0, 0, 2],  # id 7 in two runs on rows 0 and 2
                   [0, 7, 0, 0, 7, 0, 300, 300, 300, 0, 2],
                   [7, 7, 0, 7, 7, 0, 0, 0, 0, 0, 2],
                   [0, 0, 0, 0, 0, 0, 65535, 65535, 0, 0, 0],
                   [9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9]], dtype=np.uint16)


@settings(max_examples=150, deadline=None)
@given(labels=label_grids, tile=st.tuples(st.integers(1, 20), st.integers(1, 14)),
       stride=st.tuples(st.integers(1, 20), st.integers(1, 14)), name=st.sampled_from(sorted(PRESET_LEVELS)),
       input_size=st.tuples(st.integers(1, 2000), st.integers(1, 2000)), jitter=st.integers(0, 25),
       noise=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**64 - 1))
# an empty instance map
@example(np.zeros((6, 9), np.uint16), (4, 3), (2, 2), "attentionmask", (1280, 960), 2, 0.5, 1)
# clamped last tiles (x0 = 7 after 0, 3, 6; y0 = 2), objects cut by a tile
# edge, non-contiguous ids and an id in several runs on one row
@example(_SPLIT, (4, 3), (3, 2), "attentionmask", (1280, 960), 0, 0.0, 3)
# jitter past the tile's size
@example(_SPLIT, (4, 3), (3, 2), "attentionmask-4-16", (1280, 960), 25, 0.5, 4)
# no pair passes the band: every rescaled side is below s_min
@example(_SPLIT, (4, 3), (3, 2), "fastmask", (1, 1), 2, 0.5, 5)
# a jitter past int64: each drawn move is cut to the tile's side
@example(_SPLIT, (4, 3), (3, 2), "attentionmask-4-16", (40, 30), 2**64, 0.5, 6)
@example(_SPLIT, (4, 3), (3, 2), "attentionmask-4-16", (40, 30), 2**63, 0.5, 7)
@example(_SPLIT, (4, 3), (3, 2), "attentionmask-4-16", (40, 30), 10**20, 0.5, 8)
def test_simulated_spans_equal_the_grid_oracle(labels, tile, stride, name, input_size, jitter, noise, seed):
    height, width = labels.shape
    tile_w, tile_h = min(tile[0], width), min(tile[1], height)
    spec = TileGridSpec(tile_w, tile_h, min(stride[0], tile_w), min(stride[1], tile_h))
    profile = preset(name, input_w=input_size[0], input_h=input_size[1], jitter=jitter, objectness_noise=noise,
                     seed=seed)
    tiles = plan_grid(width, height, spec)
    _assert_spans_are(_simulated_spans(scene_from_labels(labels), tiles, profile), ref_simulate(labels, tiles, profile))
