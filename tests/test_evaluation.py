import csv
import hashlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smallprop import evaluation
from smallprop.annotations import SizeCategory, size_category
from smallprop.detector import ALLOWED_LEVELS, PRESET_LEVELS, DetectorProfile, detectable_range, preset
from smallprop.exchange import ExchangeFormatError
from smallprop.evaluation import (
    IOU_THRESHOLDS,
    evaluate_dataset,
    score_image,
    render_overlay,
    report_csv,
    report_json,
    report_text,
)
from smallprop.pipeline import place, run_whole
from smallprop.raster import RasterImage
from smallprop.synth import SceneSpec, generate_scene
from oracles import (average_recall, greedy_assign, grid_batch, grid_iou, make_random_instance, oracle_report,
                     rect_grid, ref_pairs, shifted)


def interval_grid(width, start, stop):
    """Single-row grid covering [start, stop); handy for exact IoUs."""
    return rect_grid(width, 1, start, 0, stop - start, 1)


def grid_of(gt):
    """The instance grid of non-overlapping ground truth, (id, grid) pairs on one canvas."""
    labels = np.zeros(gt[0][1].shape, np.int32)
    for gid, grid in gt:
        assert not labels[grid].any(), "overlapping ground truth has no instance grid"
        labels[grid] = gid
    return labels


def batch(props):
    """The whole-image records of ``props``, (grid, objectness) pairs, as eval reads them from a file."""
    return grid_batch(props)


def match(labels, records):
    """The one-to-one (gt id, record index, iou) pairs that greedily assign a
    batch's records to an instance grid's objects, as ``overlay`` draws them."""
    return tuple(evaluation._assign(labels, records)[-1])


def test_match_perfect_single_pair():
    m = rect_grid(16, 16, 2, 2, 5, 5)
    assert match(grid_of([(1, m)]), batch([(m, 0.9)])) == ((1, 0, 1.0),)


def test_match_without_proposals():
    m = rect_grid(16, 16, 2, 2, 5, 5)
    assert match(grid_of([(1, m)]), batch([])) == ()


def test_match_zero_iou_never_assigned():
    a = rect_grid(16, 16, 0, 0, 4, 4)
    b = rect_grid(16, 16, 10, 10, 4, 4)
    assert match(grid_of([(1, a)]), batch([(b, 0.9)])) == ()


def test_match_rejects_mixed_canvases():
    # the proposal's box lies inside the grid, so only the canvas check can notice
    labels = grid_of([(1, rect_grid(16, 16, 0, 0, 4, 4))])
    props = [(rect_grid(16, 20, 10, 10, 4, 4), 0.5)]
    with pytest.raises(ExchangeFormatError) as exc:  # a ValueError
        match(labels, batch(props))
    assert str(exc.value) == "line 1: whole-image record is 16x20, image is 16x16"


def test_match_greedy_two_by_two():
    # objects [0, 100) and [100, 125) of one row; each proposal overlaps both
    width = 200
    labels = grid_of([(1, interval_grid(width, 0, 100)), (2, interval_grid(width, 100, 125))])
    p1 = (interval_grid(width, 0, 125), 0.9)
    p2 = (interval_grid(width, 50, 125), 0.8)
    ious = {(g, pi): iou for iou, g, pi in ref_pairs(labels, [p1[0], p2[0]])}
    assert ious == {(1, 0): 0.8, (1, 1): 0.4, (2, 1): 25 / 75, (2, 0): 0.2}
    got = match(labels, batch([p1, p2]))
    assert got == ((1, 0, 0.8), (2, 1, 25 / 75))
    # exhaustive check: greedy differs from the optimal assignment only in
    # total IoU, never in cardinality
    best_total = max(
        ious[(1, pa)] + ious[(2, pb)]
        for pa, pb in itertools.permutations((0, 1))
    )
    greedy_total = sum(iou for _, _, iou in got)
    assert len(got) == 2
    assert best_total >= greedy_total


def test_match_tie_breaks_deterministic():
    # two equal objects under two identical proposals, every IoU 0.5: the
    # lower id takes the lower index
    labels = np.zeros((16, 16), np.int32)
    labels[2:7, 2:7], labels[2:7, 7:12] = 4, 2
    m = rect_grid(16, 16, 2, 2, 10, 5)
    got = match(labels, batch([(m, 0.5), (m, 0.5)]))
    assert got == ((2, 0, 0.5), (4, 1, 0.5))


def test_average_recall_examples():
    gt = [(1, interval_grid(200, 0, 100))]
    for stop, expected in ((100, 1.0), (60, 0.3), (49, 0.0), (0, 0.0)):
        props = [(interval_grid(200, 0, stop), 0.5)] if stop else []
        assert evaluate_dataset([score_image(grid_of(gt), batch(props))]).ar_at_100 == expected
        assert average_recall([1], match(grid_of(gt), batch(props))) == expected


def test_recall_curve_non_increasing():
    gids = [1, 2, 3]
    ious = {1: 0.55, 2: 0.8, 3: 0.95}
    curve = [
        sum(1 for g in gids if ious[g] >= t) / len(gids) for t in IOU_THRESHOLDS
    ]
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def make_three_category_image(width=120):
    # areas 100 (XS), 600 (S), 1200 (M) as 1-row-stacked rectangles
    gt = [
        (1, rect_grid(width, 60, 0, 0, 10, 10)),
        (2, rect_grid(width, 60, 20, 0, 30, 20)),
        (3, rect_grid(width, 60, 60, 0, 40, 30)),
    ]
    assert [size_category(int(g.sum())) for _, g in gt] == [SizeCategory.XS, SizeCategory.S, SizeCategory.M]
    return gt


def test_evaluate_perfect_proposals():
    gt = make_three_category_image()
    props = [(g, 1.0) for _, g in gt]
    report = evaluate_dataset([score_image(grid_of(gt), batch(props))], system="perfect")
    assert report.ar_at_10 == 1.0
    assert report.ar_at_100 == 1.0
    assert report.ar_xs_at_100 == 1.0
    assert report.ar_s_at_100 == 1.0
    assert report.ar_m_at_100 == 1.0
    assert report.gt_counts == {"XS": 1, "S": 1, "M": 1}


def test_evaluate_mixed_categories():
    xs = (1, rect_grid(120, 60, 0, 0, 10, 10))
    m = (2, rect_grid(120, 60, 40, 0, 40, 30))
    props = [(m[1], 0.9)]
    report = evaluate_dataset([score_image(grid_of([xs, m]), batch(props))])
    assert report.ar_at_100 == 0.5
    assert report.ar_xs_at_100 == 0.0
    assert report.ar_m_at_100 == 1.0
    assert report.ar_s_at_100 is None
    assert report.gt_counts == {"XS": 1, "S": 0, "M": 1}


def test_evaluate_no_ground_truth_at_all():
    props = [(rect_grid(32, 32, 0, 0, 4, 4), 0.5)]
    report = evaluate_dataset([score_image(np.zeros((32, 32), np.int32), batch(props))])
    assert report.ar_at_10 is None and report.ar_at_100 is None


def test_fastmask_sim_gives_all_zero_report():
    scenes = [generate_scene(SceneSpec(width=1280, height=720, n_apples=20, n_leaves=30, seed=s)) for s in (1, 2)]
    scored = [score_image(sc.instances.pixels, run_whole(sc, preset("fastmask"))) for sc in scenes]
    report = evaluate_dataset(scored, system="fastmask")
    for cell in (report.ar_at_10, report.ar_at_100, report.ar_xs_at_100, report.ar_s_at_100, report.ar_m_at_100):
        assert cell == 0.0


@st.composite
def band_profiles(draw):
    """A preset, or levels, fill band and input size drawn at random; jitter and noise stay 0."""
    name = draw(st.sampled_from([*PRESET_LEVELS, None]))
    if name is not None:
        return preset(name)
    fill_min, fill_max = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2, unique=True)))
    return DetectorProfile("drawn", draw(st.sets(st.sampled_from(ALLOWED_LEVELS), min_size=1)),
                           input_w=draw(st.integers(8, 2000)), input_h=draw(st.integers(8, 2000)),
                           window_cells=draw(st.integers(1, 12)), fill_min=fill_min, fill_max=fill_max,
                           seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=60, deadline=None)
@given(spec=st.builds(SceneSpec, width=st.integers(1, 200), height=st.integers(1, 150), n_apples=st.integers(0, 60),
                      radius_min=st.sampled_from([2.0, 5.0]), radius_max=st.sampled_from([12.0, 24.0, 40.0]),
                      n_leaves=st.integers(0, 10), min_visible=st.integers(1, 20), seed=st.integers(0, 2**64 - 1)),
       profile=band_profiles(), spare=st.integers(0, 40))
def test_whole_image_recall_at_half_iou_is_the_detectable_band(spec, profile, spare):
    # Without jitter or noise a proposal is its object's visible mask, and the
    # masks are disjoint, so NMS keeps them all and top-k cuts none: an object
    # is recalled exactly when its side, as the detector rescales it, is in band.
    scene = generate_scene(spec)
    top_k = max(1, min(len(scene.objects) + spare, 100))
    recalled = {g for g, _, iou in match(scene.instances.pixels, run_whole(scene, profile, top_k=top_k)) if iou >= 0.5}
    scale = min(profile.input_w / scene.width, profile.input_h / scene.height)  # simulate's expression
    s_min, s_max = detectable_range(profile)
    assert recalled == {o.instance_id for o in scene.objects
                        if s_min <= max(o.mask.bbox.w, o.mask.bbox.h) * scale <= s_max}


def test_ar_at_100_counts_the_100th_proposal_and_not_the_101st():
    # the object's only match ranks after proposals over background only
    labels = np.zeros((8, 20), np.int32)
    labels[1:5, 1:5] = 7
    only_match = (labels == 7, 0.5)
    decoy = (rect_grid(20, 8, 12, 2, 3, 3), 0.9)
    for decoys, recall in ((99, 1.0), (100, 0.0)):
        report = evaluate_dataset([score_image(labels, batch([decoy] * decoys + [only_match]))])
        assert (report.ar_at_10, report.ar_at_100) == (0.0, recall)


def test_budget_monotonicity_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        per_pkg, _ = make_random_instance(rng)
        report = evaluate_dataset(score_image(labels, batch(props)) for labels, props in per_pkg)
        if report.ar_at_10 is not None:
            assert report.ar_at_10 <= report.ar_at_100


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        per_pkg, per_oracle = make_random_instance(rng)
        got = evaluate_dataset(score_image(labels, batch(props)) for labels, props in per_pkg)
        ref = oracle_report(per_oracle)
        assert got.ar_at_10 == ref["ar_at_10"]
        assert got.ar_at_100 == ref["ar_at_100"]
        assert got.ar_xs_at_100 == ref["ar_xs_at_100"]
        assert got.ar_s_at_100 == ref["ar_s_at_100"]
        assert got.ar_m_at_100 == ref["ar_m_at_100"]
        assert got.gt_counts == ref["gt_counts"]


def test_raising_assigned_iou_never_lowers_ar():
    gt = [(1, interval_grid(200, 0, 100)), (2, interval_grid(200, 100, 200))]
    second = (interval_grid(200, 100, 170), 0.5)  # IoU 0.7
    first = [(interval_grid(200, 0, stop), 0.5) for stop in (55, 80)]
    low, high = (evaluate_dataset([score_image(grid_of(gt), batch([p, second]))]).ar_at_100 for p in first)
    assert high >= low
    assert low == average_recall([1, 2], ((1, 0, 0.55), (2, 1, 0.7)))


def test_category_restriction_partitions_matches():
    # disjoint gt of each category, proposals disjoint too: per-category
    # matched counts sum to the unrestricted matched count
    gt = make_three_category_image()
    props = [(g, 0.5 + 0.1 * i) for i, (_, g) in enumerate(gt)]
    full = match(grid_of(gt), batch(props))
    per_cat = 0
    for cat in SizeCategory:
        sub = [(gid, g) for gid, g in gt if size_category(int(g.sum())) is cat]
        per_cat += len(match(grid_of(sub), batch(props)))
    assert per_cat == len(full)


def test_report_formats():
    gt = make_three_category_image()
    props = [(g, 1.0) for _, g in gt]
    report = evaluate_dataset([score_image(grid_of(gt), batch(props))], system="sys1")
    text = report_text([report])
    header = text.splitlines()[0]
    assert header.split() == ["System", "AR@10", "AR@100", "AR^XS@100", "AR^S@100", "AR^M@100"]
    assert "1.000" in text
    csv = report_csv([report])
    assert csv.splitlines()[0].startswith("system,ar_at_10,ar_at_100")
    import json

    doc = json.loads(report_json([report]))
    assert doc["reports"][0]["system"] == "sys1"
    assert doc["reports"][0]["ar_at_100"] == 1.0
    assert doc["budgets"] == [10, 100]


@pytest.mark.parametrize("system", ["tiled,v2", 'say "hi"', "a\nb"])
def test_csv_quotes_system_name(system):
    report = evaluate_dataset([score_image(grid_of(make_three_category_image()), batch([]))], system=system)
    header, row = csv.reader(io.StringIO(report_csv([report])))
    assert len(header) == len(row) == 9 and row[0] == system


def test_absent_cells_render_as_dash_and_null():
    xs = (1, rect_grid(64, 64, 0, 0, 5, 5))
    report = evaluate_dataset([score_image(grid_of([xs]), batch([]))], system="empty")
    assert "-" in report_text([report])
    import json

    doc = json.loads(report_json([report]))
    assert doc["reports"][0]["ar_s_at_100"] is None




def _overlay_scene():
    scene = generate_scene(SceneSpec(width=160, height=120, n_apples=6, n_leaves=0, seed=13))
    assert scene.instances.pixels.any()
    return scene


def _objects(labels):
    """(id, grid) of each object of an instance grid, by id."""
    return [(gid, labels == gid) for gid in sorted(set(labels.ravel().tolist()) - {0})]


def test_overlay_marks_misses_red():
    scene = _overlay_scene()
    out = render_overlay(scene.image, scene.instances.pixels, batch([]))
    changed = np.any(out.pixels != scene.image.pixels, axis=2)
    red = np.all(out.pixels == (255, 0, 0), axis=2)
    assert changed.any()
    assert np.array_equal(changed, red)  # misses only add red contours


def test_overlay_perfect_has_no_red_and_fills_centroid():
    scene = _overlay_scene()
    gt = _objects(scene.instances.pixels)
    out = render_overlay(scene.image, scene.instances.pixels, batch([(g, 1.0) for _, g in gt]))
    red = np.all(out.pixels == (255, 0, 0), axis=2)
    assert not red.any()
    for _, grid in gt:
        ys, xs = np.nonzero(grid)
        cy, cx = int(np.mean(ys)), int(np.mean(xs))
        if grid[cy, cx]:  # centroid inside the mask for these blobs
            assert tuple(out.pixels[cy, cx]) != tuple(scene.image.pixels[cy, cx])


def test_overlay_requires_rgb():
    gray = RasterImage(np.zeros((8, 8), np.uint16))
    with pytest.raises(ValueError):
        render_overlay(gray, np.zeros((8, 8), np.int32), batch([]))


def _ref_overlay(pixels, labels, grids):
    """The overlay drawn on the full canvas from the reference pairs: each matched
    proposal's grid blended and outlined; misses in red."""
    def contour(grid):  # foreground with a 4-neighbor outside the grid or off the canvas
        p = np.pad(grid, 1)
        return grid & ~(p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:])

    by_gt = {g: pi for g, pi, _ in greedy_assign(ref_pairs(labels, grids))}
    canvas = pixels.astype(int)
    for gid in sorted(set(labels.ravel().tolist()) - {0}):
        if gid in by_gt:
            color = np.array(evaluation._PALETTE[gid % len(evaluation._PALETTE)])
            grid = grids[by_gt[gid]]
            canvas[grid] = (canvas[grid] + color) // 2
            canvas[contour(grid)] = color
        else:
            canvas[contour(labels == gid)] = evaluation._MISS_COLOR
    return canvas.astype(np.uint8)


def test_overlay_matches_full_canvas_drawing_at_edges_and_holes():
    rng = np.random.default_rng(31)
    labels = np.zeros((20, 24), np.int32)
    labels[:5, :6] = 3  # top-left corner
    labels[15:, 18:] = 5  # bottom-right corner
    labels[7:13, 8:16] = 9
    labels[9:11, 10:14] = 0  # a hole
    labels[8:12, :3] = 14  # left edge
    labels[:3, 20:] = 12  # top-right corner, missed
    holed = labels == 5
    holed[17, 20] = False
    props = [
        (labels == 3, 0.9),
        (holed, 0.8),
        (shifted(labels == 9, 1, 1), 0.7),
        (shifted(labels == 14, -1, 0), 0.6),
        (rect_grid(24, 20, 20, 6, 4, 4), 0.5),  # right edge, over background only
    ]
    image = RasterImage(rng.integers(0, 256, (20, 24, 3), dtype=np.uint8))
    assert [g for g, _, _ in match(labels, batch(props))] == [3, 5, 14, 9]
    want = _ref_overlay(image.pixels, labels, [g for g, _ in props])
    assert np.array_equal(render_overlay(image, labels, batch(props)).pixels, want)

    for _ in range(40):  # objects cut by others, shifted and clipped at the edges, and rectangles
        per_pkg, _ = make_random_instance(rng)
        for labels, props in per_pkg:
            image = RasterImage(rng.integers(0, 256, (*labels.shape, 3), dtype=np.uint8))
            got = render_overlay(image, labels, batch(props)).pixels
            assert np.array_equal(got, _ref_overlay(image.pixels, labels, [g for g, _ in props]))


@st.composite
def overlay_cases(draw):
    """(labels, proposal grids, seed of the image's pixels): a random label
    grid and up to six random records on its canvas, among them bands as wide
    as the canvas whose runs wrap rows, records with holes, and records that
    touch every edge."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 14))
    labels = draw(hnp.arrays(np.int32, (h, w), elements=st.sampled_from([0, 0, 1, 2, 3, 7, 300])))
    grids = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "band", "holed", "edges", "object"]))
        if kind == "band":  # full rows, begun and ended mid-row: runs go on past row ends
            y0 = draw(st.integers(0, h - 1))
            y1 = draw(st.integers(y0 + 1, h))
            grid = np.zeros((h, w), bool)
            grid[y0:y1] = True
            grid[y0, : draw(st.integers(0, w - 1))] = False
            grid[y1 - 1, draw(st.integers(1, w)) :] = False
        elif kind == "holed":  # a box with a pixel out of it
            grid = rect_grid(w, h, draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)),
                             draw(st.integers(1, w)), draw(st.integers(1, h)))
            grid[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = False
        elif kind == "edges":  # a pixel on each canvas edge
            grid = draw(hnp.arrays(np.bool_, (h, w)))
            grid[0, draw(st.integers(0, w - 1))] = grid[-1, draw(st.integers(0, w - 1))] = True
            grid[draw(st.integers(0, h - 1)), 0] = grid[draw(st.integers(0, h - 1)), -1] = True
        elif kind == "object":  # an object's pixels, moved
            grid = shifted(labels == draw(st.sampled_from([1, 2, 3, 7, 300])),
                           draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        else:
            grid = draw(hnp.arrays(np.bool_, (h, w)))
        if grid.any():
            grids.append(grid)
    return labels, grids, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(overlay_cases())
@example((np.ones((2, 3), np.int32), [np.array([[0, 1, 1], [1, 1, 0]], bool)], 0))  # a run across a row end
@example((np.zeros((2, 2), np.int32), [np.ones((2, 2), bool)], 1))  # nothing to match
# a missed ring, the hole in it
@example((np.array([[0, 0, 0, 0, 0], [0, 3, 3, 3, 0], [0, 3, 0, 3, 0], [0, 3, 3, 3, 0], [0, 0, 0, 0, 0]], np.int32),
          [], 2))
# a missed id in two pieces on the left and right edges, beside a matched one
@example((np.array([[7, 0, 0, 0, 0, 7], [7, 0, 2, 2, 0, 7], [0, 0, 2, 2, 0, 0]], np.int32),
          [np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0]], bool)], 3))
def test_overlay_matches_the_full_canvas_drawing(case):
    labels, grids, seed = case
    image = RasterImage(np.random.default_rng(seed).integers(0, 256, (*labels.shape, 3), dtype=np.uint8))
    props = [(g, (k % 5) / 4) for k, g in enumerate(grids)]
    got = render_overlay(image, labels, batch(props)).pixels
    assert np.array_equal(got, _ref_overlay(image.pixels, labels, grids))


def kernel_pairs(labels, props):
    """The full pair list of the pair path that eval and overlay share."""
    ids, objects = evaluation._truth(labels)
    return evaluation._pairs(ids, objects, place(batch(props), objects.width, objects.height))


def grid_pairs(obj, record):
    """The kernel's pairs of one object, the foreground of grid ``obj``, and one
    record whose mask is grid ``record``."""
    return kernel_pairs(obj.astype(np.int32), [(record, 0.5)])


def test_pair_iou_identity_and_disjoint():
    a = rect_grid(8, 8, 0, 0, 3, 3)
    b = rect_grid(8, 8, 5, 5, 3, 3)
    assert grid_pairs(a, a) == [(1.0, 1, 0)]
    assert grid_pairs(a, b) == []


def test_pair_iou_offset_squares():
    a, b = rect_grid(20, 20, 0, 0, 10, 10), rect_grid(20, 20, 5, 0, 10, 10)
    assert grid_iou(a, b) == 50 / 150
    assert grid_pairs(a, b) == grid_pairs(b, a) == [(50 / 150, 1, 0)]


def test_pair_iou_of_interleaved_masks_whose_boxes_overlap():
    # two checkerboards on one box share no pixel, so they make no pair
    checker = np.indices((6, 6)).sum(axis=0) % 2 == 0
    assert grid_pairs(checker, ~checker) == []
    assert grid_pairs(checker, checker | np.fliplr(np.eye(6, dtype=bool))) == [(18 / 24, 1, 0)]


nonempty_grids = hnp.arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))).filter(np.any)


@given(nonempty_grids.flatmap(lambda g: st.tuples(st.just(g), hnp.arrays(np.bool_, g.shape).filter(np.any))))
def test_pair_iou_is_grid_iou_either_way_round(pair):
    a, b = pair
    expected = [(grid_iou(a, b), 1, 0)] if (a & b).any() else []
    assert grid_pairs(a, b) == grid_pairs(b, a) == expected


@given(nonempty_grids)
def test_pair_iou_of_a_record_on_its_own_object_is_one(grid):
    assert grid_pairs(grid, grid) == [(1.0, 1, 0)]


def test_label_pairs_equal_reference_pairs_random():
    rng = np.random.default_rng(23)
    full_boxes = others = 0
    for _ in range(150):
        per_pkg, _ = make_random_instance(rng)
        for labels, props in per_pkg:
            full = sum(g[tuple(slice(a.min(), a.max() + 1) for a in np.nonzero(g))].all() for g, _ in props)
            full_boxes, others = full_boxes + full, others + len(props) - full
            ranked = sorted(props, key=lambda p: -p[1])[:100]
            got = kernel_pairs(labels, ranked)
            assert got == ref_pairs(labels, [g for g, _ in ranked])
            assert all(type(v) is t for pair in got for v, t in zip(pair, (float, int, int)))
            assert match(labels, batch(ranked)) == tuple(greedy_assign(got))
    # rectangles and shifted objects, some of these cut by other objects
    assert full_boxes and others


def _pairs_both_ways(labels, props):
    got = kernel_pairs(labels, props)
    assert got == ref_pairs(labels, [g for g, _ in props])
    return got


def test_label_pairs_at_the_16_bit_id_limits():
    labels = np.zeros((20, 30), np.uint16)
    labels[2:8, 3:9] = 65535
    labels[10:14, 20:30] = 1
    props = [(rect_grid(30, 20, 3, 2, 6, 3), 0.9), (rect_grid(30, 20, 15, 10, 15, 4), 0.5)]
    assert _pairs_both_ways(labels, props) == [(40 / 60, 1, 1), (0.5, 65535, 0)]


def test_label_pairs_memory_does_not_follow_the_largest_id():
    import tracemalloc

    labels = np.zeros((64, 64), np.int32)
    labels[4:20, 4:20] = 2**31 - 1
    labels[30:40, 30:50] = 7
    props = [(rect_grid(64, 64, 4, 4, 16, 8), 0.9), (rect_grid(64, 64, 30, 30, 20, 10), 0.8)]
    tracemalloc.start()
    try:
        got = kernel_pairs(labels, props)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(1.0, 7, 1), (0.5, 2**31 - 1, 0)]
    assert got == ref_pairs(labels, [g for g, _ in props])
    assert peak < 256 * 1024  # a histogram over ids up to 2**31 - 1 would take 16 GiB


def test_label_pairs_without_objects_or_proposals():
    labels = np.zeros((16, 16), np.int32)
    assert _pairs_both_ways(labels, [(rect_grid(16, 16, 2, 2, 4, 4), 0.5)]) == []
    labels[2:6, 2:6] = 3
    assert _pairs_both_ways(labels, []) == []


def test_label_pairs_skip_a_proposal_over_background():
    labels = np.zeros((16, 16), np.int32)
    labels[0:4, 0:4] = 5
    props = [(rect_grid(16, 16, 8, 8, 6, 6), 0.9), (rect_grid(16, 16, 0, 0, 4, 2), 0.4)]
    assert _pairs_both_ways(labels, props) == [(0.5, 5, 1)]


def test_label_pairs_reject_mixed_canvases():
    # the proposal's box lies inside the grid, so only the canvas check can notice
    labels = np.zeros((16, 16), np.int32)
    labels[0:4, 0:4] = 1
    props = [(rect_grid(16, 20, 10, 10, 4, 4), 0.5)]
    with pytest.raises(ExchangeFormatError) as exc:  # a ValueError
        kernel_pairs(labels, props)
    assert str(exc.value) == "line 1: whole-image record is 16x20, image is 16x16"


def test_evaluate_dataset_reads_ids_not_masks():
    # records as eval reads them: runs, which the pair kernel reads without
    # making a mask (the package makes none from runs)
    rng = np.random.default_rng(5)
    per_pkg, per_oracle = make_random_instance(rng)
    got = evaluate_dataset(score_image(labels, batch(props)) for labels, props in per_pkg)  # read once
    ref = oracle_report(per_oracle)
    assert [getattr(got, f) for _, f, *_ in evaluation.CELLS] == [ref[f] for _, f, *_ in evaluation.CELLS]
    assert got.gt_counts == ref["gt_counts"]


# SHA-256 of the overlay pixels below, as rendered from extract_instances
# objects by the mask-IoU matcher that the instance-map kernel replaced
OVERLAY_DIGEST = "b8aab4c4b7ea8305cb0b808bb4642b4646e39f294966924da5f859268ece58bb"


def test_match_and_overlay_keep_their_pairs_and_pixels():
    scene = _overlay_scene()
    labels = scene.instances.pixels
    # three matches, three misses and a proposal over background only
    grids = [shifted(g, 1, -1) for _, g in _objects(labels)[::2]] + [rect_grid(160, 120, 70, 50, 30, 20)]
    records = batch([(g, 0.9) for g in grids[:-1]] + [(grids[-1], 0.4)])
    got = match(labels, records)
    assert score_image(labels, records)[1] == ref_pairs(labels, grids)
    assert got == tuple(greedy_assign(ref_pairs(labels, grids)))
    assert [g for g, _, _ in got] == [3, 5, 1]
    out = render_overlay(scene.image, labels, records)
    assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == OVERLAY_DIGEST
