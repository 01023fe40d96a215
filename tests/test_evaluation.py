import csv
import hashlib
import io
import itertools

import numpy as np
import pytest

from smallprop import evaluation, masks
from smallprop.annotations import GroundTruthObject, SizeCategory, size_category
from smallprop.detector import Proposal, preset
from smallprop.evaluation import (
    IOU_THRESHOLDS,
    evaluate_dataset,
    score_image,
    match,
    render_overlay,
    report_csv,
    report_json,
    report_text,
)
from smallprop.masks import BinaryMask, shift_mask
from smallprop.pipeline import run_whole
from smallprop.raster import RasterImage
from smallprop.synth import SceneSpec, generate_scene
from oracles import (average_recall, greedy_assign, grid_runs, label_grid, make_random_instance, mask_grid,
                     oracle_report, rect_mask, ref_pairs)


def interval_mask(width, start, stop):
    """Single-row mask covering [start, stop); handy for exact IoUs."""
    return rect_mask(width, 1, start, 0, stop - start, 1)


def gt_from(mask, gid=1):
    return GroundTruthObject.from_mask(gid, mask)


def grid_of(gt):
    """The instance grid of non-overlapping ground truth on its canvas."""
    return label_grid(gt, gt[0].mask.width, gt[0].mask.height)


def test_match_perfect_single_pair():
    m = rect_mask(16, 16, 2, 2, 5, 5)
    assert match(grid_of([gt_from(m)]), [Proposal(m, 0.9)]) == ((1, 0, 1.0),)


def test_match_without_proposals():
    m = rect_mask(16, 16, 2, 2, 5, 5)
    assert match(grid_of([gt_from(m)]), []) == ()


def test_match_zero_iou_never_assigned():
    a = rect_mask(16, 16, 0, 0, 4, 4)
    b = rect_mask(16, 16, 10, 10, 4, 4)
    assert match(grid_of([gt_from(a)]), [Proposal(b, 0.9)]) == ()


def test_match_rejects_mixed_canvases():
    # the proposal's box lies inside the grid, so only the canvas check can notice
    labels = grid_of([gt_from(rect_mask(16, 16, 0, 0, 4, 4))])
    props = [Proposal(rect_mask(16, 20, 10, 10, 4, 4), 0.5)]
    with pytest.raises(ValueError) as exc:
        match(labels, props)
    assert str(exc.value) == "mask dimensions differ: 16x16 vs 16x20"


def test_match_greedy_two_by_two():
    # objects [0, 100) and [100, 125) of one row; each proposal overlaps both
    width = 200
    labels = grid_of([gt_from(interval_mask(width, 0, 100), gid=1), gt_from(interval_mask(width, 100, 125), gid=2)])
    p1 = Proposal(interval_mask(width, 0, 125), 0.9)
    p2 = Proposal(interval_mask(width, 50, 125), 0.8)
    ious = {(g, pi): iou for iou, g, pi in ref_pairs(labels, [p1, p2])}
    assert ious == {(1, 0): 0.8, (1, 1): 0.4, (2, 1): 25 / 75, (2, 0): 0.2}
    got = match(labels, [p1, p2])
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
    m = rect_mask(16, 16, 2, 2, 10, 5)
    got = match(labels, [Proposal(m, 0.5), Proposal(m, 0.5)])
    assert got == ((2, 0, 0.5), (4, 1, 0.5))


def test_average_recall_examples():
    gt = [gt_from(interval_mask(200, 0, 100))]
    for stop, expected in ((100, 1.0), (60, 0.3), (49, 0.0), (0, 0.0)):
        props = [Proposal(interval_mask(200, 0, stop), 0.5)] if stop else []
        assert evaluate_dataset([score_image(grid_of(gt), props)]).ar_at_100 == expected
        assert average_recall(gt, match(grid_of(gt), props)) == expected


def test_recall_curve_non_increasing():
    gt = [gt_from(interval_mask(200, 0, 100), gid=g) for g in (1, 2, 3)]
    ious = {1: 0.55, 2: 0.8, 3: 0.95}
    curve = [
        sum(1 for g in gt if ious[g.instance_id] >= t) / len(gt) for t in IOU_THRESHOLDS
    ]
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def make_three_category_image(width=120):
    # areas 100 (XS), 600 (S), 1200 (M) as 1-row-stacked rectangles
    gt = [
        gt_from(rect_mask(width, 60, 0, 0, 10, 10), 1),
        gt_from(rect_mask(width, 60, 20, 0, 30, 20), 2),
        gt_from(rect_mask(width, 60, 60, 0, 40, 30), 3),
    ]
    assert [size_category(g.mask.area) for g in gt] == [SizeCategory.XS, SizeCategory.S, SizeCategory.M]
    return gt


def test_evaluate_perfect_proposals():
    gt = make_three_category_image()
    props = [Proposal(g.mask, 1.0) for g in gt]
    report = evaluate_dataset([score_image(grid_of(gt), props)], system="perfect")
    assert report.ar_at_10 == 1.0
    assert report.ar_at_100 == 1.0
    assert report.ar_xs_at_100 == 1.0
    assert report.ar_s_at_100 == 1.0
    assert report.ar_m_at_100 == 1.0
    assert report.gt_counts == {"XS": 1, "S": 1, "M": 1}


def test_evaluate_mixed_categories():
    xs = gt_from(rect_mask(120, 60, 0, 0, 10, 10), 1)
    m = gt_from(rect_mask(120, 60, 40, 0, 40, 30), 2)
    props = [Proposal(m.mask, 0.9)]
    report = evaluate_dataset([score_image(grid_of([xs, m]), props)])
    assert report.ar_at_100 == 0.5
    assert report.ar_xs_at_100 == 0.0
    assert report.ar_m_at_100 == 1.0
    assert report.ar_s_at_100 is None
    assert report.gt_counts == {"XS": 1, "S": 0, "M": 1}


def test_evaluate_no_ground_truth_at_all():
    props = [Proposal(rect_mask(32, 32, 0, 0, 4, 4), 0.5)]
    report = evaluate_dataset([score_image(np.zeros((32, 32), np.int32), props)])
    assert report.ar_at_10 is None and report.ar_at_100 is None


def test_fastmask_sim_gives_all_zero_report():
    scenes = [generate_scene(SceneSpec(width=1280, height=720, n_apples=20, n_leaves=30, seed=s)) for s in (1, 2)]
    scored = [score_image(sc.instances.pixels, run_whole(sc, preset("fastmask"))) for sc in scenes]
    report = evaluate_dataset(scored, system="fastmask")
    for cell in (report.ar_at_10, report.ar_at_100, report.ar_xs_at_100, report.ar_s_at_100, report.ar_m_at_100):
        assert cell == 0.0


def test_budget_monotonicity_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        per_pkg, _ = make_random_instance(rng)
        report = evaluate_dataset(score_image(*image) for image in per_pkg)
        if report.ar_at_10 is not None:
            assert report.ar_at_10 <= report.ar_at_100


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        per_pkg, per_oracle = make_random_instance(rng)
        got = evaluate_dataset(score_image(*image) for image in per_pkg)
        ref = oracle_report(per_oracle)
        assert got.ar_at_10 == ref["ar_at_10"]
        assert got.ar_at_100 == ref["ar_at_100"]
        assert got.ar_xs_at_100 == ref["ar_xs_at_100"]
        assert got.ar_s_at_100 == ref["ar_s_at_100"]
        assert got.ar_m_at_100 == ref["ar_m_at_100"]
        assert got.gt_counts == ref["gt_counts"]


def test_raising_assigned_iou_never_lowers_ar():
    gt = [gt_from(interval_mask(200, 0, 100), 1), gt_from(interval_mask(200, 100, 200), 2)]
    second = Proposal(interval_mask(200, 100, 170), 0.5)  # IoU 0.7
    low = evaluate_dataset([score_image(grid_of(gt), [Proposal(interval_mask(200, 0, 55), 0.5), second])]).ar_at_100
    high = evaluate_dataset([score_image(grid_of(gt), [Proposal(interval_mask(200, 0, 80), 0.5), second])]).ar_at_100
    assert high >= low
    assert low == average_recall(gt, ((1, 0, 0.55), (2, 1, 0.7)))


def test_category_restriction_partitions_matches():
    # disjoint gt of each category, proposals disjoint too: per-category
    # matched counts sum to the unrestricted matched count
    gt = make_three_category_image()
    props = [Proposal(g.mask, 0.5 + 0.1 * i) for i, g in enumerate(gt)]
    full = match(grid_of(gt), props)
    per_cat = 0
    for cat in SizeCategory:
        sub = [g for g in gt if size_category(g.mask.area) is cat]
        per_cat += len(match(grid_of(sub), props))
    assert per_cat == len(full)


def test_report_formats():
    gt = make_three_category_image()
    props = [Proposal(g.mask, 1.0) for g in gt]
    report = evaluate_dataset([score_image(grid_of(gt), props)], system="sys1")
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
    report = evaluate_dataset([score_image(grid_of(make_three_category_image()), [])], system=system)
    header, row = csv.reader(io.StringIO(report_csv([report])))
    assert len(header) == len(row) == 9 and row[0] == system


def test_absent_cells_render_as_dash_and_null():
    xs = gt_from(rect_mask(64, 64, 0, 0, 5, 5), 1)
    report = evaluate_dataset([score_image(grid_of([xs]), [])], system="empty")
    assert "-" in report_text([report])
    import json

    doc = json.loads(report_json([report]))
    assert doc["reports"][0]["ar_s_at_100"] is None




def _overlay_scene():
    scene = generate_scene(SceneSpec(width=160, height=120, n_apples=6, n_leaves=0, seed=13))
    assert scene.objects
    return scene


def test_overlay_marks_misses_red():
    scene = _overlay_scene()
    out = render_overlay(scene.image, scene.instances.pixels, [])
    changed = np.any(out.pixels != scene.image.pixels, axis=2)
    red = np.all(out.pixels == (255, 0, 0), axis=2)
    assert changed.any()
    assert np.array_equal(changed, red)  # misses only add red contours


def test_overlay_perfect_has_no_red_and_fills_centroid():
    scene = _overlay_scene()
    props = [Proposal(o.mask, 1.0) for o in scene.objects]
    out = render_overlay(scene.image, scene.instances.pixels, props)
    red = np.all(out.pixels == (255, 0, 0), axis=2)
    assert not red.any()
    for obj in scene.objects:
        grid = mask_grid(obj.mask)
        ys, xs = np.nonzero(grid)
        cy, cx = int(np.mean(ys)), int(np.mean(xs))
        if grid[cy, cx]:  # centroid inside the mask for these blobs
            assert tuple(out.pixels[cy, cx]) != tuple(scene.image.pixels[cy, cx])


def test_overlay_requires_rgb():
    gray = RasterImage(np.zeros((8, 8), np.uint16))
    with pytest.raises(ValueError):
        render_overlay(gray, np.zeros((8, 8), np.int32), [])


def _ref_overlay(pixels, labels, proposals):
    """The overlay drawn on the full canvas from the reference pairs: each matched
    proposal's grid, decoded from its runs, blended and outlined; misses in red."""
    def contour(grid):  # foreground with a 4-neighbor outside the grid or off the canvas
        p = np.pad(grid, 1)
        return grid & ~(p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:])

    by_gt = {g: pi for g, pi, _ in greedy_assign(ref_pairs(labels, proposals))}
    canvas = pixels.astype(int)
    for gid in sorted(set(labels.ravel().tolist()) - {0}):
        if gid in by_gt:
            color = np.array(evaluation._PALETTE[gid % len(evaluation._PALETTE)])
            grid = mask_grid(proposals[by_gt[gid]].mask)
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
        Proposal(BinaryMask(24, 20, grid_runs(labels == 3)), 0.9),
        Proposal(BinaryMask.from_bitmap(24, 20, 0, 0, holed), 0.8),
        Proposal(shift_mask(BinaryMask.from_bitmap(24, 20, 0, 0, labels == 9), 1, 1), 0.7),
        Proposal(shift_mask(BinaryMask(24, 20, grid_runs(labels == 14)), -1, 0), 0.6),
        Proposal(rect_mask(24, 20, 20, 6, 4, 4), 0.5),  # right edge, over background only
    ]
    image = RasterImage(rng.integers(0, 256, (20, 24, 3), dtype=np.uint8))
    assert [g for g, _, _ in match(labels, props)] == [3, 5, 14, 9]
    assert np.array_equal(render_overlay(image, labels, props).pixels, _ref_overlay(image.pixels, labels, props))

    for _ in range(40):  # objects cut by others, shifted and clipped at the edges, and rectangles
        per_pkg, _ = make_random_instance(rng)
        for labels, props in per_pkg:
            image = RasterImage(rng.integers(0, 256, (*labels.shape, 3), dtype=np.uint8))
            got = render_overlay(image, labels, props).pixels
            assert np.array_equal(got, _ref_overlay(image.pixels, labels, props))


def kernel_pairs(labels, props):
    """The full pair list of the pair kernel that eval, match and overlay share."""
    return evaluation._pairs_under(labels, *evaluation._objects(labels), props)


def test_label_pairs_equal_reference_pairs_random():
    rng = np.random.default_rng(23)
    full_boxes = others = 0
    for _ in range(150):
        per_pkg, _ = make_random_instance(rng, with_oracle=False)
        for labels, props in per_pkg:
            full = sum(p.mask.area == p.mask.bbox.w * p.mask.bbox.h for p in props)
            full_boxes, others = full_boxes + full, others + len(props) - full
            ranked = sorted(props, key=lambda p: -p.objectness)[:100]
            got = kernel_pairs(labels, ranked)
            assert got == ref_pairs(labels, ranked)
            assert all(type(v) is t for pair in got for v, t in zip(pair, (float, int, int)))
            assert match(labels, ranked) == tuple(greedy_assign(got))
    # rectangles and shifted objects, some of these cut by other objects
    assert full_boxes and others


def _pairs_both_ways(labels, props):
    got = kernel_pairs(labels, props)
    assert got == ref_pairs(labels, props)
    return got


def test_label_pairs_at_the_16_bit_id_limits():
    labels = np.zeros((20, 30), np.uint16)
    labels[2:8, 3:9] = 65535
    labels[10:14, 20:30] = 1
    props = [Proposal(rect_mask(30, 20, 3, 2, 6, 3), 0.9), Proposal(rect_mask(30, 20, 15, 10, 15, 4), 0.5)]
    assert _pairs_both_ways(labels, props) == [(40 / 60, 1, 1), (0.5, 65535, 0)]


def test_label_pairs_memory_does_not_follow_the_largest_id():
    import tracemalloc

    labels = np.zeros((64, 64), np.int32)
    labels[4:20, 4:20] = 2**31 - 1
    labels[30:40, 30:50] = 7
    props = [Proposal(rect_mask(64, 64, 4, 4, 16, 8), 0.9), Proposal(rect_mask(64, 64, 30, 30, 20, 10), 0.8)]
    tracemalloc.start()
    try:
        got = kernel_pairs(labels, props)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(1.0, 7, 1), (0.5, 2**31 - 1, 0)]
    assert got == ref_pairs(labels, props)
    assert peak < 256 * 1024  # a histogram over ids up to 2**31 - 1 would take 16 GiB


def test_label_pairs_without_objects_or_proposals():
    labels = np.zeros((16, 16), np.int32)
    assert _pairs_both_ways(labels, [Proposal(rect_mask(16, 16, 2, 2, 4, 4), 0.5)]) == []
    labels[2:6, 2:6] = 3
    assert _pairs_both_ways(labels, []) == []


def test_label_pairs_skip_a_proposal_over_background():
    labels = np.zeros((16, 16), np.int32)
    labels[0:4, 0:4] = 5
    props = [Proposal(rect_mask(16, 16, 8, 8, 6, 6), 0.9), Proposal(rect_mask(16, 16, 0, 0, 4, 2), 0.4)]
    assert _pairs_both_ways(labels, props) == [(0.5, 5, 1)]


def test_label_pairs_reject_mixed_canvases():
    # the proposal's box lies inside the grid, so only the canvas check can notice
    labels = np.zeros((16, 16), np.int32)
    labels[0:4, 0:4] = 1
    props = [Proposal(rect_mask(16, 20, 10, 10, 4, 4), 0.5)]
    with pytest.raises(ValueError) as exc:
        kernel_pairs(labels, props)
    assert str(exc.value) == "mask dimensions differ: 16x16 vs 16x20"


def _forbidden(*args):
    raise AssertionError("a mask was decoded or a mask IoU taken")


def test_evaluate_dataset_reads_ids_not_masks(monkeypatch):
    rng = np.random.default_rng(5)
    per_pkg, per_oracle = make_random_instance(rng)
    # masks read from runs, as eval reads them: their pixels are decoded on first use only
    per_runs = [(labels, [Proposal(BinaryMask(p.mask.width, p.mask.height, p.mask.runs), p.objectness)
                          for p in props]) for labels, props in per_pkg]
    monkeypatch.setattr(evaluation, "mask_iou", _forbidden)
    monkeypatch.setattr(masks, "_decode", _forbidden)
    got = evaluate_dataset(score_image(*image) for image in per_runs)  # read once
    ref = oracle_report(per_oracle)
    assert [getattr(got, f) for _, f, *_ in evaluation.CELLS] == [ref[f] for _, f, *_ in evaluation.CELLS]
    assert got.gt_counts == ref["gt_counts"]


# SHA-256 of the overlay pixels below, as rendered from extract_instances
# objects by the mask-IoU matcher that the instance-map kernel replaced
OVERLAY_DIGEST = "b8aab4c4b7ea8305cb0b808bb4642b4646e39f294966924da5f859268ece58bb"


def test_match_and_overlay_take_no_mask_iou(monkeypatch):
    scene = _overlay_scene()
    labels = scene.instances.pixels
    objs = scene.objects
    # three matches, three misses and a proposal over background only
    props = [Proposal(shift_mask(o.mask, 1, -1), 0.9) for o in objs[::2]]
    props.append(Proposal(rect_mask(160, 120, 70, 50, 30, 20), 0.4))
    monkeypatch.setattr(evaluation, "mask_iou", _forbidden)
    got = match(labels, props)
    assert got == tuple(greedy_assign(ref_pairs(labels, props)))
    assert [g for g, _, _ in got] == [3, 5, 1]
    out = render_overlay(scene.image, labels, props)
    assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == OVERLAY_DIGEST
