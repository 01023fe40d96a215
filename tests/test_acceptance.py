"""Acceptance suite: one test per release criterion, each printing a verdict.

The heavy criteria share a session-scoped directory of 30 full-size scenes
(seed 42, default generator settings). Every timing bound is asserted over
the operations the criterion describes.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from smallprop.annotations import extract_instances
from smallprop.cli import main as cli_main
from smallprop.detector import detectable_range, preset
from smallprop.evaluation import (
    IOU_THRESHOLDS,
    evaluate_dataset,
    score_image,
    match,
)
from smallprop.exchange import ProposalRecord, read_proposals, write_proposals
from smallprop.pipeline import nms, place
from smallprop.prng import stream_seed
from smallprop.synth import SceneSpec, generate_scene, save_scene, scene_stem
from smallprop.tiling import TileGridSpec, plan_grid
from smallprop.masks import crop_mask
from oracles import (embedded, grid_batch, grid_iou, grid_runs, make_random_instance, mask_grid, oracle_report,
                     rect_grid, ref_nms, verify_coverage)


def _cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def _passed(n: int, detail: str) -> None:
    print(f"CRITERION {n} PASS: {detail}")


@pytest.fixture(scope="session")
def scenes30(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes30")
    assert _cli("synth", "--out", out, "--count", 30, "--seed", 42) == 0
    stems = sorted(p.stem for p in out.glob("*.pgm"))
    assert len(stems) == 30
    assert all((out / f"{stem}.ppm").exists() for stem in stems)
    return out


def _eval_cells(scenes, props, prefix, system):
    assert _cli("eval", "--scenes", scenes, "--proposals", props,
                "--out", prefix, "--system", system) == 0
    return json.loads(Path(f"{prefix}.json").read_text())["reports"][0]


def test_criterion_1_metric_exactness():
    t0 = time.monotonic()
    gt = rect_grid(200, 1, 0, 0, 100, 1)
    # single-image AR through the dataset evaluator, one proposal of IoU 1.0, 0.6, 0.49
    for width, expected in ((100, 1.0), (60, 0.3), (49, 0.0)):
        proposal = (rect_grid(200, 1, 0, 0, width, 1), 0.5)
        report = evaluate_dataset([score_image(gt.astype(np.int32), grid_batch([proposal]))])
        assert abs(report.ar_at_100 - expected) <= 1e-9
    # the stated IoUs are realizable exactly with sub-rectangle proposals
    assert grid_iou(gt, rect_grid(200, 1, 0, 0, 60, 1)) == 0.6
    assert grid_iou(gt, rect_grid(200, 1, 0, 0, 49, 1)) == 0.49

    rng = np.random.default_rng(2024)
    for _ in range(200):
        per_pkg, per_oracle = make_random_instance(rng)
        got = evaluate_dataset(score_image(labels, grid_batch(props)) for labels, props in per_pkg)
        ref = oracle_report(per_oracle)
        assert got.ar_at_10 == ref["ar_at_10"]
        assert got.ar_at_100 == ref["ar_at_100"]
        assert got.ar_xs_at_100 == ref["ar_xs_at_100"]
        assert got.ar_s_at_100 == ref["ar_s_at_100"]
        assert got.ar_m_at_100 == ref["ar_m_at_100"]
        assert got.gt_counts == ref["gt_counts"]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(1, f"AR examples exact, 200 oracle instances equal ({elapsed:.1f}s)")


def test_criterion_2_fastmask_zero_row(scenes30, tmp_path):
    t0 = time.monotonic()
    props = tmp_path / "fastmask"
    assert _cli("run", "--scenes", scenes30, "--detector", "fastmask",
                "--mode", "whole", "--out", props) == 0
    row = _eval_cells(scenes30, props, tmp_path / "report_fastmask", "fastmask")
    cells = [row["ar_at_10"], row["ar_at_100"], row["ar_xs_at_100"],
             row["ar_s_at_100"], row["ar_m_at_100"]]
    assert cells == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert all(row["gt_counts"][c] > 0 for c in ("XS", "S", "M"))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passed(2, f"fastmask row is exactly 0.000 everywhere ({elapsed:.1f}s)")


def test_criterion_3_qualitative_ordering(scenes30, tmp_path):
    t0 = time.monotonic()
    systems = {
        "tiled-attentionmask": ("tiled", "attentionmask"),
        "whole-attentionmask-4-16": ("whole", "attentionmask-4-16"),
        "whole-attentionmask": ("whole", "attentionmask"),
    }
    rows = {}
    for name, (mode, det) in systems.items():
        out = tmp_path / name
        assert _cli("run", "--scenes", scenes30, "--detector", det, "--mode", mode,
                    "--jitter", 2, "--objectness-noise", 0.1, "--jobs", 1,
                    "--out", out) == 0
        rows[name] = _eval_cells(scenes30, out, tmp_path / f"report_{name}", name)
    margin = 0.02
    xs = [rows[k]["ar_xs_at_100"] for k in
          ("tiled-attentionmask", "whole-attentionmask-4-16", "whole-attentionmask")]
    ar = [rows[k]["ar_at_100"] for k in
          ("tiled-attentionmask", "whole-attentionmask-4-16", "whole-attentionmask")]
    assert xs[0] - xs[1] >= margin
    assert xs[1] - xs[2] >= margin
    assert xs[2] >= 0.0
    assert ar[0] - ar[1] >= margin
    assert ar[1] - ar[2] >= margin
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _passed(3, "AR^XS {:.3f} > {:.3f} > {:.3f} >= 0; AR@100 {:.3f} > {:.3f} > {:.3f} ({:.1f}s)".format(*xs, *ar, elapsed))


def test_criterion_4_factor_half():
    s_min_base = detectable_range(preset("attentionmask"))[0]
    s_min_ext = detectable_range(preset("attentionmask-4-16"))[0]
    assert s_min_ext == s_min_base / 2
    assert (s_min_base, s_min_ext) == (32.0, 16.0)
    _passed(4, "minimal localizable side halves: 32 -> 16")


def _suite_rle_roundtrip(rng, cases):
    for _ in range(cases):
        h = int(rng.integers(1, 48))
        w = int(rng.integers(1, 48))
        grid = rng.random((h, w)) < rng.random()
        # a mask drawn from the grid's pixels and its crop to the whole canvas each encode the grid's runs
        objects = extract_instances(grid.astype(np.uint8))
        assert len(objects) == grid.any()
        for obj in objects:
            assert np.array_equal(mask_grid(obj.mask), grid)
            assert np.array_equal(mask_grid(crop_mask(obj.mask, 0, 0, w, h)), grid)


def _suite_iou(rng, cases):
    # the IoU that matching reports, one grid as the object and the other as
    # the proposal, either way round, is the exact float of the grid oracle
    for _ in range(cases):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        ga = rng.random((h, w)) < rng.random()
        gb = rng.random((h, w)) < rng.random()
        iou = grid_iou(ga, gb)
        for obj, prop in ((ga, gb), (gb, ga)):
            if prop.any():
                got = match(obj.astype(np.int32), grid_batch([(prop, 0.5)]))
                assert got == (((1, 0, iou),) if iou else ())


def _suite_nms(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(0, 11))
        props = []
        for _ in range(n):
            # corners and sides on a 2 px lattice, so many boxes touch at an
            # edge without overlapping; some are clipped at the canvas border
            x0, y0 = (2 * int(v) for v in rng.integers(0, 15, 2))
            rw, rh = (2 * int(v) for v in rng.integers(1, 7, 2))
            props.append((rect_grid(30, 30, x0, y0, rw, rh), float(rng.integers(0, 1001)) / 1000))
        t = float(rng.integers(2, 10)) / 10
        spans = place(grid_batch(props), 30, 30)
        assert nms(spans, t).tolist() == ref_nms(props, t)
        k = int(rng.integers(1, n + 2))
        assert nms(spans, t, k).tolist() == ref_nms(props, t)[:k]
        kept = [props[i] for i in ref_nms(props, t)]
        assert nms(place(grid_batch(kept), 30, 30), t).tolist() == list(range(len(kept)))
        for i, (p, _) in enumerate(kept):
            for q, _ in kept[:i]:
                assert grid_iou(p, q) < t


def _suite_grid(rng, cases):
    for _ in range(cases):
        img_w = int(rng.integers(1, 40))
        img_h = int(rng.integers(1, 40))
        tw = int(rng.integers(1, img_w + 1))
        th = int(rng.integers(1, img_h + 1))
        spec = TileGridSpec(tw, th, int(rng.integers(1, tw + 1)), int(rng.integers(1, th + 1)))
        tiles = plan_grid(img_w, img_h, spec)
        assert verify_coverage(img_w, img_h, tiles)
        grid = rng.random((img_h, img_w)) < 0.4
        tile = tiles[int(rng.integers(0, len(tiles)))]
        # the grid's pixels as one object (none if it has no pixel), cropped to the tile and put back
        back = np.zeros_like(grid)
        for obj in extract_instances(grid.astype(np.uint8)):
            back = embedded(mask_grid(crop_mask(obj.mask, tile.x0, tile.y0, tile.w, tile.h)), tile, img_w, img_h)
        ref = np.zeros_like(grid)
        ref[tile.y0 : tile.y0 + tile.h, tile.x0 : tile.x0 + tile.w] = (
            grid[tile.y0 : tile.y0 + tile.h, tile.x0 : tile.x0 + tile.w]
        )
        assert np.array_equal(back, ref)


def _suite_ar_monotone(rng, cases):
    for _ in range(cases):
        per_pkg, _ = make_random_instance(rng)
        report = evaluate_dataset(score_image(labels, grid_batch(props)) for labels, props in per_pkg)
        if report.ar_at_10 is not None:
            assert report.ar_at_10 <= report.ar_at_100
        # pooled recall curve is non-increasing in the threshold
        total = sum(len(np.unique(labels[labels != 0])) for labels, _ in per_pkg)
        if total:
            ious = []
            for labels, props in per_pkg:
                ranked = sorted(props, key=lambda p: -p[1])[:100]
                ious.extend(iou for _, _, iou in match(labels, grid_batch(ranked)))
            curve = [sum(1 for v in ious if v >= t) / total for t in IOU_THRESHOLDS]
            assert all(a >= b for a, b in zip(curve, curve[1:]))


def _suite_jobs_determinism(tmp_path, cases):
    pool = []
    for d in range(4):
        scene_dir = tmp_path / f"pool{d}"
        scene_dir.mkdir()
        for i in range(2):
            spec = SceneSpec(width=96, height=64, n_apples=6, n_leaves=3,
                             min_visible=4, seed=stream_seed(900 + d, i))
            save_scene(generate_scene(spec), scene_dir, scene_stem(900 + d, i))
        pool.append(scene_dir)
    grids = (("48x32", "24x16"), ("96x64", "96x64"), ("64x48", "32x24"))
    detectors = ("attentionmask", "attentionmask-4-16", "fastmask")
    for case in range(cases):
        tile, stride = grids[case % len(grids)]
        base = ["run", "--scenes", pool[case % len(pool)], "--mode", "tiled",
                "--tile", tile, "--stride", stride,
                "--detector", detectors[case % len(detectors)],
                "--jitter", case % 4, "--objectness-noise", 0.3,
                "--detector-seed", case, "--nms-iou", (5 + case % 5) / 10]
        snapshots = []
        for jobs in (1, 8):
            out = tmp_path / f"jobs{jobs}"
            if out.exists():
                shutil.rmtree(out)
            assert _cli(*base, "--jobs", jobs, "--out", out) == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1]


def test_criterion_5_property_suites(tmp_path):
    cases = 1000
    t0 = time.monotonic()
    _suite_rle_roundtrip(np.random.default_rng(50), cases)
    _suite_iou(np.random.default_rng(51), cases)
    _suite_nms(np.random.default_rng(52), cases)
    _suite_grid(np.random.default_rng(53), cases)
    _suite_ar_monotone(np.random.default_rng(54), cases)
    _suite_jobs_determinism(tmp_path, cases)
    _passed(5, f"6 property suites x {cases} cases, zero failures ({time.monotonic() - t0:.1f}s)")


def test_criterion_6_degenerate_tiling(tmp_path):
    scenes = tmp_path / "scenes10"
    assert _cli("synth", "--out", scenes, "--count", 10, "--seed", 42) == 0
    outs = {}
    for mode, extra in (("whole", []), ("tiled", ["--tile", "1280x720", "--stride", "1280x720"])):
        out = tmp_path / mode
        assert _cli("run", "--scenes", scenes, "--mode", mode, "--detector", "attentionmask",
                    "--jitter", 2, "--objectness-noise", 0.1, "--detector-seed", 7,
                    *extra, "--out", out) == 0
        outs[mode] = {p.name: p.read_bytes() for p in sorted(out.glob("*.jsonl"))}
    assert len(outs["whole"]) == 10
    assert outs["whole"] == outs["tiled"]
    _passed(6, "one-tile grid output byte-identical to whole-image mode on 10 scenes")


def test_criterion_7_exchange_roundtrip(tmp_path):
    rng = np.random.default_rng(70)
    records = []
    for i in range(10_000):
        w, h = 64, 48
        x0 = int(rng.integers(0, 50))
        y0 = int(rng.integers(0, 36))
        grid = rect_grid(w, h, x0, y0, int(rng.integers(1, 14)), int(rng.integers(1, 12)))
        records.append(ProposalRecord("img", w, h, float(rng.integers(0, 10**6)) / 10**6, grid_runs(grid),
                                      tile_index=int(rng.integers(0, 35)) if i % 3 else None))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "img.jsonl"
    p2 = tmp_path / "b" / "img.jsonl"
    t0 = time.monotonic()
    write_proposals(records, p1)
    records_again = read_proposals(p1).records("img")
    write_proposals(records_again, p2)
    elapsed = time.monotonic() - t0
    assert p1.read_bytes() == p2.read_bytes()
    assert records_again == records
    assert elapsed < 5.0
    _passed(7, f"10k records round-trip byte-stable ({elapsed:.2f}s)")
