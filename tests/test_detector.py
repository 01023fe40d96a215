import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smallprop.annotations import extract_instances
from smallprop.detector import (
    DetectorProfile,
    _emitted,
    _moves,
    band_score,
    detectable_range,
    preset,
    simulate,
)
from smallprop.prng import randint, stream_seed
from oracles import grid_iou, mask_grid, rect_grid, ref_emitted, ref_splitmix64, ref_stream_seed, shifted


def gt_square(w, h, x0, y0, side, instance_id=1):
    """The ground-truth object of a square clipped to a w x h canvas, as extraction makes it."""
    (obj,) = extract_instances(rect_grid(w, h, x0, y0, side, side) * np.uint16(instance_id))
    return obj


def emitted(proposals):
    """(objectness, runs) of each of ``proposals``."""
    return [(p.objectness, p.mask.runs) for p in proposals]


def test_detectable_range_presets():
    assert detectable_range(preset("attentionmask")) == (32.0, 1280.0)
    assert detectable_range(preset("attentionmask-4-16")) == (16.0, 160.0)
    assert detectable_range(preset("fastmask")) == (64.0, 1280.0)


def test_halving_base_level_halves_minimum_side():
    base = preset("attentionmask")
    extended = DetectorProfile("ext", levels=base.levels + (4,))
    assert detectable_range(extended)[0] == detectable_range(base)[0] / 2
    assert detectable_range(preset("attentionmask-4-16"))[0] == detectable_range(base)[0] / 2


def test_profile_validation():
    with pytest.raises(ValueError):
        DetectorProfile("x", levels=())
    with pytest.raises(ValueError):
        DetectorProfile("x", levels=(7,))
    with pytest.raises(ValueError):
        DetectorProfile("x", levels=(8,), fill_min=0.9, fill_max=0.5)
    with pytest.raises(ValueError):
        DetectorProfile("x", levels=(8,), objectness_noise=1.0)
    with pytest.raises(ValueError):
        preset("nope")


def test_simulate_empty_gt():
    assert simulate(preset("attentionmask"), 320, 240, []) == []


def test_simulate_takes_masks_on_the_region_canvas():
    with pytest.raises(ValueError, match="must lie on the 32x24 region canvas"):
        simulate(preset("attentionmask"), 32, 24, [gt_square(64, 48, 40, 10, 12)])


def test_fastmask_blind_below_its_band():
    # whole 1280x720 region at input 1280x960 keeps scale 1.0; sides < 60 < 64
    gt = [gt_square(1280, 720, 40 * i + 10, 50, 55, instance_id=i + 1) for i in range(5)]
    assert simulate(preset("fastmask"), 1280, 720, gt) == []


def test_tile_upscaling_brings_small_gt_into_band():
    # side 20 in a 320x240 tile: scale 4 -> effective 80 within [32, 1280]
    gt = [gt_square(320, 240, 50, 50, 20)]
    out = simulate(preset("attentionmask"), 320, 240, gt)
    assert len(out) == 1
    # the same object at whole-image scale stays below the 32 px minimum
    gt_whole = [gt_square(1280, 720, 50, 50, 20)]
    assert simulate(preset("attentionmask"), 1280, 720, gt_whole) == []


def test_zero_jitter_reproduces_gt_masks():
    gt = [gt_square(320, 240, 30, 40, 25, instance_id=3)]
    out = simulate(preset("attentionmask", jitter=0), 320, 240, gt)
    assert len(out) == 1
    assert out[0].mask.bbox == gt[0].mask.bbox and out[0].mask.runs == gt[0].mask.runs
    assert grid_iou(mask_grid(out[0].mask), mask_grid(gt[0].mask)) == 1.0


def test_jitter_translates_within_bound():
    gt = [gt_square(320, 240, 100, 100, 30, instance_id=9)]
    out = simulate(preset("attentionmask", jitter=3, seed=5), 320, 240, gt)
    box = out[0].mask.bbox
    assert abs(box.x - 100) <= 3 and abs(box.y - 100) <= 3
    assert out[0].mask.area == gt[0].mask.area


def test_jitter_over_the_region_edge_drops_the_pixels_that_leave():
    # squares in two opposite corners of the region: most jitters carry part of one out
    gt = [gt_square(64, 48, 0, 0, 12, instance_id=4), gt_square(64, 48, 52, 36, 12, instance_id=5)]
    clipped = 0
    for seed in range(6):
        out = simulate(preset("attentionmask", jitter=5, seed=seed), 64, 48, gt, origin=(32, 24))
        assert len(out) == 2
        for obj, p in zip(gt, out):
            draw_dx, draw_dy = ref_splitmix64(stream_seed(seed, 32, 24, obj.instance_id), 2)
            dx, dy = randint(draw_dx, -5, 5), randint(draw_dy, -5, 5)
            assert np.array_equal(mask_grid(p.mask), shifted(mask_grid(obj.mask), dx, dy))
            clipped += p.mask.area < obj.mask.area
    assert clipped >= 6


def test_simulate_is_deterministic():
    gt = [gt_square(320, 240, 10 + 25 * i, 60, 12 + i, instance_id=i + 1) for i in range(6)]
    prof = preset("attentionmask-4-16", jitter=2, objectness_noise=0.3, seed=77)
    a = simulate(prof, 320, 240, gt, origin=(160, 120))
    b = simulate(prof, 320, 240, gt, origin=(160, 120))
    assert emitted(a) == emitted(b)
    # a different region origin draws a different jitter stream
    c = simulate(prof, 320, 240, gt, origin=(0, 0))
    assert [p.mask.bbox for p in c] != [p.mask.bbox for p in a]


def test_more_levels_never_detect_fewer_objects():
    rng = np.random.default_rng(0)
    for _ in range(25):
        sides = rng.integers(3, 200, size=8)
        gt = [
            gt_square(1280, 960, int(rng.integers(0, 1280 - s)), int(rng.integers(0, 960 - s)), int(s), i + 1)
            for i, s in enumerate(sides)
        ]
        small = DetectorProfile("small", levels=(8, 16), jitter=1, seed=4)
        big = DetectorProfile("big", levels=(4, 8, 16, 32), jitter=1, seed=4)
        got_small = {p.mask.bbox for p in simulate(small, 1280, 960, gt)}
        got_big = {p.mask.bbox for p in simulate(big, 1280, 960, gt)}
        assert got_small <= got_big


def test_band_score_peaks_at_band_center():
    prof = preset("attentionmask")
    import math

    center = math.sqrt(prof.fill_min * prof.fill_max) * prof.window_cells * 8
    assert band_score(prof, center) == 1.0
    assert band_score(prof, prof.fill_min * prof.window_cells * 8) == pytest.approx(0.5)
    for side in (33, 50, 80, 300, 1200):
        assert 0.0 < band_score(prof, side) <= 1.0


def test_objectness_in_unit_interval():
    gt = [gt_square(320, 240, 20 * i + 5, 30, 10 + 3 * i, instance_id=i + 1) for i in range(9)]
    out = simulate(preset("attentionmask", objectness_noise=0.5, seed=2), 320, 240, gt)
    assert out
    for p in out:
        assert 0.0 < p.objectness <= 1.0


def test_simulate_emits_only_valid_proposals():
    # one-pixel objects on the edges of an 8x6 region: a jitter of up to 3
    # often carries every pixel out, and such an object emits nothing
    gt = [gt_square(8, 6, x, y, 1, instance_id=i + 1) for i, (x, y) in enumerate([(0, 0), (7, 0), (0, 5), (7, 5)])]
    dropped = 0
    for seed in range(20):
        profile = DetectorProfile("tiny", levels=(4,), input_w=8, input_h=6, window_cells=1, fill_min=0.1,
                                  fill_max=1.0, jitter=3, objectness_noise=0.9, seed=seed)
        out = simulate(profile, 8, 6, gt)
        dropped += len(gt) - len(out)
        assert all(p.mask.area > 0 and 0.0 <= p.objectness <= 1.0 for p in out)
    assert dropped > 0


# jitters about the 64-bit edges of the span 2 * jitter + 1 and of a move
JITTERS = [0, 1, 2, 7, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 2**63, 10**20]


@pytest.mark.parametrize("jitter", JITTERS)
def test_moves_are_exact_for_every_jitter(jitter):
    # draws next to each edge: where u % span - jitter changes sign or leaves 64 bits
    near = {0, 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1, jitter, 2 * jitter, jitter - 2**63, jitter - 2**64 + 1}
    draws = sorted(u + d for u in near for d in (-2, -1, 0, 1, 2) if 0 <= u + d < 2**64)
    for side in (1, 3, 2**62, 2**63 - 1):
        got = _moves(np.array(draws, dtype=np.uint64), jitter, np.full(len(draws), side))
        span = 2 * jitter + 1
        assert got.tolist() == [min(max(u % span - jitter, -side), side) for u in draws]


@st.composite
def emit_pairs(draw):
    """A (region origin, id, side, frame, runs) pair: a frame of side 1 and up, 1-4 runs inside it."""
    x0, y0, w, h = draw(st.integers(0, 40)), draw(st.integers(0, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(x0, x0 + w - 1))
        runs.append((draw(st.integers(y0, y0 + h - 1)), a, draw(st.integers(a + 1, x0 + w))))
    origin = (draw(st.integers(0, 2**63 - 1)), draw(st.integers(0, 2**63 - 1)))
    side = draw(st.sampled_from([16.0, 23.5, 40.0, 159.75]))  # few, so sides repeat
    return origin, draw(st.integers(0, 2**63 - 1)), side, (x0, y0, x0 + w, y0 + h), runs


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), pairs=st.lists(emit_pairs(), max_size=6),
       jitter=st.sampled_from(JITTERS) | st.integers(0, 30), noise=st.sampled_from([0.0, 0.5, 0.9]))
@example(seed=0, pairs=[((0, 0), 1, 16.0, (0, 0, 1, 1), [(0, 0, 1)])], jitter=2**64, noise=0.5)
def test_emitted_columns_equal_the_per_pair_definition(seed, pairs, jitter, noise):
    profile = preset("attentionmask-4-16", jitter=jitter, objectness_noise=noise, seed=seed)
    regions = [ref_stream_seed(seed, *origin) for origin, *_ in pairs]
    ids, sides, frames = [p[1] for p in pairs], [p[2] for p in pairs], [p[3] for p in pairs]
    expected = [ref_emitted(profile, r, i, side, frame, runs) for r, (_, i, side, frame, runs) in zip(regions, pairs)]
    frames = np.array(frames, dtype=np.int64).reshape(-1, 4)
    # dx and dy after the cut, from the stream's first two draws
    streams = [ref_splitmix64(ref_stream_seed(r, i), 2) for r, i in zip(regions, ids)]
    for k, axis in enumerate((0, 1)):
        draws = np.array([s[k] for s in streams], dtype=np.uint64)
        got = _moves(draws, jitter, frames[:, axis + 2] - frames[:, axis])
        assert got.tolist() == [e[k] for e in expected]
    runs = [run for *_, pair_runs in pairs for run in pair_runs]
    objectness, areas, offsets, rows = _emitted(
        profile, np.array(regions, dtype=np.uint64), np.array(ids, dtype=np.uint64), np.array(sides, dtype=float),
        frames, np.cumsum([0, *(len(p[4]) for p in pairs)]), np.array(runs, dtype=np.int64).reshape(-1, 3))
    kept = [e for e in expected if e[4]]
    assert objectness.dtype == np.float64
    assert objectness.view(np.uint64).tolist() == np.array([e[2] for e in kept], dtype=float).view(np.uint64).tolist()
    assert areas.tolist() == [e[4] for e in kept]
    assert [rows[a:b].tolist() for a, b in zip(offsets, offsets[1:])] == [[list(r) for r in e[3]] for e in kept]
