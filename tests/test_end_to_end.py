"""The CLI's synth -> run -> eval loop against the composition of the stage references."""

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from smallprop import cli
from smallprop.detector import PRESET_LEVELS, preset
from smallprop.exchange import read_proposals
from smallprop.synth import SceneSpec
from oracles import ref_loop

CELL_FIELDS = ("ar_at_10", "ar_at_100", "ar_xs_at_100", "ar_s_at_100", "ar_m_at_100")


@st.composite
def loops(draw):
    """(spec, count, seed, grid or None, detector flags as {flag: value},
    nms_iou, top_k) of a small loop: a scene of up to 96x64 pixels with a
    few apples and leaves, tiles of at least a third of each side."""
    width, height = draw(st.integers(24, 96)), draw(st.integers(16, 64))
    spec = SceneSpec(width=width, height=height, n_apples=draw(st.integers(2, 8)), n_leaves=draw(st.integers(0, 3)))
    grid = None
    if draw(st.booleans()):
        tile_w, tile_h = draw(st.integers(-(-width // 3), width)), draw(st.integers(-(-height // 3), height))
        grid = (tile_w, tile_h, draw(st.integers(-(-tile_w // 2), tile_w)), draw(st.integers(-(-tile_h // 2), tile_h)))
    detector = {
        "--detector": draw(st.sampled_from(sorted(PRESET_LEVELS))),
        "--input-size": draw(st.sampled_from(["1280x960", "320x240", "64x48"])),
        "--jitter": draw(st.sampled_from([0, 0, 2, 40, 10**9])),
        "--objectness-noise": draw(st.sampled_from([0.0, 0.3])),
        "--detector-seed": draw(st.integers(0, 2**64 - 1)),
    }
    return (spec, draw(st.integers(1, 2)), draw(st.integers(0, 2**32)), grid, detector,
            draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])), draw(st.sampled_from([1, 3, 100])))


def _profile(detector: dict):
    input_w, input_h = map(int, detector["--input-size"].split("x"))
    return preset(detector["--detector"], input_w=input_w, input_h=input_h, jitter=detector["--jitter"],
                  objectness_noise=detector["--objectness-noise"], seed=detector["--detector-seed"])


@settings(max_examples=100, deadline=None)
@given(loops())
# tiled, with a clamped last tile in each direction, and top-k 3
@example((SceneSpec(width=90, height=60, n_apples=6, n_leaves=2, seed=0), 2, 42, (40, 30, 25, 20),
          {"--detector": "attentionmask", "--input-size": "1280x960", "--jitter": 2, "--objectness-noise": 0.3,
           "--detector-seed": 7}, 0.5, 3))
# whole mode with a jitter past the image, so that some candidates lose every pixel
@example((SceneSpec(width=96, height=64, n_apples=6, n_leaves=3, seed=0), 1, 5, None,
          {"--detector": "attentionmask-4-16", "--input-size": "320x240", "--jitter": 10**9,
           "--objectness-noise": 0.0, "--detector-seed": 1}, 0.7, 100))
# tiles smaller than the apples: 21 records, the only match past the tenth, so AR@100 > AR@10
@example((SceneSpec(width=24, height=16, n_apples=2, n_leaves=0, seed=0), 1, 1, (8, 8, 4, 4),
          {"--detector": "attentionmask", "--input-size": "1280x960", "--jitter": 0, "--objectness-noise": 0.0,
           "--detector-seed": 0}, 0.5, 100))
# no apple: no record and no cell
@example((SceneSpec(width=30, height=20, n_apples=0, n_leaves=1, seed=0), 1, 5, None,
          {"--detector": "attentionmask", "--input-size": "1280x960", "--jitter": 0,
           "--objectness-noise": 0.0, "--detector-seed": 0}, 0.7, 100))
def test_cli_loop_equals_the_composed_references(case):
    spec, count, seed, grid, detector, nms_iou, top_k = case
    records, report = ref_loop(spec, count, seed, _profile(detector), nms_iou, top_k, grid)
    synth = ["--width", spec.width, "--height", spec.height, "--apples", spec.n_apples, "--leaves", spec.n_leaves]
    run = ["--mode", "whole"]
    if grid:
        run = ["--tile", "{}x{}".format(*grid[:2]), "--stride", "{}x{}".format(*grid[2:])]
    run += [v for flag_value in detector.items() for v in flag_value] + ["--nms-iou", nms_iou, "--top-k", top_k]
    # the scenes go one after another in this process: the workers' split is tested elsewhere
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_for_each",
                                                                 lambda work, items, _: [work(i) for i in items]):
        out = Path(tmp)
        for argv in (["synth", "--out", out / "s", "--count", count, "--seed", seed, *synth],
                     ["run", "--scenes", out / "s", "--out", out / "p", *run],
                     ["eval", "--scenes", out / "s", "--proposals", out / "p", "--out", out / "report"]):
            assert cli.main([str(a) for a in argv]) == 0
        stems = sorted(p.stem for p in (out / "p").glob("*.jsonl"))
        got = [[(r.objectness, r.runs) for r in read_proposals(out / "p" / f"{stem}.jsonl").records(stem)]
               for stem in stems]
        doc = json.loads((out / "report.json").read_text())["reports"][0]
    assert len(stems) == count and got == records
    assert {f: doc[f] for f in CELL_FIELDS} == {f: report[f] for f in CELL_FIELDS}
    assert doc["gt_counts"] == report["gt_counts"]
