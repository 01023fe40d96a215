import json
import os
import shutil
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from smallprop import cli
from smallprop.cli import main
from smallprop.exchange import ProposalRecord, read_proposals, write_proposals
from smallprop.detector import preset
from smallprop.masks import crop_mask
from smallprop.raster import read_pnm
from smallprop.synth import list_scene_stems, load_scene
from smallprop.tiling import TileGridSpec, plan_grid


def run_cli(*argv):
    return main([str(a) for a in argv])


def synth_small(out, count=2, seed=5, width=160, height=120, **kw):
    args = ["synth", "--out", out, "--count", count, "--seed", seed,
            "--width", width, "--height", height, "--apples", 8, "--leaves", 4]
    for k, v in kw.items():
        args += [f"--{k}", v]
    assert run_cli(*args) == 0


def whole_records(stem, objects, objectness):
    """A whole-image record of each object's mask."""
    return [ProposalRecord(stem, o.mask.width, o.mask.height, objectness, o.mask.runs) for o in objects]


def dir_bytes(path, pattern="*"):
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob(pattern)) if p.is_file()}


def test_synth_count_zero_writes_manifest_only(tmp_path):
    out = tmp_path / "scenes"
    assert run_cli("synth", "--out", out, "--count", 0) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "synth" and doc["outputs"] == []
    assert doc["tool"] == "smallprop" and doc["config_hash"]


def assert_no_child_left():
    """Every worker a command forked has ended and been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_synth_is_deterministic(tmp_path, monkeypatch):
    outs = []
    for i, workers in enumerate((1, 2, 8, 2)):  # a repeat, and any number of usable CPUs
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        synth_small(tmp_path / str(i), count=5)
        assert_no_child_left()
        outs.append(dir_bytes(tmp_path / str(i)))  # manifests included
    assert all(out == outs[0] for out in outs)
    assert len(outs[0]) == 11 and all(outs[0].values())  # 5 scene pairs + manifest


def test_synth_worker_error_is_the_serial_error(tmp_path, capsys, monkeypatch):
    # scenes 2 and 3 fail, in different workers unless there is one
    errors, written = {}, {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        for i in (2, 3):
            (out / f"scene_5_000{i}.ppm").mkdir(parents=True)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        assert run_cli("synth", "--out", out, "--count", 5, "--seed", 5, "--width", 64, "--height", 48) == 2
        assert_no_child_left()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        errors[workers] = json.loads(lines[0].replace(str(out), "OUT"))
        written[workers] = sorted(p.name for p in out.iterdir() if p.is_file())
    assert errors[1] == errors[2] == errors[8]
    assert errors[1]["error"] == "data" and errors[1]["message"].endswith("'OUT/scene_5_0002.ppm'")
    # a worker stops at its first failure: the one with scenes 0, 2, 4 writes no scene 4
    assert written[1] == written[2] == [f"scene_5_000{i}.{ext}" for i in (0, 1) for ext in ("pgm", "ppm")]


def test_synth_scene_count_and_naming(tmp_path):
    synth_small(tmp_path / "s", count=3, seed=9)
    stems = list_scene_stems(tmp_path / "s")
    assert stems == ["scene_9_0000", "scene_9_0001", "scene_9_0002"]
    assert all((tmp_path / "s" / f"{st}.ppm").exists() for st in stems)


def test_run_fastmask_whole_yields_empty_files(tmp_path):
    # at full scene scale the rescale factor is 1.0, so every apple side
    # sits below fastmask's 64 px minimum
    synth_small(tmp_path / "s", count=2, width=1280, height=720)
    out = tmp_path / "props"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out,
                   "--detector", "fastmask", "--mode", "whole") == 0
    for stem in list_scene_stems(tmp_path / "s"):
        assert (out / f"{stem}.jsonl").read_bytes() == b""


def test_degenerate_tiling_equals_whole(tmp_path):
    synth_small(tmp_path / "s", count=2)
    a = tmp_path / "whole"
    b = tmp_path / "tiled"
    base = ["--scenes", tmp_path / "s", "--detector", "attentionmask-4-16",
            "--jitter", 1, "--objectness-noise", 0.2]
    assert run_cli("run", *base, "--mode", "whole", "--out", a) == 0
    assert run_cli("run", *base, "--mode", "tiled", "--tile", "160x120",
                   "--stride", "160x120", "--out", b) == 0
    assert dir_bytes(a, "*.jsonl") == dir_bytes(b, "*.jsonl")


def test_run_default_top_k_caps_at_100(tmp_path):
    synth_small(tmp_path / "s", count=1, apples=150, leaves=0)
    out = tmp_path / "props"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out,
                   "--detector", "attentionmask-4-16", "--mode", "whole") == 0
    records = read_proposals(out / "scene_5_0000.jsonl")
    assert 0 < len(records) <= 100


def test_jobs_do_not_change_outputs(tmp_path):
    synth_small(tmp_path / "s", count=4)
    a = tmp_path / "j1"
    b = tmp_path / "j8"
    base = ["--scenes", tmp_path / "s", "--detector", "attentionmask",
            "--mode", "tiled", "--tile", "80x60", "--stride", "40x30", "--jitter", 2]
    assert run_cli("run", *base, "--out", a, "--jobs", 1) == 0
    assert run_cli("run", *base, "--out", b, "--jobs", 8) == 0
    assert_no_child_left()
    assert dir_bytes(a) == dir_bytes(b)  # manifests included


def _write_tile_records(scene_dir, exchange_dir, grid):
    """Each scene's ground truth cropped to each tile of ``grid``, as tile records."""
    exchange_dir.mkdir()
    for stem in list_scene_stems(scene_dir):
        scene = load_scene(scene_dir, stem)
        records = []
        for tile in plan_grid(scene.width, scene.height, grid):
            for i, obj in enumerate(scene.objects):
                local = crop_mask(obj.mask, tile.x0, tile.y0, tile.w, tile.h)
                if local.area:
                    records.append(ProposalRecord(stem, tile.w, tile.h, (i + 1) / 64, local.runs, tile.index))
        write_proposals(records, exchange_dir / f"{stem}.jsonl")


def test_exchange_jobs_do_not_change_outputs(tmp_path):
    synth_small(tmp_path / "s", count=4)
    _write_tile_records(tmp_path / "s", tmp_path / "ex", TileGridSpec(80, 60, 40, 30))
    base = ["--scenes", tmp_path / "s", "--exchange", tmp_path / "ex",
            "--mode", "tiled", "--tile", "80x60", "--stride", "40x30"]
    outs = {}
    for jobs in (1, 2, 8):
        assert run_cli("run", *base, "--out", tmp_path / f"j{jobs}", "--jobs", jobs) == 0
        outs[jobs] = dir_bytes(tmp_path / f"j{jobs}")  # manifests included
    assert outs[1] == outs[2] == outs[8]
    assert len(outs[1]) == 5 and all(outs[1].values())


def test_run_then_eval_perfect_proposals(tmp_path):
    synth_small(tmp_path / "s", count=2)
    props = tmp_path / "props"
    props.mkdir()
    for stem in list_scene_stems(tmp_path / "s"):
        scene = load_scene(tmp_path / "s", stem)
        write_proposals(whole_records(stem, scene.objects, 1.0), props / f"{stem}.jsonl")
    prefix = tmp_path / "report"
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", props, "--out", prefix) == 0
    doc = json.loads(prefix.with_suffix(".json").read_text())
    row = doc["reports"][0]
    for key in ("ar_at_10", "ar_at_100", "ar_xs_at_100"):
        assert row[key] == 1.0
    assert prefix.with_suffix(".txt").exists() and prefix.with_suffix(".csv").exists()
    # repeated evaluation of the same inputs reproduces identical reports
    again = tmp_path / "report2"
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", props, "--out", again) == 0
    for suffix in (".txt", ".json", ".csv"):
        assert prefix.with_suffix(suffix).read_bytes() == again.with_suffix(suffix).read_bytes()


def test_eval_empty_proposals_dir_scores_zero(tmp_path):
    synth_small(tmp_path / "s", count=2)
    props = tmp_path / "none"
    props.mkdir()
    prefix = tmp_path / "report"
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", props, "--out", prefix) == 0
    row = json.loads(prefix.with_suffix(".json").read_text())["reports"][0]
    assert row["ar_at_10"] == 0.0 and row["ar_at_100"] == 0.0


def test_eval_report_header_order(tmp_path):
    synth_small(tmp_path / "s", count=1)
    props = tmp_path / "none"
    props.mkdir()
    prefix = tmp_path / "report"
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", props, "--out", prefix) == 0
    header = prefix.with_suffix(".txt").read_text().splitlines()[0]
    assert header.split() == ["System", "AR@10", "AR@100", "AR^XS@100", "AR^S@100", "AR^M@100"]


def test_eval_rejects_unknown_proposal_ids(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    props = tmp_path / "props"
    props.mkdir()
    (props / "mystery.jsonl").write_text("")
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", props, "--out", tmp_path / "r") == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data" and "mystery" in err["message"]


def test_exchange_records_feed_run(tmp_path):
    synth_small(tmp_path / "s", count=2)
    stem, other = list_scene_stems(tmp_path / "s")
    scene = load_scene(tmp_path / "s", stem)
    ext = tmp_path / "external"
    ext.mkdir()
    write_proposals(
        whole_records(stem, scene.objects, 0.5),
        ext / f"{stem}.jsonl",
    )
    out = tmp_path / "routed"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out,
                   "--exchange", ext, "--mode", "whole") == 0
    routed = read_proposals(out / f"{stem}.jsonl")
    assert len(routed) == len(scene.objects)
    # a scene without its own exchange file gets no proposals
    assert read_proposals(out / f"{other}.jsonl") == []


@pytest.mark.parametrize("objectness", ["-0.0000001", "-0.0"])
def test_negative_zero_objectness_is_written_as_zero(tmp_path, objectness):
    # rounds to -0.0, which lies in [0, 1]; one score must have one spelling
    synth_small(tmp_path / "s", count=1, width=64, height=48)
    (stem,) = list_scene_stems(tmp_path / "s")
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / f"{stem}.jsonl").write_text(
        f'{{"image_id": "{stem}", "width": 64, "height": 48, "objectness": {objectness}, '
        f'"runs": [100, 4, 2968]}}\n')
    assert run_cli("run", "--scenes", tmp_path / "s", "--exchange", tmp_path / "x",
                   "--mode", "whole", "--out", tmp_path / "o") == 0
    assert (tmp_path / "o" / f"{stem}.jsonl").read_text() == (
        f'{{"image_id": "{stem}", "width": 64, "height": 48, "objectness": 0.000000, '
        f'"runs": [100, 4, 2968]}}\n')


def test_usage_error_exit_code(tmp_path, capsys):
    assert run_cli("run", "--out", tmp_path / "x") == 1  # missing --scenes
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert run_cli("frobnicate") == 1


def _valid_argv(tmp_path, command, out):
    """Arguments with which ``command`` succeeds; ``out`` is its output path."""
    synth_small(tmp_path / "s", count=1)
    scene = tmp_path / "s" / "scene_5_0000"
    (tmp_path / "p.jsonl").write_text("")
    (tmp_path / "ex").mkdir()
    return {
        "synth": ["synth", "--out", out],
        "run": ["run", "--scenes", tmp_path / "s", "--out", out],
        "exchange": ["run", "--scenes", tmp_path / "s", "--out", out, "--exchange", tmp_path / "ex",
                     "--mode", "whole"],
        "whole": ["run", "--scenes", tmp_path / "s", "--out", out, "--mode", "whole"],
        "overlay": ["overlay", "--image", f"{scene}.ppm", "--instances", f"{scene}.pgm",
                    "--proposals", tmp_path / "p.jsonl", "--out", out],
    }[command]


_OVERRIDES = [
    ("--levels", "4,8", {"levels": [4, 8]}),
    ("--input-size", "640x480", {"input_w": 640, "input_h": 480}),
    ("--fill-min", "0.3", {"fill_min": 0.3}),
    ("--fill-max", "0.9", {"fill_max": 0.9}),
    ("--jitter", "3", {"jitter": 3}),
    ("--objectness-noise", "0.25", {"objectness_noise": 0.25}),
    ("--detector-seed", "123", {"seed": 123}),
]


_BAD_FLAG_VALUES = [
    ("run", "--tile", "0x0"),
    ("run", "--stride", "0x0"),
    ("run", "--levels", "3"),
    ("run", "--top-k", "0"),
    ("run", "--nms-iou", "0"),
    ("run", "--jobs", "0"),
    ("run", "--jobs", "-4"),
    ("overlay", "--top-k", "-1"),
    ("overlay", "--top-k", "0"),
    ("synth", "--count", "-3"),
    # range checks held by DetectorProfile, TileGridSpec and SceneSpec
    ("run", "--jitter", "-1"),
    ("run", "--fill-min", "2"),
    ("run", "--stride", "400x100"),
    ("synth", "--width", "0"),
    # the exchange files replace the detector, so its flags would be ignored
    ("exchange", "--detector", "fastmask"),
    *[("exchange", flag, value) for flag, value, _ in _OVERRIDES],
    # whole mode runs one tile over the image, so a grid would be ignored
    ("whole", "--tile", "640x480"),
    ("whole", "--stride", "50x50"),
    ("whole", "--tile", "320x240"),
]


# a case id names its subcommand unless that is run
@pytest.mark.parametrize("command, flag, value", _BAD_FLAG_VALUES, ids=[
    f"{flag}-{value}" if command == "run" else f"{command}-{flag}-{value}"
    for command, flag, value in _BAD_FLAG_VALUES])
def test_invalid_flag_values_are_usage_errors(tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    assert run_cli(*_valid_argv(tmp_path, command, out), flag, value) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert flag in lines[0] and not out.exists()


def test_data_error_exit_code(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    # tile larger than the image is a data/validation failure
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", tmp_path / "o",
                   "--mode", "tiled", "--tile", "999x999", "--stride", "999x999") == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data"


def _data_error(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data"
    return err["message"]


def test_run_rejects_missing_scenes_dir(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("run", "--scenes", tmp_path / "nope", "--out", out) == 2
    assert "--scenes" in _data_error(capsys)
    assert not out.exists()


def test_run_rejects_missing_exchange_dir(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    out = tmp_path / "o"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out,
                   "--exchange", tmp_path / "nope") == 2
    assert "--exchange" in _data_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("missing", ["--scenes", "--proposals"])
def test_eval_rejects_missing_dirs(tmp_path, capsys, missing):
    synth_small(tmp_path / "s", count=1)
    (tmp_path / "p").mkdir()
    dirs = {"--scenes": tmp_path / "s", "--proposals": tmp_path / "p", missing: tmp_path / "nope"}
    out = tmp_path / "r" / "report"
    assert run_cli("eval", *(a for kv in dirs.items() for a in kv), "--out", out) == 2
    assert missing in _data_error(capsys)
    assert not out.parent.exists()


def test_synth_rejects_apples_beyond_16_bit_ids(tmp_path, capsys):
    # invalid whatever the input, so a usage error
    out = tmp_path / "s"
    assert run_cli("synth", "--out", out, "--apples", 70000) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert "--apples" in lines[0] and "16-bit" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, fields", _OVERRIDES)
def test_detector_override_flags_reach_manifest(tmp_path, flag, value, fields):
    synth_small(tmp_path / "s", count=1)
    out = tmp_path / "o"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out, "--mode", "whole", flag, value) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    stock = json.loads(json.dumps(asdict(preset("attentionmask"))))
    assert manifest["config"]["detector"] == {**stock, **fields} != stock
    assert manifest["seed"] == fields.get("seed", stock["seed"])


def _proposal_file_argv(tmp_path, command, name):
    """``command`` reading the proposal file ``<dir>/<name>.jsonl`` of scene set ``s``."""
    scene = tmp_path / "s" / "scene_5_0000"
    return {
        "run": ["run", "--scenes", tmp_path / "s", "--out", tmp_path / "o", "--exchange", tmp_path / "p"],
        "eval": ["eval", "--scenes", tmp_path / "s", "--proposals", tmp_path / "p", "--out", tmp_path / "r"],
        "overlay": ["overlay", "--image", f"{scene}.ppm", "--instances", f"{scene}.pgm",
                    "--proposals", tmp_path / "p" / f"{name}.jsonl", "--out", tmp_path / "o.ppm"],
    }[command]


@pytest.mark.parametrize("command", ["run", "eval", "overlay"])
def test_record_naming_another_scene_rejected(tmp_path, capsys, command):
    synth_small(tmp_path / "s", count=2)
    stem, other = list_scene_stems(tmp_path / "s")
    obj = load_scene(tmp_path / "s", other).objects[0]
    path = tmp_path / "p" / f"{stem}.jsonl"
    path.parent.mkdir()
    write_proposals(whole_records(other, [obj], 0.5), path)
    assert run_cli(*_proposal_file_argv(tmp_path, command, stem)) == 2
    assert _data_error(capsys) == f"{path}: line 1: record image_id {other!r} does not match {stem!r}"


@pytest.mark.parametrize("command", ["run", "eval"])
def test_deeply_nested_line_is_a_format_error(tmp_path, capsys, command):
    # deep enough for json.loads to raise RecursionError
    synth_small(tmp_path / "s", count=1)
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "scene_5_0000.jsonl").write_text("[" * 200_000 + "\n")
    assert run_cli(*_proposal_file_argv(tmp_path, command, "scene_5_0000")) == 2
    assert "line 1" in _data_error(capsys)


def test_truncated_scene_error_names_file(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    pgm = tmp_path / "s" / "scene_5_0000.pgm"
    pgm.write_bytes(pgm.read_bytes()[:100])
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", tmp_path / "o") == 2
    assert _data_error(capsys) == f"{pgm}: payload is 83 bytes, expected 38400"


def test_rgb_scene_instance_map_names_file(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    pgm = tmp_path / "s" / "scene_5_0000.pgm"
    pgm.write_bytes(pgm.with_suffix(".ppm").read_bytes())  # an RGB image under the instance map's name
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", tmp_path / "o") == 2
    assert _data_error(capsys) == f"{pgm}: instance maps are 16-bit gray rasters"


def test_overlay_rgb_instances_names_file(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    ppm = tmp_path / "s" / "scene_5_0000.ppm"
    (tmp_path / "p.jsonl").write_text("")
    assert run_cli("overlay", "--image", ppm, "--instances", ppm, "--proposals", tmp_path / "p.jsonl",
                   "--out", tmp_path / "o.ppm") == 2
    assert _data_error(capsys) == f"{ppm}: instance maps are 16-bit gray rasters"


@pytest.mark.parametrize("corrupt, message", [
    (lambda pgm: pgm.write_bytes(pgm.read_bytes()[:100]), "payload is 83 bytes, expected 38400"),
    (lambda pgm: pgm.write_bytes(pgm.with_suffix(".ppm").read_bytes()), "instance maps are 16-bit gray rasters"),
])
def test_exchange_run_checks_scene_file(tmp_path, capsys, corrupt, message):
    # run --exchange needs only the scene's size, but checks its file as a full read does
    synth_small(tmp_path / "s", count=1)
    (tmp_path / "p").mkdir()
    pgm = tmp_path / "s" / "scene_5_0000.pgm"
    corrupt(pgm)
    assert run_cli(*_proposal_file_argv(tmp_path, "run", "scene_5_0000")) == 2
    assert _data_error(capsys) == f"{pgm}: {message}"


def test_overlay_gray_image_names_file(tmp_path, capsys):
    synth_small(tmp_path / "s", count=1)
    pgm = tmp_path / "s" / "scene_5_0000.pgm"
    (tmp_path / "p.jsonl").write_text("")
    assert run_cli("overlay", "--image", pgm, "--instances", pgm, "--proposals", tmp_path / "p.jsonl",
                   "--out", tmp_path / "o.ppm") == 2
    assert _data_error(capsys) == f"{pgm}: overlay rendering needs an RGB image"


@pytest.mark.parametrize("apples", [8, 0])
def test_overlay_size_mismatch_names_both_files(tmp_path, capsys, apples):
    # with objects this was an internal IndexError; without, an overlay of the wrong frame
    synth_small(tmp_path / "s", count=1, apples=apples)
    synth_small(tmp_path / "w", count=1, width=180)
    ppm, pgm = tmp_path / "w" / "scene_5_0000.ppm", tmp_path / "s" / "scene_5_0000.pgm"
    (tmp_path / "p.jsonl").write_text("")
    assert run_cli("overlay", "--image", ppm, "--instances", pgm, "--proposals", tmp_path / "p.jsonl",
                   "--out", tmp_path / "o.ppm") == 2
    assert _data_error(capsys) == f"{ppm} is 180x120, {pgm} is 160x120"
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_non_ascii_proposal_file_names_file(tmp_path, capsys, command):
    synth_small(tmp_path / "s", count=1)
    (tmp_path / "p").mkdir()
    path = tmp_path / "p" / "scene_5_0000.jsonl"
    path.write_bytes(b"\xff\n")
    assert run_cli(*_proposal_file_argv(tmp_path, command, "scene_5_0000")) == 2
    assert _data_error(capsys) == f"{path}: line 1: non-ASCII byte 0xff"


def test_exchange_tile_record_error_names_file(tmp_path, capsys):
    synth_small(tmp_path / "s", count=2)
    stem = list_scene_stems(tmp_path / "s")[0]
    obj = load_scene(tmp_path / "s", stem).objects[0]
    path = tmp_path / "p" / f"{stem}.jsonl"
    path.parent.mkdir()
    (rec,) = whole_records(stem, [obj], 0.5)
    write_proposals([rec._replace(tile_index=99)], path)
    assert run_cli(*_proposal_file_argv(tmp_path, "run", stem), "--mode", "whole") == 2
    assert _data_error(capsys) == f"{path}: line 1: unknown tile_index 99; grid has 1 tiles"


def _small_scene(tmp_path):
    """The stem of one 64x48 scene in ``s`` and the path of its proposal file in ``p``."""
    synth_small(tmp_path / "s", count=1, width=64, height=48, apples=4, leaves=0)
    (stem,) = list_scene_stems(tmp_path / "s")
    (tmp_path / "p").mkdir()
    return stem, tmp_path / "p" / f"{stem}.jsonl"


_WHOLE_32x24 = '{"image_id": "%s", "width": 32, "height": 24, "objectness": 0.5, "runs": [0, 4, 764]}'
_TILE_99 = '{"image_id": "%s", "tile_index": 99, "width": 32, "height": 24, "objectness": 0.5, "runs": [0, 4, 764]}'


@pytest.mark.parametrize("command", ["eval", "whole", "overlay"])
def test_whole_image_size_error_names_the_line(tmp_path, capsys, command):
    # line 2 is blank, so the bad record's line is not its index among the records
    stem, path = _small_scene(tmp_path)
    whole = '{"image_id": "%s", "width": 64, "height": 48, "objectness": 0.5, "runs": [0, 4, 3068]}' % stem
    path.write_text(whole + "\n\n" + _WHOLE_32x24 % stem + "\n")
    argv = _proposal_file_argv(tmp_path, "run" if command == "whole" else command, stem)
    assert run_cli(*argv, *(["--mode", "whole"] if command == "whole" else [])) == 2
    assert _data_error(capsys) == f"{path}: line 3: whole-image record is 32x24, image is 64x48"


def test_unknown_tile_error_names_the_line(tmp_path, capsys):
    stem, path = _small_scene(tmp_path)
    path.write_text("\n" + _TILE_99 % stem + "\n")
    assert run_cli(*_proposal_file_argv(tmp_path, "run", stem), "--tile", "32x24", "--stride", "32x24") == 2
    assert _data_error(capsys) == f"{path}: line 2: unknown tile_index 99; grid has 4 tiles"


@pytest.mark.parametrize("command", ["eval", "overlay"])
def test_tile_record_is_rejected_where_only_whole_image_records_are_read(tmp_path, capsys, command):
    stem, path = _small_scene(tmp_path)
    path.write_text((_TILE_99 % stem).replace("99", "0") + "\n")
    assert run_cli(*_proposal_file_argv(tmp_path, command, stem)) == 2
    assert _data_error(capsys) == f"{path}: line 1: tile_index 0: only whole-image records are accepted"


def test_scene_smaller_than_the_tile_is_not_blamed_on_the_exchange_file(tmp_path, capsys):
    stem, path = _small_scene(tmp_path)
    path.write_text(_TILE_99 % stem + "\n")
    assert run_cli(*_proposal_file_argv(tmp_path, "run", stem)) == 2  # the default tile is 320x240
    assert _data_error(capsys) == f"{tmp_path / 's' / stem}.pgm: tile 320x240 larger than image 64x48"


@pytest.mark.parametrize("exchange", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_tile_larger_than_one_scene_names_that_scene(tmp_path, capsys, exchange, jobs):
    # two scenes that fit the default 320x240 tile, then one that does not
    synth_small(tmp_path / "s", width=640, height=480)
    synth_small(tmp_path / "small", count=1, seed=7, width=64, height=48)
    for f in (tmp_path / "small").glob("scene_7_0000.*"):
        f.rename(tmp_path / "s" / f.name)
    argv = ["run", "--scenes", tmp_path / "s", "--out", tmp_path / "out", "--jobs", jobs]
    if exchange:
        (tmp_path / "p").mkdir()
        argv += ["--exchange", tmp_path / "p"]
    assert run_cli(*argv) == 2
    assert _data_error(capsys) == f"{tmp_path / 's' / 'scene_7_0000.pgm'}: tile 320x240 larger than image 64x48"


def _bad_record(path, stem, scene_dir):
    obj = load_scene(scene_dir, stem).objects[0]
    write_proposals([rec._replace(tile_index=99) for rec in whole_records(stem, [obj], 0.5)], path)
    return f"{path}: line 1: unknown tile_index 99; grid has 1 tiles"


def _non_ascii(path, stem, scene_dir):
    path.write_bytes(b"\xff\n")
    return f"{path}: line 1: non-ASCII byte 0xff"


@pytest.mark.parametrize("corrupt", [_bad_record, _non_ascii])
def test_worker_errors_match_serial_errors(tmp_path, capsys, corrupt):
    synth_small(tmp_path / "s", count=4)
    stems = list_scene_stems(tmp_path / "s")
    ex = tmp_path / "p"
    ex.mkdir()
    for stem in stems:
        write_proposals([], ex / f"{stem}.jsonl")
    expected = corrupt(ex / f"{stems[2]}.jsonl", stems[2], tmp_path / "s")
    for jobs in (1, 2):
        assert run_cli(*_proposal_file_argv(tmp_path, "run", stems[2]), "--mode", "whole", "--jobs", jobs) == 2
        assert _data_error(capsys) == expected
        assert_no_child_left()


_run_one = cli._run_one


def _die_on_third_scene(stem, **kwargs):
    if stem.endswith("_0002"):
        os._exit(3)
    return _run_one(stem, **kwargs)


def test_dead_worker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    synth_small(tmp_path / "s", count=4)
    monkeypatch.setattr(cli, "_run_one", _die_on_third_scene)  # forked workers inherit the patch
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", tmp_path / "o", "--mode", "whole",
                   "--jobs", 2) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err == {"error": "internal", "message": "RuntimeError: a worker process ended with exit status 3"}
    assert_no_child_left()


def _item_result(i):
    """A picklable result of a size that grows with the item."""
    return i, "x" * i, [i] * i


def _fail_at(i, bad):
    if i in bad:
        raise ValueError(f"item {i}")
    return _item_result(i)


def _exit_at_two(i):
    if i == 2:
        os._exit(3)
    return i


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 16])
def test_for_each_is_the_serial_loop(workers):
    for n in range(8):
        assert cli._for_each(_item_result, range(n), workers) == [_item_result(i) for i in range(n)]
        assert_no_child_left()
        if n < 2:
            continue
        # n - 2 and n - 1 are adjacent, so in different workers whenever there are two
        with pytest.raises(ValueError, match=f"^item {n - 2}$"):
            cli._for_each(partial(_fail_at, bad={n - 2, n - 1}), range(n), workers)
        assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 4, 16])
def test_for_each_worker_exit_is_an_internal_error(workers):
    with pytest.raises(RuntimeError, match="^a worker process ended with exit status 3$"):
        cli._for_each(_exit_at_two, range(5), workers)
    assert_no_child_left()


def test_eval_outputs_and_errors_do_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    synth_small(tmp_path / "s", count=4)
    stems = list_scene_stems(tmp_path / "s")
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", good, "--mode", "whole",
                   "--detector", "attentionmask-4-16", "--jitter", 1) == 0
    shutil.copytree(good, bad)
    for stem in stems[1:3]:
        (bad / f"{stem}.jsonl").write_bytes(b"\xff\n")
    outs = {}
    for workers in (1, 2, 8):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", good, "--out", out / "report") == 0
        assert_no_child_left()
        outs[workers] = (capsys.readouterr().out, dir_bytes(out))
        errs = tmp_path / f"e{workers}"
        assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", bad, "--out", errs / "report") == 2
        assert_no_child_left()
        assert _data_error(capsys) == f"{bad / stems[1]}.jsonl: line 1: non-ASCII byte 0xff"
        assert not errs.exists()
    assert outs[1] == outs[2] == outs[8]
    stdout, reports = outs[1]
    assert sorted(reports) == ["report.csv", "report.json", "report.manifest.json", "report.txt"]
    assert stdout.encode() == reports["report.txt"]
    assert json.loads(reports["report.json"])["reports"][0]["ar_at_100"] > 0


def test_usable_cpus_without_affinity_or_fork(tmp_path, monkeypatch):
    # os.sched_getaffinity is Linux-only, and os.fork is absent on Windows
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == (os.cpu_count() or 1)
    synth_small(tmp_path / "a", count=3)
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert cli._usable_cpus() == 1
    synth_small(tmp_path / "b", count=3)
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_overlay_writes_ppm(tmp_path):
    synth_small(tmp_path / "s", count=1)
    stem = list_scene_stems(tmp_path / "s")[0]
    scene = load_scene(tmp_path / "s", stem)
    props = tmp_path / "p.jsonl"
    write_proposals(
        whole_records(stem.replace("scene", "p"), scene.objects[:2], 1.0),
        props,
    )
    # overlay matches ids by file, not record id; rewrite with matching stem
    write_proposals(
        whole_records("p", scene.objects, 1.0),
        tmp_path / "p.jsonl",
    )
    out = tmp_path / "overlay.ppm"
    assert run_cli("overlay", "--image", tmp_path / "s" / f"{stem}.ppm",
                   "--instances", tmp_path / "s" / f"{stem}.pgm",
                   "--proposals", tmp_path / "p.jsonl", "--out", out) == 0
    rendered = read_pnm(out)
    original = read_pnm(tmp_path / "s" / f"{stem}.ppm")
    assert rendered.pixels.shape == original.pixels.shape
    assert (rendered.pixels != original.pixels).any()


def test_run_manifest_excludes_output_path(tmp_path):
    synth_small(tmp_path / "s", count=1)
    a, b = tmp_path / "o1", tmp_path / "o2"
    for out in (a, b):
        assert run_cli("run", "--scenes", tmp_path / "s", "--out", out, "--mode", "whole") == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    # the default grid is still recorded, so such manifests keep their bytes
    config = json.loads((a / "manifest.json").read_text())["config"]
    assert config["tile"] == [320, 240] and config["stride"] == [160, 120]


@pytest.mark.parametrize("target", ["--scenes", "--exchange"])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_run_out_may_not_be_an_input_dir(tmp_path, capsys, target, spelling):
    # e.g. --exchange x --out x would cut each exchange file to top-k lines
    synth_small(tmp_path / "s", count=1)
    (stem,) = list_scene_stems(tmp_path / "s")
    scene = load_scene(tmp_path / "s", stem)
    (tmp_path / "x").mkdir()
    write_proposals(whole_records(stem, scene.objects, 0.5),
                    tmp_path / "x" / f"{stem}.jsonl")
    inputs = {"--scenes": tmp_path / "s", "--exchange": tmp_path / "x"}
    before = {flag: dir_bytes(d) for flag, d in inputs.items()}
    out = {"same": inputs[target],
           "dotted": inputs[target] / ".." / inputs[target].name,
           "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        out.symlink_to(inputs[target])
    assert run_cli("run", "--scenes", inputs["--scenes"], "--exchange", inputs["--exchange"],
                   "--mode", "whole", "--top-k", 1, "--out", out) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert "--out" in lines[0] and target in lines[0]
    assert {flag: dir_bytes(d) for flag, d in inputs.items()} == before


@pytest.mark.parametrize("target", ["--scenes", "--proposals"])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_eval_out_may_not_be_in_an_input_dir(tmp_path, capsys, target, spelling):
    # e.g. --out p/manifest would replace run's p/manifest.json with the report
    synth_small(tmp_path / "s", count=1)
    assert run_cli("run", "--scenes", tmp_path / "s", "--mode", "whole", "--out", tmp_path / "p") == 0
    inputs = {"--scenes": tmp_path / "s", "--proposals": tmp_path / "p"}
    before = {flag: dir_bytes(d) for flag, d in inputs.items()}
    out_dir = {"same": inputs[target],
               "dotted": inputs[target] / ".." / inputs[target].name,
               "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        out_dir.symlink_to(inputs[target])
    assert run_cli("eval", "--scenes", inputs["--scenes"], "--proposals", inputs["--proposals"],
                   "--out", out_dir / "manifest") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert "--out" in lines[0] and target in lines[0]
    assert {flag: dir_bytes(d) for flag, d in inputs.items()} == before


def test_eval_out_below_an_input_dir_is_allowed(tmp_path):
    synth_small(tmp_path / "s", count=1)
    assert run_cli("run", "--scenes", tmp_path / "s", "--mode", "whole", "--out", tmp_path / "p") == 0
    assert run_cli("eval", "--scenes", tmp_path / "s", "--proposals", tmp_path / "p",
                   "--out", tmp_path / "p" / "sub" / "report") == 0
    assert sorted(dir_bytes(tmp_path / "p" / "sub")) == [
        "report.csv", "report.json", "report.manifest.json", "report.txt"]


def test_run_out_beside_inputs_is_allowed(tmp_path):
    synth_small(tmp_path / "s", count=1)
    # a sibling whose name starts with the input's is not the input
    assert run_cli("run", "--scenes", tmp_path / "s", "--mode", "whole", "--out", tmp_path / "s2") == 0
    assert run_cli("run", "--scenes", tmp_path / "s", "--mode", "whole", "--out", tmp_path / "s" / "props") == 0


@pytest.mark.parametrize("target", ["--image", "--instances", "--proposals"])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
@pytest.mark.parametrize("written", ["overlay", "manifest"])
def test_overlay_out_may_not_be_an_input(tmp_path, capsys, target, spelling, written):
    # --out img.ppm would replace the image with its overlay, and --out q an
    # input named q.manifest.json with the overlay's manifest
    synth_small(tmp_path / "s", count=1)
    (stem,) = list_scene_stems(tmp_path / "s")
    objects = load_scene(tmp_path / "s", stem).objects
    inputs = {"--image": tmp_path / "s" / f"{stem}.ppm", "--instances": tmp_path / "s" / f"{stem}.pgm",
              "--proposals": tmp_path / "p.jsonl"}
    if written == "manifest":  # the input is named as the manifest of --out q
        if target != "--proposals":
            inputs[target].rename(tmp_path / "s" / "q.manifest.json")
        inputs[target] = tmp_path / "s" / "q.manifest.json"
    write_proposals(whole_records(inputs["--proposals"].stem, objects, 0.5), inputs["--proposals"])
    written_path = inputs[target] if written == "overlay" else inputs[target].parent / "q"
    out = {"same": written_path,
           "dotted": written_path.parent / ".." / written_path.parent.name / written_path.name,
           "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        Path(f"{out}.manifest.json" if written == "manifest" else out).symlink_to(inputs[target])
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    argv = [a for flag, f in inputs.items() for a in (flag, f)]
    assert run_cli("overlay", *argv, "--out", out) == 1
    lines = capsys.readouterr().err.splitlines()
    what = "the same file" if written == "overlay" else "its manifest is the same file"
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": "usage", "message": f"--out: {what} as {target}"}
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before
