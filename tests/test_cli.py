import json
import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from smallprop import cli
from smallprop.cli import main
from smallprop.exchange import ProposalRecord, read_proposals, record_from_proposal, write_proposals
from smallprop.detector import Proposal, preset
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


def dir_bytes(path, pattern="*"):
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob(pattern)) if p.is_file()}


def test_synth_count_zero_writes_manifest_only(tmp_path):
    out = tmp_path / "scenes"
    assert run_cli("synth", "--out", out, "--count", 0) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "synth" and doc["outputs"] == []
    assert doc["tool"] == "smallprop" and doc["config_hash"]


def test_synth_is_deterministic(tmp_path):
    synth_small(tmp_path / "a")
    synth_small(tmp_path / "b")
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys() and len(a) == 5  # 2 scene pairs + manifest
    assert all(a[k] == b[k] for k in a)


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
        write_proposals(
            [record_from_proposal(stem, Proposal(o.mask, 1.0)) for o in scene.objects],
            props / f"{stem}.jsonl",
        )
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
        [record_from_proposal(stem, Proposal(o.mask, 0.5)) for o in scene.objects],
        ext / f"{stem}.jsonl",
    )
    out = tmp_path / "routed"
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", out,
                   "--exchange", ext, "--mode", "whole") == 0
    routed = read_proposals(out / f"{stem}.jsonl")
    assert len(routed) == len(scene.objects)
    # a scene without its own exchange file gets no proposals
    assert read_proposals(out / f"{other}.jsonl") == []


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
    write_proposals([record_from_proposal(other, Proposal(obj.mask, 0.5))], path)
    assert run_cli(*_proposal_file_argv(tmp_path, command, stem)) == 2
    message = _data_error(capsys)
    assert str(path) in message and repr(other) in message


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
    rec = record_from_proposal(stem, Proposal(obj.mask, 0.5))
    write_proposals([replace(rec, tile_index=99)], path)
    assert run_cli(*_proposal_file_argv(tmp_path, "run", stem), "--mode", "whole") == 2
    assert _data_error(capsys) == f"{path}: unknown tile_index 99; grid has 1 tiles"


def _bad_record(path, stem, scene_dir):
    obj = load_scene(scene_dir, stem).objects[0]
    write_proposals([replace(record_from_proposal(stem, Proposal(obj.mask, 0.5)), tile_index=99)], path)
    return f"{path}: unknown tile_index 99; grid has 1 tiles"


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


_run_one = cli._run_one


def _die_on_third_scene(stem, **kwargs):
    if stem.endswith("_0002"):
        os._exit(3)
    return _run_one(stem, **kwargs)


def test_dead_worker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # forked workers inherit the patch; the work item pickles it by reference
    synth_small(tmp_path / "s", count=4)
    monkeypatch.setattr(cli, "_run_one", _die_on_third_scene)
    assert run_cli("run", "--scenes", tmp_path / "s", "--out", tmp_path / "o", "--mode", "whole",
                   "--jobs", 2) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "internal" and err["message"].startswith("BrokenProcessPool: ")


def test_overlay_writes_ppm(tmp_path):
    synth_small(tmp_path / "s", count=1)
    stem = list_scene_stems(tmp_path / "s")[0]
    scene = load_scene(tmp_path / "s", stem)
    props = tmp_path / "p.jsonl"
    write_proposals(
        [record_from_proposal(stem.replace("scene", "p"), Proposal(o.mask, 1.0)) for o in scene.objects][:2],
        props,
    )
    # overlay matches ids by file, not record id; rewrite with matching stem
    write_proposals(
        [record_from_proposal("p", Proposal(o.mask, 1.0)) for o in scene.objects],
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
