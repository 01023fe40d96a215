"""Command-line entry point: synth, run, eval, and overlay subcommands.

Every subcommand is deterministic given its flags and writes a manifest next
to its outputs; identical manifests imply byte-identical outputs. Exit codes:
0 success, 1 usage error (a flag value invalid whatever the input), 2 data,
validation or internal error. Errors are emitted on stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

from . import __version__
from .annotations import instance_map_from_raster, extract_instances
from .detector import DetectorProfile, preset, PRESET_LEVELS
from .exchange import read_proposals, record_from_proposal, write_proposals
from .evaluation import evaluate_dataset, match, render_overlay, report_csv, report_json, report_text
from .pipeline import PipelineConfig, record_proposal, run_tiled, run_whole
from .raster import read_pnm, write_pnm
from .synth import SceneSpec, generate_scene, list_scene_stems, load_scene, save_scene, scene_seed, scene_stem
from .tiling import TileGridSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _checked(parse, ok, expected: str):
    """An argparse type that parses a flag value and requires ``ok`` of it."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


# invalid whatever the input, so a bad value is a usage error (exit 1); the
# range checks of sizes and levels are those of the objects built from them
_size = _checked(lambda t: tuple(map(int, t.lower().split("x"))), lambda v: len(v) == 2, "WxH")
_levels = _checked(lambda t: tuple(map(int, t.split(","))), bool, "comma-separated integers")
_positive_int = _checked(int, lambda v: v >= 1, "an integer of at least 1")
_count = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_iou_threshold = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


# flag -> (destination, type) of run's detector overrides; the destination is
# the DetectorProfile field set, but input_size sets input_w and input_h
_PROFILE_FLAGS = {
    "--levels": ("levels", _levels),
    "--input-size": ("input_size", _size),
    "--fill-min": ("fill_min", float),
    "--fill-max": ("fill_max", float),
    "--jitter": ("jitter", int),
    "--objectness-noise": ("objectness_noise", float),
    "--detector-seed": ("seed", int),
}
# flag -> (SceneSpec field, type) of synth's scene flags; one not given keeps
# the field's default
_SCENE_FLAGS = {
    "--width": ("width", int),
    "--height": ("height", int),
    "--apples": ("n_apples", int),
    "--xs-fraction": ("xs_fraction", float),
    "--leaves": ("n_leaves", int),
    "--radius-min": ("radius_min", float),
    "--radius-max": ("radius_max", float),
    "--min-visible": ("min_visible", int),
}


def _given(args, flags: dict) -> dict:
    """Flag -> value of each of ``flags`` given on the command line."""
    return {f: getattr(args, dest) for f, (dest, _) in flags.items() if getattr(args, dest) is not None}


def _usage(flags, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an object holding the range checks of ``flags``;
    a value it rejects is invalid whatever the input, so a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{', '.join(flags)}: {exc}") from None


def _existing_dir(path: str, flag: str) -> Path:
    if not Path(path).is_dir():
        raise FileNotFoundError(f"{flag}: no such directory: {path}")
    return Path(path)


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _write_manifest(path: Path, command: str, config: dict, inputs: dict, outputs: list[str], seed) -> None:
    doc = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": inputs,
        "outputs": sorted(outputs),
        "seed": seed,
        "tool": "smallprop",
        "version": __version__,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_profile(args) -> DetectorProfile | None:
    """The preset with the override flags given; None with --exchange, which replaces the detector."""
    given = _given(args, _PROFILE_FLAGS)
    if args.exchange:
        flags = list(given) if args.detector is None else ["--detector", *given]
        if flags:
            raise UsageError(f"{', '.join(flags)}: detector flags do not apply with --exchange")
        return None
    overrides = {_PROFILE_FLAGS[f][0]: v for f, v in given.items()}
    if "input_size" in overrides:
        overrides["input_w"], overrides["input_h"] = overrides.pop("input_size")
    return _usage(given, replace, preset(args.detector or "attentionmask"), **overrides)


def _read_records(path: Path, frame: tuple[int, int] | None = None) -> list:
    """The records of a proposal file, each of which must name the file's stem;
    given the image size ``frame``, the whole-image proposals they hold."""
    records = read_proposals(path)
    try:
        for rec in records:
            if rec.image_id != path.stem:
                raise ValueError(f"record image_id {rec.image_id!r} does not match {path.stem!r}")
        return records if frame is None else [record_proposal(rec, *frame) for rec in records]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_synth(args) -> int:
    given = _given(args, _SCENE_FLAGS)
    base = _usage(given, SceneSpec, **{_SCENE_FLAGS[f][0]: v for f, v in given.items()})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i in range(args.count):
        spec = replace(base, seed=scene_seed(args.seed, i))
        scene = generate_scene(spec)
        outputs.extend(save_scene(scene, out, scene_stem(args.seed, i)))
    # the manifest keys are the flag names
    config = {f[2:].replace("-", "_"): getattr(base, field) for f, (field, _) in _SCENE_FLAGS.items()}
    config.update(count=args.count, seed=args.seed)
    _write_manifest(out / "manifest.json", "synth", config, {}, outputs, args.seed)
    return 0


def _run_one(stem: str, args, grid, profile, out: Path) -> str:
    scene = load_scene(args.scenes, stem)
    path = Path(args.exchange) / f"{stem}.jsonl" if args.exchange else None
    records = _read_records(path) if path and path.exists() else []
    config = PipelineConfig(detector=profile or records, grid=grid, nms_iou=args.nms_iou, top_k=args.top_k)
    try:
        proposals = (run_tiled if args.mode == "tiled" else run_whole)(scene, config)
    except ValueError as exc:
        if not records:
            raise
        raise ValueError(f"{path}: {exc}") from None  # e.g. a record naming no tile of the grid
    name = f"{stem}.jsonl"
    write_proposals([record_from_proposal(stem, p) for p in proposals], out / name)
    return name


def cmd_run(args) -> int:
    # whole mode runs one tile over the image, so grid flags would be ignored
    grid_flags = _given(args, {"--tile": ("tile", _size), "--stride": ("stride", _size)})
    if args.mode == "whole" and grid_flags:
        raise UsageError(f"{', '.join(grid_flags)}: grid flags do not apply with --mode whole")
    tile, stride = args.tile or (320, 240), args.stride or (160, 120)
    grid = _usage(("--tile", "--stride"), TileGridSpec, *tile, *stride)
    profile = _resolve_profile(args)
    stems = list_scene_stems(_existing_dir(args.scenes, "--scenes"))
    if args.exchange:
        _existing_dir(args.exchange, "--exchange")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # scenes are independent, so workers run them in parallel and map keeps the
    # outputs in stem order; fork, because the CLI starts no threads and a
    # spawned worker would import numpy again
    work = partial(_run_one, args=args, grid=grid, profile=profile, out=out)
    workers = min(args.jobs, len(stems))
    if workers > 1:
        # imported only here: loading the pool's modules would slow every command's start
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            outputs = list(pool.map(work, stems))
    else:
        outputs = [work(s) for s in stems]

    config = {
        "mode": args.mode,
        "tile": list(tile),
        "stride": list(stride),
        "nms_iou": args.nms_iou,
        "top_k": args.top_k,
        "detector": asdict(profile) if profile else None,
        "exchange": args.exchange,
    }
    inputs = {"scenes": args.scenes}
    if args.exchange:
        inputs["exchange"] = args.exchange
    _write_manifest(
        out / "manifest.json", "run", config, inputs, outputs,
        profile.seed if profile else None,
    )
    return 0


def cmd_eval(args) -> int:
    stems = list_scene_stems(_existing_dir(args.scenes, "--scenes"))
    known = set(stems)
    proposals_dir = _existing_dir(args.proposals, "--proposals")
    unknown = sorted(p.stem for p in proposals_dir.glob("*.jsonl") if p.stem not in known)
    if unknown:
        raise ValueError(f"proposal files without matching scenes: {', '.join(unknown)}")
    per_image = []
    for stem in stems:
        scene = load_scene(args.scenes, stem)
        path = proposals_dir / f"{stem}.jsonl"
        proposals = _read_records(path, (scene.width, scene.height)) if path.exists() else []
        per_image.append((scene.objects, proposals))
    system = args.system or proposals_dir.name
    report = evaluate_dataset(per_image, system=system)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    text = report_text([report])
    outputs = []
    for suffix, payload in ((".txt", text), (".json", report_json([report])), (".csv", report_csv([report]))):
        path = Path(str(prefix) + suffix)
        path.write_text(payload)
        outputs.append(path.name)
    config = {"scenes": args.scenes, "proposals": args.proposals, "system": system}
    _write_manifest(
        Path(str(prefix) + ".manifest.json"), "eval", config,
        {"scenes": args.scenes, "proposals": args.proposals},
        outputs,
        None,
    )
    sys.stdout.write(text)
    return 0


def cmd_overlay(args) -> int:
    image = read_pnm(args.image)
    imap = instance_map_from_raster(read_pnm(args.instances))
    gt = extract_instances(imap)
    proposals = _read_records(Path(args.proposals), (imap.width, imap.height))
    ranked = sorted(proposals, key=lambda p: -p.objectness)[: args.top_k]
    overlay = render_overlay(image, gt, ranked, match(gt, ranked))
    write_pnm(overlay, args.out)
    config = {
        "image": args.image,
        "instances": args.instances,
        "proposals": args.proposals,
        "top_k": args.top_k,
    }
    _write_manifest(
        Path(str(args.out) + ".manifest.json"), "overlay", config,
        {k: config[k] for k in ("image", "instances", "proposals")},
        [Path(args.out).name], None,
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="smallprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate deterministic synthetic scenes")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=int, default=42)
    for flag, (dest, kind) in _SCENE_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="generate proposals for every scene")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detector", choices=sorted(PRESET_LEVELS), help="default: attentionmask")
    p.add_argument("--exchange", help="read per-image proposal JSONL from this directory instead of simulating")
    p.add_argument("--mode", choices=("whole", "tiled"), default="tiled")
    p.add_argument("--tile", type=_size, help="tiled mode only; default: 320x240")
    p.add_argument("--stride", type=_size, help="tiled mode only; default: 160x120")
    p.add_argument("--nms-iou", type=_iou_threshold, default=0.7)
    p.add_argument("--top-k", type=_positive_int, default=100)
    p.add_argument("--jobs", type=_positive_int, default=1)
    for flag, (dest, kind) in _PROFILE_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate proposals against scene ground truth")
    p.add_argument("--scenes", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", default="report", help="output prefix for .txt/.json/.csv")
    p.add_argument("--system", help="row label in the report (default: proposals dir name)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("overlay", help="render matched/missed objects over an image")
    p.add_argument("--image", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=_positive_int, default=100)
    p.set_defaults(func=cmd_overlay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # covers the mask/pnm/exchange errors
        sys.stderr.write(json.dumps({"error": "data", "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # e.g. a worker process that died; keeps the one-line contract
        sys.stderr.write(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
