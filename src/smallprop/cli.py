"""Command-line entry point: synth, run, eval, and overlay subcommands.

Every subcommand is deterministic given its flags and writes a manifest next
to its outputs; identical manifests imply byte-identical outputs. Exit codes:
0 success, 1 usage error, 2 data or validation error. Errors are emitted on
stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .annotations import instance_map_from_raster, extract_instances
from .detector import ALLOWED_LEVELS, DetectorProfile, Proposal, preset, PRESET_LEVELS
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


# invalid whatever the input, so a bad value is a usage error (exit 1)
_size = _checked(lambda t: tuple(map(int, t.lower().split("x"))),
                 lambda v: len(v) == 2 and min(v) >= 1, "WxH with positive sides")
_levels = _checked(lambda t: tuple(map(int, t.split(","))),
                   lambda v: set(v) <= set(ALLOWED_LEVELS), f"comma-separated levels from {ALLOWED_LEVELS}")
_positive_int = _checked(int, lambda v: v >= 1, "an integer of at least 1")
_count = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_iou_threshold = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


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


# the DetectorProfile fields set by run's override flags of the same name;
# --input-size sets input_w and input_h
_PROFILE_FLAGS = ("levels", "fill_min", "fill_max", "jitter", "objectness_noise", "seed")


def _resolve_profile(args) -> DetectorProfile:
    overrides = {f: getattr(args, f) for f in _PROFILE_FLAGS if getattr(args, f) is not None}
    if args.input_size is not None:
        overrides["input_w"], overrides["input_h"] = args.input_size
    return replace(preset(args.detector), **overrides)


def cmd_synth(args) -> int:
    base = SceneSpec(
        width=args.width,
        height=args.height,
        n_apples=args.apples,
        radius_min=args.radius_min,
        radius_max=args.radius_max,
        xs_fraction=args.xs_fraction,
        n_leaves=args.leaves,
        min_visible=args.min_visible,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i in range(args.count):
        spec = replace(base, seed=scene_seed(args.seed, i))
        scene = generate_scene(spec)
        outputs.extend(save_scene(scene, out, scene_stem(args.seed, i)))
    config = {
        "count": args.count,
        "width": args.width,
        "height": args.height,
        "apples": args.apples,
        "radius_min": args.radius_min,
        "radius_max": args.radius_max,
        "xs_fraction": args.xs_fraction,
        "leaves": args.leaves,
        "min_visible": args.min_visible,
        "seed": args.seed,
    }
    _write_manifest(out / "manifest.json", "synth", config, {}, outputs, args.seed)
    return 0


def _run_one(stem: str, args, grid, profile, out: Path) -> str:
    scene = load_scene(args.scenes, stem)
    if profile is not None:
        source = profile
    else:
        exchange_path = Path(args.exchange) / f"{stem}.jsonl"
        source = read_proposals(exchange_path) if exchange_path.exists() else []
    config = PipelineConfig(detector=source, grid=grid, nms_iou=args.nms_iou, top_k=args.top_k)
    if args.mode == "tiled":
        proposals = run_tiled(scene, config)
    else:
        proposals = run_whole(scene, config)
    name = f"{stem}.jsonl"
    write_proposals([record_from_proposal(stem, p) for p in proposals], out / name)
    return name


def cmd_run(args) -> int:
    stems = list_scene_stems(_existing_dir(args.scenes, "--scenes"))
    if args.exchange:
        _existing_dir(args.exchange, "--exchange")
    grid = None
    if args.mode == "tiled":
        grid = TileGridSpec(args.tile[0], args.tile[1], args.stride[0], args.stride[1])
    profile = None if args.exchange else _resolve_profile(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def work(stem: str) -> str:
        return _run_one(stem, args, grid, profile, out)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(work, stems))
    else:
        outputs = [work(s) for s in stems]

    config = {
        "mode": args.mode,
        "tile": list(args.tile),
        "stride": list(args.stride),
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


def _load_whole_image_proposals(path: Path, stem: str, width: int, height: int) -> list[Proposal]:
    proposals = []
    for rec in read_proposals(path):
        if rec.image_id != stem:
            raise ValueError(f"{path}: record image_id {rec.image_id!r} does not match {stem!r}")
        if rec.tile_index is not None:
            raise ValueError(f"{path}: expected whole-image records, found tile_index {rec.tile_index}")
        try:
            proposals.append(record_proposal(rec, width, height))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return proposals


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
        proposals = (
            _load_whole_image_proposals(path, stem, scene.width, scene.height)
            if path.exists()
            else []
        )
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
    proposals = _load_whole_image_proposals(
        Path(args.proposals), Path(args.proposals).stem, imap.width, imap.height
    )
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
    p.add_argument("--width", type=int, default=1280)
    p.add_argument("--height", type=int, default=720)
    p.add_argument("--apples", type=int, default=40)
    p.add_argument("--xs-fraction", type=float, default=0.51)
    p.add_argument("--leaves", type=int, default=120)
    p.add_argument("--radius-min", type=float, default=3.0)
    p.add_argument("--radius-max", type=float, default=24.0)
    p.add_argument("--min-visible", type=int, default=16)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="generate proposals for every scene")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detector", choices=sorted(PRESET_LEVELS), default="attentionmask")
    p.add_argument("--exchange", help="read per-image proposal JSONL from this directory instead of simulating")
    p.add_argument("--mode", choices=("whole", "tiled"), default="tiled")
    p.add_argument("--tile", type=_size, default=(320, 240))
    p.add_argument("--stride", type=_size, default=(160, 120))
    p.add_argument("--nms-iou", type=_iou_threshold, default=0.7)
    p.add_argument("--top-k", type=_positive_int, default=100)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--levels", type=_levels)
    p.add_argument("--input-size", type=_size)
    p.add_argument("--fill-min", type=float)
    p.add_argument("--fill-max", type=float)
    p.add_argument("--jitter", type=int)
    p.add_argument("--objectness-noise", type=float)
    p.add_argument("--detector-seed", type=int, dest="seed")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # covers the mask/pnm/exchange errors
        sys.stderr.write(json.dumps({"error": "data", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
