"""Command-line entry point: synth, run, eval, and overlay subcommands.

Every subcommand is deterministic given its flags and writes a manifest next
to its outputs; identical manifests imply byte-identical outputs. Exit codes:
0 success, 1 usage error (a flag value invalid whatever the input), 2 data,
validation or internal error. Errors are emitted on stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import pickle
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import NoReturn

from . import __version__
from .detector import DetectorProfile, preset, PRESET_LEVELS
from .exchange import ExchangeFormatError, ProposalBatch, _batch, read_proposals, write_proposals
from .evaluation import evaluate_dataset, render_overlay, report_csv, report_json, report_text, score_image
from .pipeline import fit, run_tiled, run_whole
from .raster import PnmFormatError, read_pnm, write_pnm
from .synth import (SceneSpec, generate_scene, list_scene_stems, load_scene, read_instances, save_scene,
                    scene_seed, scene_stem)
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


def _out_is_not_an_input(out: Path, inputs: dict, what: str = "the same directory") -> None:
    """Reject an --out directory or file that is an input (flag -> path or None), which it would overwrite."""
    same = [f for f, d in inputs.items() if d and Path(d).resolve() == out.resolve()]
    if same:
        raise UsageError(f"--out: {what} as {', '.join(same)}")


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


_NO_PROPOSALS = _batch([], None)  # the records of a scene without a proposal file


def _no_stray_files(proposals_dir: Path, stems) -> None:
    """Reject proposal files in ``proposals_dir`` whose stem names none of the scenes ``stems``."""
    known = set(stems)
    unknown = sorted(p.stem for p in proposals_dir.glob("*.jsonl") if p.stem not in known)
    if unknown:
        raise ValueError(f"proposal files without matching scenes: {', '.join(unknown)}")


def _whole_image_proposals(path: Path, width: int, height: int) -> ProposalBatch:
    """The records of a file of whole-image records for a width x height image."""
    batch = read_proposals(path)
    try:
        fit(batch, width, height)  # checks that each record is a whole-image one of the image's size
    except ExchangeFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return batch


def _usable_cpus() -> int:
    """The CPUs this process may run on, the worker count of synth and eval."""
    if hasattr(os, "sched_getaffinity"):  # absent on macOS
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work_share(work, items, first: int, step: int, fd: int):
    """A forked worker: ``work`` on items first, first + step, ... in order, up
    to the first failure. Sends back on the pipe ``fd`` one pickle of (results,
    (index, exception) of the failure or None). Never returns, so nothing of
    the parent's stack runs or flushes here."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            results, failure = [], None
            for i in range(first, len(items), step):
                try:
                    results.append(work(items[i]))
                except Exception as exc:
                    failure = (i, exc)
                    break
            pipe.write(pickle.dumps((results, failure)))
        code = 0
    finally:
        os._exit(code)


def _for_each(work, items, workers: int) -> list:
    """``[work(item) for item in items]``, in ``min(workers, len(items))``
    forked processes (none when that is 1 or the OS cannot fork); worker k
    takes items k, k + W, ...

    Every worker is waited for, then the failure of the lowest index is
    raised, the error a serial loop raises; a worker that died before
    reporting is an internal error naming its exit status. Fork, because the
    CLI starts no threads and a spawned worker would import numpy again.
    """
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork"):  # no fork on Windows
        return [work(item) for item in items]
    children = []  # (pid, read end of its pipe)
    try:
        for k in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work_share(work, items, k, workers, w)
            os.close(w)
            children.append((pid, r))
    finally:
        ends = []  # (message, exit status) of each worker
        for pid, r in children:
            with open(r, "rb") as pipe:
                message = pipe.read()
            ends.append((message, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    dead = [code for _, code in ends if code]
    if dead:
        raise RuntimeError(f"a worker process ended with exit status {dead[0]}")
    shares = [pickle.loads(message) for message, _ in ends]
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [shares[i % workers][0][i // workers] for i in range(len(items))]


def _synth_one(index: int, base: SceneSpec, seed: int, out: Path) -> None:
    scene = generate_scene(replace(base, seed=scene_seed(seed, index)))
    save_scene(scene, out, scene_stem(seed, index))


def cmd_synth(args) -> int:
    given = _given(args, _SCENE_FLAGS)
    base = _usage(given, SceneSpec, **{_SCENE_FLAGS[f][0]: v for f, v in given.items()})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # scenes are independent and no output depends on the worker count
    _for_each(partial(_synth_one, base=base, seed=args.seed, out=out), range(args.count), _usable_cpus())
    outputs = [f"{scene_stem(args.seed, i)}{ext}" for i in range(args.count) for ext in (".ppm", ".pgm")]
    # the manifest keys are the flag names
    config = {f[2:].replace("-", "_"): getattr(base, field) for f, (field, _) in _SCENE_FLAGS.items()}
    config.update(count=args.count, seed=args.seed)
    _write_manifest(out / "manifest.json", "synth", config, {}, outputs, args.seed)
    return 0


def _run_one(stem: str, args, grid, profile, out: Path) -> None:
    scene = load_scene(args.scenes, stem)
    path = Path(args.exchange) / f"{stem}.jsonl" if args.exchange else None
    source = profile or (read_proposals(path) if path.exists() else _NO_PROPOSALS)
    try:
        if args.mode == "tiled":
            kept = run_tiled(scene, source, grid, args.nms_iou, args.top_k)
        else:
            kept = run_whole(scene, source, args.nms_iou, args.top_k)
    except ExchangeFormatError as exc:  # a record that does not fit
        raise ValueError(f"{path}: {exc}") from None
    except PnmFormatError:  # the instance map, read on first use, names itself
        raise
    except ValueError as exc:  # a grid that does not fit the scene
        raise ValueError(f"{scene.path}: {exc}") from None
    write_proposals(kept.records(stem), out / f"{stem}.jsonl")


def cmd_run(args) -> int:
    # whole mode runs one tile over the image, so grid flags would be ignored
    grid_flags = _given(args, {"--tile": ("tile", _size), "--stride": ("stride", _size)})
    if args.mode == "whole" and grid_flags:
        raise UsageError(f"{', '.join(grid_flags)}: grid flags do not apply with --mode whole")
    tile, stride = args.tile or (320, 240), args.stride or (160, 120)
    grid = _usage(("--tile", "--stride"), TileGridSpec, *tile, *stride)
    profile = _resolve_profile(args)
    out = Path(args.out)
    _out_is_not_an_input(out, {"--scenes": args.scenes, "--exchange": args.exchange})
    stems = list_scene_stems(_existing_dir(args.scenes, "--scenes"))
    if args.exchange:
        _no_stray_files(_existing_dir(args.exchange, "--exchange"), stems)
    out.mkdir(parents=True, exist_ok=True)

    _for_each(partial(_run_one, args=args, grid=grid, profile=profile, out=out), stems, args.jobs)
    outputs = [f"{stem}.jsonl" for stem in stems]

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


def _score_one(stem: str, scenes: str, proposals_dir: Path):
    scene = load_scene(scenes, stem)
    path = proposals_dir / f"{stem}.jsonl"
    batch = _whole_image_proposals(path, scene.width, scene.height) if path.exists() else _NO_PROPOSALS
    return score_image(scene.instances.pixels, batch)


def cmd_eval(args) -> int:
    prefix = Path(args.out)
    _out_is_not_an_input(prefix.parent, {"--scenes": args.scenes, "--proposals": args.proposals})
    stems = list_scene_stems(_existing_dir(args.scenes, "--scenes"))
    proposals_dir = _existing_dir(args.proposals, "--proposals")
    _no_stray_files(proposals_dir, stems)

    system = args.system or proposals_dir.name
    # scenes are scored independently; only their (sizes, pairs) come back to be pooled
    scored = _for_each(partial(_score_one, scenes=args.scenes, proposals_dir=proposals_dir), stems, _usable_cpus())
    report = evaluate_dataset(scored, system=system)
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
    inputs = {"image": args.image, "instances": args.instances, "proposals": args.proposals}
    flags = {f"--{k}": v for k, v in inputs.items()}
    manifest = Path(str(args.out) + ".manifest.json")
    _out_is_not_an_input(Path(args.out), flags, "the same file")
    _out_is_not_an_input(manifest, flags, "its manifest is the same file")
    image = read_pnm(args.image)
    if image.channels != 3:
        raise ValueError(f"{args.image}: overlay rendering needs an RGB image")
    imap = read_instances(args.instances)
    if (image.width, image.height) != (imap.width, imap.height):
        raise ValueError(f"{args.image} is {image.width}x{image.height}, "
                         f"{args.instances} is {imap.width}x{imap.height}")
    proposals = _whole_image_proposals(Path(args.proposals), imap.width, imap.height)
    overlay = render_overlay(image, imap.pixels, proposals.top(args.top_k))
    write_pnm(overlay, args.out)
    _write_manifest(
        manifest, "overlay", {**inputs, "top_k": args.top_k}, inputs,
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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def _keep_freed_memory() -> None:
    """Ask glibc's malloc to keep freed memory for reuse: arrays up to 32 MiB,
    a whole scene's, come from the heap instead of their own mmap, and the heap
    keeps up to 64 MiB free at its top instead of returning it to the OS. A
    process that handles scene after scene then reuses its pages instead of
    faulting fresh ones in for each scene. Forked workers inherit the setting.
    Does nothing where the C library has no mallopt (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: Windows loads no library by None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # so a failed write to stdout is a data error like any other
        return code
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except (ValueError, OSError) as exc:  # covers the mask/pnm/exchange errors
        sys.stderr.write(json.dumps({"error": "data", "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # e.g. a worker process that died; keeps the one-line contract
        sys.stderr.write(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 2


def entry() -> NoReturn:
    """The process entry point, of ``python -m smallprop.cli`` and of the
    ``smallprop`` script: ``main()``, then stdout and stderr flushed and the
    process ended with its exit code by ``os._exit``, which skips interpreter
    teardown, so ``atexit`` handlers do not run. Every output file is closed
    before ``main`` returns, and ``main`` has flushed stdout or reported why
    it could not."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError):  # main has reported a failed write to stdout
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
