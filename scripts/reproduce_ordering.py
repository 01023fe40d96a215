#!/usr/bin/env python3
"""Compare tiled and whole-image detector configurations on synthetic scenes.

Generates a batch of orchard scenes, runs three systems (tiled attentionmask,
whole-image attentionmask-4-16, whole-image attentionmask), and prints one
combined size-stratified average-recall table. With the defaults this
reproduces the expected ordering: tiling wins overall and on very small
objects, the extended-pyramid variant comes second, and the stock profile
trails because it cannot see objects below a 32 px side.
"""

import argparse
import sys
from dataclasses import replace
from functools import partial

from smallprop.detector import preset
from smallprop.evaluation import evaluate_dataset, report_text, score_image
from smallprop.pipeline import run_tiled, run_whole
from smallprop.synth import SceneSpec, generate_scene, scene_seed
from smallprop.tiling import TileGridSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenes", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--jitter", type=int, default=2)
    ap.add_argument("--objectness-noise", type=float, default=0.1)
    args = ap.parse_args()

    base = SceneSpec()
    scenes = [
        generate_scene(replace(base, seed=scene_seed(args.seed, i)))
        for i in range(args.scenes)
    ]
    print(f"generated {len(scenes)} scenes, "
          f"{sum(len(s.objects) for s in scenes)} annotated objects", file=sys.stderr)

    systems = (
        ("tiled-attentionmask", partial(run_tiled, grid=TileGridSpec(320, 240, 160, 120)), "attentionmask"),
        ("whole-attentionmask-4-16", run_whole, "attentionmask-4-16"),
        ("whole-attentionmask", run_whole, "attentionmask"),
        ("whole-fastmask", run_whole, "fastmask"),
    )
    reports = []
    for name, run, det in systems:
        profile = preset(det, jitter=args.jitter, objectness_noise=args.objectness_noise)
        scored = [score_image(scene.instances.pixels, run(scene, profile)) for scene in scenes]
        reports.append(evaluate_dataset(scored, system=name))
        print(f"evaluated {name}", file=sys.stderr)

    print(report_text(reports), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
