#!/usr/bin/env python3
"""End-to-end demo: synthesize a scene, run the tiled pipeline, render overlays.

Writes scene_demo.{ppm,pgm}, the proposal JSONL, and an overlay PPM showing
matched objects as filled colored contours and misses as red outlines.
"""

import argparse
import sys
from pathlib import Path

from smallprop.detector import preset
from smallprop.evaluation import evaluate_dataset, render_overlay, report_text, score_image
from smallprop.exchange import ProposalRecord, write_proposals
from smallprop.pipeline import run_tiled
from smallprop.raster import write_pnm
from smallprop.synth import SceneSpec, generate_scene, save_scene
from smallprop.tiling import TileGridSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--jitter", type=int, default=2)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene = generate_scene(SceneSpec(seed=args.seed))
    save_scene(scene, out, "scene_demo")

    profile = preset("attentionmask", jitter=args.jitter, objectness_noise=0.1)
    proposals = run_tiled(scene, profile, TileGridSpec(320, 240, 160, 120))
    write_proposals(
        [ProposalRecord("scene_demo", p.mask.width, p.mask.height, p.objectness, p.mask.runs) for p in proposals],
        out / "scene_demo.jsonl",
    )

    overlay = render_overlay(scene.image, scene.instances.pixels, proposals)
    write_pnm(overlay, out / "scene_demo_overlay.ppm")

    print(report_text([evaluate_dataset([score_image(scene.instances.pixels, proposals)], system="demo")]), end="")
    print(f"wrote {out}/scene_demo_overlay.ppm", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
