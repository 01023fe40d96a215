"""Deterministic synthetic orchard scenes with per-instance ground truth.

Apples are filled disks drawn in painter's order, so later apples occlude
earlier ones; elliptical leaf clutter is drawn last and occludes everything.
The instance map records the visible pixels of each surviving apple. All
randomness comes from a single splitmix64 stream seeded by the scene spec,
which makes generation a pure function of the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotations import GroundTruthObject, InstanceMap, extract_instances, instance_map_from_raster, instance_map_to_raster
from .prng import SplitMix64, stream_seed
from .raster import RasterImage, read_pnm, write_pnm

# Radius bands of the two mixture components. A rasterized disk of radius
# 12.0 covers 441 px (below the 506.25 XS bound), one of radius 13.3 covers
# 553 px (above it), so drawn component membership matches the XS split.
XS_RADIUS_MAX = 12.0
LARGE_RADIUS_MIN = 13.3

_LEAF_AX = (18.0, 44.0)
_LEAF_AY = (8.0, 18.0)


@dataclass(eq=True)
class SceneSpec:
    width: int = 1280
    height: int = 720
    n_apples: int = 40
    radius_min: float = 3.0
    radius_max: float = 24.0
    xs_fraction: float = 0.51
    n_leaves: int = 120
    min_visible: int = 16
    seed: int = 42

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("scene canvas must have positive area")
        if self.radius_min < 2:
            raise ValueError("radius_min must be at least 2")
        if self.radius_max < self.radius_min:
            raise ValueError("radius_max must be >= radius_min")
        if not 0.0 <= self.xs_fraction <= 1.0:
            raise ValueError("xs_fraction must lie in [0, 1]")
        if self.n_apples < 0 or self.n_leaves < 0 or self.min_visible < 0:
            raise ValueError("counts must be non-negative")
        if self.n_apples > 0xFFFF:
            raise ValueError("n_apples must be at most 65535: instance ids are 16-bit")


@dataclass
class Scene:
    """Rendered image plus instance labels and extracted objects.

    image may be None for ground-truth-only loads; instances is always set.
    """

    image: RasterImage | None
    instances: InstanceMap
    objects: list[GroundTruthObject]

    @property
    def width(self) -> int:
        return self.instances.width

    @property
    def height(self) -> int:
        return self.instances.height


def _draw_disk(img, labels, cx, cy, r, color, idx) -> None:
    h, w = labels.shape
    y0 = max(int(math.ceil(cy - r)), 0)
    y1 = min(int(math.floor(cy + r)), h - 1)
    for y in range(y0, y1 + 1):
        half = math.sqrt(max(r * r - (y - cy) ** 2, 0.0))
        x0 = max(int(math.ceil(cx - half)), 0)
        x1 = min(int(math.floor(cx + half)), w - 1)
        if x0 <= x1:
            img[y, x0 : x1 + 1] = color
            labels[y, x0 : x1 + 1] = idx


def _draw_ellipse(img, labels, cx, cy, ax, ay, color) -> None:
    h, w = labels.shape
    y0 = max(int(math.ceil(cy - ay)), 0)
    y1 = min(int(math.floor(cy + ay)), h - 1)
    for y in range(y0, y1 + 1):
        t = 1.0 - ((y - cy) / ay) ** 2
        half = ax * math.sqrt(max(t, 0.0))
        x0 = max(int(math.ceil(cx - half)), 0)
        x1 = min(int(math.floor(cx + half)), w - 1)
        if x0 <= x1:
            img[y, x0 : x1 + 1] = color
            labels[y, x0 : x1 + 1] = 0


def generate_scene(spec: SceneSpec) -> Scene:
    """Render a scene; identical specs produce byte-identical scenes."""
    rng = SplitMix64(spec.seed)
    w, h = spec.width, spec.height
    shade = np.array([rng.randint(0, 18) for _ in range(h)], dtype=np.uint8)[:, None]
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:, :, 0] = 30 + shade
    img[:, :, 1] = 66 + shade
    img[:, :, 2] = 36 + shade // 2
    labels = np.zeros((h, w), dtype=np.uint16)

    xs_hi = max(min(XS_RADIUS_MAX, spec.radius_max), spec.radius_min)
    big_lo = min(max(LARGE_RADIUS_MIN, spec.radius_min), spec.radius_max)
    for idx in range(1, spec.n_apples + 1):
        take_xs = rng.random() < spec.xs_fraction
        if take_xs:
            r = rng.uniform(spec.radius_min, xs_hi)
        else:
            r = rng.uniform(big_lo, spec.radius_max)
        cx = rng.uniform(0.0, float(w))
        cy = rng.uniform(0.0, float(h))
        color = (rng.randint(150, 215), rng.randint(35, 85), rng.randint(30, 70))
        _draw_disk(img, labels, cx, cy, r, color, idx)

    for _ in range(spec.n_leaves):
        cx = rng.uniform(0.0, float(w))
        cy = rng.uniform(0.0, float(h))
        ax = rng.uniform(*_LEAF_AX)
        ay = rng.uniform(*_LEAF_AY)
        color = (rng.randint(120, 200), rng.randint(45, 105), rng.randint(30, 75))
        _draw_ellipse(img, labels, cx, cy, ax, ay, color)

    counts = np.bincount(labels.ravel(), minlength=spec.n_apples + 1)
    weak = np.flatnonzero((counts > 0) & (counts < spec.min_visible))
    if weak.size:
        labels[np.isin(labels, weak)] = 0

    imap = InstanceMap(labels)
    return Scene(RasterImage(img), imap, extract_instances(imap))


def scene_seed(master_seed: int, index: int) -> int:
    """Per-scene seed for scene <index> of a batch."""
    return stream_seed(master_seed, index)


def scene_stem(master_seed: int, index: int) -> str:
    return f"scene_{master_seed}_{index:04d}"


def save_scene(scene: Scene, out_dir, stem: str) -> tuple[str, str]:
    """Write <stem>.ppm and <stem>.pgm; returns the two file names."""
    if scene.image is None:
        raise ValueError("scene has no image to save")
    out = Path(out_dir)
    write_pnm(scene.image, out / f"{stem}.ppm")
    write_pnm(instance_map_to_raster(scene.instances), out / f"{stem}.pgm")
    return f"{stem}.ppm", f"{stem}.pgm"


def load_scene(scene_dir, stem: str, with_image: bool = False) -> Scene:
    """Load a saved scene; objects are re-extracted from the instance map."""
    base = Path(scene_dir)
    imap = instance_map_from_raster(read_pnm(base / f"{stem}.pgm"))
    image = read_pnm(base / f"{stem}.ppm") if with_image else None
    return Scene(image, imap, extract_instances(imap))


def list_scene_stems(scene_dir) -> list[str]:
    """Sorted stems of all instance maps in a directory."""
    return sorted(p.stem for p in Path(scene_dir).glob("*.pgm"))
