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
from functools import cached_property
from pathlib import Path

import numpy as np

from .annotations import GroundTruthObject, extract_instances
from .prng import randint, random, splitmix64_block, stream_seed, uniform
from .raster import RasterImage, pnm_shape, read_pnm, write_pnm

# Radius bands of the two mixture components. A rasterized disk of radius
# 12.0 covers 441 px (below the 506.25 XS bound), one of radius 13.3 covers
# 553 px (above it), so drawn component membership matches the XS split.
XS_RADIUS_MAX = 12.0
LARGE_RADIUS_MIN = 13.3

_LEAF_AX = (18.0, 44.0)
_LEAF_AY = (8.0, 18.0)
_APPLE_RGB = ((150, 215), (35, 85), (30, 70))  # inclusive (lo, hi) of each channel
_LEAF_RGB = ((120, 200), (45, 105), (30, 75))


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
        # negated, so that NaN, which fails every comparison, fails each check
        if not self.radius_min >= 2:
            raise ValueError("radius_min must be at least 2")
        if not self.radius_max >= self.radius_min:
            raise ValueError("radius_max must be >= radius_min")
        if not math.isfinite(self.radius_max * self.radius_max):  # the rasterizer squares the radius
            raise ValueError("radius_max must be finite and have a finite square")
        if not 0.0 <= self.xs_fraction <= 1.0:
            raise ValueError("xs_fraction must lie in [0, 1]")
        if self.n_apples < 0 or self.n_leaves < 0 or self.min_visible < 0:
            raise ValueError("counts must be non-negative")
        if self.n_apples > 0xFFFF:
            raise ValueError("n_apples must be at most 65535: instance ids are 16-bit")


class Scene:
    """Rendered image, its 16-bit gray instance map and the objects extracted
    from it; image is None for ground-truth-only loads. ``objects`` is
    extracted on first use.
    """

    def __init__(self, image: RasterImage | None, instances: RasterImage) -> None:
        self.image = image
        self.instances = instances
        self.height, self.width = instances.height, instances.width

    @cached_property
    def objects(self) -> list[GroundTruthObject]:
        return extract_instances(self.instances.pixels)


class _SavedScene(Scene):
    """The instance map file of a saved scene, whose header gave its size; its
    pixels are read on first use of ``instances``."""

    def __init__(self, path: Path, height: int, width: int) -> None:
        self.image, self.path, self.height, self.width = None, path, height, width

    @cached_property
    def instances(self) -> RasterImage:
        return read_instances(self.path)


def _span(c, half, size: int):
    """Start and length of the integers in [c - half, c + half] that lie in [0, size)."""
    start = np.maximum(np.ceil(c - half), 0).astype(np.intp)
    return start, np.maximum(np.minimum(np.floor(c + half), size - 1).astype(np.intp) - start + 1, 0)


def _expand(start, length):
    """The ranges start[i] .. start[i] + length[i] - 1, concatenated."""
    out = np.repeat(start - (np.cumsum(length) - length), length)
    out += np.arange(len(out))
    return out


def generate_scene(spec: SceneSpec) -> Scene:
    """Render a scene; identical specs produce byte-identical scenes. Its draws are
    one shade per row, then 7 per apple and 7 per leaf; shapes are numbered apples
    1..n_apples, then leaves, and the highest shape index covering a pixel owns it."""
    w, h, n = spec.width, spec.height, spec.n_apples
    u = splitmix64_block(spec.seed, h + 7 * (n + spec.n_leaves))
    apple, leaf = u[h : h + 7 * n].reshape(n, 7).T, u[h + 7 * n :].reshape(-1, 7).T
    img = np.empty((h, w, 3), dtype=np.uint8)
    s = np.arange(19, dtype=np.uint8)  # each row has one of 19 shades: gather whole shaded rows
    np.take(np.tile(np.column_stack([30 + s, 66 + s, 36 + s // 2]), w), randint(u[:h], 0, 18), axis=0,
            out=img.reshape(h, w * 3))
    labels = np.zeros((h, w), dtype=np.uint16)  # outputs before temporaries: a smaller heap peak

    xs_hi = max(min(XS_RADIUS_MAX, spec.radius_max), spec.radius_min)
    big_lo = min(max(LARGE_RADIUS_MIN, spec.radius_min), spec.radius_max)
    take_xs = random(apple[0]) < spec.xs_fraction
    r = uniform(apple[1], np.where(take_xs, spec.radius_min, big_lo), np.where(take_xs, xs_hi, spec.radius_max))
    cx = uniform(np.concatenate([apple[2], leaf[0]]), 0.0, float(w))
    cy = uniform(np.concatenate([apple[3], leaf[1]]), 0.0, float(h))
    ax, ay = uniform(leaf[2], *_LEAF_AX), uniform(leaf[3], *_LEAF_AY)

    # every covered row: its half-width from the row loop's float expressions
    # (float_power is the C library's pow, as Python's ** is), then its span
    y0, rows = _span(cy, np.concatenate([r, ay]), h)
    shape, y = np.repeat(np.arange(len(cy)), rows), _expand(y0, rows)
    d, k = y - cy[shape], np.searchsorted(shape, n)
    ri, li = r[shape[:k]], shape[k:] - n
    half = np.concatenate([
        np.sqrt(np.maximum(ri * ri - np.float_power(d[:k], 2.0), 0.0)),
        ax[li] * np.sqrt(np.maximum(1.0 - np.float_power(d[k:] / ay[li], 2.0), 0.0)),
    ])
    x0, length = _span(cx[shape], half, w)
    pix = _expand(y * w + x0, length)

    # painter's order: the highest shape index covering a pixel owns it, and
    # a shape covers a pixel at most once, so one entry per painted pixel wins
    grid = np.zeros(h * w, dtype=np.min_scalar_type(len(cx)))
    index = np.repeat((shape + 1).astype(grid.dtype), length)
    np.maximum.at(grid, pix, index)
    won = grid[pix] == index
    pix, owner = pix[won], index[won]
    # the winners keep shape order, so apples' pixels come first; leaves hide
    # apples but carry no label, and apples under min_visible lose theirs
    m = np.searchsorted(owner, n, "right")
    ids = np.arange(n + 1, dtype=np.uint16)
    ids[np.bincount(owner[:m], minlength=n + 1) < spec.min_visible] = 0
    labels.reshape(-1)[pix[:m]] = ids[owner[:m]]
    rgb, color = img.reshape(-1, 3), np.zeros(len(cx) + 1, dtype=np.uint8)  # shape i's colour at i
    for c, (apple_rgb, leaf_rgb) in enumerate(zip(_APPLE_RGB, _LEAF_RGB)):
        color[1:] = np.concatenate([randint(apple[4 + c], *apple_rgb), randint(leaf[4 + c], *leaf_rgb)])
        rgb[:, c][pix] = color[owner]

    return Scene(RasterImage(img), RasterImage(labels))


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
    write_pnm(scene.instances, out / f"{stem}.pgm")
    return f"{stem}.ppm", f"{stem}.pgm"


def _require_gray(path, shape: tuple[int, ...]) -> None:
    if len(shape) != 2:
        raise ValueError(f"{path}: instance maps are 16-bit gray rasters")


def read_instances(path) -> RasterImage:
    """Read an instance map: a 16-bit gray raster, pixel = instance id, 0 = background."""
    imap = read_pnm(path)
    _require_gray(path, imap.pixels.shape)
    return imap


def load_scene(scene_dir, stem: str) -> Scene:
    """A saved scene. Its instance map is checked now as ``read_instances``
    checks it, but read on first use of ``instances``."""
    path = Path(scene_dir) / f"{stem}.pgm"
    shape = pnm_shape(path)
    _require_gray(path, shape)
    return _SavedScene(path, *shape)


def list_scene_stems(scene_dir) -> list[str]:
    """Sorted stems of all instance maps in a directory."""
    return sorted(p.stem for p in Path(scene_dir).glob("*.pgm"))
