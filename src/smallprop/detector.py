"""Simulated proposal generator with a pyramid-derived detectable size band.

A profile models a detector that rescales its input region to a fixed
resolution and localizes objects with fixed 10x10-cell windows on a set of
pyramid levels. An object whose rescaled bounding-box side fills between
fill_min and fill_max of some window is detectable; the detectable band over
all levels is [fill_min*cells*min(levels), fill_max*cells*max(levels)].
Emitted masks are the ground-truth masks, optionally translated by a seeded
per-object jitter, so localization quality is controllable and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotations import GroundTruthObject
from .masks import BinaryMask, _clipped, _masks, _offsets_of, _span_runs
from .prng import MASK64, random, splitmix64_block, stream_seed

ALLOWED_LEVELS = (4, 8, 16, 32, 64, 128)

PRESET_LEVELS = {
    "attentionmask": (8, 16, 32, 64, 128),
    "attentionmask-4-16": (4, 8, 16),
    "fastmask": (16, 32, 64, 128),
}


@dataclass
class Proposal:
    """A candidate object of ``simulate``: a non-empty mask plus objectness in [0, 1]."""

    mask: BinaryMask
    objectness: float


@dataclass(eq=True)
class DetectorProfile:
    name: str
    levels: tuple[int, ...]
    input_w: int = 1280
    input_h: int = 960
    window_cells: int = 10
    fill_min: float = 0.4
    fill_max: float = 1.0
    jitter: int = 0
    objectness_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        levels = tuple(sorted({int(d) for d in self.levels}))
        if not levels:
            raise ValueError("profile needs at least one pyramid level")
        bad = [d for d in levels if d not in ALLOWED_LEVELS]
        if bad:
            raise ValueError(f"unsupported pyramid levels {bad}; allowed: {ALLOWED_LEVELS}")
        self.levels = levels
        if self.input_w < 1 or self.input_h < 1:
            raise ValueError("detector input resolution must be positive")
        if self.window_cells < 1:
            raise ValueError("window_cells must be positive")
        if not 0.0 < self.fill_min < self.fill_max <= 1.0:
            raise ValueError("need 0 < fill_min < fill_max <= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.objectness_noise < 1.0:
            raise ValueError("objectness_noise must lie in [0, 1)")


def preset(name: str, **overrides) -> DetectorProfile:
    """Build one of the named profiles, optionally overriding fields."""
    if name not in PRESET_LEVELS:
        raise ValueError(f"unknown detector preset {name!r}; choose from {sorted(PRESET_LEVELS)}")
    return DetectorProfile(name=name, levels=PRESET_LEVELS[name], **overrides)


def detectable_range(profile: DetectorProfile) -> tuple[float, float]:
    """Min and max localizable object side, in detector-input pixels."""
    s_min = profile.fill_min * profile.window_cells * min(profile.levels)
    s_max = profile.fill_max * profile.window_cells * max(profile.levels)
    return s_min, s_max


def band_score(profile: DetectorProfile, side: float) -> float:
    """Score in (0, 1] peaking at the geometric center of a level's fill band.

    Decays by half per band half-width (in log space) away from the nearest
    center, so objects marginal for every level rank lowest.
    """
    center = math.sqrt(profile.fill_min * profile.fill_max)
    half = math.log(profile.fill_max / profile.fill_min) / 2.0
    best = 0.0
    for d in profile.levels:
        fill = side / (profile.window_cells * d)
        s = 2.0 ** (-abs(math.log(fill / center)) / half)
        if s > best:
            best = s
    return best


def _moves(u: np.ndarray, jitter: int, sides: np.ndarray) -> np.ndarray:
    """randint(u, -jitter, jitter) of each draw u, cut to [-side, side] by its
    ``sides`` entry, exact for any jitter >= 0."""
    if jitter < 1 << 63:  # the span, 2 * jitter + 1, and every move fit in 64 bits
        moves = (u % np.uint64(2 * jitter + 1) - np.uint64(jitter)).view(np.int64)
    else:  # the span exceeds every draw, so a move is u - jitter, below 2**63
        jitter = min(jitter, MASK64 + (1 << 63))  # a larger jitter moves every draw below -2**63 too
        moves = np.where(u >= np.uint64(jitter - (1 << 63)), (u - np.uint64(jitter & MASK64)).view(np.int64), -1 << 63)
    return np.minimum(np.maximum(moves, -sides), sides)


def _emitted(profile: DetectorProfile, regions, ids, sides, frames, offsets, rows) -> tuple:
    """(objectness, areas, offsets, rows) of what the simulated detector emits
    for (region, object) pairs that passed the band filter, all columns. Pair
    k is keyed by its region's stream, ``regions[k]`` (stream_seed(seed, x0,
    y0); one int if every pair shares it), and the object's id ``ids[k]``,
    both uint64. It has the rescaled side ``sides[k]``, its region's frame
    ``frames[k]``, (x0, y0, x1, y1), and the object's row runs in the frame,
    rows[offsets[k]:offsets[k + 1]], at least one. It draws dx, dy and the
    noise, in that order, from the stream keyed by the id from its region's;
    every pair's draws are made at once, as uint64 columns. A move past the
    frame's side leaves no pixel, so it is cut to that side. Its candidate is
    its runs moved, clipped to the frame, if any are left. The band score is
    taken once per distinct side.
    """
    draws = splitmix64_block(stream_seed(regions, ids), 3)
    dx, dy = _moves(draws[:, :2], profile.jitter, frames[:, 2:] - frames[:, :2]).T
    distinct = sorted(set(sides.tolist()))
    scores = np.array([band_score(profile, side) for side in distinct], dtype=float)[np.searchsorted(distinct, sides)]
    objectness = (1.0 - profile.objectness_noise * random(draws[:, 2])) * scores
    cuts = offsets[:-1]
    # the frame, and the move of a row run (y, x0, x1), of each run
    moves = np.repeat(np.column_stack((frames, dy, dx, dx)), offsets[1:] - cuts, axis=0)
    clipped, inside = _clipped(rows + moves[:, 4:], *moves[:, :4].T)
    areas = np.add.reduceat(np.where(inside, clipped[:, 2] - clipped[:, 1], 0), cuts)
    kept = areas > 0
    return (objectness[kept], areas[kept],
            _offsets_of(np.add.reduceat(inside, cuts, dtype=np.int64)[kept]), clipped[inside])


def simulate(profile: DetectorProfile, region_w: int, region_h: int, gt: list[GroundTruthObject],
             origin: tuple[int, int] = (0, 0)) -> list[Proposal]:
    """Emit one proposal per ground-truth object inside the detectable band.

    The ``gt`` masks must lie on the region_w x region_h region canvas. The
    region is virtually rescaled by min(input_w/region_w, input_h/region_h);
    an object is emitted iff its rescaled bbox side lies in the profile's
    detectable range. Each emitted mask is the ground-truth mask shifted by a
    jitter drawn from a stream keyed by (seed, origin, instance_id), clipped
    to the region (``_emitted``, the region its only frame); draw order is
    dx, dy, noise. The whole function is a pure function of its arguments.
    """
    if any((obj.mask.width, obj.mask.height) != (region_w, region_h) for obj in gt):
        raise ValueError(f"ground-truth masks must lie on the {region_w}x{region_h} region canvas")
    if region_w < 1 or region_h < 1:
        raise ValueError("region must have positive area")
    scale = min(profile.input_w / region_w, profile.input_h / region_h)
    s_min, s_max = detectable_range(profile)
    tried = [(int(obj.instance_id) & MASK64, eff, obj.mask.rows) for obj in gt
             if s_min <= (eff := max(obj.mask.bbox.w, obj.mask.bbox.h) * scale) <= s_max]
    if not tried:
        return []
    ids, sides, rows = zip(*tried)
    objectness, _, offsets, rows = _emitted(profile, stream_seed(profile.seed, *origin), np.array(ids, dtype=np.uint64),
                                            np.array(sides), np.array([(0, 0, region_w, region_h)] * len(ids)),
                                            np.cumsum([0, *map(len, rows)]), np.concatenate(rows))
    starts = rows[:, 0] * region_w
    runs, bounds = _span_runs(offsets, starts + rows[:, 1], starts + rows[:, 2], region_w * region_h)
    runs, bounds = runs.tolist(), bounds.tolist()
    masks = _masks(region_w, region_h, offsets, rows, [tuple(runs[a:b]) for a, b in zip(bounds, bounds[1:])])
    return [Proposal(m, o) for m, o in zip(masks, objectness.tolist())]
