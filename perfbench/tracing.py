"""In-process tracing by wrapping smallprop's public functions where they are called.

A hook replaces a name in the namespace of the module that calls it, for
example ``smallprop.pipeline.nms`` or ``smallprop.evaluation.mask_iou``, so
nothing under ``src/`` changes. Each wrapped call is a span; a span's self
time is its duration minus the time of the spans it encloses. Spans are
aggregated by layer name as they close, because NMS on exchange30 makes over
a million ``mask_iou`` calls and keeping each span would cost more than the
work it measures. Counters are taken at the same boundaries.

A hook whose target no longer exists is recorded as missing, and a counter
that cannot be read from a call's arguments or result is recorded as
unavailable; neither stops the run.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


def _fragment(args, result) -> int:
    # a crop that keeps only part of the object: the tile border cut it
    return int(0 < result.area < args[0].area)


TILES = [("tiling.tiles", lambda a, r: len(r))]
CROPS = [("masks.crops", lambda a, r: 1), ("masks.fragments", _fragment)]
SIMULATED = [("detector.gt_in", lambda a, r: len(a[3])), ("detector.emitted", lambda a, r: len(r))]
WRITTEN = [("exchange.records_written", lambda a, r: len(a[0]))]

# (module, attribute, layer, counters); each counter is (name, fn(args, result)).
# A string in place of the counters marks a leaf hook: a hot call (over a
# million per pass on exchange30) that encloses no other span, timed and
# counted by a leaner wrapper whose counter is the call count.
HOOKS = [
    ("smallprop.cli", "generate_scene", "synth.generate",
     [("synth.objects", lambda a, r: len(r.objects))]),
    ("smallprop.synth", "write_pnm", "raster.write",
     [("raster.bytes_written", lambda a, r: os.path.getsize(a[1]))]),
    ("smallprop.synth", "read_pnm", "raster.read",
     [("raster.bytes_read", lambda a, r: os.path.getsize(a[0]))]),
    ("smallprop.synth", "extract_instances", "annotations.extract",
     [("annotations.instances", lambda a, r: len(r))]),
    ("smallprop.pipeline", "plan_grid", "tiling.plan", TILES),
    ("smallprop.pipeline", "remap_mask", "tiling.remap", [("tiling.remaps", lambda a, r: 1)]),
    ("smallprop.pipeline", "crop_mask", "masks.crop", CROPS),
    ("smallprop.pipeline", "simulate", "detector.simulate", SIMULATED),
    ("smallprop.pipeline", "nms", "pipeline.nms",
     [("pipeline.nms_in", lambda a, r: len(a[0])), ("pipeline.nms_kept", lambda a, r: len(r))]),
    ("smallprop.pipeline", "mask_iou", "masks.iou", "masks.iou_calls.nms"),
    ("smallprop.evaluation", "mask_iou", "masks.iou", "masks.iou_calls.eval"),
    ("smallprop.cli", "run_tiled", "pipeline.run", []),
    ("smallprop.cli", "run_whole", "pipeline.run", []),
    ("smallprop.cli", "write_proposals", "exchange.write", WRITTEN),
    ("smallprop.cli", "read_proposals", "exchange.read",
     [("exchange.records_read", lambda a, r: len(r)),
      ("exchange.bytes_read", lambda a, r: os.path.getsize(a[0]))]),
    ("smallprop.cli", "evaluate_dataset", "evaluation.evaluate", []),
]

# The set-up module of the exchange workload calls the same public functions,
# so its calls are traced under the same layers.
SETUP_HOOKS = [
    ("exchange_setup", "plan_grid", "tiling.plan", TILES),
    ("exchange_setup", "crop_mask", "masks.crop", CROPS),
    ("exchange_setup", "simulate", "detector.simulate", SIMULATED),
    ("exchange_setup", "write_proposals", "exchange.write", WRITTEN),
]


class Tracer:
    """Self time and counters per layer, plus per-phase counters for checks.

    One span stack serves all calls, so traced code must run on one thread;
    the benchmark's in-process passes use ``--jobs 1``.
    """

    def __init__(self, setup_hooks: bool = False) -> None:
        self.hooks = HOOKS + SETUP_HOOKS if setup_hooks else HOOKS
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.phase_counters: dict[tuple[str, str], int] = defaultdict(int)
        self.nms_kept: list[tuple[str, int]] = []  # (phase, kept) per nms call
        self.topk_dropped = 0
        self.phase = ""
        self.missing: list[str] = []
        self.unavailable: set[str] = set()
        self.installed: set[str] = set()  # counters of the hooks in place
        self._frames: list[list[float]] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, counters):
        tracer, frames = self, self._frames

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                tracer.self_s[layer] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
            for name, count in counters:
                try:
                    n = count(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    tracer.unavailable.add(name)
                    continue
                tracer.counters[name] += n
                tracer.phase_counters[(tracer.phase, name)] += n
                if name == "pipeline.nms_kept":
                    tracer.nms_kept.append((tracer.phase, n))
            if layer == "pipeline.run" and tracer.nms_kept:
                try:
                    tracer.topk_dropped += tracer.nms_kept[-1][1] - len(result)
                except TypeError:
                    tracer.unavailable.add("pipeline.topk_dropped")
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn, layer: str, counter: str):
        frames, self_s, counters = self._frames, self.self_s, self.counters

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self_s[layer] += dt
            counters[counter] += 1
            if frames:
                frames[-1][0] += dt
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, layer, counters in self.hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            self.installed.update([counters] if isinstance(counters, str) else (n for n, _ in counters))
            wrap = self._wrap_leaf if isinstance(counters, str) else self._wrap
            setattr(module, attr, wrap(fn, layer, counters))

    def measured(self, counter: str) -> bool:
        """True if a hook in place produced this counter on every call."""
        return counter in self.installed and counter not in self.unavailable

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
