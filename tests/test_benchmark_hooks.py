"""The benchmark under perfbench/ reaches smallprop by name; these names must exist.

The benchmark's tracer wraps functions by (module, attribute) and records a
missing one instead of failing, and its exchange set-up imports package
names directly. A refactor that drops such a name, or reads proposal files
around the hooked ``cli.read_proposals``, would quietly weaken a benchmark
guard, so it fails here instead.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

from smallprop import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the hooked names the package no longer has, in hook order (see test_benchmark_hooks_resolve)
PIPELINE_GONE = ["smallprop.pipeline.remap_mask", "smallprop.pipeline.crop_mask", "smallprop.pipeline.simulate",
                 "smallprop.pipeline.mask_iou", "smallprop.evaluation.mask_iou"]

# SHA-256 of each file exchange_setup.write_exchange(..., 42) writes for the
# scenes of `synth --count 2 --width 320 --height 240` (seed 42): the
# benchmark's input, pinned so that a change to how records are written fails
# here and not only in the benchmark's own digests
EXCHANGE_SETUP_DIGESTS = {
    "scene_42_0000.jsonl": "f064ddefcb4d44b33d2a673c810c474b56377ce5b59da083cd7f551114247e2d",
    "scene_42_0001.jsonl": "90dd50665874c07c06953c3764aae0157f94210c6e6bd38677dfa5ff99c69e62",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracing = _load("tracing")
    exchange_setup = _load("exchange_setup")
    missing = [f"{m}.{attr}" for m, attr, _, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(m), attr, None))]
    missing += [f"exchange_setup.{attr}" for _, attr, _, _ in tracing.SETUP_HOOKS
                if not callable(getattr(exchange_setup, attr, None))]
    # the tiled pipeline simulates on the instance map's row runs, so it neither
    # crops a mask nor calls simulate; NMS compares and writes records from their
    # row spans, so it neither remaps a mask nor calls mask_iou; eval scores the ids
    # under each record's runs, so it has no mask_iou either. The tracer reports
    # these missing.
    assert missing == PIPELINE_GONE
    assert callable(exchange_setup.write_exchange)


def test_traced_run_and_eval_count_every_record(tmp_path, monkeypatch):
    # the benchmark checks that run reads as many exchange records as set-up wrote
    tracing = _load("tracing")
    exchange_setup = _load("exchange_setup")
    monkeypatch.chdir(tmp_path)
    # the tracer sees only its own process, so the commands fan out serially here
    monkeypatch.setattr(cli, "_for_each", lambda work, items, workers: [work(i) for i in items])
    with tracing.Tracer() as tracer:
        tracer.phase = "synth"
        assert cli.main(["synth", "--out", "scenes", "--count", "2", "--width", "320", "--height", "240"]) == 0
        tracer.phase = "exchange"
        exchange_setup.write_exchange("scenes", "exchange", 42)
        tracer.phase = "run"
        assert cli.main(["run", "--scenes", "scenes", "--out", "props", "--exchange", "exchange"]) == 0
        tracer.phase = "eval"
        assert cli.main(["eval", "--scenes", "scenes", "--proposals", "props", "--out", "report"]) == 0
    assert tracer.missing == PIPELINE_GONE and tracer.unavailable == set()
    in_files = sum(len(p.read_text().splitlines()) for p in (tmp_path / "exchange").glob("*.jsonl"))
    assert tracer.phase_counters[("run", "exchange.records_read")] == in_files > 0
    written = tracer.phase_counters[("run", "exchange.records_written")]
    assert tracer.phase_counters[("eval", "exchange.records_read")] == written > 0
    # run needs only each scene's size: it reads no pixels and extracts nothing;
    # eval reads each instance map and scores the ids under the proposals, so it
    # extracts nothing either
    assert tracer.phase_counters[("run", "raster.bytes_read")] == 0
    assert tracer.phase_counters[("run", "annotations.instances")] == 0
    assert tracer.phase_counters[("eval", "raster.bytes_read")] > 0
    assert tracer.phase_counters[("eval", "annotations.instances")] == 0
    kept = [n for phase, n in tracer.nms_kept if phase == "run"]
    lines = [len(p.read_text().splitlines()) for p in sorted((tmp_path / "props").glob("*.jsonl"))]
    assert lines == [min(n, 100) for n in kept] and len(lines) == 2


def test_traced_simulated_run_extracts_nothing(tmp_path, monkeypatch):
    # a simulated run reads each instance map and simulates on its row runs: it
    # extracts no object and crops no mask
    tracing = _load("tracing")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_for_each", lambda work, items, workers: [work(i) for i in items])
    with tracing.Tracer() as tracer:
        tracer.phase = "synth"
        assert cli.main(["synth", "--out", "scenes", "--count", "2", "--width", "320", "--height", "240"]) == 0
        tracer.phase = "run"
        assert cli.main(["run", "--scenes", "scenes", "--out", "props", "--jitter", "2"]) == 0
    assert tracer.missing == PIPELINE_GONE
    assert tracer.phase_counters[("run", "raster.bytes_read")] > 0
    assert tracer.phase_counters[("run", "pipeline.nms_in")] > 0
    assert tracer.phase_counters[("run", "annotations.instances")] == 0
    assert tracer.phase_counters[("run", "masks.crops")] == 0


def test_exchange_setup_bytes_are_pinned(tmp_path, monkeypatch):
    exchange_setup = _load("exchange_setup")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "scenes", "--count", "2", "--width", "320", "--height", "240"]) == 0
    exchange_setup.write_exchange("scenes", "exchange", 42)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "exchange").iterdir()}
    assert digests == EXCHANGE_SETUP_DIGESTS
