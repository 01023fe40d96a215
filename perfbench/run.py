"""smallprop benchmark: the synth -> run -> eval CLI loop on two workloads.

    python3 perfbench/run.py --workload orchard30 --seed 42 --seconds 30 --trace 0

With ``--trace 0`` every timed command is a fresh ``python -m smallprop.cli``
child, run one at a time, and the end-to-end metrics are wall times of those
children, scaled to a reference host speed measured around each child (see
HostSpeed). With ``--trace 1`` the same commands run in this process through
``smallprop.cli.main``, alternating untraced and traced passes, and the
per-layer metrics come from hooks on smallprop's public functions (see
tracing.py). Every output is checked: against the pinned digests in
digests.json at seed 42, against an in-process traced pass at every seed, and
by guards against silently empty runs. The last line of stdout is the result
object; details and provenance go to .perfbench_work/results/.

``--pin`` rewrites the workload's entry in digests.json from an untraced
in-process pass at seed 42, for a change that alters output bytes on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "digests.json"
PIN_SEED = 42
TOP_K = 100
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
CAL_SAMPLES = 25
CAL_REF_S = 0.008  # one calibration sample at the reference host speed
STEAL_LIMIT = 0.03  # share of the CPU time in a span the hypervisor may take
STARTUP_SAMPLES = 5
JOBS = min(2, os.cpu_count() or 1)

RUN_FLAGS = ["--mode", "tiled", "--tile", "320x240", "--stride", "160x120",
             "--jitter", "2", "--objectness-noise", "0.1"]
EVAL = ["eval", "--scenes", "scenes", "--proposals", "props", "--out", "report"]

# Why each workload exists (also in README.md):
# orchard30  - the README quickstart: synthesis, per-tile GT cropping and
#              simulation dominate.
# exchange30 - tile-indexed JSONL from set-up is parsed and remapped instead
#              of simulated; the only workload with --jobs > 1.
WORKLOADS = ("orchard30", "exchange30")

END_TO_END = {
    "total_s": "s", "synth_s": "s", "run_s": "s", "eval_s": "s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "synth.generate_s": "s", "synth.objects": "count",
    "raster.write_s": "s", "raster.read_s": "s",
    "raster.bytes_written": "bytes", "raster.bytes_read": "bytes",
    "annotations.extract_s": "s", "annotations.instances": "count",
    "tiling.tiles": "count", "tiling.remap_s": "s", "tiling.remaps": "count",
    "masks.crop_s": "s", "masks.crops": "count", "masks.fragments": "count",
    "masks.iou_s": "s", "masks.iou_calls.nms": "count", "masks.iou_calls.eval": "count",
    "detector.simulate_s": "s", "detector.gt_in": "count", "detector.emitted": "count",
    "detector.emit_ratio": "ratio",
    "pipeline.run_s": "s", "pipeline.nms_s": "s", "pipeline.nms_in": "count",
    "pipeline.nms_kept": "count", "pipeline.keep_ratio": "ratio", "pipeline.topk_dropped": "count",
    "exchange.write_s": "s", "exchange.records_written": "count",
    "exchange.read_s": "s", "exchange.records_read": "count", "exchange.bytes_read": "bytes",
    "evaluation.evaluate_s": "s", "evaluation.ar_at_10": "ratio",
    "evaluation.ar_at_100": "ratio", "evaluation.ar_xs_at_100": "ratio",
    "cli.startup_s": "s",
    "trace.unattributed_s": "s", "trace.overhead_ratio": "ratio",
    "trace.traced_s": "s", "trace.untraced_s": "s",
}

# Per-layer metrics whose layer does no work in the workload's timed commands.
# On exchange30 the traced pass includes set-up, where these layers do run;
# there they move setup_s only.
ABSENT_FROM_TIMED = {
    "exchange30": ["tiling.tiles", "masks.crop_s", "masks.crops", "masks.fragments",
                   "detector.simulate_s", "detector.gt_in", "detector.emitted",
                   "detector.emit_ratio"],
}


def steps(workload: str, seed: int, jobs: int) -> list[tuple[str, list[str] | None, str]]:
    """(name, CLI argv or None for the exchange writer, when) in run order.

    ``when`` is "setup", "timed" or "both". On exchange30 the scenes are made
    in set-up, for the exchange files, and made again by each timed iteration.
    """
    synth = ["synth", "--out", "scenes", "--seed", str(seed), "--count", "30"]
    run = ["run", "--scenes", "scenes", "--out", "props"]
    if workload == "orchard30":
        return [("synth", synth, "timed"),
                ("run", run + RUN_FLAGS, "timed"),
                ("eval", EVAL, "timed")]
    if workload == "exchange30":
        return [("synth", synth, "both"),
                ("exchange", None, "setup"),
                ("run", run + ["--exchange", "exchange", "--mode", "tiled", "--jobs", str(jobs)], "timed"),
                ("eval", EVAL, "timed")]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_steps(seed: int) -> list[list[str]]:
    """A one-scene pass through all three commands, untimed."""
    return [["synth", "--out", "scenes", "--seed", str(seed), "--count", "1"],
            ["run", "--scenes", "scenes", "--out", "props"] + RUN_FLAGS,
            EVAL]


# ---------------------------------------------------------------- helpers

class Outcome:
    """Counts of attempted commands and of failures, with messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.skipped: set[str] = set()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)
        sys.stderr.write(f"perfbench: FAIL {message}\n")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


def digests(base: Path) -> dict[str, str]:
    """SHA-256 of every file under base, keyed by relative path."""
    out = {}
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        out[path.relative_to(base).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def diff_digests(got: dict[str, str], want: dict[str, str]) -> str:
    names = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
    return "" if not names else f"{len(names)} differ: {', '.join(names[:5])}"


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, max RSS in MB, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_child(args: list[str], cwd: Path, log: Path, outcome: Outcome) -> tuple[float, float]:
    wall, rss, code = run_child([sys.executable, "-m", "smallprop.cli", *args], cwd, log)
    outcome.attempted += 1
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        outcome.fail(f"`smallprop {args[0]}` exited {code}: {tail[0]}")
    return wall, rss


def quartiles(values: list[float]) -> dict:
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return {"n": len(v), "median": statistics.median(v), "q1": q1, "q3": q3, "values": values}


def read_report(base: Path) -> dict:
    return json.loads((base / "report.json").read_text())["reports"][0]


def jsonl_line_counts(props: Path) -> list[int]:
    return [len(p.read_bytes().splitlines()) for p in sorted(props.glob("*.jsonl"))]


def check_outputs(base: Path, kept: list[int] | None, outcome: Outcome, label: str) -> None:
    """Guards against runs that succeed with empty or truncated outputs.

    Without per-scene NMS counts (the hook's target is gone) the line counts
    are only checked to lie in [1, top_k].
    """
    got = jsonl_line_counts(base / "props")
    if kept is None:
        outcome.skipped.add("JSONL lines == min(nms_kept, top_k): no nms_kept counter")
        outcome.check(bool(got) and all(0 < n <= TOP_K for n in got),
                      f"{label}: JSONL line counts {got[:4]}... outside [1, {TOP_K}]")
    else:
        want = [min(k, TOP_K) for k in kept]
        outcome.check(got == want and bool(got),
                      f"{label}: JSONL line counts {got[:4]}... != min(nms_kept, top_k) {want[:4]}...")
    try:
        ar100 = read_report(base)["ar_at_100"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        outcome.fail(f"{label}: unreadable report.json ({exc})")
        return
    outcome.check(bool(ar100) and ar100 > 0, f"{label}: ar_at_100 is {ar100}, expected > 0")


def check_pinned(workload: str, seed: int, got: dict[str, str], outcome: Outcome, label: str) -> None:
    if seed != PIN_SEED:
        return
    pinned = json.loads(PINNED.read_text()).get(workload)
    if pinned is None:
        outcome.fail(f"{label}: no pinned digests for {workload}")
        return
    problem = diff_digests(got, pinned)
    outcome.check(not problem, f"{label}: outputs differ from pinned digests at seed {seed}: {problem}")


# ---------------------------------------------------------------- in-process passes

def in_process_pass(workload: str, seed: int, base: Path, outcome: Outcome, tracer=None) -> float:
    """All steps of a workload (set-up included) in this process; returns wall seconds.

    ``--jobs`` is 1 here: span self times are per thread, and the jobs count
    appears in no output, so the bytes are the same as with the CLI's jobs.
    """
    from smallprop import cli

    fresh_dir(base)
    cwd = os.getcwd()
    gc.collect()
    t0 = time.perf_counter()
    try:
        os.chdir(base)
        for name, argv, _ in steps(workload, seed, 1):
            if tracer is not None:
                tracer.phase = name
            if argv is None:
                write_exchange(Path(), seed, outcome)
                continue
            outcome.attempted += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                outcome.check(code == 0, f"in-process `smallprop {name}` returned {code}")
            except Exception:  # a broken step must not hide the others' results
                outcome.fail(f"in-process step {name} raised:\n{traceback.format_exc()}")
    finally:
        os.chdir(cwd)
    return time.perf_counter() - t0


def write_exchange(base: Path, seed: int, outcome: Outcome) -> None:
    """The exchange workload's set-up step; a failure is counted, not raised."""
    outcome.attempted += 1
    try:
        import exchange_setup

        exchange_setup.write_exchange(base / "scenes", base / "exchange", seed)
    except Exception:  # e.g. a smallprop name it imports was removed
        outcome.fail(f"exchange set-up raised:\n{traceback.format_exc()}")


def traced_pass(workload: str, seed: int, base: Path, outcome: Outcome):
    from tracing import Tracer

    tracer = Tracer(setup_hooks=workload == "exchange30")
    with tracer:
        wall = in_process_pass(workload, seed, base, outcome, tracer)
    return tracer, wall


def run_kept(tracer) -> list[int] | None:
    if not tracer.measured("pipeline.nms_kept"):
        return None
    return [n for phase, n in tracer.nms_kept if phase == "run"]


def check_traced(workload: str, tracer, base: Path, outcome: Outcome, label: str) -> None:
    check_outputs(base, run_kept(tracer), outcome, label)
    if workload != "exchange30":
        return
    if not (tracer.measured("exchange.records_read") and tracer.measured("exchange.records_written")):
        outcome.skipped.add("records read == records written: no exchange counters")
    else:
        written = tracer.phase_counters[("exchange", "exchange.records_written")]
        read = tracer.phase_counters[("run", "exchange.records_read")]
        outcome.check(read == written and read > 0,
                      f"{label}: run read {read} exchange records, set-up wrote {written}")


# ---------------------------------------------------------------- host speed

def steal_seconds() -> float | None:
    """Machine-wide CPU time taken by the hypervisor so far, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def stolen(steal0: float | None, steal1: float | None, span: float) -> bool:
    """True if the hypervisor took more than STEAL_LIMIT of the CPU time in a span."""
    if steal0 is None or steal1 is None:
        return False
    return steal1 - steal0 > STEAL_LIMIT * span * (os.cpu_count() or 1)


def calibration_sample() -> float:
    """Seconds for a fixed mix of interpreter and numpy work, about 8 ms."""
    import numpy

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30_000):
        acc += i * i % 7
        table[i % 1000] = acc
    a = numpy.arange(100_000, dtype=numpy.float64)
    for _ in range(10):
        a = numpy.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times to a reference host speed, and marks stolen spans.

    On a VM whose cores are shared with other tenants, CPU speed can drift by
    a third within a minute. A block of calibration samples runs before the
    first child and after each one; a child's factor is CAL_REF_S over the
    median sample of the blocks on either side of it. Changes to smallprop
    move the child's wall time but not the calibration, so the scaled time
    keeps them and drops the drift.

    A span is contended when the hypervisor took more than STEAL_LIMIT of the
    machine's CPU time during it (steal in /proc/stat). Stolen time is not the
    program's, and a child running threads on both cores can lose more to it
    than the calibration shows.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.before = self.block()

    def block(self) -> list[float]:
        block = [calibration_sample() for _ in range(CAL_SAMPLES)]
        self.samples.extend(block)
        self.t0, self.steal0 = time.perf_counter(), steal_seconds()
        return block

    def end_span(self) -> tuple[float, bool]:
        """(scale factor, contended) for the span since the last block."""
        contended = stolen(self.steal0, steal_seconds(), time.perf_counter() - self.t0)
        after = self.block()
        factor = CAL_REF_S / statistics.median(self.before + after)
        self.before = after
        return factor, contended


# ---------------------------------------------------------------- trace 0: CLI timing

def measure_cli(workload: str, seed: int, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    logs = fresh_dir(WORK / "logs")
    plan = steps(workload, seed, JOBS)
    scaled = ("synth_s", "run_s", "eval_s", "total_s")
    samples: dict[str, list[float]] = {name: [] for name in ("setup_s", *scaled, "peak_rss_mb")}
    walls: dict[str, list[float]] = {name: [] for name in scaled}  # unscaled
    contended: dict[str, list[bool]] = {name: [] for name in samples}

    def add(name: str, value: float, flag: bool, wall: float | None = None) -> float:
        samples[name].append(value)
        contended[name].append(flag)
        if wall is not None:
            walls[name].append(wall)
        return value

    # Set-up, repeated: input preparation plus an untimed one-scene warm-up pass.
    # Its time is not scaled: on orchard30 it is three interpreter start-ups,
    # which the calibration loop does not track.
    setup_digests = []
    for rep in range(SETUP_REPEATS):
        base = fresh_dir(WORK / f"setup{rep}")
        warm = fresh_dir(WORK / f"warmup{rep}")
        t0, steal0 = time.perf_counter(), steal_seconds()
        for name, argv, when in plan:
            if when == "timed":
                continue
            if argv is None:
                write_exchange(base, seed, outcome)
            else:
                cli_child(argv, base, logs / f"setup{rep}_{name}.log", outcome)
        for i, argv in enumerate(warmup_steps(seed)):
            cli_child(argv, warm, logs / f"warmup{rep}_{i}.log", outcome)
        wall = time.perf_counter() - t0
        add("setup_s", wall, stolen(steal0, steal_seconds(), wall))
        setup_digests.append(digests(base))
        shutil.rmtree(warm)
    outcome.check(all(d == setup_digests[0] for d in setup_digests),
                  "set-up outputs differ between repetitions")
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(WORK / f"setup{rep}")

    # Timed iterations: one child at a time, for at least `seconds` in total.
    iteration_digests = []
    report = {}
    speed = HostSpeed()
    elapsed = 0.0
    k = 0
    while k == 0 or elapsed < seconds:
        if workload == "exchange30":  # keep the exchange files from set-up
            base = WORK / "setup0"
            for d in ("scenes", "props"):
                shutil.rmtree(base / d, ignore_errors=True)
            for p in base.glob("report*"):
                p.unlink()
        else:
            shutil.rmtree(WORK / f"it{k - 1}", ignore_errors=True)
            base = fresh_dir(WORK / f"it{k}")
        total, wall_total, peak, contended_it = 0.0, 0.0, 0.0, False
        for name, argv, when in plan:
            if when == "setup":
                continue
            log = logs / f"it{k}_{name}.log"
            wall, rss = cli_child(argv, base, log, outcome)
            factor, contended_child = speed.end_span()
            total += add(f"{name}_s", wall * factor, contended_child, wall)
            wall_total += wall
            contended_it = contended_it or contended_child
            peak = max(peak, rss)
            if name == "eval" and (base / "report.txt").exists():
                outcome.check(log.read_bytes() == (base / "report.txt").read_bytes(),
                              f"iteration {k}: eval stdout differs from report.txt")
        add("total_s", total, contended_it, wall_total)
        add("peak_rss_mb", peak, False)  # memory is not stolen
        elapsed += wall_total
        iteration_digests.append(digests(base))
        if (base / "report.json").exists():
            report = read_report(base)
        k += 1

    # Reference: the same workload traced in this process, outputs compared.
    tracer, _ = traced_pass(workload, seed, WORK / "ref", outcome)
    ref = digests(WORK / "ref")
    for i, got in enumerate(iteration_digests):
        problem = diff_digests(got, ref)
        outcome.check(not problem, f"iteration {i}: CLI outputs differ from the traced in-process run: {problem}")
        check_pinned(workload, seed, got, outcome, f"iteration {i}")
    check_outputs(base, run_kept(tracer), outcome, "CLI")
    check_traced(workload, tracer, WORK / "ref", outcome, "reference")

    def uncontended(name: str, values: list[float]) -> list[float]:
        return [v for v, c in zip(values, contended[name]) if not c] or values

    metrics = {name: statistics.median(uncontended(name, v)) for name, v in samples.items()}
    extra = {"samples": {name: quartiles(uncontended(name, v)) for name, v in samples.items()},
             "wall_samples": {name: quartiles(uncontended(name, v)) for name, v in walls.items()},
             "contended": contended,
             "all_samples": samples, "all_wall_samples": walls, "steal_limit": STEAL_LIMIT,
             "calibration_s": quartiles(speed.samples), "calibration_ref_s": CAL_REF_S,
             "iterations": k, "report": report,
             "hooks_missing": tracer.missing, "counters_unavailable": sorted(tracer.unavailable)}
    return metrics, extra


# ---------------------------------------------------------------- trace 1: per-layer run

def layer_values(tracer, wall: float) -> dict[str, float]:
    c = tracer.counters
    values = {f"{layer}_s": s for layer, s in tracer.self_s.items() if layer != "tiling.plan"}
    values.update(c)
    values["pipeline.topk_dropped"] = tracer.topk_dropped
    values["detector.emit_ratio"] = c["detector.emitted"] / c["detector.gt_in"] if c["detector.gt_in"] else 0.0
    values["pipeline.keep_ratio"] = c["pipeline.nms_kept"] / c["pipeline.nms_in"] if c["pipeline.nms_in"] else 0.0
    values["trace.unattributed_s"] = wall - sum(tracer.self_s.values())
    return values


def startup_samples(outcome: Outcome) -> list[float]:
    logs = fresh_dir(WORK / "logs")
    argv = [sys.executable, "-c", "import smallprop.cli"]
    out = []
    for i in range(STARTUP_SAMPLES + 1):
        wall, _, code = run_child(argv, WORK, logs / f"startup{i}.log")
        outcome.attempted += 1
        outcome.check(code == 0, f"`import smallprop.cli` exited {code}")
        if i:  # the first start warms the page and bytecode caches
            out.append(wall)
    return out


def measure_trace(workload: str, seed: int, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    startup = startup_samples(outcome)
    samples: dict[str, list[float]] = {"trace.traced_s": [], "trace.untraced_s": []}
    layer_samples: dict[str, list[float]] = {}
    counters = None
    report = {}
    missing, unavailable = [], []
    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < seconds:
        samples["trace.untraced_s"].append(in_process_pass(workload, seed, WORK / "untraced", outcome))
        tracer, wall = traced_pass(workload, seed, WORK / "traced", outcome)
        samples["trace.traced_s"].append(wall)
        missing, unavailable = tracer.missing, sorted(tracer.unavailable)
        traced = digests(WORK / "traced")
        problem = diff_digests(traced, digests(WORK / "untraced"))
        outcome.check(not problem, f"pass {k}: traced outputs differ from untraced: {problem}")
        check_pinned(workload, seed, traced, outcome, f"traced pass {k}")
        check_traced(workload, tracer, WORK / "traced", outcome, f"traced pass {k}")
        values = layer_values(tracer, wall)
        exact = {n: v for n, v in values.items() if not n.endswith("_s")}
        if counters is None:
            counters = exact
        outcome.check(exact == counters, f"pass {k}: counters differ from pass 0")
        for n, v in values.items():
            if n.endswith("_s"):
                layer_samples.setdefault(n, []).append(v)
        if (WORK / "traced" / "report.json").exists():
            report = read_report(WORK / "traced")
        k += 1

    metrics = {n: 0 for n in PER_LAYER}
    metrics.update(counters)
    metrics.update({n: statistics.median(v) for n, v in layer_samples.items()})
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.traced_s"] = statistics.median(samples["trace.traced_s"])
    metrics["trace.untraced_s"] = statistics.median(samples["trace.untraced_s"])
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    for name in ("ar_at_10", "ar_at_100", "ar_xs_at_100"):
        metrics[f"evaluation.{name}"] = report.get(name) or 0.0
    layer_samples.update(samples, **{"cli.startup_s": startup})
    extra = {
        "samples": {n: quartiles(v) for n, v in layer_samples.items()},
        "passes": k,
        "ratio_bases": {
            "pipeline.keep_ratio": ["pipeline.nms_kept", "pipeline.nms_in"],
            "detector.emit_ratio": ["detector.emitted", "detector.gt_in"],
            "trace.overhead_ratio": ["trace.traced_s", "trace.untraced_s"],
        },
        "absent_from_timed_commands": ABSENT_FROM_TIMED.get(workload, []),
        "hooks_missing": missing,
        "counters_unavailable": unavailable,
    }
    return {n: metrics[n] for n in PER_LAYER}, extra


# ---------------------------------------------------------------- provenance and output

def provenance(workload: str, seed: int, trace: int, seconds: float) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
    src = hashlib.sha256()
    for path, digest in digests(SRC).items():
        if "__pycache__" not in path:
            src.update(f"{path} {digest}\n".encode())
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu": cpu, "jobs": JOBS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "git_dirty": dirty, "src_sha256": src.hexdigest(),
    }


def pin(workload: str) -> int:
    outcome = Outcome()
    in_process_pass(workload, PIN_SEED, WORK / "pin", outcome)
    if outcome.failed:
        return 1
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    pinned[workload] = digests(WORK / "pin")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK / "pin")
    print(f"pinned {len(pinned[workload])} digests for {workload} at seed {PIN_SEED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pinned digests (seed 42)")
    args = parser.parse_args(argv)

    if not (SRC / "smallprop" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no smallprop sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import smallprop.cli  # noqa: F401 - imported before any timing starts

    WORK.mkdir(exist_ok=True)
    if args.pin:
        return pin(args.workload)

    outcome = Outcome()
    measure = measure_trace if args.trace else measure_cli
    steal0 = steal_seconds()
    metrics, extra = measure(args.workload, args.seed, args.seconds, outcome)
    steal1 = steal_seconds()
    units = PER_LAYER if args.trace else END_TO_END
    for path in WORK.iterdir():
        if path.name not in ("results", "logs"):
            shutil.rmtree(path)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    prov = provenance(args.workload, args.seed, args.trace, args.seconds)
    # high steal marks a run measured while the host was contended
    prov["steal_s"] = None if steal0 is None or steal1 is None else round(steal1 - steal0, 2)
    detail = {"provenance": prov,
              "error_rate": outcome.failed / max(outcome.attempted, 1),
              "failures": outcome.messages, "checks_skipped": sorted(outcome.skipped),
              **extra, "result": result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")

    for n, unit in units.items():
        s = extra["samples"].get(n)
        spread = f"  (n={s['n']}, q1 {s['q1']:.4g}, q3 {s['q3']:.4g})" if s else ""
        print(f"{args.workload:<10} {n:<26} {metrics[n]:>14.6g} {unit}{spread}")
    print(f"{args.workload:<10} {'error_rate':<26} {detail['error_rate']:>14.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    for n, s in extra.get("wall_samples", {}).items():
        print(f"{args.workload:<10} {'unscaled ' + n:<26} {s['median']:>14.6g} s"
              f"  (n={s['n']}, q1 {s['q1']:.4g}, q3 {s['q3']:.4g})")
    if "calibration_s" in extra:
        c = extra["calibration_s"]
        print(f"{args.workload:<10} {'calibration sample':<26} {c['median']:>14.6g} s"
              f"  (n={c['n']}, reference {CAL_REF_S} s)")
    for note in sorted(outcome.skipped):
        print(f"{args.workload:<10} check skipped: {note}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
