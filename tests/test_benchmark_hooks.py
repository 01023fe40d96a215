"""The benchmark under perfbench/ reaches smallprop by name; these names must exist.

The benchmark's tracer wraps functions by (module, attribute) and records a
missing one instead of failing, and its exchange set-up imports package
names directly. A refactor that drops such a name would quietly weaken a
benchmark guard, so it fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    assert missing == []
    assert callable(exchange_setup.write_exchange)
