"""The qtherm names that the benchmark reaches from outside.

``bench/tracing.py`` wraps qtherm functions and module attributes by name,
so a change to ``src/`` that drops one of them breaks
``bench/run.py --trace 1`` and nothing else.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Import ``bench/<name>.py`` (free of side effects at import) under a
    name of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_module_the_benchmark_traces():
    run, tracing = _load("run"), _load("tracing")
    modules = {m: importlib.import_module(f"qtherm.{m}") for m in run.MODULES}
    before = {m: dict(vars(module)) for m, module in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)  # an AttributeError names a dropped name
        for m, attr in tracing.SPANNED:
            assert getattr(modules[m], attr) is not before[m][attr]
    finally:
        tracer.uninstall()
    for m, module in modules.items():  # every original is back
        assert all(vars(module)[k] is v for k, v in before[m].items())
