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


def test_cli_experiments_call_the_traced_library_functions(tmp_path):
    # an experiment that held a library function object, not its module
    # attribute, would run outside the tracer's spans
    run, tracing = _load("run"), _load("tracing")
    modules = {m: importlib.import_module(f"qtherm.{m}") for m in run.MODULES}
    calls = {
        "battery.charge_lmg": ["charge-lmg", "n_cells=4", "lam=0.8", "gamma=0.5",
                               "b=1", "tau=1", "dt=0.05"],
        "cycles.otto_numeric": ["otto-numeric", "omega_a=2", "omega_b=1", "t_h=2",
                                "t_c=0.5", "ramp_duration=2",
                                "thermalization_time=20", "n_max=40"],
    }
    for span, (experiment, *sets) in calls.items():
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            args = [experiment] + [x for item in sets for x in ("--set", item)]
            assert modules["cli"].main(args + ["--out", str(tmp_path / "out.csv")]) == 0
        finally:
            tracer.uninstall()
        assert span in {rec[0] for rec in tracer.spans}
