"""List the functions of ``src/`` that none of the package's traffic runs.

    python3 tools/src_traffic.py [ROOT]

ROOT (default: this checkout) holds ``src/``, ``bench/`` and
``tests/reference_rows/``. The traffic is:

* each benchmark workload's warm-up and its rounds 0 and 1 at seed 1,
  every operation run and then checked, as ``bench/run.py`` does, with
  the BLAS pools pinned to one thread;
* the CLI at every config of ``tests/reference_rows/``;
* the CLI at the three configs of ``UNROWED`` for each experiment that
  has no reference rows.

Every thread of the traffic is traced with ``sys.settrace``, and a
function has run once it is called. The functions are the module-level
functions and the methods compiled from ``src/``; a nested function, a
lambda or a comprehension is part of the function that holds it. It
prints one line per function that never ran, in file and line order,
then their count. ``bench/`` is imported, never written.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else
            Path(__file__).resolve().parent.parent).resolve()
SRC = ROOT / "src"
ROWS = ROOT / "tests" / "reference_rows"
SEED = 1
ROUNDS = 2

# three configs of each experiment without reference rows
UNROWED = {
    "maser": [
        {"omega_h": 3.0, "omega_c": 1.0, "t_h": 4.0, "t_c": 1.0},
        {"omega_h": 2.0, "omega_c": 1.0, "t_h": 1.5, "t_c": 1.0},
        {"omega_h": 5.0, "omega_c": 0.5, "t_h": 10.0, "t_c": 2.0}],
    "sta-cd": [
        {"delta": 3.0, "velocity": 1.0, "t": 0.5},
        {"delta": 1.0, "velocity": -2.0, "t": 0.0},
        {"delta": 0.5, "velocity": 0.3, "t": 4.0}],
    "outcoupled": [
        {"n_cycles": 3},
        {"n_cycles": 3, "per_cycle_measurement": "true"},
        {"n_cycles": 5, "delta": 1.2, "g": 0.03, "b": 0.15}],
    "qfi": [
        {"omega": 1.0, "temperature": 2.0},
        {"omega": 2.0, "temperature": 0.5},
        {"omega": 0.3, "temperature": 5.0}],
    "thermometry": [
        {"omega_h": 2.0, "omega_c": 1.0, "kappa_h": 1.0, "kappa_c": 1.0,
         "g": 0.3, "t_c_true": 1.0, "t_h_min": 1.0, "t_h_max": 3.0,
         "t_h_steps": 5},
        {"omega_h": 2.5, "omega_c": 1.0, "kappa_h": 0.7, "kappa_c": 1.3,
         "g": 0.1, "t_c_true": 0.8, "t_h_min": 1.0, "t_h_max": 3.0,
         "t_h_steps": 201},
        {"omega_h": 1.5, "omega_c": 1.0, "kappa_h": 1.0, "kappa_c": 0.5,
         "g": 0.5, "t_c_true": 1.5, "t_h_min": 0.5, "t_h_max": 4.0,
         "t_h_steps": 11}],
    "magnetometry": [
        {"omega_un_true": 1.0, "t_h": 3.0, "t_c": 1.0, "theta": 0.8,
         "omega_k_min": 1.5, "omega_k_max": 4.5, "omega_k_steps": 201},
        {"omega_un_true": 400.0, "t_h": 4.0, "t_c": 1.0, "theta": 1.0,
         "omega_k_min": 800.0, "omega_k_max": 2400.0, "omega_k_steps": 5},
        {"omega_un_true": 0.7, "t_h": 2.0, "t_c": 0.6, "theta": 0.3,
         "omega_k_min": 1.0, "omega_k_max": 3.5, "omega_k_steps": 26}],
    "qsl": [
        {"omega": 1.0, "tau": 1.0},
        {"omega": 2.0, "tau": 3.0, "samples": 101},
        {"omega": 0.5, "tau": 10.0}],
}


def reference_configs():
    """(experiment, keys) of every row of ``tests/reference_rows/``."""
    for path in sorted(ROWS.glob("*.csv")):
        with open(path, encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        n_keys = header.index("|")
        for row in rows:
            yield path.stem, dict(zip(header[:n_keys], row[:n_keys]))


def cli_args(experiment: str, keys: dict) -> list:
    args = [experiment]
    for key, value in keys.items():
        args += ["--set", f"{key}={value}"]
    return args


def src_functions() -> dict:
    """(file, first line, qualified name) of every function compiled from
    ``src/``, mapped to its path relative to ROOT."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if (code.co_flags & inspect.CO_OPTIMIZED
                    and "<" not in code.co_qualname):
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                out[key] = path.relative_to(ROOT)
    return out


def traffic() -> set:
    """Run the traffic; the key of every ``src/`` function it called."""
    src = str(SRC) + os.sep
    ran = set()

    def tracer(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            ran.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import run  # bench/run.py: the pools are pinned before NumPy loads

    run.pin_pools("1")
    import numpy as np

    import workloads

    mods = {m: importlib.import_module(f"qtherm.{m}") for m in run.MODULES}
    if SRC not in Path(mods["cli"].__file__).resolve().parents:
        raise SystemExit(f"qtherm was imported from {mods['cli'].__file__}")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = workloads.Context(SimpleNamespace(**mods), tmp,
                                    min(2, len(os.sched_getaffinity(0))))
            for make_round, warm_up in workloads.WORKLOADS.values():
                make_round(ctx, np.random.default_rng([SEED, 0]), 0)
                warm_up(ctx)
                for index in range(ROUNDS):
                    rng = np.random.default_rng([SEED, index])
                    for op in make_round(ctx, rng, index):
                        op.check(op.run())
            out = os.path.join(tmp, "row.csv")
            calls = list(reference_configs()) + [
                (name, keys) for name, configs in UNROWED.items()
                for keys in configs]
            for experiment, keys in calls:
                if mods["cli"].main(cli_args(experiment, keys) + ["--out", out]):
                    raise SystemExit(f"{experiment} {keys} did not exit 0")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main() -> int:
    functions = src_functions()
    ran = traffic()
    idle = sorted((path, line, name) for (_file, line, name), path
                  in functions.items() if (_file, line, name) not in ran)
    for path, line, name in idle:
        print(f"{path}:{line} {name}")
    print(f"{len(idle)} of {len(functions)} functions in src/ never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
