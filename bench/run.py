"""qtherm benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The BLAS and OpenMP pools are pinned to one thread
before NumPy loads, and CLI sweeps run with ``--threads`` at most the
number of usable cores.

Set-up is importing NumPy, SciPy and qtherm, building round 0's inputs
and warming up. It is measured in this process and in four more fresh
processes started with ``--setup-only``, and the median is reported. The
timed phase runs whole rounds of the workload's operations, one after
the other, until ``--seconds`` have passed, and checks every output.
With ``--trace 1`` each round runs twice, untraced and then traced, and
the per-layer metrics (from the traced copies) and the tracing overhead
are reported instead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 4
# the keys of workloads.WORKLOADS, listed here so that parsing arguments
# does not import NumPy before the thread pools are pinned
WORKLOAD_NAMES = ("otto-friction", "lindblad-steady", "battery-charging",
                  "small-calls")
MODULES = ("qcore", "lindblad", "oscillators", "floquet", "cycles", "sta",
           "metrology", "battery", "cli")
POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", default="1",
                   help="threads for the BLAS/OpenMP pools, or 'default' to "
                        "leave them to the libraries (reference runs only)")
    p.add_argument("--cli-threads", type=int, default=None,
                   help="--threads for CLI sweeps (default: min(2, cores))")
    p.add_argument("--setup-only", action="store_true",
                   help="measure set-up once, print it and exit")
    return p.parse_args(argv)


def pin_pools(blas_threads: str) -> None:
    """Must run before NumPy is imported."""
    os.environ.pop("QTHERM_THREADS", None)  # would override --threads
    if blas_threads != "default":
        for var in POOL_VARS:
            os.environ[var] = blas_threads


def set_up(args, tmpdir: Path):
    """Import the program, build round 0's inputs and warm up."""
    import importlib
    from types import SimpleNamespace

    import numpy as np

    import workloads

    mods = {m: importlib.import_module(f"qtherm.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"qtherm was imported from {origin}, not {SRC}")
    cores = len(os.sched_getaffinity(0))
    ctx = workloads.Context(SimpleNamespace(**mods), str(tmpdir),
                            args.cli_threads or min(2, cores))
    make_round, warm_up = workloads.WORKLOADS[args.workload]
    make_round(ctx, np.random.default_rng([args.seed, 0]), 0)
    warm_up(ctx)
    return ctx, make_round


def probe_setup(args) -> float:
    """Set-up time of a fresh process (the environment is already pinned)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--blas-threads", args.blas_threads]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unavailable (not a git checkout)"


def machine_info() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_sha": git_sha(),
    }


class Phase:
    """Per-operation wall and CPU times plus failures over whole rounds."""

    def __init__(self):
        self.names, self.wall, self.cpu = [], [], []
        self.rounds = 0
        self.known, self.wrong = {}, {}

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def failed(self) -> int:
        return sum(self.known.values()) + sum(self.wrong.values())

    def op_medians_ms(self) -> dict:
        by_name = {}
        for name, wall in zip(self.names, self.wall):
            by_name.setdefault(name, []).append(wall)
        return {k: 1e3 * statistics.median(v) for k, v in by_name.items()}

    def run_round(self, ops) -> None:
        from checks import CheckFailed
        from workloads import KnownFault

        for op in ops:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed operation is reported, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            self.names.append(op.name)
            self.wall.append(t1 - t0)
            self.cpu.append(c1 - c0)
            if error is None:
                try:
                    op.check(out)
                    continue
                except KnownFault as exc:
                    self.known[str(exc)] = self.known.get(str(exc), 0) + 1
                    continue
                except CheckFailed as exc:
                    error = f"wrong output: {exc}"
            key = f"{op.name}: {error}"[:300]
            self.wrong[key] = self.wrong.get(key, 0) + 1
        self.rounds += 1


def run_phase(make_round, ctx, seed: int, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns the counted
    phase and its untraced copies.

    With a tracer, each round runs twice, untraced and then traced, and
    the traced copies are the counted ones. A first untraced round, not
    counted, takes the first-call costs (page faults of the largest
    arrays) out of the comparison.
    """
    import numpy as np

    phase, plain = Phase(), Phase()
    if tracer is not None:
        Phase().run_round(make_round(ctx, np.random.default_rng([seed, 0]), 0))
    start = time.perf_counter()
    while True:
        index = phase.rounds
        rng = np.random.default_rng([seed, index])
        if tracer is not None:
            plain.run_round(make_round(ctx, rng, index))
            rng = np.random.default_rng([seed, index])
            tracer.install(vars(ctx.q))
            try:
                phase.run_round(make_round(ctx, rng, index))
            finally:
                tracer.uninstall()
        else:
            phase.run_round(make_round(ctx, rng, index))
        if time.perf_counter() - start >= seconds:
            return phase, plain


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None
    under forty samples."""
    import numpy as np

    n = len(samples)
    if n < 40:
        return None
    pct = int(1000 * (n - 10) / n) / 10
    return {"percentile": pct, "ms": 1e3 * float(np.percentile(samples, pct)),
            "samples": n}


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "qtherm" / "__init__.py").is_file():
        print(f"no qtherm sources at {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    pin_pools(args.blas_threads)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        ctx, make_round = set_up(args, tmpdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, ctx, make_round, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(args, ctx, make_round, setup_s: float) -> int:
    info = machine_info()
    print("machine: " + json.dumps(info))
    report = {"workload": args.workload, "seed": args.seed, "machine": info}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        phase, plain = run_phase(make_round, ctx, args.seed, args.seconds, tracer)
        metrics = tracer.per_layer(phase.rounds)
        untraced, traced = sum(plain.wall), sum(phase.wall)
        report["trace_overhead"] = {"traced_s": traced, "untraced_s": untraced,
                                    "rounds": phase.rounds}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        notes = [f"tracing overhead: {traced:.4f} s traced vs {untraced:.4f} s"
                 f" untraced on the same {phase.rounds} round(s), interleaved,"
                 f" {100 * (traced / untraced - 1):+.2f}%"]
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        phase, _ = run_phase(make_round, ctx, args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": sum(phase.wall) / phase.rounds, "unit": "s"},
            "cpu_s": {"value": sum(phase.cpu) / phase.rounds, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(phase.wall),
                          "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        report.update(setup_samples_s=setups, op_tail=tail(phase.wall))
        t = report["op_tail"]
        notes = [f"op tail (not gated): p{t['percentile']} = {t['ms']:.4g} ms"
                 f" over {t['samples']} operations" if t else
                 f"op tail: {phase.attempted} operations, under 40, median only"]

    print(f"workload {args.workload} seed {args.seed}: {phase.rounds} round(s),"
          f" {phase.attempted} operations, {phase.failed} failed")
    for reason, n in phase.known.items():
        print(f"  known fault x{n}: {reason}")
    for reason, n in phase.wrong.items():
        print(f"  FAILED x{n}: {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print("  " + note)

    result = {"correct": not phase.wrong, "attempted": phase.attempted,
              "failed": phase.failed, "metrics": metrics}
    report.update(result, failures={**phase.known, **phase.wrong},
                  op_median_ms=phase.op_medians_ms())
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
