"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one round of every workload (about 35 s), requires each operation's
real output to pass its check, then perturbs one checked quantity at a
time and requires the same check to reject it. Exits 1 if a check
rejects a real output or accepts a perturbed one.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys

import run

run.pin_pools("1")
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402  (after the thread pools are pinned)

from checks import CheckFailed  # noqa: E402
from workloads import CliResult, KnownFault  # noqa: E402


def row(key, change):
    """Perturb ``key`` in the first CSV row of a CLI result."""
    def apply(res: CliResult):
        res.rows[0][key] = change(res.rows[0][key])
        return res
    return key, apply


def field(key, change):
    """Perturb an item of a dict output or a field of a dataclass output."""
    def apply(out):
        if isinstance(out, dict):
            out[key] = change(out[key])
            return out
        return dataclasses.replace(out, **{key: change(getattr(out, key))})
    return key, apply


def plus(x):
    return lambda v: v + x


def scaled(f):
    return lambda v: v * f


def first(perturb):
    """Apply a perturbation to the first element of a list or tuple output."""
    key, apply = perturb
    return f"[0].{key}", lambda out: [apply(out[0])] + list(out[1:])


def last(perturb):
    key, apply = perturb
    return f"[-1].{key}", lambda out: list(out[:-1]) + [apply(out[-1])]


def _rho_mixed(v):
    d = v.shape[0]
    return (1 - 1e-4) * v + 1e-4 * np.eye(d) / d


def _break_bound(trace):
    edge = np.sqrt(np.clip(trace.variances * trace.energy_fisher, 0, None))
    return dataclasses.replace(trace, powers=edge + 1e-3)


def _miss(key):
    """Move a null-point estimate three stated errors off its value."""
    def apply(res: CliResult):
        res.rows[0][key] += 3 * res.rows[0]["error_estimate"] + 1e-9
        return res
    return key, apply


def _otto_other_error(res: CliResult):
    return CliResult(3, "NumericalInstability: positivity lost", [])


OTTO = [row("net_work_output", plus(1e-5)), row("q_hot", plus(1e-5)),
        row("q_cold", plus(1e-5)), row("mode", lambda v: "Refrigerator"),
        row("efficiency", plus(1e-9))]
TRACE = [field("energies", plus(1e-6)), ("powers", _break_bound)]
PERTURB = {
    "otto-numeric ramp 0.5": [("other exit-3 error", _otto_other_error)],
    "otto-numeric ramp": OTTO,
    "two-mode": [field("rho", _rho_mixed), field("j_hot", plus(1e-6)),
                 field("sigma", lambda v: -1e-6),
                 field("evolved", lambda v: v + 1e-6 * np.eye(v.shape[0]))],
    "xxz N=10": TRACE,
    "xxz N=9 g=0": [first(field("energies", plus(1e-6))),
                    last(field("energies", plus(1e-6)))],
    "xxz N=9 anisotropic": TRACE[1:],
    "dicke": TRACE[1:],
    "lmg": TRACE[1:],
    "ergotropy d=7": [field("ergotropy", plus(1e-8)),
                      field("bound_gap", lambda v: -1e-6)],
    "variance_decomposition": [field("local_sum", plus(1e-6))],
    "ctm sweep": [row("efficiency_or_cop", plus(1e-6)),
                  row("mode", lambda v: "Refrigerator"), row("power", plus(1e-6))],
    "sideband_weights": [field("weights", lambda w: w + 1e-9)],
    "outcoupled": [last(row("mean_work", scaled(1 + 1e-6)))],
    "sta-ermakov": [row("b_final", plus(1e-9)), row("invariant_drift", plus(1e-6)),
                    row("omega_squared_min", lambda v: -1.0)],
    "sta-cd": [row("cd_coefficient", scaled(1 + 1e-5))],
    "magnetometry": [_miss("omega_un_estimate"), row("error_estimate", lambda v: 0.0)],
    "thermometry": [_miss("t_c_estimate"), row("error_estimate", lambda v: 0.0)],
    "ergotropy (CLI)": [row("ergotropy", plus(1e-9))],
    "qfi": [row("qfi", scaled(1 + 1e-5))],
    "qsl": [row("tau_mt", plus(1e-6)), row("bures_distance", plus(1e-6)),
            row("tau_unified", lambda v: 1e3)],
    "lindblad triples": [first(field("evolved", lambda v: 1.001 * v)),
                         first(field("sigma", lambda v: -1e-6)),
                         first(field("rho", _rho_mixed))],
}


def perturbations(name: str):
    matches = [k for k in PERTURB if name.startswith(k)]
    if not matches:
        raise KeyError(f"no perturbations listed for operation {name!r}")
    return PERTURB[max(matches, key=len)]


def verdict(op, out) -> str:
    try:
        op.check(out)
        return "accepted"
    except KnownFault:
        return "known fault"
    except CheckFailed as exc:
        return f"rejected ({exc})"


def main() -> int:
    import argparse

    from workloads import WORKLOADS

    bad = 0
    run.OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        tmpdir = run.OUT / f"selftest-{workload}"
        tmpdir.mkdir(exist_ok=True)
        args = argparse.Namespace(workload=workload, seed=0, cli_threads=None)
        try:
            ctx, make_round = run.set_up(args, tmpdir)
            bad += check_round(workload, ctx, make_round)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    print(f"{bad} checker failure(s)")
    return 1 if bad else 0


def check_round(workload, ctx, make_round) -> int:
    bad = 0
    for op in make_round(ctx, np.random.default_rng([0, 0]), 1):
        out = op.run()
        real = verdict(op, copy.deepcopy(out))
        ok = real in ("accepted", "known fault")
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {workload} / {op.name}: real output {real}")
        for label, perturb in perturbations(op.name):
            v = verdict(op, perturb(copy.deepcopy(out)))
            ok = v.startswith("rejected")
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'}   perturbed {label}: {v[:110]}")
    return bad


if __name__ == "__main__":
    sys.exit(main())
