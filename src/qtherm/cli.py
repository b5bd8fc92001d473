"""Command-line front end: parses experiment configs, runs any module's
experiment, and emits machine-readable results.

Config format is INI-style (key = value) with sections::

    [experiment]
    name = otto

    [parameters]
    omega_a = 2.0
    omega_b = 1.0
    t_h = 4.0
    t_c = 1.0

    [sweep]            ; optional
    key = omega_b
    from = 0.5
    to = 1.5
    steps = 11
    scale = linear     ; or log

    [output]           ; optional, defaults to CSV on stdout
    path = out.csv
    format = csv       ; or json

    [run]              ; optional; --threads overrides it
    threads = 4

Units: hbar = k_B = 1; energies and temperatures share one energy unit,
times are in its inverse.

Exit codes: 0 success, 2 config error, 3 numeric/model error, 4 internal
invariant breach. ``validate`` and ``run`` share one parse, ``parse_config``:
each value and sweep point (rounded within 1e-9 for an integer key) must
convert, be finite and meet min/max/choices, or it is exit 2.

Where an experiment is one library call, its keys are that function's
parameters and its runner passes them through (``otto-numeric`` drops the
unread ``n_max``); a row built from a report dataclass is the report's
scalar fields in declared order (``_fields``). Runners look the library
function up on its module at call time, so tracing that swaps module
attributes sees every call.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__, battery, cycles, floquet, metrology, qcore, sta
from .errors import InvalidConfig, InvalidParams, NumericalInstability, QThermError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


# --- experiment registry -----------------------------------------------------


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter; ``default`` None means required."""

    kind: type  # float, int, bool, str, or list (comma-separated floats)
    default: object = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[tuple] = None

    def check(self, raw):
        """Convert ``raw`` (text, or a number for a sweep point), reject
        non-finite numbers, then apply min/max/choices; a ValueError says
        what is wrong."""
        if self.kind is bool:
            value = _BOOLEANS.get(str(raw).strip().lower())
            if value is None:
                raise ValueError(f"{raw!r} is not a boolean")
        elif self.kind is str:
            value = str(raw)
        else:
            numbers = ([float(x) for x in str(raw).split(",") if x.strip()]
                       if self.kind is list else [float(raw)])
            if not numbers:
                raise ValueError(f"{raw!r} holds no number")
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{raw!r} is not finite")
            if self.kind is int and numbers[0] != int(numbers[0]):
                raise ValueError(f"{raw!r} is not an integer")
            if self.minimum is not None and min(numbers) < self.minimum:
                raise ValueError(f"{raw} below minimum {self.minimum}")
            if self.maximum is not None and max(numbers) > self.maximum:
                raise ValueError(f"{raw} above maximum {self.maximum}")
            value = numbers if self.kind is list else self.kind(numbers[0])
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{value!r} not one of {self.choices}")
        return value


@dataclass(frozen=True)
class Experiment:
    params: Dict[str, Param]
    runner: Callable[[dict], dict]
    multi_row: bool = False


def _fields(report) -> dict:
    """A report dataclass's scalar fields in declared order, as one row:
    None becomes NaN and a bool 0 or 1; lists, dicts and arrays are left
    out."""
    row = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, (list, dict, np.ndarray)):
            continue
        if isinstance(value, (bool, np.bool_)):
            value = int(value)
        row[f.name] = np.nan if value is None else value
    return row


def _trace_row(trace: battery.ChargeTrace) -> dict:
    return {
        "energy_max": float(np.max(trace.energies)),
        "power_max": float(np.max(trace.powers)),
        "variance_max": float(np.max(trace.variances)),
        "fisher_mean": float(np.mean(trace.energy_fisher)),
        "bound_violation": battery.power_bound_check(trace),
        "final_fraction": trace.final_fraction,
        "tau_mt": trace.qsl.tau_mt,
        "tau_unified": trace.qsl.tau_unified,
    }


def _run_otto_numeric(p):
    p = {k: v for k, v in p.items() if k != "n_max"}
    return _fields(cycles.otto_numeric(**p))


def _run_ctm(p):
    amplitude = p["amplitude"] if p["amplitude"] > 0 else None
    cfg = floquet.spectral_separation_preset(
        p["omega0"], p["drive_frequency"], p["t_hot"], p["t_cold"],
        rate=p["rate"], amplitude=amplitude, waveform=p["waveform"])
    return _fields(floquet.ctm_currents(cfg, m_max=p["m_max"]))


def _run_sta_ermakov(p):
    sched = sta.ermakov_schedule(p["omega_i"], p["omega_f"], p["tau"])
    grid = np.linspace(0.0, p["tau"], 1001)
    drift = sta.verify_ermakov_invariant(sched, temperature=p["temperature"])
    return {
        "b_final": float(sched.b(p["tau"])),
        "omega_squared_min": float(np.min(sched.omega_squared(grid))),
        "invariant_drift": drift,
    }


def _run_sta_cd(p):
    delta, v, t = p["delta"], p["velocity"], p["t"]

    def h0(tt):  # delta sx - v tt sz, with no inf * 0 where v tt overflows
        eps = -v * tt
        return np.array([[eps, delta], [delta, -eps]], dtype=complex)

    h_cd = sta.counterdiabatic(h0, t, p["dt"])
    coeff = float(np.real(1j * h_cd[0, 1]))
    try:
        closed = 0.5 * delta * v / (delta**2 + (v * t) ** 2)
    except OverflowError as exc:  # a float square beyond 1.8e308
        raise NumericalInstability(f"closed form overflows: {exc}") from exc
    return {"cd_coefficient": coeff, "closed_form": closed,
            "residual": abs(coeff - closed)}


def _run_outcoupled(p):
    params = cycles.OutcoupledParams(delta=p["delta"], g=p["g"], b=p["b"],
                                     n_fock=p["n_fock"])
    works = cycles.outcoupled_multicycle(params, p["n_cycles"],
                                         p["per_cycle_measurement"])
    return {"cycle": list(range(1, len(works) + 1)),
            "mean_work": [float(w) for w in works]}


def _run_qfi(p):
    omega = p["omega"]

    def thermal_qubit(temp):
        with np.errstate(over="ignore"):  # e^x = inf is the pe = 0 limit
            pe = 1.0 / (1.0 + np.exp(omega / temp))
        return np.diag([1.0 - pe, pe]).astype(complex)

    family, temp = metrology.ParamFamily(thermal_qubit), p["temperature"]
    if not temp > family.step(temp):  # the central difference samples T - step
        raise InvalidParams("temperature must exceed the finite-difference step")
    return _fields(metrology.qfi(family, temp))


def _run_thermometry(p):
    grid = _grid(p["t_h_min"], p["t_h_max"], p["t_h_steps"])
    res = metrology.thermometry_simulate(
        p["omega_h"], p["omega_c"], p["kappa_h"], p["kappa_c"], p["g"],
        p["t_c_true"], grid)
    return {"null_location": res.null_location,
            "t_c_estimate": res.estimated_parameter,
            "error_estimate": res.error_estimate}


def _run_magnetometry(p):
    grid = _grid(p["omega_k_min"], p["omega_k_max"], p["omega_k_steps"])
    res = metrology.magnetometry_null(p["omega_un_true"], p["t_h"], p["t_c"],
                                      p["theta"], grid)
    return {"null_location": res.null_location,
            "omega_un_estimate": res.estimated_parameter,
            "error_estimate": res.error_estimate}


def _diag_state(p):
    energies = np.asarray(p["energies"], dtype=float)
    pops = np.asarray(p["populations"], dtype=float)
    if len(energies) != len(pops):
        raise QThermError("energies and populations differ in length")
    return np.diag(pops).astype(complex), np.diag(energies).astype(complex)


def _run_n_copy(p):
    rho, h = _diag_state(p)
    e = battery.n_copy_passive_energy(rho, h, p["n_copies"])
    return {"energy_per_cell": e}


def _run_qsl(p):
    omega, tau = p["omega"], p["tau"]
    times = np.linspace(0.0, tau, p["samples"])
    h = 0.5 * omega * qcore.SIGMA_Z
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    traj = []
    for t in times:
        psi = np.exp(-1j * np.array([omega / 2, -omega / 2]) * t) * plus
        traj.append((float(t), np.outer(psi, psi.conj())))
    rep = battery.qsl_report(traj, lambda t: h)
    return {"bures_distance": rep.bures_distance, "tau_mt": rep.tau_mt,
            "tau_unified": rep.tau_unified, "actual_tau": rep.actual_tau}


def _run_advantage(p):
    collective = battery.charge_dicke(**{k: p[k] for k in _DICKE})
    single = battery.charge_dicke(1, 1, p["lam"], False, p["omega"],
                                  p["omega_c"], 20, p["tau"], p["dt"])
    parallel = dataclasses.replace(single,
                                   energies=p["n_cells"] * single.energies)
    target = collective.energies[0] + (p["target_fraction"] * p["n_cells"]
                                       * p["omega"])
    gamma = battery.quantum_advantage(parallel, collective,
                                      target_energy=target)
    return {"gamma": gamma}


# the most points, cycles or samples a key may ask for, so that a config that
# validates cannot exhaust memory; keys that set a Hilbert-space dimension
# meet the library's TooLarge checks instead, and n_fock its own maximum
_MAX_POINTS = 10_000
_TEMPS = {"t_h": Param(float), "t_c": Param(float)}
_DIAG = {"energies": Param(list), "populations": Param(list)}
_DICKE = {
    "n_cells": Param(int, minimum=1), "n_photons": Param(int, minimum=0),
    "lam": Param(float), "rescale": Param(bool, False),
    "omega": Param(float, 1.0), "omega_c": Param(float, 1.0),
    "photon_cutoff": Param(int, minimum=1),
    "tau": Param(float, minimum=0.0), "dt": Param(float, minimum=0.0),
}

EXPERIMENTS: Dict[str, Experiment] = {
    "maser": Experiment(
        {"omega_h": Param(float), "omega_c": Param(float), **_TEMPS},
        lambda p: _fields(cycles.maser_analyze(**p))),
    "box-carnot": Experiment(
        {"l_a": Param(float), "l_b": Param(float), "mass": Param(float)},
        lambda p: _fields(cycles.box_carnot(**p))),
    "otto": Experiment(
        {"omega_a": Param(float), "omega_b": Param(float), **_TEMPS},
        lambda p: _fields(cycles.otto_qho(**p))),
    "otto-squeezed": Experiment(
        {"omega_a": Param(float), "omega_b": Param(float), **_TEMPS,
         "r": Param(float, minimum=0.0)},
        lambda p: _fields(cycles.otto_squeezed(**p))),
    "otto-numeric": Experiment(
        {"omega_a": Param(float), "omega_b": Param(float), **_TEMPS,
         "ramp_duration": Param(float, minimum=0.0),
         "thermalization_time": Param(float, minimum=0.0),
         # n_max is accepted and hashed but never read: the cycle runs on
         # the second-moment route, with no Fock cutoff; the benchmark
         # still passes it
         "n_max": Param(int, 40, minimum=2), "kappa": Param(float, 1.0)},
        _run_otto_numeric),
    "two-stroke": Experiment(
        {"omega_k": Param(float), "omega_un": Param(float), **_TEMPS,
         "theta": Param(float, minimum=0.0, maximum=float(np.pi))},
        lambda p: _fields(cycles.two_stroke(**p))),
    "ctm": Experiment(
        {"omega0": Param(float), "drive_frequency": Param(float),
         "t_hot": Param(float), "t_cold": Param(float),
         "rate": Param(float, 1.0), "amplitude": Param(float, 0.0),
         "waveform": Param(str, "sinusoidal",
                           choices=("constant", "sinusoidal",
                                    "piecewise_asymmetric")),
         # beyond 2^13 - 1 the 2^14-point FFT of sideband_weights aliases
         "m_max": Param(int, 40, minimum=1, maximum=(1 << 13) - 1)},
        _run_ctm),
    "sta-ermakov": Experiment(
        {"omega_i": Param(float), "omega_f": Param(float),
         "tau": Param(float, minimum=0.0), "temperature": Param(float, 1.0)},
        _run_sta_ermakov),
    "sta-cd": Experiment(
        {"delta": Param(float), "velocity": Param(float),
         "t": Param(float), "dt": Param(float, 1e-6)},
        _run_sta_cd),
    "outcoupled": Experiment(
        {"n_cycles": Param(int, minimum=1, maximum=_MAX_POINTS),
         "per_cycle_measurement": Param(bool, False),
         "delta": Param(float, 1.0), "g": Param(float, 0.02),
         "b": Param(float, 0.1),
         "n_fock": Param(int, 30, minimum=2, maximum=500)},
        _run_outcoupled, multi_row=True),
    "qfi": Experiment(
        {"omega": Param(float), "temperature": Param(float, minimum=0.0)},
        _run_qfi),
    "thermometry": Experiment(
        {"omega_h": Param(float), "omega_c": Param(float),
         "kappa_h": Param(float), "kappa_c": Param(float),
         "g": Param(float), "t_c_true": Param(float, minimum=0.0),
         "t_h_min": Param(float), "t_h_max": Param(float),
         "t_h_steps": Param(int, minimum=2, maximum=_MAX_POINTS)},
        _run_thermometry),
    "magnetometry": Experiment(
        {"omega_un_true": Param(float), **_TEMPS,
         "theta": Param(float, minimum=0.0, maximum=float(np.pi)),
         "omega_k_min": Param(float), "omega_k_max": Param(float),
         "omega_k_steps": Param(int, minimum=2, maximum=_MAX_POINTS)},
        _run_magnetometry),
    "ergotropy": Experiment(
        dict(_DIAG), lambda p: _fields(battery.ergotropy(*_diag_state(p)))),
    "n-copy": Experiment(
        {**_DIAG, "n_copies": Param(int, minimum=1)}, _run_n_copy),
    "qsl": Experiment(
        {"omega": Param(float), "tau": Param(float, minimum=0.0),
         "samples": Param(int, 201, minimum=2, maximum=_MAX_POINTS)},
        _run_qsl),
    "charge-xxz": Experiment(
        {"n_cells": Param(int, minimum=1), "b": Param(float),
         "g": Param(float), "alpha": Param(float), "nu": Param(float),
         "interaction_range": Param(str, "power_law",
                                    choices=("nearest_neighbor", "power_law")),
         "omega": Param(float), "tau": Param(float, minimum=0.0),
         "dt": Param(float, minimum=0.0)},
        lambda p: _trace_row(battery.charge_spins_xxz(**p))),
    "charge-lmg": Experiment(
        {"n_cells": Param(int, minimum=1), "lam": Param(float),
         "gamma": Param(float), "b": Param(float),
         "tau": Param(float, minimum=0.0), "dt": Param(float, minimum=0.0)},
        lambda p: _trace_row(battery.charge_lmg(**p))),
    "charge-dicke": Experiment(
        dict(_DICKE), lambda p: _trace_row(battery.charge_dicke(**p))),
    "advantage": Experiment(
        {**_DICKE, "target_fraction": Param(float, 0.2, minimum=0.0,
                                            maximum=1.0)},
        _run_advantage),
}


# --- config parsing and validation ---------------------------------------------


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)  # raw strings
    sweep: Optional[dict] = None
    output_path: Optional[str] = None
    output_format: str = "csv"
    threads: Optional[int] = None


def load_config(path: str, experiment: Optional[str] = None,
                overrides: Optional[dict] = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    name = experiment or parser.get("experiment", "name", fallback=None)
    cfg = ExperimentConfig(experiment=name or "")
    if parser.has_section("parameters"):
        cfg.parameters = dict(parser.items("parameters"))
    if overrides:
        cfg.parameters.update(overrides)
    if parser.has_section("sweep"):
        cfg.sweep = dict(parser.items("sweep"))
    if parser.has_section("output"):
        cfg.output_path = parser.get("output", "path", fallback=None)
        cfg.output_format = parser.get("output", "format", fallback="csv")
    threads = parser.get("run", "threads", fallback=None)
    cfg.threads = int(threads) if threads is not None else None
    return cfg


# a sweep's points are all held at once, so their number is bounded
_SWEEP_FIELDS = {"from": Param(float), "to": Param(float),
                 "steps": Param(int, minimum=1, maximum=_MAX_POINTS)}


def parse_config(cfg: ExperimentConfig) -> Tuple[List[dict], List[str]]:
    """The typed parameters of every run (one per sweep point, in sweep
    order) and the diagnostics; the runs are empty unless the diagnostics
    are."""
    if cfg.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        return [], [f"unknown experiment {cfg.experiment!r} (known: {known})"]
    exp = EXPERIMENTS[cfg.experiment]
    diags = [f"unknown parameter key {key!r} for {cfg.experiment}"
             for key in cfg.parameters if key not in exp.params]
    # every run takes the swept key's value from the sweep
    swept = cfg.sweep.get("key") if cfg.sweep is not None else None
    base = {}
    for key, spec in exp.params.items():
        if key not in cfg.parameters:
            if spec.default is None and key != swept:
                diags.append(f"missing required parameter {key!r}")
            base[key] = spec.default
            continue
        try:
            base[key] = spec.check(cfg.parameters[key])
        except ValueError as exc:
            diags.append(f"parameter {key!r}: {exc}")
    points = [base]
    if cfg.sweep is not None:
        points, sweep_diags = _sweep_points(cfg, base)
        diags += sweep_diags
    if cfg.output_format not in ("csv", "json"):
        diags.append(f"output format {cfg.output_format!r} must be csv "
                     "or json")
    return ([] if diags else points), diags


def _sweep_points(cfg: ExperimentConfig,
                  base: dict) -> Tuple[List[dict], List[str]]:
    """One parameter dict per sweep point, each point checked like a
    ``--set`` of the swept key, and the sweep's diagnostics."""
    exp, sweep = EXPERIMENTS[cfg.experiment], cfg.sweep
    diags = []
    key = sweep.get("key")
    if key is None:
        diags.append("sweep section needs a 'key'")
    elif key not in exp.params:
        diags.append(f"sweep key {key!r} is not a parameter of "
                     f"{cfg.experiment}")
    elif exp.params[key].kind not in (float, int):
        diags.append(f"sweep key {key!r} is not numeric")
    fields = {}
    for fld, spec in _SWEEP_FIELDS.items():
        if fld not in sweep:
            diags.append(f"sweep section missing {fld!r}")
            continue
        try:
            fields[fld] = spec.check(sweep[fld])
        except ValueError as exc:
            diags.append(f"sweep field {fld!r}: {exc}")
    scale = sweep.get("scale", "linear")
    if scale not in ("linear", "log"):
        diags.append(f"sweep scale {scale!r} must be linear or log")
    elif scale == "log" and min(fields.get("from", 1.0),
                                fields.get("to", 1.0)) <= 0:
        diags.append("log sweep endpoints must be positive")
    if exp.multi_row:
        diags.append(f"experiment {cfg.experiment} produces multiple "
                     "rows and cannot be swept")
    if diags:
        return [], diags
    try:
        values = _grid(fields["from"], fields["to"], fields["steps"],
                       log=scale == "log")
    except InvalidParams as exc:
        return [], [f"sweep of {key!r}: {exc}"]
    spec = exp.params[key]
    points = []
    for value in map(float, values):
        if spec.kind is int and math.isfinite(value) \
                and abs(value - round(value)) <= 1e-9:
            value = round(value)
        try:
            points.append(dict(base, **{key: spec.check(value)}))
        except ValueError as exc:
            return [], [f"sweep point of {key!r}: {exc}"]
    return points, []


def _grid(lo: float, hi: float, steps: int, log: bool = False) -> np.ndarray:
    """``steps`` points from lo to hi, evenly spaced (in log10 with
    ``log``); raises InvalidParams when the span overflows the float range
    and leaves a point that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.logspace(np.log10(lo), np.log10(hi), steps) if log
                  else np.linspace(lo, hi, steps))
    if not np.all(np.isfinite(values)):
        raise InvalidParams(f"the grid from {lo!r} to {hi!r} in {steps} "
                            "steps leaves the float range")
    return values


def validate_config(cfg: ExperimentConfig) -> List[str]:
    """Full static validation; an empty list means the config is runnable."""
    return parse_config(cfg)[1]


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(
        {"experiment": cfg.experiment,
         "parameters": dict(sorted(cfg.parameters.items())),
         "sweep": (dict(sorted(cfg.sweep.items()))
                   if cfg.sweep is not None else None)},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# --- result table and serialization -----------------------------------------------


@dataclass
class ResultTable:
    columns: Dict[str, list]
    metadata: Dict[str, object]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise QThermError(f"ragged result columns: {lengths}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(table: ResultTable, stream) -> None:
    for key in ("version", "config_hash"):
        stream.write(f"# {key}: {_fmt(table.metadata[key])}\n")
    names = list(table.columns)
    stream.write(",".join(names) + "\n")
    n_rows = len(next(iter(table.columns.values()))) if names else 0
    for i in range(n_rows):
        stream.write(",".join(_fmt(table.columns[k][i]) for k in names)
                     + "\n")


def write_json(table: ResultTable, stream) -> None:
    def clean(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating, float)):
            f = float(v)
            return None if np.isnan(f) else f
        return v

    payload = {
        "metadata": {k: clean(v) for k, v in table.metadata.items()},
        "columns": {k: [clean(v) for v in col]
                    for k, col in table.columns.items()},
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


# --- run ---------------------------------------------------------------------


def run(cfg: ExperimentConfig) -> ResultTable:
    """Dispatch the config to its experiment; sweeps produce one row per
    sweep point, assembled in sweep order on a bounded worker pool. A
    config that fails validation raises InvalidConfig."""
    points, diags = parse_config(cfg)
    if diags:
        raise InvalidConfig(diags)
    exp = EXPERIMENTS[cfg.experiment]
    if cfg.sweep is None:
        row = exp.runner(points[0])
        if exp.multi_row:
            columns = {k: list(v) for k, v in row.items()}
        else:
            columns = {k: [v] for k, v in row.items()}
    else:
        key = cfg.sweep["key"]
        threads = max(1, cfg.threads or min(4, len(points)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(exp.runner, points))
        columns = {key: [p[key] for p in points]}
        for name in rows[0]:
            columns[name] = [r[name] for r in rows]
    metadata = {
        "version": __version__,
        "config_hash": config_hash(cfg),
    }
    return ResultTable(columns=columns, metadata=metadata)


# --- command line ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtherm",
        description=("Quantum thermal machine / metrology / battery "
                     "experiment runner. Units: hbar = k_B = 1; energies "
                     "and temperatures share one energy unit, times are "
                     "in its inverse."))
    sub = parser.add_subparsers(dest="command")
    names = sorted(EXPERIMENTS)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("experiment", choices=names)
    run_p.add_argument("--config", required=False)
    run_p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="key=value")
    run_p.add_argument("--out")
    run_p.add_argument("--format", choices=("csv", "json"))
    run_p.add_argument("--threads", type=int)
    val_p = sub.add_parser("validate", help="statically validate a config")
    val_p.add_argument("path")
    sub.add_parser("list", help="print the experiment catalog")
    return parser


def _print_catalog(stream) -> None:
    for name in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[name]
        required = [k for k, s in exp.params.items() if s.default is None]
        optional = [f"{k}={_fmt(s.default)}" for k, s in exp.params.items()
                    if s.default is not None]
        parts = [name + ":", " ".join(required)]
        if optional:
            parts.append("[" + " ".join(optional) + "]")
        stream.write(" ".join(p for p in parts if p) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow `qtherm <experiment> ...` as shorthand for `qtherm run ...`
    if argv and argv[0] in EXPERIMENTS:
        argv = ["run"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "list":
        _print_catalog(sys.stdout)
        return EXIT_OK

    if args.command == "validate":
        try:
            cfg = load_config(args.path)
        except (OSError, configparser.Error, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        diags = validate_config(cfg)
        for line in diags:
            print(line)
        return EXIT_OK if not diags else EXIT_CONFIG

    # run
    overrides = {}
    for item in args.sets:
        if "=" not in item:
            print(f"--set expects key=value, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        if args.config:
            cfg = load_config(args.config, experiment=args.experiment,
                              overrides=overrides)
        else:
            cfg = ExperimentConfig(experiment=args.experiment,
                                   parameters=overrides)
    except (OSError, configparser.Error, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        cfg.output_path = args.out
    if args.format:
        cfg.output_format = args.format
    if args.threads is not None:
        cfg.threads = args.threads
    try:
        table = run(cfg)
    except InvalidConfig as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        return EXIT_CONFIG
    except QThermError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    writer = write_csv if cfg.output_format == "csv" else write_json
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            writer(table, fh)
    else:
        writer(table, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
