import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtherm import cli
from qtherm.errors import InvalidConfig, TrapInversionWarning

SPEC_EXPERIMENTS = {
    "maser", "box-carnot", "otto", "otto-squeezed", "otto-numeric",
    "two-stroke", "ctm", "sta-ermakov", "sta-cd", "outcoupled", "qfi",
    "thermometry", "magnetometry", "ergotropy", "n-copy", "qsl",
    "charge-xxz", "charge-lmg", "charge-dicke", "advantage",
}


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


OTTO_CONFIG = """
[experiment]
name = otto

[parameters]
omega_a = 2.0
omega_b = 1.0
t_h = 4.0
t_c = 1.0
"""


# --- catalog and exhaustiveness -----------------------------------------------


def test_every_experiment_is_wired():
    assert set(cli.EXPERIMENTS) == SPEC_EXPERIMENTS
    for exp in cli.EXPERIMENTS.values():
        assert callable(exp.runner)


def test_list_prints_catalog(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SPEC_EXPERIMENTS:
        assert name + ":" in out


# --- running single experiments -------------------------------------------------


def test_otto_single_row(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["run", "otto", "--config", path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["efficiency"]) == pytest.approx(0.5, abs=1e-12)
    assert row["mode"] == "Engine"
    assert len(lines) == 2


def test_experiment_shorthand_without_run(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["otto", "--config", path]) == 0
    assert "Engine" in capsys.readouterr().out


def test_set_overrides(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["run", "otto", "--config", path,
                     "--set", "omega_b=1.5"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["efficiency"]) == pytest.approx(0.25, abs=1e-12)


def test_run_without_config_uses_sets(capsys):
    code = cli.main(["run", "maser", "--set", "omega_h=3", "--set",
                     "omega_c=1", "--set", "t_h=4", "--set", "t_c=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Engine" in out


def test_json_output(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["run", "otto", "--config", path,
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"]["efficiency"] == [0.5]
    assert payload["metadata"]["version"]
    assert payload["metadata"]["config_hash"]


def test_output_file(tmp_path):
    path = write_config(tmp_path, OTTO_CONFIG)
    out = tmp_path / "result.csv"
    assert cli.main(["run", "otto", "--config", path,
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert "net_work_output" in text


# --- sweeps ----------------------------------------------------------------------


CTM_SWEEP = """
[experiment]
name = ctm

[parameters]
omega0 = 10
drive_frequency = 1
t_hot = 4
t_cold = 1

[sweep]
key = drive_frequency
from = 0.55
to = 8.05
steps = 16
"""


def test_ctm_sweep_mode_flip(tmp_path, capsys):
    path = write_config(tmp_path, CTM_SWEEP)
    assert cli.main(["run", "ctm", "--config", path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    k_omega = header.index("drive_frequency")
    k_mode = header.index("mode")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 16
    omegas = np.array([float(r[k_omega]) for r in rows])
    modes = [r[k_mode] for r in rows]
    assert np.all(np.diff(omegas) > 0)  # assembled in sweep order
    flips = [i for i in range(1, 16) if modes[i] != modes[i - 1]]
    assert len(flips) == 1
    # critical frequency omega0 (T_h - T_c)/(T_h + T_c) = 6 within the grid
    assert omegas[flips[0] - 1] < 6.0 < omegas[flips[0]] + 1e-12
    assert modes[0] == "Engine" and modes[-1] == "Refrigerator"


def test_sweep_respects_thread_env(tmp_path, capsys):
    flag = write_config(tmp_path, CTM_SWEEP, "flag.ini")
    section = write_config(tmp_path, CTM_SWEEP + "\n[run]\nthreads = 2\n",
                           "section.ini")
    for args in (["--config", flag, "--threads", "2"], ["--config", section]):
        assert cli.main(["run", "ctm"] + args) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 17


def test_reruns_byte_identical(tmp_path):
    path = write_config(tmp_path, CTM_SWEEP)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["run", "ctm", "--config", path,
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- validation ------------------------------------------------------------------


def test_validate_good_config(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_run_parses_its_config_once(tmp_path, monkeypatch):
    calls = []
    parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config", lambda cfg: calls.append(cfg) or parse(cfg))
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["run", "otto", "--config", path, "--out",
                     str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1
    with pytest.raises(InvalidConfig, match="missing required parameter"):
        cli.run(cli.ExperimentConfig("otto", {"omega_a": "2"}))


def test_missing_key_names_it(tmp_path, capsys):
    path = write_config(tmp_path, """
[experiment]
name = otto

[parameters]
omega_a = 2.0
t_h = 4.0
t_c = 1.0
""")
    assert cli.main(["run", "otto", "--config", path]) == 2
    assert "omega_b" in capsys.readouterr().err


def test_unknown_parameter_rejected(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG + "bogus_key = 3\n")
    assert cli.main(["validate", path]) == 2
    assert "bogus_key" in capsys.readouterr().out


def test_sweep_over_non_numeric_key(tmp_path, capsys):
    path = write_config(tmp_path, """
[experiment]
name = charge-xxz

[parameters]
n_cells = 4
b = 1.0
g = 0.1
alpha = 0.5
nu = 1.0
omega = 1.0
tau = 2.0
dt = 0.01

[sweep]
key = interaction_range
from = 0
to = 1
steps = 2
""")
    assert cli.main(["validate", path]) == 2
    assert "interaction_range" in capsys.readouterr().out


def test_two_stroke_theta_out_of_range(tmp_path, capsys):
    path = write_config(tmp_path, """
[experiment]
name = two-stroke

[parameters]
omega_k = 5.0
omega_un = 2.0
t_h = 10.0
t_c = 2.0
theta = 7.0
""")
    assert cli.main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "theta" in out and "maximum" in out


def test_unknown_experiment(tmp_path, capsys):
    path = write_config(tmp_path, "[experiment]\nname = warp-drive\n")
    assert cli.main(["validate", path]) == 2
    assert "warp-drive" in capsys.readouterr().out


def test_unreadable_file():
    assert cli.main(["validate", "/nonexistent/nowhere.ini"]) == 2


def test_malformed_set():
    assert cli.main(["run", "otto", "--set", "omega_a"]) == 2


# --- one parse for validate and run ------------------------------------------------


@pytest.mark.parametrize("experiment", sorted(SPEC_EXPERIMENTS))
def test_non_finite_values_exit_2_naming_the_key(experiment, capsys):
    for key, spec in cli.EXPERIMENTS[experiment].params.items():
        if spec.kind not in (float, int, list):
            continue
        for value in ("nan", "inf", "-inf"):
            assert cli.main([experiment, "--set", f"{key}={value}"]) == 2
            assert (f"parameter {key!r}: {value!r} is not finite"
                    in capsys.readouterr().err)


_LMG = {"n_cells": "2", "lam": "1", "gamma": "-1", "b": "1", "tau": "1",
        "dt": "0.1"}
_THERMOMETRY = {"omega_h": "2", "omega_c": "1", "kappa_h": "1",
                "kappa_c": "1", "g": "0.3", "t_c_true": "1", "t_h_min": "1",
                "t_h_max": "3", "t_h_steps": "5"}
_CTM = {"omega0": "10", "drive_frequency": "1", "t_hot": "4", "t_cold": "1"}


def _sweep(key, lo, hi, steps):
    return {"key": key, "from": lo, "to": hi, "steps": steps}


@pytest.mark.parametrize("experiment,params,sweep", [
    ("ctm", _CTM, _sweep("drive_frequency", "0.5", "8", "0")),
    ("ctm", _CTM, _sweep("drive_frequency", "0.5", "8", "-3")),
    ("ctm", _CTM, _sweep("drive_frequency", "0.5", "8", "inf")),
    ("ctm", _CTM, _sweep("drive_frequency", "0.5", "8", "1.5")),
    ("charge-lmg", _LMG, _sweep("n_cells", "0", "2", "3")),
    ("charge-lmg", _LMG, _sweep("n_cells", "1", "2", "3")),
    ("thermometry", _THERMOMETRY, _sweep("t_h_steps", "-2", "1", "4")),
    ("charge-lmg", _LMG, _sweep("n_cells", "-1e308", "1e308", "3")),
    ("charge-lmg", dict(_LMG, n_cells="inf"), None),
    ("charge-lmg", dict(_LMG, lam="nan"), None),
    ("otto", {"omega_a": "2", "omega_b": "1", "t_h": "inf", "t_c": "1"}, None),
    ("ergotropy", {"energies": "", "populations": "1"}, None),
    ("ergotropy", {"energies": "0,1", "populations": ","}, None),
], ids=["zero-steps", "negative-steps", "infinite-steps", "fractional-steps",
        "lmg-cells-from-zero", "lmg-half-cell", "thermometry-steps-below-2",
        "overflowing-span", "infinite-cells", "nan-coupling",
        "infinite-temperature", "empty-energies", "empty-populations"])
def test_validate_and_run_reject_alike(experiment, params, sweep, tmp_path,
                                       capsys):
    text = f"[experiment]\nname = {experiment}\n\n[parameters]\n"
    text += "".join(f"{k} = {v}\n" for k, v in params.items())
    if sweep is not None:
        text += "\n[sweep]\n" + "".join(f"{k} = {v}\n"
                                       for k, v in sweep.items())
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == 2
    assert cli.main(["run", experiment, "--config", path]) == 2
    out = capsys.readouterr()
    assert out.out and out.out == out.err  # the same diagnostics


def test_log_sweep_of_an_integer_key_lands_on_integers(tmp_path, capsys):
    # logspace gives 7.999999999999999 for the third point
    path = write_config(tmp_path, """
[experiment]
name = n-copy

[parameters]
energies = 0
populations = 1
n_copies = 1

[sweep]
key = n_copies
from = 2
to = 16
steps = 4
scale = log
""")
    rows = _run_rows(["run", "n-copy", "--config", path], capsys)
    assert [r["n_copies"] for r in rows] == ["2", "4", "8", "16"]


_N_COPY_SWEEP = """
[experiment]
name = n-copy

[parameters]
energies = 0,1
populations = 0.3,0.7
{line}
[sweep]
key = n_copies
from = 1
to = 3
steps = 3
"""


def test_swept_required_key_needs_no_parameters_line(tmp_path, capsys):
    path = write_config(tmp_path, _N_COPY_SWEEP.format(line=""))
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    rows = _run_rows(["run", "n-copy", "--config", path], capsys)
    assert [r["n_copies"] for r in rows] == ["1", "2", "3"]


def test_swept_key_given_in_parameters_is_still_checked(tmp_path, capsys):
    path = write_config(tmp_path, _N_COPY_SWEEP.format(line="n_copies = 0"))
    assert cli.main(["validate", path]) == 2
    assert "n_copies" in capsys.readouterr().out


def _near_bounds(spec):
    """Numbers at, just below and just above the bounds of ``spec``."""
    near = ["-1", "0", "1", "2", "2.5"]
    for bound in (spec.minimum, spec.maximum):
        if bound is not None:
            near += [repr(x) for x in (bound, np.nextafter(bound, -np.inf),
                                       np.nextafter(bound, np.inf))]
    return near


def _edge_strings(spec):
    return (["", " ", "nan", "inf", "-inf", "1e400", "-0", "1.5", "1e9",
             "1e308", "true", "off", "0,1", ",", "1,nan"]
            + _near_bounds(spec) + list(spec.choices or ()))


def _typed(spec):
    """Values the schema accepts, edge values included."""
    if spec.kind is float:
        return st.floats(spec.minimum, spec.maximum, allow_nan=False,
                         allow_infinity=False).map(repr)
    if spec.kind is int:
        low = -3 if spec.minimum is None else int(spec.minimum)
        return st.integers(low, low + 60).map(str)
    if spec.kind is list:
        return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=3).map(
            lambda xs: ",".join(map(repr, xs)))
    return st.sampled_from(spec.choices or sorted(cli._BOOLEANS))


@st.composite
def _configs(draw):
    """Configs whose values are a mix of schema-typed values, edge strings
    and arbitrary text; ``noise`` sets the mix, from all typed to all raw,
    and is often 0 so that runnable configs are common."""
    noise = draw(st.sampled_from([0, 0, 0, 1, 2, 5, 10]))

    def value(spec):
        if draw(st.integers(0, 9)) < noise:
            return draw(st.one_of(st.sampled_from(_edge_strings(spec)),
                                  st.text(max_size=8)))
        return draw(_typed(spec))

    name = draw(st.sampled_from(sorted(cli.EXPERIMENTS) + ["warp-drive"]))
    schema = cli.EXPERIMENTS.get(name, cli.EXPERIMENTS["otto"]).params
    params = {k: value(spec) for k, spec in schema.items()
              if draw(st.integers(0, 19)) >= noise}
    sweep = None
    if draw(st.booleans()):
        numeric = [k for k, spec in schema.items() if spec.kind in (float, int)]
        keys = (numeric if noise == 0 and numeric
                else sorted(schema) + ["bogus"])
        sweep = {"key": draw(st.sampled_from(keys))}
        swept = schema.get(sweep["key"], cli.Param(float))
        for fld, spec in cli._SWEEP_FIELDS.items():
            if draw(st.integers(0, 19)) < noise:
                continue
            if fld == "steps" or draw(st.booleans()):
                sweep[fld] = value(spec)
            else:  # endpoints at the swept parameter's bounds, or far out
                sweep[fld] = draw(st.sampled_from(_near_bounds(swept)
                                                  + ["-1e308", "1e308"]))
        sweep["scale"] = draw(st.sampled_from(
            ["linear", "log"] + (["cubic"] if noise else [])))
    return cli.ExperimentConfig(name, params, sweep)


def _assert_in_schema(value, spec):
    if spec.kind in (float, int, list):
        numbers = value if spec.kind is list else [value]
        assert numbers and all(type(x) is (float if spec.kind is list
                                          else spec.kind) for x in numbers)
        assert all(map(math.isfinite, numbers))
        assert spec.minimum is None or min(numbers) >= spec.minimum
        assert spec.maximum is None or max(numbers) <= spec.maximum
    if spec.choices is not None:
        assert value in spec.choices


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_validate_never_raises_and_passes_only_runnable_points(cfg):
    points, diags = cli.parse_config(cfg)
    assert cli.validate_config(cfg) == diags
    assert all(isinstance(line, str) for line in diags)
    if diags:
        assert points == []
        return
    steps = 1 if cfg.sweep is None else int(float(cfg.sweep["steps"]))
    assert len(points) == steps
    schema = cli.EXPERIMENTS[cfg.experiment].params
    for point in points:
        assert set(point) == set(schema)
        for key, spec in schema.items():
            _assert_in_schema(point[key], spec)


# --- numeric error propagation -----------------------------------------------------


def test_numeric_failure_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, """
[experiment]
name = charge-dicke

[parameters]
n_cells = 4
n_photons = 4
lam = 0.5
photon_cutoff = 6
tau = 10.0
dt = 0.01
""")
    assert cli.main(["run", "charge-dicke", "--config", path]) == 3
    assert "CutoffTooSmall" in capsys.readouterr().err


_VALID_SETS = {
    "ctm": {"omega0": "10", "drive_frequency": "1", "t_hot": "4",
            "t_cold": "1"},
    "otto-numeric": {"omega_a": "2", "omega_b": "1", "t_h": "2", "t_c": "0.5",
                     "ramp_duration": "1", "thermalization_time": "5"},
    "qsl": {"omega": "1", "tau": "1"},
}


@pytest.mark.parametrize("experiment,bad", [
    ("ctm", ["t_hot=1", "t_cold=1"]),  # fails the CTM's T_h > T_c check
    ("ctm", ["rate=-1"]),
    ("ctm", ["t_cold=0"]),
    ("ctm", ["drive_frequency=0"]),
    ("otto-numeric", ["ramp_duration=0"]),
    ("otto-numeric", ["thermalization_time=0"]),
    ("otto-numeric", ["kappa=-1"]),
    ("qsl", ["tau=0"]),  # the schema allows 0; the speed limit needs tau > 0
], ids=["equal-temperatures", "negative-rate", "zero-cold-temperature",
        "zero-drive-frequency", "zero-ramp-duration",
        "zero-thermalization-time", "negative-kappa", "zero-qsl-duration"])
def test_bad_physical_parameter_exits_3(experiment, bad, capsys):
    # each passes the schema, then fails a physical check in the library
    sets = dict(_VALID_SETS[experiment])
    sets.update(item.split("=") for item in bad)
    args = [experiment]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert "InvalidParams" in err
    if experiment == "otto-numeric":
        # rejected up front, naming the parameter, before any ODE runs
        assert bad[0].split("=")[0] in err


_THERMOMETRY_SETS = ["omega_h=2", "omega_c=1", "kappa_h=1", "kappa_c=1",
                     "g=0.1", "t_h_min=1", "t_h_steps=3"]


_FLOAT_MAX = repr(sys.float_info.max)


@pytest.mark.parametrize("experiment,sets,error", [
    ("qfi", ["omega=1", "temperature=0"], "InvalidParams"),
    ("thermometry", _THERMOMETRY_SETS + ["t_c_true=0", "t_h_max=2"],
     "InvalidParams"),
    ("thermometry", _THERMOMETRY_SETS + ["kappa_h=0", "kappa_c=0",
                                         "t_c_true=1", "t_h_max=3"],
     "InvalidParams"),
    ("outcoupled", ["n_cycles=1", "delta=0"], "InvalidParams"),
    ("outcoupled", ["n_cycles=1", "delta=1e160"], "InvalidParams"),
    ("outcoupled", ["n_cycles=2", "delta=0.5", "g=1e20"], "InvalidParams"),
    ("outcoupled", ["n_cycles=1", f"g={_FLOAT_MAX}"], "InvalidParams"),
    ("thermometry", ["omega_h=1", "omega_c=1", "kappa_h=1", "kappa_c=1", "g=1",
                     "t_c_true=1", "t_h_min=-1.7e308", "t_h_max=1.7e308",
                     "t_h_steps=5"], "InvalidParams"),
    ("magnetometry", ["omega_un_true=1", "t_h=2", "t_c=1", "theta=0.3",
                      f"omega_k_min=-{_FLOAT_MAX}", "omega_k_max=1e-300",
                      "omega_k_steps=4"], "InvalidParams"),
    ("advantage", ["n_cells=2", "n_photons=2", "lam=0.5", "photon_cutoff=10",
                   "tau=8.66e290", "dt=1e-300"], "TooLarge"),
    ("sta-cd", ["delta=1", "velocity=1", "t=0", "dt=0"], "InvalidParams"),
    ("sta-cd", ["delta=1", "velocity=0", f"t={_FLOAT_MAX}", f"dt={_FLOAT_MAX}"],
     "NumericalInstability"),
    ("box-carnot", ["l_a=1e-100", "l_b=1e-200", "mass=1e-300"],
     "InvalidParams"),
    ("box-carnot", ["l_a=1e200", "l_b=1", "mass=1"], "InvalidParams"),
    ("ergotropy", ["energies=0,1,2", "populations=-0.1,0.55,0.55"],
     "InvalidState"),
    ("n-copy", ["energies=0,1,2", "populations=-0.1,0.55,0.55", "n_copies=2"],
     "InvalidState"),
    ("n-copy", ["energies=0,1", "populations=1e99,1e99", "n_copies=4"],
     "InvalidState"),
    ("otto-squeezed", ["omega_a=2000", "omega_b=1000", "t_h=1", "t_c=0.5",
                       "r=0.1"], "InvalidParams"),
    ("sta-ermakov", ["omega_i=1", "omega_f=1", "tau=1", "temperature=0"],
     "InvalidParams"),
    ("sta-ermakov", ["omega_i=1", "omega_f=1", "tau=1", "temperature=-1"],
     "InvalidParams"),
    # b_f - 1 rounds to -1, so the scaling function reaches 0 at tau
    ("sta-ermakov", ["omega_i=1", "omega_f=7.635131803765888e+47", "tau=1",
                     "temperature=1"], "InvalidParams"),
    # omega_i²/b(t)⁴ and omega_i² leave the float range
    ("sta-ermakov", ["omega_i=1e150", "omega_f=1e180", "tau=1",
                     "temperature=1"], "InvalidParams"),
    ("sta-ermakov", ["omega_i=1e200", "omega_f=1e200", "tau=1",
                     "temperature=1"], "InvalidParams"),
    ("qsl", ["omega=3.4385713937027823e+307", "tau=3.4385713937027823e+307",
             "samples=2"], "NumericalInstability"),
    ("ergotropy", ["energies=0,1", f"populations={_FLOAT_MAX},1"],
     "InvalidState"),
    ("n-copy", ["energies=0,1", f"populations={_FLOAT_MAX},1", "n_copies=2"],
     "InvalidState"),
    # a phase of 10 500 rad, just beyond the bound
    ("otto-numeric", ["omega_a=2", "omega_b=1", "t_h=2", "t_c=1",
                      "ramp_duration=7000", "thermalization_time=20"],
     "TooLarge"),
], ids=["qfi-zero-temperature", "thermometry-zero-cold-temperature",
        "thermometry-undamped-modes", "outcoupled-zero-delta",
        "outcoupled-huge-delta", "outcoupled-huge-g", "outcoupled-largest-g",
        "thermometry-overflowing-grid", "magnetometry-overflowing-grid",
        "advantage-overflowing-steps", "sta-cd-zero-step",
        "sta-cd-infinite-step", "box-carnot-energy-overflow",
        "box-carnot-energy-underflow", "ergotropy-negative-population",
        "n-copy-negative-population", "n-copy-overflowing-population",
        "otto-squeezed-overflowing-hot-energy", "sta-ermakov-zero-temperature",
        "sta-ermakov-negative-temperature", "sta-ermakov-vanishing-scale",
        "sta-ermakov-overflowing-frequency", "sta-ermakov-huge-frequency",
        "qsl-overflowing-phase", "ergotropy-largest-population",
        "n-copy-largest-population", "otto-numeric-long-ramp"])
def test_degenerate_parameter_exits_3_not_4(experiment, sets, error, capsys):
    # each once ended in a Python arithmetic error (exit 4) or printed NaN
    args = [experiment]
    for item in sets:
        args += ["--set", item]
    assert cli.main(args) == 3
    out = capsys.readouterr()
    assert error in out.err
    assert "nan" not in out.out


@pytest.mark.parametrize("args,want", [
    (["two-stroke", "--set", "omega_k=800", "--set", "omega_un=400",
      "--set", "t_h=4", "--set", "t_c=1", "--set", "theta=1"], {"mode": "Off"}),
    (["magnetometry", "--set", "omega_un_true=400", "--set", "t_h=4",
      "--set", "t_c=1", "--set", "theta=1", "--set", "omega_k_min=800",
      "--set", "omega_k_max=2400", "--set", "omega_k_steps=5"],
     {"omega_un_estimate": "400"}),
    (["thermometry"] + [x for item in [
        f"omega_h={_FLOAT_MAX}", f"omega_c={_FLOAT_MAX}", "kappa_h=1",
        "kappa_c=1", "g=1", "t_c_true=8.98846567431158e+307",
        f"t_h_min={_FLOAT_MAX}", "t_h_max=1.0", "t_h_steps=3"]
        for x in ("--set", item)],
     {"t_c_estimate": "1.3482698511467367e+308",
      "error_estimate": "4.4942328371557893e+307"}),
    (["otto-numeric"] + [x for item in [
        "omega_a=2000", "omega_b=1000", "t_h=2", "t_c=1", "ramp_duration=1",
        "thermalization_time=20"] for x in ("--set", item)],
     {"mode": "Heater"}),
], ids=["two-stroke", "magnetometry", "thermometry", "otto-numeric"])
def test_overflowing_intermediate_gives_the_finite_result(args, want, capsys):
    # e^(2 omega/T) = inf in the two-stroke occupations, and e^(omega/T) in
    # the damping channel's nbar, is the n = 0 limit; the thermometry
    # estimate is t_star (omega_c/omega_h), whose product t_star omega_c
    # alone overflows
    row = _run_rows(args, capsys)[0]
    assert {key: row[key] for key in want} == want


def test_thermometry_rejects_n_max(capsys):
    args = ["thermometry"] + [x for item in _THERMOMETRY_SETS + [
        "t_c_true=1", "t_h_max=3", "n_max=400"] for x in ("--set", item)]
    assert cli.main(args) == 2
    assert "unknown parameter key 'n_max'" in capsys.readouterr().err


def test_outcoupled_rejects_n_fock(capsys):
    # the engine runs on <a> and <n>, with no Fock cutoff to set
    args = ["outcoupled", "--set", "n_cycles=1", "--set", "n_fock=30"]
    assert cli.main(args) == 2
    assert "unknown parameter key 'n_fock'" in capsys.readouterr().err


# sizes kept small so that no example allocates much
_SIZE_CAPS = {"n_cycles": 3, "t_h_steps": 50, "omega_k_steps": 50,
              "samples": 50, "n_copies": 4, "m_max": 40}
# an unbounded side is drawn out to 1e100, where near 1e154 the squares
# that a model takes of its inputs leave the float range, or over the whole
# float range for the experiments that guard every such overflow
_SCALE = 1e100
_FULL_RANGE = ("sta-cd", "box-carnot", "outcoupled", "thermometry")
# experiments whose every column is finite but for an undefined efficiency
# or coefficient of performance
_FINITE_ROWS = ("sta-cd", "outcoupled", "maser", "otto", "otto-squeezed",
                "ctm", "qsl", "ergotropy", "n-copy")
_RATIOS = ("efficiency", "cop", "efficiency_or_cop")


def _bounded(key, spec, scale):
    """Values of ``spec`` inside its min/max, the bounds themselves often;
    a list key gets one to three such numbers."""
    if spec.kind is bool:
        return st.sampled_from(["true", "false"])
    if spec.choices is not None:
        return st.sampled_from(spec.choices)
    if spec.kind is int:
        return st.integers(int(spec.minimum), _SIZE_CAPS[key]).map(str)
    lo = -scale if spec.minimum is None else spec.minimum
    hi = scale if spec.maximum is None else spec.maximum
    edges = [x for x in (lo, hi, 0.0, 1.0, -1.0) if lo <= x <= hi]
    number = st.one_of(st.sampled_from(edges), st.floats(lo, hi)).map(repr)
    if spec.kind is list:
        return st.lists(number, min_size=1, max_size=3).map(",".join)
    return number


@st.composite
def _bounded_runs(draw):
    name = draw(st.sampled_from(["qfi", "thermometry", "outcoupled", "sta-cd",
                                 "box-carnot", "two-stroke", "magnetometry",
                                 "maser", "otto", "otto-squeezed", "ctm", "qsl",
                                 "ergotropy", "n-copy"]))
    scale = sys.float_info.max if name in _FULL_RANGE else _SCALE
    args = [name]
    for key, spec in cli.EXPERIMENTS[name].params.items():
        args += ["--set", f"{key}={draw(_bounded(key, spec, scale))}"]
    return args


@settings(max_examples=600, deadline=None)
@given(_bounded_runs())
def test_bounded_parameters_never_exit_4(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 3), (code, err.getvalue())
    if code == 0 and args[0] in _FINITE_ROWS:
        header, *rows = [line.split(",") for line in out.getvalue().splitlines()
                         if not line.startswith("#")]
        for row in rows:
            assert all(value not in ("nan", "inf", "-inf")
                       for key, value in zip(header, row) if key not in _RATIOS)


@pytest.mark.parametrize("experiment,key", [
    ("qsl", "samples"), ("outcoupled", "n_cycles"),
    ("ctm", "m_max"), ("thermometry", "t_h_steps"),
    ("magnetometry", "omega_k_steps")])
def test_keys_that_size_arrays_are_bounded(experiment, key):
    # checked through validate alone, which allocates nothing
    spec = cli.EXPERIMENTS[experiment].params[key]
    for value, rejected in ((spec.maximum, False), (spec.maximum + 1, True),
                            (1e9, True)):
        diags = cli.validate_config(cli.ExperimentConfig(
            experiment, {key: repr(value)}))
        assert any(d.startswith(f"parameter {key!r}") for d in diags) is rejected


def test_n_copy_beyond_budget_exits_3(capsys):
    assert cli.main(["n-copy", "--set", "energies=0,1",
                     "--set", "populations=0.3,0.7",
                     "--set", "n_copies=1000000000"]) == 3
    assert "TooLarge" in capsys.readouterr().err


def test_inverted_trap_exits_3(capsys):
    # so short a shortcut needs omega(t)² < 0 mid-ramp, which the Fock
    # check of the invariant cannot integrate
    with pytest.warns(TrapInversionWarning), np.errstate(invalid="ignore"):
        assert cli.main(["sta-ermakov", "--set", "omega_i=4",
                         "--set", "omega_f=1", "--set", "tau=0.3"]) == 3
    assert "InvalidParams" in capsys.readouterr().err


# --- experiment spot checks ---------------------------------------------------------


def _run_rows(args, capsys):
    assert cli.main(args) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_friction_dominated_otto_is_accelerator(capsys):
    rows = _run_rows(["otto-numeric", "--set", "omega_a=2", "--set", "omega_b=1",
                      "--set", "t_h=2", "--set", "t_c=0.5",
                      "--set", "ramp_duration=0.5",
                      "--set", "thermalization_time=20"], capsys)
    assert rows[0]["mode"] == "Accelerator"
    assert rows[0]["efficiency"] == "nan"


def test_otto_numeric_ignores_n_max(capsys):
    # the key is still accepted (and hashed), but the second-moment route
    # has no Fock cutoff to set
    args = ["otto-numeric", "--set", "omega_a=2", "--set", "omega_b=1",
            "--set", "t_h=2", "--set", "t_c=0.5", "--set", "ramp_duration=1",
            "--set", "thermalization_time=20"]
    rows = [_run_rows(args + ["--set", f"n_max={n}"], capsys) for n in (16, 40)]
    assert rows[0] == rows[1]


def test_ergotropy_experiment(capsys):
    rows = _run_rows(["run", "ergotropy",
                      "--set", "energies=0,1",
                      "--set", "populations=0.3,0.7"], capsys)
    assert float(rows[0]["ergotropy"]) == pytest.approx(0.4, abs=1e-10)


def test_n_copy_experiment(capsys):
    rows = _run_rows(["run", "n-copy",
                      "--set", "energies=0,0.579,1",
                      "--set", "populations=0.538,0.237,0.224",
                      "--set", "n_copies=3"], capsys)
    assert float(rows[0]["energy_per_cell"]) == pytest.approx(
        0.35930140422133333, abs=1e-9)


def test_qsl_experiment(capsys):
    rows = _run_rows(["run", "qsl", "--set", "omega=2.0",
                      "--set", f"tau={np.pi / 2}"], capsys)
    assert float(rows[0]["tau_mt"]) == pytest.approx(np.pi / 2, abs=1e-9)
    assert float(rows[0]["bures_distance"]) == pytest.approx(np.pi / 2,
                                                             abs=1e-9)


def test_outcoupled_multi_row(capsys):
    rows = _run_rows(["run", "outcoupled", "--set", "n_cycles=3",
                      "--set", "per_cycle_measurement=true"], capsys)
    assert len(rows) == 3
    assert [int(r["cycle"]) for r in rows] == [1, 2, 3]
    works = [float(r["mean_work"]) for r in rows]
    assert works[0] < works[1] < works[2]


def test_magnetometry_experiment(capsys):
    rows = _run_rows(["run", "magnetometry",
                      "--set", "omega_un_true=2.5", "--set", "t_h=5.0",
                      "--set", "t_c=2.5", "--set", "theta=0.3",
                      "--set", "omega_k_min=3.05",
                      "--set", "omega_k_max=8.05",
                      "--set", "omega_k_steps=51"], capsys)
    assert float(rows[0]["omega_un_estimate"]) == pytest.approx(2.5,
                                                                abs=1e-9)


def test_csv_floats_are_17_significant_digits(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["run", "otto", "--config", path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # 0.95951737566747197 round-trips bit-exactly through %.17g
    assert float(row["net_work_output"]) == float.fromhex(
        float(row["net_work_output"]).hex())
    assert len(row["net_work_output"].replace("0.", "")) >= 17
