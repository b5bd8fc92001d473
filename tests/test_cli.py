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

from qtherm import cli, cycles
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


OTTO_SETS = ["--set", "omega_a=2", "--set", "omega_b=1", "--set", "t_h=4",
             "--set", "t_c=1"]


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "nowhere" / "x.csv"
    assert cli.main(["otto"] + OTTO_SETS + ["--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("output error: ")
    assert not path.parent.exists()


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["otto"] + OTTO_SETS + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("output error: ")


def test_out_to_dev_null_exits_0(capsys):
    assert cli.main(["otto"] + OTTO_SETS + ["--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_shorter_table_leaves_no_stale_tail(tmp_path, fmt, capsys):
    # the file is rewritten in place and cut at the end of the new table
    path = tmp_path / f"out.{fmt}"
    path.write_text("x" * 100_000)
    args = ["otto"] + OTTO_SETS + ["--format", fmt]
    assert cli.main(args + ["--out", str(path)]) == 0
    assert cli.main(args) == 0
    assert path.read_text() == capsys.readouterr().out


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


def test_parser_is_built_once_and_reused_safely(tmp_path, capsys,
                                                monkeypatch):
    assert cli._parsers()[0] is cli._parsers()[0]
    seen = []
    run = cli.run
    monkeypatch.setattr(cli, "run",
                        lambda cfg: seen.append(dict(cfg.parameters)) or run(cfg))
    assert cli.main(["otto", "--set", "omega_a=2", "--set", "omega_b=1",
                     "--set", "t_h=4", "--set", "t_c=1"]) == 0
    assert cli.main(["run", "qfi", "--set", "omega=1",
                     "--set", "temperature=2"]) == 0
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["validate", path]) == 0
    with pytest.raises(SystemExit) as exc:  # argparse's own usage error
        cli.main(["run", "otto", "--threads", "many"])
    assert exc.value.code == 2
    assert cli.main(["run", "otto", "--config", path]) == 0
    # no call sees a --set of an earlier one
    assert seen == [
        {"omega_a": "2", "omega_b": "1", "t_h": "4", "t_c": "1"},
        {"omega": "1", "temperature": "2"},
        {"omega_a": "2.0", "omega_b": "1.0", "t_h": "4.0", "t_c": "1.0"}]
    capsys.readouterr()


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
    # dp_e/dT = 2e189 is finite, and its square over p_e (1 - p_e) is not
    ("qfi", ["omega=1e-190", "temperature=1e-190"], "NumericalInstability"),
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
    # omega_a² is subnormal, so <x²> = E/omega_a² of the Gibbs state
    # overflows
    ("otto-numeric", ["omega_a=1e-155", "omega_b=1e-160", "t_h=2", "t_c=1",
                      "ramp_duration=1", "thermalization_time=20"],
     "NumericalInstability"),
    # the cold-isochore coth ~ 2 T_c/omega_b times omega_a passes 1.8e308
    ("otto", ["omega_a=1e100", "omega_b=1.4925283067475307e-251",
              "t_h=1e100", "t_c=1"], "NumericalInstability"),
    # A/Omega = 1e310: J_m(inf) would be NaN, read as no coupling
    ("ctm", ["omega0=10", "t_hot=4", "t_cold=1", "amplitude=1e300",
             "drive_frequency=1e-10"], "NumericalInstability"),
    # a period of 2e294 times the amplitude passes 1.8e308
    ("ctm", ["omega0=2.9373394875061713e-294",
             "drive_frequency=2.9373394875061713e-294", "t_hot=1e100",
             "t_cold=1", "rate=1e100", "amplitude=168081467386170.0",
             "waveform=piecewise_asymmetric", "m_max=1"],
     "NumericalInstability"),
], ids=["qfi-zero-temperature", "qfi-overflowing-information",
        "thermometry-zero-cold-temperature",
        "thermometry-undamped-modes", "outcoupled-zero-delta",
        "outcoupled-huge-delta", "outcoupled-huge-g", "outcoupled-largest-g",
        "thermometry-overflowing-grid", "magnetometry-overflowing-grid",
        "advantage-overflowing-steps", "box-carnot-energy-overflow",
        "box-carnot-energy-underflow", "ergotropy-negative-population",
        "n-copy-negative-population", "n-copy-overflowing-population",
        "otto-squeezed-overflowing-hot-energy", "sta-ermakov-zero-temperature",
        "sta-ermakov-negative-temperature", "sta-ermakov-vanishing-scale",
        "sta-ermakov-overflowing-frequency", "sta-ermakov-huge-frequency",
        "qsl-overflowing-phase", "ergotropy-largest-population",
        "n-copy-largest-population", "otto-numeric-long-ramp",
        "otto-numeric-subnormal-square", "otto-overflowing-stroke",
        "ctm-overflowing-ratio", "ctm-overflowing-phase"])
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
    (["two-stroke", "--set", f"omega_k={_FLOAT_MAX}", "--set", "omega_un=1",
      "--set", "t_h=2", "--set", "t_c=1", "--set", "theta=1"],
     {"net_work_output": "-3.034664944417639e+307",
      "q_hot": "-3.034664944417639e+307"}),
], ids=["two-stroke", "magnetometry", "thermometry", "otto-numeric",
        "two-stroke-largest-gap"])
def test_overflowing_intermediate_gives_the_finite_result(args, want, capsys):
    # e^(2 omega/T) = inf in the two-stroke occupations, and e^(omega/T) in
    # the damping channel's nbar, is the n = 0 limit; the thermometry
    # estimate is t_star (omega_c/omega_h), whose product t_star omega_c
    # alone overflows, as does 2 omega_k in the two-stroke work and heat
    row = _run_rows(args, capsys)[0]
    assert {key: row[key] for key in want} == want


def test_sta_cd_closed_form_at_the_largest_velocity(capsys):
    # 0.5 delta v alone overflows; delta v/(2 delta²) = v/(2 delta) does not
    row = _run_rows(["sta-cd", "--set", "delta=3", "--set",
                     f"velocity=-{_FLOAT_MAX}", "--set", "t=0"], capsys)[0]
    assert float(row["closed_form"]) == pytest.approx(-sys.float_info.max / 6,
                                                      rel=1e-15)
    assert float(row["residual"]) <= 1e-9 * sys.float_info.max / 6


def test_otto_numeric_at_extreme_scale_is_the_scaled_cycle(capsys):
    # omega -> omega s, T -> T s and ramp time -> t / s leave the cycle's
    # dimensionless dynamics alone and scale every energy by s; both runs
    # thermalize fully (kappa t = 100 and 1e100), so kappa needs no scaling.
    # At s = 1e100 the squared frequencies near 1e200 must not overflow.
    args = ["otto-numeric"] + [x for item in [
        "omega_a=1e100", "omega_b=1e99", "t_h=1e100", "t_c=1",
        "ramp_duration=1e-99", "thermalization_time=1e100"]
        for x in ("--set", item)]
    row = _run_rows(args, capsys)[0]
    unit = cycles.otto_numeric(1.0, 0.1, 1.0, 1e-100, 10.0, 100.0)
    for key in ("net_work_output", "q_hot", "q_cold"):
        assert float(row[key]) == pytest.approx(1e100 * getattr(unit, key),
                                                rel=1e-9)


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


def test_sta_cd_rejects_dt(capsys):
    # dH0/dt is exact, with no finite-difference step to set
    args = ["sta-cd", "--set", "delta=1", "--set", "velocity=1", "--set",
            "t=0.5", "--set", "dt=1e-6"]
    assert cli.main(args) == 2
    assert "unknown parameter key 'dt'" in capsys.readouterr().err


def test_sta_cd_residual_is_a_few_ulps(capsys):
    # the centred difference at dt = 1e-6 left a residual of 4.0e-13
    row = _run_rows(["sta-cd", "--set", "delta=1", "--set", "velocity=1",
                     "--set", "t=0.5"], capsys)[0]
    assert float(row["residual"]) <= 8 * np.spacing(float(row["closed_form"]))


# sizes kept small so that no example allocates much
_SIZE_CAPS = {"n_cycles": 3, "t_h_steps": 50, "omega_k_steps": 50,
              "samples": 50, "n_copies": 4, "m_max": 40, "n_max": 40,
              "n_cells": 4, "n_photons": 4, "photon_cutoff": 20}
# an unbounded side is drawn out to 1e100, where near 1e154 the squares
# that a model takes of its inputs leave the float range, or over the whole
# float range for the experiments that guard every such overflow
_SCALE = 1e100
_FULL_RANGE = ("sta-cd", "box-carnot", "outcoupled", "thermometry", "qsl")
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
                                 "maser", "otto", "otto-squeezed", "otto-numeric",
                                 "ctm", "qsl", "ergotropy", "n-copy",
                                 "charge-xxz", "charge-lmg", "charge-dicke"]))
    scale = sys.float_info.max if name in _FULL_RANGE else _SCALE
    args = [name]
    for key, spec in cli.EXPERIMENTS[name].params.items():
        args += ["--set", f"{key}={draw(_bounded(key, spec, scale))}"]
    return args


def _assert_exit_0_with_finite_rows_or_3(args):
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


@settings(max_examples=600, deadline=None)
@given(_bounded_runs())
def test_bounded_parameters_never_exit_4(args):
    _assert_exit_0_with_finite_rows_or_3(args)


@pytest.mark.parametrize("args", [
    # the sample grid from 0 to the largest float overflowed in linspace
    ["qsl", "--set", "omega=0.0", "--set", f"tau={_FLOAT_MAX}",
     "--set", "samples=49"],
    # (omega/2)² and the time integral of Delta E = omega/2 pass 1.8e308
    ["qsl", "--set", f"omega=-{_FLOAT_MAX}", "--set", "tau=1.9",
     "--set", "samples=2"],
    # max |H| is subnormal, so 1/s of its power of two s overflowed in the
    # complex division H/s
    ["qsl", "--set", "omega=2.225073858507e-311", "--set", f"tau={_FLOAT_MAX}",
     "--set", "samples=2"],
    # omega_a² passes 1.8e308, once a Python OverflowError
    ["otto-numeric", "--set", "omega_a=1e155", "--set", "omega_b=1",
     "--set", "t_h=2", "--set", "t_c=1", "--set", "ramp_duration=1e-160",
     "--set", "thermalization_time=20"],
    # 2 T_h overflows, so coth(omega_a / 2T_h) divided by zero
    ["otto-squeezed", "--set", f"omega_a={_FLOAT_MAX}", "--set", "omega_b=1",
     "--set", f"t_h={_FLOAT_MAX}", "--set", "t_c=1", "--set", f"r={_FLOAT_MAX}"],
    # the bracket end 1e8 over a spread of 1e-305 overflowed beta to inf
    ["ergotropy", "--set", "energies=0,1e-305", "--set", "populations=0.9,0.1"],
    # beta = 2.2 / 1e-309 is not a float; 2e308 is not a level spread
    ["ergotropy", "--set", "energies=0,1e-309", "--set", "populations=0.9,0.1"],
    ["ergotropy", "--set", "energies=-1e308,1e308", "--set", "populations=0.9,0.1"],
    # omega0 + Omega overflowed, and omega0 (T_h - T_c) in omega_cr
    ["ctm", "--set", f"omega0={_FLOAT_MAX}", "--set", "drive_frequency=2e292",
     "--set", "t_hot=3", "--set", "t_cold=1"],
    # 2 Omega overflowed, and the hot current w_m * flux
    ["ctm", "--set", "omega0=1", "--set", f"drive_frequency={_FLOAT_MAX}",
     "--set", f"t_hot={_FLOAT_MAX}", "--set", "t_cold=1",
     "--set", f"rate={_FLOAT_MAX}", "--set", f"amplitude=-{_FLOAT_MAX}",
     "--set", "m_max=2"],
    # 2 ** 1e100 in the power-law coupling overflowed Python's float power
    ["charge-xxz", "--set", "n_cells=4", "--set", "b=8e99", "--set",
     "g=-1e100", "--set", "alpha=0.0", "--set", "nu=-1e100", "--set",
     "interaction_range=power_law", "--set", "omega=-1e100", "--set",
     "tau=1e100", "--set", "dt=1e98"],
    # drive levels of 1e198 overflowed their squares in the energy moments
    ["charge-lmg", "--set", "n_cells=3", "--set", "lam=1.8e98", "--set",
     "gamma=1e100", "--set", "b=4.5e16", "--set", "tau=6.5e99", "--set",
     "dt=1.8e98"],
    ["charge-dicke", "--set", "n_cells=1", "--set", "n_photons=1", "--set",
     "lam=-1e100", "--set", "rescale=false", "--set", "omega=1e100",
     "--set", "omega_c=1e100", "--set", "photon_cutoff=17", "--set",
     "tau=1e100", "--set", "dt=3e98"],
], ids=["qsl-largest-tau", "qsl-largest-omega", "qsl-subnormal-omega",
        "otto-numeric-overflowing-square", "otto-squeezed-overflowing-2t_h",
        "ergotropy-spread-1e-305", "ergotropy-spread-1e-309",
        "ergotropy-overflowing-spread", "ctm-overflowing-sideband",
        "ctm-overflowing-current", "charge-xxz-overflowing-coupling",
        "charge-lmg-overflowing-moments", "charge-dicke-overflowing-moments"])
def test_float_range_edges_exit_0_or_3(args):
    _assert_exit_0_with_finite_rows_or_3(args)


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


def _scaled_rows(experiment, unit, scaled, common, capsys):
    """The rows of one experiment run at two sets of keys."""
    return [_run_rows([experiment] + [x for kv in keys + common
                                      for x in ("--set", kv)], capsys)[0]
            for keys in (unit, scaled)]


def test_qsl_does_not_depend_on_the_energy_unit(capsys):
    # at |H| = 5e-301, Tr(rho H²) underflowed to 0 and the spread met an
    # absolute floor, so the run exited 3
    unit, scaled = _scaled_rows("qsl", ["omega=1", "tau=1"],
                                ["omega=1e-300", "tau=1e300"], ["samples=49"],
                                capsys)
    assert float(scaled["bures_distance"]) == pytest.approx(
        float(unit["bures_distance"]), rel=1e-12)
    for key in ("tau_mt", "tau_unified", "actual_tau"):
        assert float(scaled[key]) == pytest.approx(1e300 * float(unit[key]),
                                                   rel=1e-12)


def test_sta_cd_does_not_depend_on_the_energy_unit(capsys):
    # delta -> s delta, velocity -> s² velocity and t -> t/s scale H_CD by
    # s; the gap test was once against 1e-8 max(max |E|, 1), so
    # delta = 1e-10, velocity = 1e-20, t = 5e9 exited 3
    unit = ["delta=1", "velocity=1", "t=0.5"]
    for s in [4.0**k for k in (-30, -10, -2, 2, 10, 30)] + [1e-10]:
        unit_row, scaled = _scaled_rows(
            "sta-cd", unit,
            [f"delta={s!r}", f"velocity={s * s!r}", f"t={0.5 / s!r}"], [],
            capsys)
        for key in ("cd_coefficient", "closed_form", "residual"):
            assert float(scaled[key]) == pytest.approx(
                s * float(unit_row[key]), rel=1e-12), (s, key)


def test_qfi_does_not_depend_on_the_energy_unit(capsys):
    # the centred difference's step was 1e-5 max(|T|, 1), so T = 7e-7
    # exited 3 ("temperature must exceed the finite-difference step")
    unit, scaled = _scaled_rows("qfi", ["omega=1", "temperature=0.7"],
                                ["omega=1e-6", "temperature=7e-7"], [], capsys)
    assert float(scaled["qfi"]) == pytest.approx(1e12 * float(unit["qfi"]),
                                                 rel=1e-12)
    assert float(scaled["cramer_rao_floor"]) == pytest.approx(
        1e-12 * float(unit["cramer_rao_floor"]), rel=1e-12)


def test_ctm_mode_does_not_depend_on_the_energy_unit(capsys):
    # currents near 1e-14 once met classify_mode's absolute 1e-9 sign
    # threshold, so the scaled engine read "Off" with efficiency nan
    s = 2.0**-20
    keys = {"omega0": 10, "drive_frequency": 2, "t_hot": 3, "t_cold": 1,
            "amplitude": 1.7}
    unit, scaled = _scaled_rows(
        "ctm", [f"{k}={v!r}" for k, v in keys.items()],
        [f"{k}={v * s!r}" for k, v in keys.items()] + [f"rate={s!r}"], [],
        capsys)
    assert unit["mode"] == scaled["mode"] == "Engine"
    assert float(scaled["efficiency_or_cop"]) == pytest.approx(1 / 3, rel=1e-12)
    for key in ("j_hot", "j_cold", "power"):
        assert float(scaled[key]) == pytest.approx(s * s * float(unit[key]),
                                                   rel=1e-12), key


@pytest.mark.parametrize("k", [-25, -3, 3, 25])
@pytest.mark.parametrize("cycle", [
    {"omega_a": 2, "omega_b": 1, "t_h": 2, "t_c": 0.5},  # an engine
    {"omega_a": 5, "omega_b": 0.2, "t_h": 3, "t_c": 1},  # a refrigerator
], ids=["engine", "refrigerator"])
def test_otto_numeric_does_not_depend_on_the_energy_unit(cycle, k, capsys):
    # energies, temperatures and kappa times s = 4^k and times over s scale
    # every energy by s exactly; an absolute 1e-14 floor on Q_h once left a
    # k = -25 engine with efficiency nan and no Carnot margin
    s = 4.0**k
    energies = {**cycle, "kappa": 1.0}
    times = {"ramp_duration": 2.0, "thermalization_time": 20.0}
    unit, scaled = _scaled_rows(
        "otto-numeric",
        [f"{key}={v!r}" for key, v in {**energies, **times}.items()],
        [f"{key}={v * s!r}" for key, v in energies.items()]
        + [f"{key}={v / s!r}" for key, v in times.items()], [], capsys)
    for key in ("net_work_output", "q_hot", "q_cold"):
        assert float(scaled[key]) == s * float(unit[key]), key
    for key in ("efficiency", "cop", "mode", "carnot_margin"):
        assert scaled[key] == unit[key], key
    assert unit["mode"] == ("Engine" if cycle["omega_b"] == 1 else
                            "Refrigerator")


def test_charge_dicke_does_not_depend_on_the_energy_unit(capsys):
    # at omega = 1e-9, an absolute floor of 1e-9 in the level clustering
    # put every level of H0 in one group, so no energy was deposited
    unit, scaled = _scaled_rows(
        "charge-dicke", ["omega=1", "omega_c=1", "tau=1", "dt=0.01"],
        ["omega=1e-9", "omega_c=1e-9", "tau=1e9", "dt=1e7"],
        ["n_cells=2", "n_photons=2", "lam=0.5", "photon_cutoff=20",
         "rescale=true"], capsys)
    # each column's power of the energy unit; bound_violation is a
    # rounding residue
    powers = {"energy_max": 1, "power_max": 2, "variance_max": 2,
              "fisher_mean": 2, "final_fraction": 0, "tau_mt": -1,
              "tau_unified": -1}
    for key, k in powers.items():
        assert float(scaled[key]) == pytest.approx(1e-9**k * float(unit[key]),
                                                   rel=1e-12), key


def test_charge_lmg_final_fraction_does_not_depend_on_the_energy_unit(capsys):
    # the stored energy was tested against an absolute 1e-12, so at the
    # unit 1e-12 the pure final state read final_fraction 0
    unit, scaled = _scaled_rows(
        "charge-lmg", ["lam=0.5", "b=1", "tau=2", "dt=0.05"],
        ["lam=5e-13", "b=1e-12", "tau=2e12", "dt=5e10"],
        ["n_cells=6", "gamma=0.3"], capsys)
    assert unit["final_fraction"] == scaled["final_fraction"] == "1"
    assert float(scaled["energy_max"]) == pytest.approx(
        1e-12 * float(unit["energy_max"]), rel=1e-12)


def test_charge_dicke_final_fraction_at_a_tiny_energy_unit(capsys):
    # extractable_fraction's absolute 1e-12 floor on the stored energy made
    # the fraction 0 at omega = 1e-12
    unit, scaled = _scaled_rows(
        "charge-dicke", ["omega=1", "omega_c=1", "tau=1", "dt=0.01"],
        ["omega=1e-12", "omega_c=1e-12", "tau=1e12", "dt=1e10"],
        ["n_cells=2", "n_photons=2", "lam=0.5", "photon_cutoff=20",
         "rescale=true"], capsys)
    assert float(unit["final_fraction"]) == pytest.approx(0.2552, abs=1e-4)
    assert float(scaled["final_fraction"]) == pytest.approx(
        float(unit["final_fraction"]), rel=1e-12)


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
