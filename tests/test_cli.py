import json
import os

import numpy as np
import pytest

from qtherm import cli
from qtherm.errors import TrapInversionWarning

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


def test_sweep_respects_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QTHERM_THREADS", "2")
    path = write_config(tmp_path, CTM_SWEEP)
    assert cli.main(["run", "ctm", "--config", path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    assert len(lines) == 17


def test_reruns_byte_identical(tmp_path):
    path = write_config(tmp_path, CTM_SWEEP)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["run", "ctm", "--config", path, "--out", str(out),
                         "--seed", "7"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- validation ------------------------------------------------------------------


def test_validate_good_config(tmp_path, capsys):
    path = write_config(tmp_path, OTTO_CONFIG)
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == ""


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


@pytest.mark.parametrize("bad", [
    ["t_hot=1", "t_cold=1"],  # fails the CTM's T_h > T_c check
    ["rate=-1"],
    ["t_cold=0"],
    ["drive_frequency=0"],
], ids=["equal-temperatures", "negative-rate", "zero-cold-temperature",
        "zero-drive-frequency"])
def test_bad_physical_parameter_exits_3(bad, capsys):
    # each passes the schema, then fails a physical check in the library
    sets = {"omega0": "10", "drive_frequency": "1", "t_hot": "4", "t_cold": "1"}
    sets.update(item.split("=") for item in bad)
    args = ["ctm"]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    assert cli.main(args) == 3
    assert "InvalidParams" in capsys.readouterr().err


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
