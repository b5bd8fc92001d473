"""CLI rows of the Magnus-route experiments against checked-in reference
rows.

``reference_rows/<experiment>.csv`` holds, per row, a config's keys and the
result row the CLI printed for it (17 significant digits, NumPy 2.4 on
x86-64). A ramp whose every Magnus grid fits in one batch of
``oscillators._fundamental`` must reproduce its row byte for byte; a longer
ramp groups its products by batch, and each of its numbers may move by
1e-13 relative.

    PYTHONPATH=src python tests/test_reference_rows.py

rewrites the files from the current tree; a change that moves a row says
which columns moved, and by how much.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
import pytest

from qtherm import cli, oscillators

HERE = os.path.dirname(os.path.abspath(__file__))
ROWS = os.path.join(HERE, "reference_rows")
EXPERIMENTS = ("otto-numeric", "sta-ermakov")
REL = 1e-13


def configs(experiment):
    """The configs of the reference rows: ramps from 1e-3 to 800 at three
    (omega_a, omega_b, T_h, T_c) sets and 40 near the benchmark's, or
    Ermakov schedules near the benchmark's and over two decades of tau."""
    rng = np.random.default_rng(7)
    if experiment == "otto-numeric":
        for wa, wb, th, tc in ((2.0, 1.0, 2.0, 0.5), (2.0, 1.0, 4.0, 1.0),
                               (5.0, 0.2, 3.0, 1.0)):
            for ramp in np.geomspace(1e-3, 800, 49):
                yield dict(omega_a=wa, omega_b=wb, t_h=th, t_c=tc,
                           ramp_duration=float(ramp),
                           thermalization_time=20.0, kappa=1.0)
        for i in range(40):
            yield dict(omega_a=2.0, omega_b=1.0,
                       t_h=float(2 * rng.uniform(0.97, 1.03)),
                       t_c=float(0.5 * rng.uniform(0.97, 1.03)),
                       ramp_duration=float((1.0, 2.0, 4.0, 8.0)[i % 4]
                                           * rng.uniform(0.97, 1.03)),
                       thermalization_time=20.0, kappa=1.0)
    else:
        for _ in range(40):
            yield dict(omega_i=2.0, omega_f=float(rng.uniform(1.0, 1.6)),
                       tau=float(rng.uniform(3.0, 5.0)), temperature=0.5)
        for tau in np.geomspace(3.0, 300, 12):
            yield dict(omega_i=1.0, omega_f=float(rng.uniform(0.5, 2.0)),
                       tau=float(tau), temperature=float(rng.uniform(0.2, 3.0)))


def cli_row(experiment, keys, path):
    """The header and the result row the CLI writes for one config."""
    args = [experiment]
    for key, value in keys.items():
        args += ["--set", f"{key}={value}"]
    assert cli.main(args + ["--out", path]) == 0, keys
    with open(path, encoding="utf-8") as fh:
        header, row = [line.rstrip("\n") for line in fh
                       if not line.startswith("#")]
    return header.split(","), row.split(",")


def read_rows(experiment):
    with open(os.path.join(ROWS, f"{experiment}.csv"), encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_rows_match_the_reference(experiment, tmp_path, monkeypatch):
    grids = []
    fundamental = oscillators._fundamental

    def recording(omega_squared, tau, segments, steps):
        grids.append(steps <= oscillators._RAMP_CHUNK // (3 * segments))
        return fundamental(omega_squared, tau, segments, steps)

    monkeypatch.setattr(oscillators, "_fundamental", recording)
    header, *rows = read_rows(experiment)
    n_keys = header.index("|")
    path = str(tmp_path / "row.csv")
    exact = 0
    for row in rows:
        keys = dict(zip(header[:n_keys], row[:n_keys]))
        grids.clear()
        names, got = cli_row(experiment, keys, path)
        want = row[n_keys + 1:]
        assert names == header[n_keys + 1:]
        if all(grids):
            exact += 1
            assert got == want, keys
            continue
        for name, g, w in zip(names, got, want):
            try:
                g, w = float(g), float(w)
            except ValueError:
                assert g == w, (keys, name)
                continue
            assert (math.isnan(g) and math.isnan(w)) or math.isclose(
                g, w, rel_tol=REL), (keys, name, g, w)
    # most rows are byte-for-byte
    assert exact > 0.9 * len(rows)


def write_rows(experiment, tmp):
    path = os.path.join(tmp, "row.csv")
    out = []
    for keys in configs(experiment):
        names, row = cli_row(experiment, {k: repr(v) for k, v in keys.items()},
                             path)
        if not out:
            out.append(list(keys) + ["|"] + names)
        out.append([repr(v) for v in keys.values()] + ["|"] + row)
    with open(os.path.join(ROWS, f"{experiment}.csv"), "w", newline="",
              encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(out)


if __name__ == "__main__":
    import tempfile

    os.makedirs(ROWS, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            write_rows(name, tmp)
