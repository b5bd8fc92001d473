"""CLI rows of the closed-form, Magnus-route and charging experiments
against checked-in reference rows.

``reference_rows/<experiment>.csv`` holds, per row, a config's keys and the
result row the CLI printed for it (17 significant digits, NumPy 2.4 on
x86-64). A closed-form or Magnus-route row must reproduce its row byte for
byte, with one BLAS thread or more; a charging row meets the per-column
tolerances of ``TOLERANCES``.

    PYTHONPATH=src python tests/test_reference_rows.py [EXPERIMENT ...]

rewrites the files (of the named experiments, or all) from the current
tree; a change that moves a row says
which columns moved, and by how much.
"""

from __future__ import annotations

import csv
import math
import os
import sys

import numpy as np
import pytest

from qtherm import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROWS = os.path.join(HERE, "reference_rows")
MAGNUS = ("otto-numeric", "sta-ermakov")
CLOSED = ("otto", "otto-squeezed", "box-carnot", "two-stroke", "ctm",
          "ergotropy", "n-copy")
# a charging trace's numbers move with the rounding of its eigensolvers:
# (kind, tol) per column, "rel" relative, "abs" absolute in units of
# power_max^2 + variance_max * fisher_mean (the size of the two sides of
# P^2 <= Var I_E that bound_violation subtracts), None byte for byte
_TRACE = {"energy_max": ("rel", 1e-12), "power_max": ("rel", 1e-12),
          "variance_max": ("rel", 1e-12), "fisher_mean": ("rel", 1e-9),
          "bound_violation": ("abs", 1e-12), "final_fraction": None,
          "tau_mt": ("rel", 1e-12), "tau_unified": ("rel", 1e-12)}
TOLERANCES = {"charge-xxz": _TRACE, "charge-lmg": _TRACE,
              # the extractable fraction of a reduced state, from its eigh
              # like the columns beside it (XXZ and LMG fractions are 0 or 1)
              "charge-dicke": {**_TRACE, "final_fraction": ("rel", 1e-12)},
              # a first-passage time ratio, read off the energy traces
              "advantage": {"gamma": ("rel", 1e-12)}}
EXPERIMENTS = MAGNUS + CLOSED + tuple(TOLERANCES)


def configs(experiment):
    """The configs of the reference rows: ramps from 1e-3 to 800 at three
    (omega_a, omega_b, T_h, T_c) sets and 40 near the benchmark's, or
    Ermakov schedules near the benchmark's and over two decades of tau, or
    charging runs of 1 to 9 cells and one sweep of a coupling, or closed
    forms at about twenty configs and one sweep."""
    if experiment in TOLERANCES:
        yield from _charging_configs(experiment)
        return
    if experiment in CLOSED:
        yield from _closed_configs(experiment)
        return
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


def _charging_configs(experiment):
    """Each charging experiment at about ten hand-picked configs and an
    evenly spaced sweep of one coupling."""
    if experiment == "charge-xxz":
        names = ("n_cells", "b", "g", "alpha", "nu", "interaction_range",
                 "omega")
        picked = [
            (1, 1.0, 0.5, 0.3, 1.5, "power_law", 0.8),
            # g alpha < 0: the ground of H_c is the reflection-odd singlet
            (2, 0.7, -0.4, 1.0, 1.3, "nearest_neighbor", 0.9),
            (3, 0.7, 0.0, 0.3, 1.3, "power_law", 0.9),
            (4, 1.2, 0.5, 1.0, 2.0, "power_law", 1.1),
            (5, 0.8, 0.4, -0.5, 1.5, "nearest_neighbor", 0.9),
            (6, 0.8, -0.4, 0.6, 1.5, "power_law", 0.7),
            (7, 1.0, 0.6, 0.3, 1.2, "nearest_neighbor", 1.0),
            # the ground of H0 is reflection-odd
            (8, 0.7, -0.4, 1.0, 1.3, "power_law", 0.9),
            (8, 0.9, 0.3, 0.5, 2.5, "nearest_neighbor", 1.3),
            (9, 1.1, 0.5, 0.4, 1.7, "power_law", 0.6),
            (9, 0.6, 0.0, 1.0, 1.0, "nearest_neighbor", 1.0),
        ]
        swept = [(8, 0.8, float(g), 0.4, 1.5, "power_law", 1.0)
                 for g in np.linspace(-0.8, 0.8, 9)]
        extra = dict(tau=3.0, dt=0.02)
    elif experiment == "charge-lmg":
        names = ("n_cells", "lam", "gamma", "b")
        picked = [(1, 0.8, 0.5, 1.0), (2, 1.0, 0.0, 1.0),
                  (3, 0.5, 1.0, 0.8),  # isotropic: flat
                  (4, 0.0, 0.3, 1.0),  # no coupling: flat
                  (5, 1.2, -0.5, 0.7), (6, -0.9, 0.4, 1.1), (7, 1.5, 0.2, 1.3),
                  (8, 0.7, 0.8, 0.5), (9, 1.1, 0.6, 1.0), (9, 2.0, 0.0, 0.9)]
        swept = [(8, float(lam), 0.3, 1.0) for lam in np.linspace(0.2, 2.0, 10)]
        extra = dict(tau=3.0, dt=0.02)
    else:
        names = ("n_cells", "n_photons", "lam", "rescale", "omega", "omega_c",
                 "photon_cutoff")
        picked = [(1, 1, 0.3, False, 1.0, 1.0, 20),
                  (2, 2, 0.5, True, 1.0, 1.0, 24),
                  (3, 4, 0.2, False, 1.0, 1.0, 30),
                  (4, 4, 0.4, True, 0.7, 0.7, 30),
                  (5, 5, 0.3, False, 1.0, 1.0, 40),
                  (6, 6, 0.5, True, 1.0, 1.0, 40),
                  (7, 7, 0.25, False, 1.3, 1.3, 60),
                  (8, 8, 0.5, True, 1.0, 1.0, 60),
                  (9, 9, 0.2, True, 1.0, 1.0, 50),
                  (4, 0, 0.3, False, 1.0, 1.0, 30)]
        swept = [(6, 6, float(lam), True, 1.0, 1.0, 40)
                 for lam in np.linspace(0.1, 0.5, 10)]
        extra = (dict(tau=3.0, dt=0.02) if experiment == "charge-dicke"
                 else dict(tau=8.0, dt=0.02, target_fraction=0.2))
    for values in picked + swept:
        yield dict(zip(names, values), **extra)


def _closed_configs(experiment):
    """Engine and refrigerator points of each closed form (the two-stroke
    machine also Off), drawn at random around a hand-picked set, and an
    evenly spaced sweep of one key across a change of mode."""
    rng = np.random.default_rng(11)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    if experiment in ("otto", "otto-squeezed"):
        names = ("omega_a", "omega_b", "t_h", "t_c")
        picked = [(2.0, 1.0, 4.0, 1.0), (2.0, 1.0, 1.5, 1.0),
                  (2.0, 1.0, 2.0, 1.0),  # omega_b/omega_a = T_c/T_h
                  (5.0, 0.2, 3.0, 1.0),
                  # both coth round to 1: no net work, the ratio decides
                  (2000.0, 1000.0, 2.0, 0.5), (2000.0, 100.0, 2.0, 0.5),
                  (1e-6, 5e-7, 4e-6, 1e-6), (3e5, 1e5, 2e5, 1e5)]
        picked += [(wa, u(0.05, 0.95) * wa, th, u(0.05, 0.95) * th)
                   for wa, th in ((u(0.5, 5.0), u(0.5, 5.0)) for _ in range(12))]
        swept = [(2.0, float(wb), 2.0, 1.0) for wb in np.linspace(0.2, 1.8, 9)]
        if experiment == "otto-squeezed":
            names += ("r",)
            squeeze = [0.0, 0.3, 1.0, 1e-8, 0.0, 0.0, 0.7, 0.05]
            picked = [p + (s,) for p, s in zip(picked, squeeze)] + [
                p + (u(0.0, 1.5),) for p in picked[8:]]
            swept = [(2.0, 0.6, 4.0, 1.0, float(r))
                     for r in np.linspace(0.0, 1.2, 9)]
            # a refrigerator until the squeezed hot end dominates
            swept[0] = (2.0, 0.2, 2.0, 1.0, 0.0)
    elif experiment == "box-carnot":
        names = ("l_a", "l_b", "mass")
        picked = [(2.0, 1.0, 1.0), (1.0, 0.5, 1.0), (3.0, 2.9, 0.5),
                  (1e-3, 5e-4, 1e3), (1e6, 1.0, 1e-6)]
        picked += [(la, u(0.05, 0.95) * la, u(0.1, 10.0))
                   for la in (u(0.5, 5.0) for _ in range(15))]
        swept = [(2.0, float(lb), 1.0) for lb in np.linspace(0.2, 1.8, 9)]
    elif experiment == "two-stroke":
        names = ("omega_k", "omega_un", "t_h", "t_c", "theta")
        half = float(np.pi / 2)
        picked = [(2.0, 1.0, 4.0, 1.0, half),  # engine: n_k > n_un
                  (2.0, 1.0, 1.5, 1.0, half),  # refrigerator
                  (2.0, 1.0, 4.0, 1.0, 0.0),  # Off at theta = 0, both sides
                  (2.0, 1.0, 1.5, 1.0, 0.0),
                  (2.0, 1.0, 2.0, 1.0, 0.4),  # equal populations: Off
                  (2.0, 1.0, 4.0, 1.0, float(np.pi)),
                  (500.0, 1.0, 2.0, 1.0, 0.3), (2.5, 2.0, 3.0, 1.0, 1.2)]
        picked += [(u(1.1, 3.0) * wun, wun, th, u(0.1, 0.9) * th, u(0.0, 3.1))
                   for wun, th in ((u(0.2, 2.0), u(0.5, 4.0)) for _ in range(12))]
        swept = [(2.0, 1.0, 3.0, 1.0, float(t))
                 for t in np.linspace(0.0, np.pi, 9)]
    elif experiment == "ctm":
        names = ("omega0", "drive_frequency", "t_hot", "t_cold", "rate",
                 "amplitude", "waveform", "m_max")
        # the mode flips at omega_cr = omega0 (T_h - T_c)/(T_h + T_c), 6 here
        picked = [(10.0, 1.0, 4.0, 1.0, 1.0, 0.0, "sinusoidal", 40),
                  (10.0, 8.0, 4.0, 1.0, 1.0, 0.0, "sinusoidal", 40),
                  (10.0, 2.0, 4.0, 1.0, 0.5, 1.7, "piecewise_asymmetric", 40),
                  (10.0, 7.0, 4.0, 1.0, 2.0, 2.0, "piecewise_asymmetric", 60),
                  (1e-3, 1e-4, 4e-4, 1e-4, 1e-3, 0.0, "sinusoidal", 40)]
        picked += [(w0, u(0.05, 0.9) * w0, th, u(0.1, 0.9) * th, u(0.5, 2.0),
                    u(0.0, 0.8) * w0 / 10, wave, 40)
                   for w0, th, wave in ((u(5.0, 20.0), u(1.0, 6.0), wave)
                                        for wave in ("sinusoidal",
                                                     "piecewise_asymmetric")
                                        for _ in range(8))]
        swept = [(10.0, float(f), 4.0, 1.0, 1.0, 0.0, "sinusoidal", 40)
                 for f in np.linspace(0.55, 8.05, 11)]
    else:  # ergotropy, n-copy: diagonal states
        names = ("energies", "populations")
        picked = [((0.0, 1.0), (0.3, 0.7)), ((0.0, 1.0), (0.7, 0.3)),
                  ((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.5, 0.5)),
                  ((0.0, 1.0, 1.0, 2.5), (0.1, 0.2, 0.3, 0.4)),  # degenerate
                  ((2.0, -1.0, 0.5), (0.2, 0.5, 0.3)),  # unsorted levels
                  ((0.0, 1e-9, 3e-9), (0.1, 0.3, 0.6)),
                  ((0.0, 1.0, 2.0), (0.333, 0.333, 0.333))]  # sums to 0.999
        for d in (2, 3, 3, 4, 5, 5, 6, 7, 7, 4, 6, 2):
            levels = np.round(np.sort(rng.uniform(0.0, 3.0, d)), 6)
            pops = rng.dirichlet(np.ones(d))
            picked.append((tuple(levels.tolist()), tuple(pops.tolist())))
        swept = [((0.0, 1.0, 1.7), (float(p), float(0.8 - p), 0.2))
                 for p in np.linspace(0.0, 0.8, 9)]
        if experiment == "n-copy":
            names += ("n_copies",)
            copies = [1, 2, 3, 5, 2, 4, 3, 6, 1, 7, 5, 4, 3, 2, 3, 3, 2, 4, 2,
                      6]
            picked = [p + (n,) for p, n in zip(picked, copies)]
            swept = [((0.0, 1.0, 1.7), (0.5, 0.3, 0.2), n) for n in range(1, 8)]
    for values in picked + swept:
        yield dict(zip(names, values))


def _close(kind_tol, got, want, scale):
    if kind_tol is None:
        return got == want
    kind, tol = kind_tol
    got, want = float(got), float(want)
    if kind == "rel":
        return math.isclose(got, want, rel_tol=tol, abs_tol=0.0)
    return abs(got - want) <= tol * scale


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
def test_rows_match_the_reference(experiment, tmp_path):
    tolerances = TOLERANCES.get(experiment)
    header, *rows = read_rows(experiment)
    n_keys = header.index("|")
    path = str(tmp_path / "row.csv")
    for row in rows:
        keys = dict(zip(header[:n_keys], row[:n_keys]))
        names, got = cli_row(experiment, keys, path)
        want = row[n_keys + 1:]
        assert names == header[n_keys + 1:]
        if tolerances is not None:
            w = dict(zip(names, map(float, want)))
            scale = (w["power_max"] ** 2 + w["variance_max"] * w["fisher_mean"]
                     if "power_max" in w else 0.0)
            for name, g, w in zip(names, got, want):
                assert _close(tolerances[name], g, w, scale), (keys, name, g, w)
        else:
            assert got == want, keys


def _text(value):
    """A config value as the CLI reads it back exactly."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def write_rows(experiment, tmp):
    path = os.path.join(tmp, "row.csv")
    out = []
    for keys in configs(experiment):
        names, row = cli_row(experiment, {k: _text(v) for k, v in keys.items()},
                             path)
        if not out:
            out.append(list(keys) + ["|"] + names)
        out.append([_text(v) for v in keys.values()] + ["|"] + row)
    with open(os.path.join(ROWS, f"{experiment}.csv"), "w", newline="",
              encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(out)


if __name__ == "__main__":
    import tempfile

    os.makedirs(ROWS, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sys.argv[1:] or EXPERIMENTS:
            write_rows(name, tmp)
