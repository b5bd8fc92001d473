"""The benchmark's four workloads.

A workload turns a generator seeded with (seed, round index), and the
index itself, into a round: a fixed list of operations, each a program
call plus the check of its output. Every round of a workload has the
same operations in the same order; the seed and the round index move
only parameter values, within ranges where the cost of a call does not
depend on them.

Operations reach qtherm through ``ctx.q``, a namespace of its modules,
which is also what the tracer patches.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import checks
from checks import close, require


class KnownFault(Exception):
    """An operation failed with the program fault it is kept to show."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    q: object          # namespace of qtherm modules
    tmpdir: str        # scratch directory for CLI configs and results
    cli_threads: int   # --threads for CLI sweeps


# --- CLI round trip ------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stderr: str
    rows: list


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: _value(v) for k, v in row.items()}
            for row in csv.DictReader(lines)]


def cli_call(ctx: Context, args: List[str]) -> CliResult:
    """Run ``qtherm <args> --out FILE`` in-process and parse the file back."""
    path = os.path.join(ctx.tmpdir, "result.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ctx.q.cli.main(args + ["--out", path])
    rows = read_csv(path) if code == 0 else []
    return CliResult(code, err.getvalue(), rows)


def sets(params: dict) -> List[str]:
    out = []
    for key, value in params.items():
        out += ["--set", f"{key}={value!r}" if isinstance(value, float)
                else f"{key}={value}"]
    return out


def cli_ok(res: CliResult) -> list:
    require(res.code == 0, f"exit {res.code}: {res.stderr.strip()[:200]}")
    return res.rows


def jitter(rng, value: float, share: float = 0.03) -> float:
    return float(value * rng.uniform(1 - share, 1 + share))


# --- otto-friction ----------------------------------------------------------------------

OTTO_REFERENCE = {"omega_a": 2.0, "omega_b": 1.0, "t_h": 2.0, "t_c": 0.5,
                  "kappa": 1.0, "thermalization_time": 20.0, "n_max": 40}
FRICTION_RAMP = 0.5           # accelerator-mode point, fixed inputs
OTTO_RAMPS = (1.0, 2.0, 4.0, 8.0)


def _otto_op(ctx: Context, name: str, params: dict, known_fault: bool) -> Op:
    def check(res: CliResult):
        if known_fault and res.code == 3 and "UnclassifiableState" in res.stderr:
            raise KnownFault(f"{name}: UnclassifiableState")
        checks.check_otto(cli_ok(res)[0], params)

    return Op(name, lambda: cli_call(ctx, ["otto-numeric"] + sets(params)),
              check)


def otto_round(ctx: Context, rng, index: int) -> List[Op]:
    ops = [_otto_op(ctx, f"otto-numeric ramp {FRICTION_RAMP}",
                    dict(OTTO_REFERENCE, ramp_duration=FRICTION_RAMP),
                    known_fault=True)]
    for ramp in OTTO_RAMPS:
        params = dict(OTTO_REFERENCE, t_h=jitter(rng, 2.0), t_c=jitter(rng, 0.5),
                      ramp_duration=jitter(rng, ramp))
        ops.append(_otto_op(ctx, f"otto-numeric ramp ~{ramp}", params,
                            known_fault=False))
    return ops


def otto_warm_up(ctx: Context) -> None:
    params = {"omega_a": 2.0, "omega_b": 1.0, "t_h": 1.0, "t_c": 0.3,
              "ramp_duration": 4.0, "thermalization_time": 20.0, "n_max": 16}
    op = _otto_op(ctx, "warm-up", params, known_fault=False)
    op.check(op.run())


# --- lindblad-steady ----------------------------------------------------------------------


def two_mode_model(q, cutoff: int, t_h: float, t_c: float, rate: float):
    """H = 2a†a + b†b + 0.15(a†b + ab†) with flat baths on x_a (hot) and
    x_b (cold), truncated at ``cutoff`` quanta per mode."""
    a1 = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1).astype(complex)
    eye = np.eye(cutoff + 1)
    a, b = np.kron(a1, eye), np.kron(eye, a1)
    ad, bd = a.conj().T, b.conj().T
    h = 2 * ad @ a + bd @ b + 0.15 * (ad @ b + a @ bd)
    flat = q.lindblad.SpectralFunction("flat", rate)
    baths = [q.lindblad.BathSpec("hot", t_h, flat, a + ad),
             q.lindblad.BathSpec("cold", t_c, flat, b + bd)]
    return h, baths


def _two_mode_op(ctx: Context, cutoff: int, t_h: float, t_c: float,
                 rate: float) -> Op:
    lb = ctx.q.lindblad
    h, baths = two_mode_model(ctx.q, cutoff, t_h, t_c, rate)

    def run():
        gen = lb.build_generator(h, baths)
        rho = lb.steady_state(gen)
        return {"generator": gen, "rho": rho,
                "j_hot": lb.heat_current(gen.dissipator_parts["hot"], rho, h),
                "j_cold": lb.heat_current(gen.dissipator_parts["cold"], rho, h),
                "sigma": lb.entropy_production(gen, rho, baths),
                "evolved": lb.evolve(gen, rho, 1.0)}

    return Op(f"two-mode d={(cutoff + 1) ** 2}", run,
              lambda out: checks.check_two_mode(out, h, t_h, t_c))


def lindblad_round(ctx: Context, rng, index: int) -> List[Op]:
    """Four d=16 models, the second at T_h = T_c, then one d=25 model at
    T_h = T_c on odd rounds."""
    ops = []
    for k, cutoff in enumerate((3, 3, 3, 3, 4)):
        equal = k == 1 or (cutoff == 4 and index % 2 == 1)
        t_c = float(rng.uniform(0.3, 1.0))
        t_h = t_c if equal else float(rng.uniform(1.5, 3.0))
        ops.append(_two_mode_op(ctx, cutoff, t_h, t_c,
                                float(rng.uniform(0.05, 0.2))))
    return ops


def lindblad_warm_up(ctx: Context) -> None:
    op = _two_mode_op(ctx, 1, 1.0, 0.5, 0.1)
    op.check(op.run())


# --- battery-charging -----------------------------------------------------------------------

CHARGE_TAU, CHARGE_DT = 4.0, 0.02


def _free_spin_check(n: int, b: float, omega: float):
    def check(trace):
        close("deposited energy", trace.energies,
              checks.free_spin_charging(n, b, omega, trace.times), atol=1e-8)
        checks.check_power_bound(trace)
    return check


def _xxz(bat, n, b, g, alpha, nu, omega, interaction="power_law"):
    return bat.charge_spins_xxz(n, b, g, alpha, nu, interaction, omega,
                                CHARGE_TAU, CHARGE_DT)


def _xxz_pair_check(n: int, b: float, omega: float):
    def check(traces):
        free, isotropic = traces
        _free_spin_check(n, b, omega)(free)
        close("alpha=1 trace - g=0 trace", isotropic.energies, free.energies,
              atol=1e-8)
    return check


def _random_density(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def _ergotropy_op(bat, rng) -> Op:
    rho, h = _random_density(rng, 7), _random_hermitian(rng, 7)

    def check(rep):
        close("ergotropy", rep.ergotropy, checks.ergotropy_oracle(rho, h),
              atol=1e-10)
        require(rep.bound_gap >= -1e-9, f"bound gap {rep.bound_gap:.3e} < 0")

    return Op("ergotropy d=7", lambda: bat.ergotropy(rho, h), check)


def _variance_op(bat, rng, n: int) -> Op:
    cell_h = _random_hermitian(rng, 2)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())

    def check(parts):
        total = parts["local_sum"] + parts["entanglement_part"]
        close("local + entanglement variance", total,
              checks.energy_variance(rho, checks.local_hamiltonian(cell_h, n)),
              atol=1e-9)

    return Op(f"variance_decomposition N={n}",
              lambda: bat.variance_decomposition(rho, bat.BatterySpec(cell_h, n)),
              check)


def _lmg_op(bat, rng) -> Op:
    lam, gamma = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.0, 1.0))
    b = float(rng.uniform(0.5, 1.5))
    return Op("lmg N=14",
              lambda: bat.charge_lmg(14, lam, gamma, b, CHARGE_TAU, CHARGE_DT),
              checks.check_power_bound)


def battery_round(ctx: Context, rng, index: int) -> List[Op]:
    """Three spin-chain charging runs costlier than the Dicke run and three
    calls cheaper than it, so the median operation is the Dicke run."""
    bat = ctx.q.battery
    b, omega = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
    g, nu = float(rng.uniform(0.2, 0.8)), float(rng.uniform(1.0, 3.0))
    alpha = float(rng.uniform(0.2, 0.6))
    lam = float(rng.uniform(0.3, 0.7))
    return [
        Op("xxz N=10 alpha=1", lambda: _xxz(bat, 10, b, g, 1.0, nu, omega),
           _free_spin_check(10, b, omega)),
        Op("xxz N=9 g=0 and alpha=1",
           lambda: (_xxz(bat, 9, b, 0.0, 1.0, nu, omega),
                    _xxz(bat, 9, b, g, 1.0, nu, omega)),
           _xxz_pair_check(9, b, omega)),
        Op("xxz N=9 anisotropic",
           lambda: _xxz(bat, 9, b, g, alpha, nu, omega, "nearest_neighbor"),
           checks.check_power_bound),
        Op("dicke N=8 cutoff 60",
           lambda: bat.charge_dicke(8, 8, lam, True, 1.0, 1.0, 60,
                                    CHARGE_TAU, CHARGE_DT),
           checks.check_power_bound),
        _variance_op(bat, rng, 8),
        _lmg_op(bat, rng),
        _ergotropy_op(bat, rng),
    ]


def battery_warm_up(ctx: Context) -> None:
    bat = ctx.q.battery
    rng = np.random.default_rng(0)
    _free_spin_check(4, 1.0, 1.0)(_xxz(bat, 4, 1.0, 0.5, 1.0, 2.0, 1.0))
    checks.check_power_bound(bat.charge_dicke(2, 2, 0.5, True, 1.0, 1.0, 24,
                                              CHARGE_TAU, CHARGE_DT))
    for op in (_ergotropy_op(bat, rng), _variance_op(bat, rng, 3),
               _lmg_op(bat, rng)):
        op.check(op.run())


# --- small-calls ----------------------------------------------------------------------------

CTM_SWEEP = """[experiment]
name = ctm

[parameters]
omega0 = 10
drive_frequency = 1
t_hot = {t_hot!r}
t_cold = {t_cold!r}

[sweep]
key = drive_frequency
from = 0.55
to = 8.05
steps = 16
"""


def _ctm_op(ctx: Context, rng) -> Op:
    t_hot, t_cold = jitter(rng, 4.0), jitter(rng, 1.0)
    path = os.path.join(ctx.tmpdir, "ctm.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CTM_SWEEP.format(t_hot=t_hot, t_cold=t_cold))
    args = ["ctm", "--config", path, "--threads", str(ctx.cli_threads)]

    def check(res):
        rows = cli_ok(res)
        require(len(rows) == 16, f"{len(rows)} sweep rows, expected 16")
        checks.check_ctm_sweep(rows, 10.0, t_hot, t_cold)

    return Op("ctm sweep 16 points", lambda: cli_call(ctx, args), check)


def _sideband_op(ctx: Context, rng) -> Op:
    fl = ctx.q.floquet
    drive = float(rng.uniform(0.5, 3.0))
    ratio = float(rng.uniform(0.3, 2.0))
    mod = fl.PeriodicModulation(10.0, drive, "sinusoidal", ratio * drive)

    def check(sw):
        close("sideband weights", sw.weights,
              checks.sideband_reference(ratio, 40), atol=1e-12)

    return Op("sideband_weights", lambda: fl.sideband_weights(mod, 40), check)


def _outcoupled_op(ctx: Context, rng) -> Op:
    params = {"n_cycles": 3, "delta": jitter(rng, 1.0, 0.2),
              "g": float(rng.uniform(0.01, 0.03)), "b": float(rng.uniform(0.05, 0.2))}

    def run():
        return [cli_call(ctx, ["outcoupled"] + sets(params)
                         + ["--set", f"per_cycle_measurement={flag}"])
                for flag in ("false", "true")]

    def check(results):
        coherent, dephased = (cli_ok(r) for r in results)
        require(len(coherent) == 3 and len(dephased) == 3, "expected 3 cycles")
        close("first-cycle work with and without dephasing",
              dephased[0]["mean_work"], coherent[0]["mean_work"], atol=1e-12,
              rtol=1e-9)

    return Op("outcoupled with and without dephasing", run, check)


def _ermakov_op(ctx: Context, rng) -> Op:
    params = {"omega_i": 2.0, "omega_f": float(rng.uniform(1.0, 1.6)),
              "tau": float(rng.uniform(3.0, 5.0)), "temperature": 0.5}

    def check(res):
        row = cli_ok(res)[0]
        close("b(tau)", row["b_final"], np.sqrt(2.0 / params["omega_f"]),
              atol=1e-12)
        require(row["omega_squared_min"] > 0, "schedule inverts the trap")
        require(row["invariant_drift"] < 1e-8,
                f"invariant drift {row['invariant_drift']:.2e}")

    return Op("sta-ermakov", lambda: cli_call(ctx, ["sta-ermakov"] + sets(params)),
              check)


def _cd_op(ctx: Context, rng) -> Op:
    params = {"delta": float(rng.uniform(0.5, 1.5)),
              "velocity": float(rng.uniform(0.5, 2.0)),
              "t": float(rng.uniform(-1.0, 1.0))}

    def check(res):
        row = cli_ok(res)[0]
        close("counterdiabatic coefficient", row["cd_coefficient"],
              checks.cd_coefficient(params["delta"], params["velocity"],
                                    params["t"]), atol=1e-9, rtol=1e-6)

    return Op("sta-cd", lambda: cli_call(ctx, ["sta-cd"] + sets(params)), check)


def _magnetometry_op(ctx: Context, rng) -> Op:
    truth = float(rng.uniform(0.5, 1.5))
    t_c = float(rng.uniform(0.5, 1.0))
    t_h = t_c * float(rng.uniform(2.5, 4.0))
    null = truth * t_h / t_c
    params = {"omega_un_true": truth, "t_h": t_h, "t_c": t_c,
              "theta": float(rng.uniform(0.3, 1.3)),
              "omega_k_min": 0.5 * null, "omega_k_max": 1.5 * null,
              "omega_k_steps": 201}

    def check(res):
        checks.check_null_estimate(cli_ok(res)[0], "omega_un_estimate", truth)

    return Op("magnetometry",
              lambda: cli_call(ctx, ["magnetometry"] + sets(params)), check)


def _thermometry_op(ctx: Context, rng) -> Op:
    t_c = float(rng.uniform(0.5, 1.5))
    omega_h, omega_c = float(rng.uniform(1.5, 3.0)), 1.0
    null = t_c * omega_h / omega_c
    params = {"omega_h": omega_h, "omega_c": omega_c,
              "kappa_h": float(rng.uniform(0.5, 1.5)),
              "kappa_c": float(rng.uniform(0.5, 1.5)),
              "g": float(rng.uniform(0.1, 0.5)), "t_c_true": t_c,
              "t_h_min": 0.5 * null, "t_h_max": 1.5 * null, "t_h_steps": 201}

    def check(res):
        checks.check_null_estimate(cli_ok(res)[0], "t_c_estimate", t_c)

    return Op("thermometry",
              lambda: cli_call(ctx, ["thermometry"] + sets(params)), check)


def _cli_ergotropy_op(ctx: Context, rng) -> Op:
    energies = np.sort(rng.uniform(0.0, 3.0, size=6))
    pops = rng.uniform(0.05, 1.0, size=6)
    pops /= pops.sum()
    args = ["ergotropy", "--set", "energies=" + ",".join(map(repr, energies.tolist())),
            "--set", "populations=" + ",".join(map(repr, pops.tolist()))]

    def check(res):
        close("ergotropy", cli_ok(res)[0]["ergotropy"],
              checks.diagonal_ergotropy(energies, pops), atol=1e-12)

    return Op("ergotropy (CLI)", lambda: cli_call(ctx, args), check)


def _qsl_op(ctx: Context, rng) -> Op:
    params = {"omega": float(rng.uniform(0.5, 2.0)),
              "tau": float(rng.uniform(0.5, 3.0))}

    def check(res):
        row = cli_ok(res)[0]
        want = checks.qubit_qsl(params["omega"], params["tau"])
        for key, value in want.items():
            close(key, row[key], value, atol=1e-9)
        require(row["tau_unified"] <= row["actual_tau"] + 1e-9,
                "unified speed limit exceeds the actual duration")

    return Op("qsl", lambda: cli_call(ctx, ["qsl"] + sets(params)), check)


def _qfi_op(ctx: Context, rng) -> Op:
    params = {"omega": float(rng.uniform(0.5, 2.0)),
              "temperature": float(rng.uniform(0.3, 2.0))}

    def check(res):
        close("thermal qubit QFI", cli_ok(res)[0]["qfi"],
              checks.thermal_qubit_qfi(params["omega"], params["temperature"]),
              atol=0.0, rtol=1e-6)

    return Op("qfi", lambda: cli_call(ctx, ["qfi"] + sets(params)), check)


def _triples_op(ctx: Context, rng, count: int = 10) -> Op:
    lb = ctx.q.lindblad
    cases = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        temp = float(rng.uniform(0.5, 3.0))
        h = _random_hermitian(rng, d)
        bath = lb.BathSpec("b", temp, lb.SpectralFunction(
            "flat", float(rng.uniform(0.2, 1.5))), _random_hermitian(rng, d))
        cases.append((h, bath, _random_density(rng, d),
                      float(rng.uniform(0.0, 5.0))))

    def run():
        outs = []
        for h, bath, rho0, t in cases:
            gen = lb.build_generator(h, [bath])
            evolved = lb.evolve(gen, rho0, t)
            outs.append({"evolved": evolved,
                         "sigma": lb.entropy_production(gen, evolved, [bath]),
                         "rho": lb.steady_state(gen)})
        return outs

    def check(outs):
        for (h, bath, _rho0, _t), out in zip(cases, outs):
            checks.check_lindblad_triple(out, h, bath.temperature)

    return Op(f"lindblad triples x{count}", run, check)


def small_round(ctx: Context, rng, index: int) -> List[Op]:
    makers = (_ctm_op, _sideband_op, _outcoupled_op, _ermakov_op, _cd_op,
              _magnetometry_op, _thermometry_op, _cli_ergotropy_op, _qsl_op,
              _qfi_op, _triples_op)
    return [make(ctx, rng) for make in makers]


def small_warm_up(ctx: Context) -> None:
    for op in small_round(ctx, np.random.default_rng(0), 0):
        op.check(op.run())


WORKLOADS = {
    "otto-friction": (otto_round, otto_warm_up),
    "lindblad-steady": (lindblad_round, lindblad_warm_up),
    "battery-charging": (battery_round, battery_warm_up),
    "small-calls": (small_round, small_warm_up),
}
