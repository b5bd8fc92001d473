"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion and prints a single
``[criterion NN] name: PASS/FAIL`` line (run with ``pytest -v -s`` to see
them live). Expensive sweeps are computed once and shared between criteria
through module-level caches.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.special import jv

import dense_gksl
import fock_oracle
from qtherm import battery, cycles, floquet, lindblad, metrology, qcore, sta
from qtherm.metrology import ParamFamily

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)  # lowering for H = (w/2) sz


def _verdict(num, name, failures):
    status = "FAIL" if failures else "PASS"
    line = f"[criterion {num:02d}] {name}: {status}"
    if failures:
        line += " (" + "; ".join(failures) + ")"
    print("\n" + line, flush=True)
    assert not failures, line


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def _random_hermitian(d, rng, gap_min=0.05):
    while True:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        vals = np.linalg.eigvalsh(h)
        if np.min(np.diff(vals)) > gap_min:
            return h


def _random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- shared sweep caches ---------------------------------------------------------

BUILD_SECONDS = {}


def _timed(key, fn):
    t0 = time.monotonic()
    out = fn()
    BUILD_SECONDS[key] = time.monotonic() - t0
    return out


@functools.lru_cache(maxsize=None)
def _xxz_sweep():
    sizes = np.arange(4, 11)
    traces = [battery.charge_spins_xxz(int(n), 0.2, 0.1, 0.5, 0.01,
                                       "power_law", 1.0, 8.0, 0.005)
              for n in sizes]
    return sizes, traces


@functools.lru_cache(maxsize=None)
def _lmg_sweep():
    sizes = np.array([4, 6, 8, 10, 12, 14])
    traces = [battery.charge_lmg(int(n), 20.0, -1.0, 1.0, 10.0, 0.002)
              for n in sizes]
    return sizes, traces


@functools.lru_cache(maxsize=None)
def _dicke_rescaled_sweep():
    def build():
        sizes = np.arange(2, 9)
        traces = [battery.charge_dicke(int(n), int(n), 0.5, True, 1.0, 1.0,
                                       60, 50.0, 0.01)
                  for n in sizes]
        return sizes, traces

    return _timed("dicke_rescaled", build)


@functools.lru_cache(maxsize=None)
def _dicke_advantage_sweep():
    def build():
        sizes = np.arange(2, 9)
        single = battery.charge_dicke(1, 1, 0.2, False, 1.0, 1.0, 20,
                                      25.0, 0.01)
        gammas = []
        for n in sizes:
            n = int(n)
            collective = battery.charge_dicke(n, n, 0.2, False, 1.0, 1.0, 50,
                                              25.0, 0.01)
            parallel = dataclasses.replace(single,
                                           energies=n * single.energies)
            target = collective.energies[0] + 0.2 * n
            gammas.append(battery.quantum_advantage(parallel, collective,
                                                    target_energy=target))
        return sizes, gammas

    return _timed("dicke_advantage", build)


# --- criteria --------------------------------------------------------------------


def test_criterion_01_otto_closed_form():
    failures = []
    t0 = time.monotonic()
    ideal = cycles.otto_qho(2.0, 1.0, 2.0, 0.5)
    rep = cycles.otto_numeric(2.0, 1.0, 2.0, 0.5, ramp_duration=800.0,
                              thermalization_time=20.0)
    elapsed = time.monotonic() - t0
    rel = abs(rep.net_work_output - ideal.net_work_output) / ideal.net_work_output
    _check(failures, rel < 1e-4, f"work mismatch {rel:.2e}")
    _check(failures, abs(rep.efficiency - 0.5) < 1e-6,
           f"efficiency {rep.efficiency}")
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s")
    _verdict(1, "otto closed form", failures)


def test_criterion_02_curzon_ahlborn():
    failures = []
    rng = np.random.default_rng(2)
    for _ in range(20):
        t_c = float(rng.uniform(0.1, 2.0))
        t_h = t_c * float(rng.uniform(1.05, 20.0))
        out = cycles.otto_max_power(t_h, t_c)
        err = abs(out["ratio_star"] - np.sqrt(t_c / t_h))
        _check(failures, err < 1e-6, f"x* off by {err:.2e} at T={t_h},{t_c}")
    _verdict(2, "curzon-ahlborn max power", failures)


def test_criterion_03_ctm_carnot_point():
    failures = []
    t0 = time.monotonic()
    omega0, t_h, t_c = 10.0, 4.0, 1.0
    grid = np.arange(0.5, 8.01, 0.25)  # contains the critical point 6.0
    reports = [floquet.ctm_currents(
        floquet.spectral_separation_preset(omega0, float(w), t_h, t_c))
        for w in grid]
    modes = [r.mode for r in reports]
    last_engine = max(i for i, m in enumerate(modes) if m == "Engine")
    first_fridge = min(i for i, m in enumerate(modes) if m == "Refrigerator")
    _check(failures, grid[last_engine] < 6.0 <= grid[first_fridge],
           "mode flip not bracketing 6.0")
    _check(failures, first_fridge - last_engine <= 2,
           "flip wider than one grid step around the critical point")
    k6 = int(np.argmin(np.abs(grid - 6.0)))
    _check(failures, abs(reports[k6].power) < 1e-6,
           f"|P| at 6.0 is {abs(reports[k6].power):.2e}")
    eps = 1e-6
    rep = floquet.ctm_currents(
        floquet.spectral_separation_preset(omega0, 6.0 - eps, t_h, t_c))
    eta_err = abs(rep.efficiency_or_cop - 2 * (6.0 - eps) / (omega0 + 6.0 - eps))
    _check(failures, eta_err < 1e-9, f"efficiency off by {eta_err:.2e}")
    second_law = max(r.j_hot / t_h + r.j_cold / t_c for r in reports)
    _check(failures, second_law <= 1e-9, f"second law {second_law:.2e}")
    elapsed = time.monotonic() - t0
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s")
    _verdict(3, "driven-qubit machine critical frequency", failures)


def test_criterion_04_sideband_completeness():
    failures = []
    mods = [floquet.PeriodicModulation(10.0, 2.0, "constant"),
            floquet.PeriodicModulation(5.0, 1.0, "piecewise_asymmetric",
                                       amplitude=0.05, up_fraction=0.3)]
    for ratio in (0.3, 1.0, 5.0):
        mods.append(floquet.PeriodicModulation(10.0, 2.0, "sinusoidal",
                                               amplitude=2.0 * ratio))
    for mod in mods:
        w = floquet.sideband_weights(mod, 40)
        _check(failures, w.total >= 1 - 1e-8,
               f"{mod.waveform} weights sum to {w.total}")
    for ratio in (0.3, 1.0, 5.0):
        w = floquet.sideband_weights(
            floquet.PeriodicModulation(10.0, 2.0, "sinusoidal",
                                       amplitude=2.0 * ratio), 40)
        worst = max(abs(w.weight(m) - jv(m, ratio) ** 2)
                    for m in range(-10, 11))
        _check(failures, worst < 1e-8,
               f"Bessel mismatch {worst:.2e} at ratio {ratio}")
    _verdict(4, "sideband completeness", failures)


def test_criterion_05_lindblad_physicality():
    failures = []
    rng = np.random.default_rng(5)
    worst_trace, worst_eig, worst_db, worst_sigma = 0.0, 0.0, 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        h = _random_hermitian(d, rng)
        temp = float(rng.uniform(0.5, 3.0))
        bath = lindblad.BathSpec(
            "b", temp, lindblad.SpectralFunction("flat", float(rng.uniform(0.2, 1.5))),
            _random_hermitian(d, rng))
        gen = lindblad.build_generator(h, [bath])
        rho = lindblad.evolve(gen, _random_density(d, rng),
                              float(rng.uniform(0.0, 5.0)))
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho).min()))
        worst_sigma = min(worst_sigma,
                          lindblad.entropy_production(gen, rho, [bath]))
        ss = lindblad.steady_state(gen)
        vals, vecs = np.linalg.eigh(h)
        pops = np.real(np.einsum("in,ij,jn->n", vecs.conj(), ss, vecs))
        ratios = pops[1:] / pops[0]
        boltz = np.exp(-(vals[1:] - vals[0]) / temp)
        worst_db = max(worst_db, float(np.max(np.abs(ratios - boltz))))
    _check(failures, worst_trace < 1e-10, f"trace drift {worst_trace:.2e}")
    _check(failures, worst_eig >= -1e-9, f"min eigenvalue {worst_eig:.2e}")
    _check(failures, worst_db < 1e-9, f"detailed balance {worst_db:.2e}")
    _check(failures, worst_sigma >= -1e-9,
           f"entropy production {worst_sigma:.2e}")
    _verdict(5, "lindblad physicality (1000 triples)", failures)


def test_criterion_06_ergotropy_oracle():
    import itertools

    failures = []
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    worst_perm, worst_gap = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = _random_density(d, rng)
        h = _random_hermitian(d, rng)
        rep = battery.ergotropy(rho, h)
        e_pass = float(np.trace(rep.passive_state @ h).real)
        pops = np.linalg.eigvalsh(rho)
        levels = np.linalg.eigvalsh(h)
        best = min(float(pops[list(perm)] @ levels)
                   for perm in itertools.permutations(range(d)))
        worst_perm = max(worst_perm, abs(e_pass - best))
        worst_gap = min(worst_gap, rep.bound_gap)
    elapsed = time.monotonic() - t0
    _check(failures, worst_perm < 1e-10,
           f"permutation oracle mismatch {worst_perm:.2e}")
    _check(failures, worst_gap >= -1e-9, f"bound gap {worst_gap:.2e}")
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.1f}s")
    _verdict(6, "ergotropy permutation oracle (200 draws)", failures)


def test_criterion_07_multi_copy_passive_energy():
    failures = []
    t0 = time.monotonic()
    h = np.diag([0.0, 0.579, 1.0]).astype(complex)
    sigma = np.diag([0.538, 0.237, 0.224]).astype(complex)
    e = [battery.n_copy_passive_energy(sigma, h, n) for n in range(1, 6)]
    _check(failures, all(a > b for a, b in zip(e[:-1], e[1:])),
           f"not strictly decreasing: {e}")
    rep = battery.ergotropy(sigma, h)
    thermal_floor = float(np.trace(sigma @ h).real) - rep.thermal_bound
    _check(failures, all(en >= thermal_floor - 1e-9 for en in e),
           "below the entropy-matched thermal floor")
    elapsed = time.monotonic() - t0
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s")
    _verdict(7, "per-cell passive energy decreases with copies", failures)


def test_criterion_08_quantum_speed_limits():
    failures = []
    rng = np.random.default_rng(8)
    worst = np.inf
    for _ in range(100):
        h = _random_hermitian(2, rng)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 = a / np.linalg.norm(a)
        tau = float(rng.uniform(0.5, 3.0))
        times = np.linspace(0.0, tau, 51)
        vals, vecs = np.linalg.eigh(h)
        c0 = vecs.conj().T @ psi0
        traj = []
        for t in times:
            psi = vecs @ (np.exp(-1j * vals * t) * c0)
            traj.append((t, np.outer(psi, psi.conj())))
        rep = battery.qsl_report(traj, lambda t: h)
        worst = min(worst, rep.actual_tau - rep.tau_unified)
    _check(failures, worst >= -1e-9, f"bound violated by {-worst:.2e}")

    omega = 2.0
    tau = np.pi / omega
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    h = (omega / 2) * SZ

    def state(t):
        psi = np.exp(-1j * np.array([omega / 2, -omega / 2]) * t) * plus
        return np.outer(psi, psi.conj())

    rep = battery.qsl_report(
        [(t, state(t)) for t in np.linspace(0.0, tau, 401)], lambda t: h)
    _check(failures, abs(rep.actual_tau - rep.tau_mt) < 1e-9,
           f"saturation gap {abs(rep.actual_tau - rep.tau_mt):.2e}")
    _verdict(8, "quantum speed limits", failures)


def test_criterion_09_power_bound():
    failures = []
    for label, (_sizes, traces) in [("xxz", _xxz_sweep()),
                                    ("lmg", _lmg_sweep()),
                                    ("dicke", _dicke_rescaled_sweep())]:
        worst = max(battery.power_bound_check(tr) for tr in traces)
        _check(failures, worst <= 1e-9, f"{label} violation {worst:.2e}")
    _verdict(9, "power-variance-fisher bound", failures)


def test_criterion_10_dicke_scaling_trends():
    failures = []
    sizes, gammas = _dicke_advantage_sweep()
    exp_gamma = battery.scaling_exponent(sizes, gammas)
    _check(failures, abs(exp_gamma - 0.5) <= 0.15,
           f"advantage exponent {exp_gamma:.3f}")

    sizes, traces = _dicke_rescaled_sweep()
    pmax = [np.max(tr.powers) for tr in traces]
    vend = [tr.variances[-1] for tr in traces]
    imax = [np.max(tr.energy_fisher) for tr in traces]
    exp_p = battery.scaling_exponent(sizes, pmax)
    exp_v = battery.scaling_exponent(sizes, vend)
    exp_i = battery.scaling_exponent(sizes, imax)
    _check(failures, abs(exp_p - 1.0) <= 0.2, f"power exponent {exp_p:.3f}")
    _check(failures, abs(exp_v - 2.0) <= 0.3, f"variance exponent {exp_v:.3f}")
    _check(failures, abs(exp_i - 1.0) <= 0.3, f"fisher exponent {exp_i:.3f}")

    elapsed = (BUILD_SECONDS.get("dicke_advantage", 0.0)
               + BUILD_SECONDS.get("dicke_rescaled", 0.0))
    _check(failures, elapsed < 600.0, f"sweep runtime {elapsed:.0f}s")
    _verdict(10, "collective-charging scaling trends", failures)


def test_criterion_11_collective_spin_null_result():
    failures = []
    sizes, traces = _lmg_sweep()
    pmax = [np.max(tr.powers) for tr in traces]
    imean = [np.mean(tr.energy_fisher) for tr in traces]
    exp_p = battery.scaling_exponent(sizes, pmax)
    exp_i = battery.scaling_exponent(sizes, imean)
    _check(failures, abs(exp_p - 1.0) <= 0.2, f"power exponent {exp_p:.3f}")
    _check(failures, abs(exp_i - 0.0) <= 0.2, f"fisher exponent {exp_i:.3f}")
    _verdict(11, "anisotropic collective spin null result", failures)


def test_criterion_12_isotropic_interaction_null():
    failures = []
    kwargs = dict(b=1.0, alpha=1.0, nu=1.0, interaction_range="power_law",
                  omega=1.0, tau=6.0, dt=0.01)
    iso = battery.charge_spins_xxz(5, g=0.3, **kwargs)
    free = battery.charge_spins_xxz(5, g=0.0, **kwargs)
    worst = float(np.max(np.abs(iso.energies - free.energies)))
    _check(failures, worst < 1e-9, f"trace mismatch {worst:.2e}")
    _verdict(12, "isotropic spin interaction leaves charging unchanged",
             failures)


def test_criterion_13_shortcuts_to_adiabaticity():
    failures = []
    s = sta.ermakov_schedule(4.0, 1.0, 10.0)
    residuals = [abs(s.b(0.0) - 1.0), abs(s.b(10.0) - 2.0),
                 abs(s.b_dot(0.0)), abs(s.b_dot(10.0)),
                 abs(s.b_ddot(0.0)), abs(s.b_ddot(10.0)),
                 abs(s.omega(0.0) - 4.0), abs(s.omega(10.0) - 1.0)]
    _check(failures, max(residuals) < 1e-10,
           f"boundary residual {max(residuals):.2e}")
    drift = sta.verify_ermakov_invariant(s, temperature=2.0)
    _check(failures, drift < 1e-6, f"invariant drift {drift:.2e}")

    delta = 0.5

    def h0(t):
        return delta * SX + (-40.0 * (t - 0.05)) * SZ  # 100x sub-adiabatic

    def rhs(t, y):
        h = h0(t) + sta.counterdiabatic(h0, t, 1e-7)
        return (-1j * h @ y.reshape(2, 1)).reshape(-1)

    _, v0 = np.linalg.eigh(h0(0.0))
    sol = solve_ivp(rhs, (0.0, 0.1), v0[:, 0].astype(complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    _, vf = np.linalg.eigh(h0(0.1))
    infid = 1 - abs(np.vdot(vf[:, 0], sol.y[:, -1])) ** 2
    _check(failures, infid < 1e-8, f"transport infidelity {infid:.2e}")
    _verdict(13, "shortcut schedules", failures)


def test_criterion_14_metrology():
    failures = []
    rng = np.random.default_rng(14)
    k = _random_hermitian(2, rng)

    def gen(theta):
        p = 0.65 + 0.2 * np.sin(theta)
        u = sla.expm(-1j * theta * k)
        return u @ np.diag([p, 1 - p]).astype(complex) @ u.conj().T

    fam = ParamFamily(gen)
    theta0 = 0.45
    rep = metrology.qfi(fam, theta0)
    worst = -np.inf
    for _ in range(100):
        _, vecs = np.linalg.eigh(_random_hermitian(2, rng))
        povm = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(2)]
        worst = max(worst, metrology.cfi(fam, theta0, povm) - rep.qfi)
    _check(failures, worst <= 1e-8, f"CFI exceeds QFI by {worst:.2e}")

    def chi(eps):
        # qcore.fidelity returns the amplitude Tr sqrt(sqrt(rho) sigma sqrt(rho))
        f = qcore.fidelity(gen(theta0 - eps / 2), gen(theta0 + eps / 2))
        return 8 * (1 - f) / eps ** 2

    eps = 4e-3
    chi_r = (4 * chi(eps / 2) - chi(eps)) / 3
    rel = abs(rep.qfi - chi_r) / chi_r
    _check(failures, rel < 1e-6, f"susceptibility mismatch {rel:.2e}")

    g = metrology.josephson_effective_g(0.2, 0.3, 0.3)
    out = metrology.thermometry_error(8.5, 1.0, 15.0, 0.06, 0.06, g,
                                      delta_i=1e-4, delta_t_h=0.1)
    _check(failures, abs(out["c2_over_c1"] - 2.55) <= 0.05,
           f"C2/C1 = {out['c2_over_c1']:.3f}")

    warm = metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3,
                                       np.linspace(3.05, 8.05, 51))
    cold = metrology.magnetometry_null(2.5, 10.0, 1.0, 0.3,
                                       np.linspace(23.05, 28.05, 51))
    _check(failures, abs(warm.estimated_parameter - 2.5) < 1e-9,
           f"estimate {warm.estimated_parameter}")
    ratio = cold.error_estimate / warm.error_estimate
    _check(failures, abs(ratio - (1.0 / 10.0) / (1.0 / 2.0)) < 1e-9,
           f"error ratio {ratio}")
    _verdict(14, "metrology stack", failures)


def test_criterion_15_inter_cycle_coherence():
    failures = []
    p = cycles.OutcoupledParams()
    omega = p.omega
    d = 31
    n_cycles = 10

    dephased = cycles.outcoupled_multicycle(p, n_cycles, True)
    coherent = cycles.outcoupled_multicycle(p, n_cycles, False)

    # independent route: a Markov chain over projective energy outcomes
    one_cycle = fock_oracle.outcoupled_cycle(p, n_fock=d - 1)

    transition = np.zeros((d, d))
    for k in range(d):
        basis = np.zeros((d, d), dtype=complex)
        basis[k, k] = 1.0
        transition[:, k] = np.diag(one_cycle(basis)).real
    probs = np.zeros(d)
    probs[0] = 1.0
    measured = np.zeros(n_cycles)
    for cyc in range(n_cycles):
        probs = transition @ probs
        measured[cyc] = omega * float(np.arange(d) @ probs)

    worst = float(np.max(np.abs(dephased - measured)))
    _check(failures, worst < 1e-12,
           f"dephased vs measured mismatch {worst:.2e}")
    gap = float(np.max(np.abs(coherent[1:] - measured[1:])))
    _check(failures, gap > 1e-12,
           "coherent run indistinguishable from measured run")
    _verdict(15, "inter-cycle coherence bookkeeping", failures)


def test_criterion_16_stroke_continuous_equivalence_trend():
    failures = []
    omega = 1.0
    h_lab = 0.5 * omega * SZ
    hrow = dense_gksl.vectorize(h_lab).conj()
    nbar = lambda t: 1.0 / (np.exp(omega / t) - 1.0)
    unit0 = dense_gksl.superoperator(0.8 * SX)  # resonant drive, rotating frame
    bath0 = np.zeros((4, 4), dtype=complex)
    for temp in (2.0, 0.5):
        n = nbar(temp)
        bath0 = bath0 + (lindblad.dissipator_super(SM, n + 1.0)
                         + lindblad.dissipator_super(SM.conj().T, n))
    tau = 1.0
    rho0 = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]], dtype=complex)
    y0 = np.concatenate([dense_gksl.vectorize(rho0), [0.0]])

    def augmented(unit, bath):
        # appends a work accumulator dW/dt = Tr(H_lab * unitary part of drho/dt)
        m = np.zeros((5, 5), dtype=complex)
        m[:4, :4] = unit + bath
        m[4, :4] = hrow @ unit
        return m

    def work_continuous(c):
        y = sla.expm(augmented(c * unit0, c * bath0) * tau) @ y0
        return float(y[4].real)

    def work_two_stroke(c):
        # symmetric strokes: drive quarter, baths half (doubled rates), drive quarter
        u = sla.expm(augmented(2 * c * unit0, 0 * bath0) * (tau / 4))
        mid = sla.expm(augmented(0 * unit0, 2 * c * bath0) * (tau / 2))
        return float((u @ (mid @ (u @ y0)))[4].real)

    scales = np.logspace(-2.0, -1.0, 7)
    actions = np.array([lindblad.bath_action(lambda t: c * bath0, tau)
                        for c in scales])
    diffs = np.array([abs(work_continuous(c) - work_two_stroke(c))
                      for c in scales])
    _check(failures, np.all(np.diff(diffs) > 0),
           "work difference not monotone in the bath action")
    exponent = float(np.polyfit(np.log(actions), np.log(diffs), 1)[0])
    _check(failures, exponent >= 2.5, f"fitted exponent {exponent:.2f}")
    _verdict(16, "stroke vs continuous equivalence trend", failures)
