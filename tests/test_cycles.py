import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

import fock_oracle
from qtherm import cycles, oscillators, qcore
from qtherm.errors import InvalidParams, NumericalInstability

rng = np.random.default_rng(11)


def assert_first_law(report, rel=1e-9):
    total_w = sum(s.work for s in report.strokes)
    total_q = sum(s.heat for s in report.strokes)
    scale = sum(abs(s.work) + abs(s.heat) for s in report.strokes) + 1.0
    assert abs(total_w + total_q) <= rel * scale


# --- maser -------------------------------------------------------------------


def test_maser_engine_example():
    rep = cycles.maser_analyze(3.0, 2.0, 2.0, 1.0)
    assert rep.inversion
    assert rep.mode == "Engine"
    assert rep.eta == pytest.approx(1 / 3)
    assert rep.eta <= 1 - 1.0 / 2.0


def test_maser_carnot_point():
    # omega_c/omega_h = T_c/T_h exactly: efficiency equals Carnot
    rep = cycles.maser_analyze(4.0, 2.0, 3.0, 1.5)
    assert rep.inversion
    assert rep.eta == pytest.approx(1 - 1.5 / 3.0)


def test_maser_equal_temperatures_no_engine():
    t = 2.0
    for omega_c in [0.5, 1.0, 2.9]:
        rep = cycles.maser_analyze(3.0, omega_c, t * (1 + 1e-12), t)
        assert rep.mode == "Refrigerator"


def test_maser_invalid_params():
    with pytest.raises(InvalidParams):
        cycles.maser_analyze(2.0, 3.0, 2.0, 1.0)
    with pytest.raises(InvalidParams):
        cycles.maser_analyze(3.0, 2.0, 1.0, 2.0)


# --- particle-in-box Carnot ------------------------------------------------------


def test_box_carnot_closed_form():
    rep = cycles.box_carnot(2.0, 1.0, 1.0)
    assert rep.net_work_output == pytest.approx(np.pi**2 * (1 - 0.25) * np.log(2), rel=1e-8)
    assert rep.q_hot == pytest.approx(np.pi**2 * np.log(2), rel=1e-8)
    assert rep.efficiency == pytest.approx(0.75, abs=1e-8)
    assert_first_law(rep)
    assert rep.carnot_margin >= -1e-9


def box_stroke_works(l_a, l_b, m):
    """Work done ON the system along each stroke, by quadrature of the
    force F(L) = sum_n |a_n|^2 n^2 pi^2 / (m L^3) along L: an independent
    check of the closed-form stroke works."""
    pi2 = np.pi**2

    def f_adiabat(length, n):
        return n**2 * pi2 / (m * length**3)

    def f_isotherm(length, l_ref):
        # |a1(L)|^2 = 4/3 - L^2/(3 l_ref^2) keeps <E> = pi^2/(2 m l_ref^2)
        a1 = 4.0 / 3.0 - length**2 / (3 * l_ref**2)
        return (a1 * pi2 + (1 - a1) * 4 * pi2) / (m * length**3)

    by_system = [quad(f_adiabat, l_a, l_b, args=(1,))[0],
                 quad(f_isotherm, l_b, 2 * l_b, args=(l_b,))[0],
                 quad(f_adiabat, 2 * l_b, 2 * l_a, args=(2,))[0],
                 quad(f_isotherm, 2 * l_a, l_a, args=(l_a,))[0]]
    return [-w for w in by_system]


def test_box_carnot_stroke_antiderivative_oracle():
    l_a, l_b, m = 3.0, 1.2, 0.7
    rep = cycles.box_carnot(l_a, l_b, m)
    for stroke, w in zip(rep.strokes, box_stroke_works(l_a, l_b, m)):
        assert stroke.work == pytest.approx(w, abs=1e-9)


def test_box_carnot_degenerate_cycle():
    rep = cycles.box_carnot(1.0, 1.0 - 1e-9, 1.0)
    assert abs(rep.net_work_output) < 1e-7
    assert abs(rep.efficiency) < 1e-7


# --- ideal Otto ----------------------------------------------------------------


def test_otto_qho_engine_example():
    rep = cycles.otto_qho(2.0, 1.0, 4.0, 1.0)
    assert rep.mode == "Engine"
    assert rep.efficiency == pytest.approx(0.5)
    assert rep.efficiency <= 0.75
    assert_first_law(rep)
    # stroke values against the coth closed forms
    ch = 1 / np.tanh(2.0 / 8.0)
    cc = 1 / np.tanh(1.0 / 2.0)
    assert rep.strokes[0].work == pytest.approx(-0.5 * ch)
    assert rep.strokes[2].work == pytest.approx(0.5 * cc)
    assert rep.strokes[1].heat == pytest.approx(0.5 * (cc - ch))


def test_otto_qho_carnot_point():
    # omega_b/omega_a = T_c/T_h: all exchanges vanish, eta = Carnot
    rep = cycles.otto_qho(2.0, 1.0, 4.0, 2.0)
    assert abs(rep.net_work_output) < 1e-12
    assert abs(rep.q_hot) < 1e-12
    assert rep.efficiency == pytest.approx(0.5)


def test_otto_qho_null_compression_ratio():
    # omega_b -> omega_a: no work is exchanged and the cycle degenerates to
    # pure heat conduction (the isochore heats cancel)
    rep = cycles.otto_qho(2.0, 2.0 * (1 - 1e-12), 4.0, 1.0)
    for s in rep.strokes:
        assert abs(s.work) < 1e-10
    assert abs(rep.q_hot + rep.q_cold) < 1e-10
    assert rep.q_hot > 0  # heat still flows hot -> cold
    assert abs(rep.net_work_output) < 1e-10


def test_otto_qho_saturated_coth_keeps_ratio_mode():
    # omega/(2T) > 19 at both ends: coth rounds to 1 and the net work to
    # -0.0, so only the ratio rule (0.5 < T_c/T_h = 0.9) gives the mode
    rep = cycles.otto_qho(100.0, 50.0, 1.0, 0.9)
    assert rep.mode == "Refrigerator"
    assert rep.efficiency is None
    assert rep.cop == pytest.approx(1.0)
    assert rep.carnot_margin >= 0


def test_otto_qho_refrigerator():
    rep = cycles.otto_qho(4.0, 0.5, 4.0, 1.0)  # ratio 0.125 < 0.25
    assert rep.mode == "Refrigerator"
    assert rep.cop == pytest.approx(0.5 / 3.5)
    assert rep.cop <= 1.0 / 3.0
    assert rep.q_cold > 0


def test_otto_carnot_bound_random_sweep():
    for _ in range(1000):
        omega_a = rng.uniform(0.5, 5.0)
        omega_b = omega_a * rng.uniform(0.05, 0.95)
        t_c = rng.uniform(0.2, 2.0)
        t_h = t_c * rng.uniform(1.05, 10.0)
        rep = cycles.otto_qho(omega_a, omega_b, t_h, t_c)
        assert_first_law(rep)
        assert rep.carnot_margin >= -1e-9
        if rep.mode == "Engine":
            assert rep.efficiency <= 1 - t_c / t_h + 1e-9
        else:
            assert rep.cop <= t_c / (t_h - t_c) + 1e-9


# --- efficiency at maximum power ---------------------------------------------------


def max_work_ratio_by_search(t_h, t_c):
    """Bounded search of W(x) = (x - 1)(T_c/x - T_h) over x in (T_c/T_h, 1):
    an independent check of the closed-form x*."""
    res = minimize_scalar(lambda x: -(x - 1.0) * (t_c / x - t_h),
                          bounds=(t_c / t_h + 1e-12, 1.0 - 1e-12),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.x)


def test_otto_max_power_curzon_ahlborn():
    out = cycles.otto_max_power(4.0, 1.0)
    assert out["ratio_star"] == pytest.approx(0.5, abs=1e-6)
    assert out["eta_bar"] == pytest.approx(0.5, abs=1e-6)


def test_otto_max_power_vanishing_gradient():
    out = cycles.otto_max_power(1.0, 1.0 - 1e-6)
    assert out["eta_bar"] < 1e-3


def test_otto_max_power_below_carnot():
    for _ in range(50):
        t_c = rng.uniform(0.1, 2.0)
        t_h = t_c * rng.uniform(1.01, 20.0)
        out = cycles.otto_max_power(t_h, t_c)
        # 1 - sqrt(x) < 1 - x for x in (0, 1)
        assert out["eta_bar"] < 1 - t_c / t_h
        assert out["eta_bar"] == pytest.approx(
            1 - max_work_ratio_by_search(t_h, t_c), abs=1e-6)


# --- squeezed-bath Otto --------------------------------------------------------------


def test_otto_squeezed_r0_reduces_to_thermal():
    rep0 = cycles.otto_squeezed(2.0, 1.0, 4.0, 1.0, 0.0)
    assert rep0.extras["eta_bar_squeezed"] == pytest.approx(1 - 0.5, abs=1e-12)
    # every ledger field must agree, at an engine and a refrigerator point,
    # where 1/<n0> overflows (omega_A/T_h > 709) and where both coth
    # factors round to 1
    for point, mode in [((2.0, 1.0, 4.0, 1.0), "Engine"),
                        ((4.0, 0.5, 4.0, 1.0), "Refrigerator"),
                        ((800.0, 400.0, 1.0, 0.5), "Engine"),
                        ((100.0, 50.0, 1.0, 0.9), "Refrigerator")]:
        rep0 = cycles.otto_squeezed(*point, 0.0)
        ref = cycles.otto_qho(*point)
        assert ref.mode == mode
        for f in dataclasses.fields(cycles.CycleReport):
            if f.name != "extras":
                assert getattr(rep0, f.name) == getattr(ref, f.name), f.name


def test_otto_squeezed_closed_form_r1():
    rep = cycles.otto_squeezed(2.0, 1.0, 2.0, 1.0, 1.0)
    expect = 1 - np.sqrt(1.0 / (2.0 * (1 + 2 * np.sinh(1.0) ** 2)))
    assert rep.extras["eta_bar_squeezed"] == pytest.approx(expect, abs=1e-12)
    assert rep.extras["eta_bar_squeezed"] <= rep.extras["eta_gen"]
    assert_first_law(rep)


def test_otto_squeezed_large_r_limits():
    prev = 0.0
    for r in [2.0, 4.0, 8.0]:
        rep = cycles.otto_squeezed(2.0, 1.0, 2.0, 1.0, r)
        eb, eg = rep.extras["eta_bar_squeezed"], rep.extras["eta_gen"]
        assert eb <= eg <= 1.0
        assert eb > prev
        prev = eb
    assert cycles.otto_squeezed(2.0, 1.0, 2.0, 1.0, 8.0).extras["eta_bar_squeezed"] > 0.999


# --- numeric Otto ---------------------------------------------------------------------


def test_otto_numeric_adiabatic_matches_ideal():
    ideal = cycles.otto_qho(2.0, 1.0, 2.0, 0.5)
    rep = cycles.otto_numeric(2.0, 1.0, 2.0, 0.5, ramp_duration=200.0,
                              thermalization_time=20.0)
    assert rep.mode == "Engine"
    rel = abs(rep.net_work_output - ideal.net_work_output) / ideal.net_work_output
    assert rel < 1e-4
    assert rep.extras["diabatic_work_excess"] >= -1e-9
    assert_first_law(rep, rel=1e-7)


def test_otto_numeric_fast_ramp_friction():
    ideal = cycles.otto_qho(2.0, 1.0, 2.0, 0.5)
    rep = cycles.otto_numeric(2.0, 1.0, 2.0, 0.5, ramp_duration=1.0,
                              thermalization_time=20.0)
    assert rep.net_work_output < ideal.net_work_output
    assert rep.extras["diabatic_work_excess"] > 1e-3


def test_otto_numeric_friction_decreases_with_ramp_time():
    excesses = []
    for tau_r in [2.0, 8.0, 32.0]:
        rep = cycles.otto_numeric(2.0, 1.0, 1.5, 0.5, ramp_duration=tau_r,
                                  thermalization_time=20.0)
        excesses.append(rep.extras["diabatic_work_excess"])
    assert excesses[0] > excesses[1] > excesses[2]
    assert all(e >= -1e-9 for e in excesses)


def test_otto_numeric_friction_dominated_is_accelerator():
    # friction turns the cycle into an accelerator: work is consumed while
    # heat still flows from the hot bath to the cold one
    rep = cycles.otto_numeric(2.0, 1.0, 2.0, 0.5, ramp_duration=0.5,
                              thermalization_time=20.0)
    assert rep.mode == "Accelerator"
    assert rep.q_hot > 0 > rep.q_cold
    assert rep.net_work_output < 0
    assert rep.efficiency is None
    assert rep.carnot_margin == 0.0
    assert_first_law(rep, rel=1e-7)


def _otto_fock(omega_a, omega_b, t_h, t_c, ramp_duration, thermalization_time,
               kappa, n_max=40):
    """Stroke energies of the same cycle on the truncated Fock basis: the
    ramps as unitaries of ``FrequencyRamp``, the isochores by
    ``damp_thermalize`` (the route ``otto_numeric`` took before the
    second-moment one)."""
    rho = fock_oracle.thermal_state(omega_a, t_h, omega_a, n_max)
    h_a = fock_oracle.hamiltonian(omega_a, omega_a, n_max)
    h_b = fock_oracle.hamiltonian(omega_b, omega_a, n_max)
    energies = [np.trace(rho @ h_a).real]
    u = oscillators.FrequencyRamp(
        lambda t: omega_a + (omega_b - omega_a) * t / ramp_duration,
        ramp_duration, n_max).propagator()
    rho = u @ rho @ u.conj().T
    energies.append(np.trace(rho @ h_b).real)
    rho = oscillators.damp_thermalize(rho, omega_b, omega_a, t_c, kappa,
                                      thermalization_time, n_max)
    energies.append(np.trace(rho @ h_b).real)
    # the compression ramp runs in the omega_b reference basis
    s = oscillators.squeeze(0.5 * np.log(omega_b / omega_a), n_max)
    u = s @ oscillators.FrequencyRamp(
        lambda t: omega_b + (omega_a - omega_b) * t / ramp_duration,
        ramp_duration, n_max).propagator() @ s.conj().T
    rho = u @ rho @ u.conj().T
    energies.append(np.trace(rho @ h_a).real)
    rho = oscillators.damp_thermalize(rho, omega_a, omega_a, t_h, kappa,
                                      thermalization_time, n_max)
    assert rho[-1, -1].real < 1e-8  # the cutoff holds the cycle
    energies.append(np.trace(rho @ h_a).real)
    e0, e1, e2, e3, e4 = energies
    return {"net_work_output": -((e1 - e0) + (e3 - e2)), "q_hot": e4 - e3,
            "q_cold": e2 - e1}


def _assert_matches_fock(params):
    rep = cycles.otto_numeric(*params)
    want = _otto_fock(*params)
    for key, value in want.items():
        assert getattr(rep, key) == pytest.approx(value, abs=1e-7), key


@pytest.mark.parametrize("ramp", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_otto_numeric_matches_fock_oracle(ramp):
    _assert_matches_fock((2.0, 1.0, 2.0, 0.5, ramp, 20.0, 1.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_otto_numeric_matches_fock_oracle_random_points(seed):
    gen = np.random.default_rng([17, seed])
    omega_b = gen.uniform(0.8, 1.5)
    omega_a = omega_b * gen.uniform(1.3, 2.0)
    t_c = gen.uniform(0.3, 0.6)
    t_h = t_c * gen.uniform(1.5, 2.5)  # omega_a / t_h > 0.69 fits n_max = 40
    kappa = gen.uniform(0.5, 2.0)
    # the isochores must close the cycle, or its first law cannot balance
    _assert_matches_fock((omega_a, omega_b, t_h, t_c, gen.uniform(0.3, 3.0),
                          25.0 / kappa, kappa))


def _fock_covariance(rho, omega_ref, n_max):
    x, p = fock_oracle.xp_ops(omega_ref, n_max)
    c = 0.5 * np.trace(rho @ (x @ p + p @ x)).real
    return np.array([[np.trace(rho @ x @ x).real, c],
                     [c, np.trace(rho @ p @ p).real]])


@pytest.mark.parametrize("omega, tau", [(2.0, 0.4), (1.0, 0.4), (1.0, 3.0)])
def test_thermalize_covariance_matches_fock_damping(omega, tau):
    # a squeezed state with <{x, p}> != 0, relaxed part of the way
    n_max, omega_ref, temperature, kappa = 40, 2.0, 0.6, 0.8
    rho = fock_oracle.thermal_state(omega_ref, 0.7, omega_ref, n_max)
    u = oscillators.FrequencyRamp(lambda t: 2.0 - t, 0.5, n_max).propagator()
    rho = u @ rho @ u.conj().T
    got = oscillators.thermalize_covariance(
        _fock_covariance(rho, omega_ref, n_max), omega, temperature, kappa, tau)
    rho = oscillators.damp_thermalize(rho, omega, omega_ref, temperature,
                                      kappa, tau, n_max)
    assert np.max(np.abs(got - _fock_covariance(rho, omega_ref, n_max))) < 1e-10


def test_otto_numeric_sudden_quench_closed_form():
    # as the ramp time goes to 0 the state cannot follow, so a stroke's
    # work is (omega_to² - omega_from²) <x²> / 2 of the state it starts in
    omega_a, omega_b, t_h, t_c = 2.0, 1.0, 2.0, 0.5
    rep = cycles.otto_numeric(omega_a, omega_b, t_h, t_c, ramp_duration=1e-4,
                              thermalization_time=40.0)
    x_hot = 0.5 / (omega_a * np.tanh(omega_a / (2 * t_h)))
    x_cold = 0.5 / (omega_b * np.tanh(omega_b / (2 * t_c)))
    assert rep.strokes[0].work == pytest.approx(
        0.5 * (omega_b**2 - omega_a**2) * x_hot, rel=1e-7)
    assert rep.strokes[2].work == pytest.approx(
        0.5 * (omega_a**2 - omega_b**2) * x_cold, rel=1e-7)


def test_ramp_covariance_at_fixed_frequency_is_a_rotation():
    sigma = np.array([[0.7, 0.2], [0.2, 1.1]])
    omega, times = 1.3, np.linspace(0.0, 3.0, 7)
    got = oscillators.ramp_covariance(sigma, lambda t: np.full_like(t, omega**2),
                                      3.0, t_eval=times)
    for t, sig in zip(times, got):
        c, s = np.cos(omega * t), np.sin(omega * t)
        m = np.array([[c, s / omega], [-omega * s, c]])
        assert np.max(np.abs(sig - m @ sigma @ m.T)) < 1e-10


def test_ramp_covariance_rejects_inverted_trap():
    with pytest.raises(InvalidParams):
        oscillators.ramp_covariance(np.eye(2), lambda t: 1.0 - t, 2.0)


# --- oscillator damping and ramps ---------------------------------------------------------


def _random_state(n_max, support, rank, seed):
    """Random mixed state with coherences on the lowest ``support`` levels."""
    gen = np.random.default_rng(seed)
    psi = np.zeros((n_max + 1, rank), dtype=complex)
    psi[:support] = (gen.normal(size=(support, rank))
                     + 1j * gen.normal(size=(support, rank)))
    rho = psi @ psi.conj().T
    return rho / np.trace(rho).real


def _damp_dense_ode(rho, omega, omega_ref, temperature, kappa, tau, n_max):
    """Damping channel integrated as a dense ODE in the omega frame."""
    xi = 0.5 * np.log(omega / omega_ref)
    s = oscillators.squeeze(xi, n_max)
    rho_f = s.conj().T @ rho @ s
    nbar = 1.0 / np.expm1(omega / temperature)
    a = oscillators.destroy(n_max)
    ad = a.conj().T
    g_down = kappa * (nbar + 1)
    g_up = kappa * nbar
    n_op = ad @ a
    aad = a @ ad
    dim = n_max + 1

    def rhs(_t, y):
        r = y.reshape(dim, dim)
        dr = g_down * (a @ r @ ad - 0.5 * (n_op @ r + r @ n_op))
        dr += g_up * (ad @ r @ a - 0.5 * (aad @ r + r @ aad))
        return dr.reshape(-1)

    sol = solve_ivp(rhs, (0.0, tau), rho_f.reshape(-1), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    rho_f = sol.y[:, -1].reshape(dim, dim)
    phases = np.exp(-1j * omega * (np.arange(dim) + 0.5) * tau)
    rho_f = phases[:, None] * rho_f * np.conj(phases)[None, :]
    return s @ rho_f @ s.conj().T


@pytest.mark.parametrize("tau", [0.7, 20.0])
def test_damp_thermalize_matches_dense_ode_oracle(tau):
    n_max = 20
    rho0 = _random_state(n_max, support=8, rank=3, seed=5)
    args = (1.3, 2.0, 0.9, 0.7, tau, n_max)
    out = oscillators.damp_thermalize(rho0, *args)
    assert np.max(np.abs(out - _damp_dense_ode(rho0, *args))) < 1e-10


@pytest.mark.parametrize("omega, omega_ref", [(2.0, 2.0), (1.0, 2.0)])
def test_damp_thermalize_number_relaxes_exponentially(omega, omega_ref):
    n_max, temperature, kappa, tau = 40, 0.8, 1.0, 1.5
    s = oscillators.squeeze(0.5 * np.log(omega / omega_ref), n_max)
    # number operator of the omega-mode in the reference basis
    n_op = s @ np.diag(np.arange(n_max + 1.0)) @ s.conj().T
    rho0 = s @ _random_state(n_max, support=6, rank=2, seed=9) @ s.conj().T
    out = oscillators.damp_thermalize(rho0, omega, omega_ref, temperature,
                                      kappa, tau, n_max)
    nbar = 1.0 / np.expm1(omega / temperature)
    n0 = np.trace(rho0 @ n_op).real
    want = nbar + (n0 - nbar) * np.exp(-kappa * tau)
    assert np.trace(out @ n_op).real == pytest.approx(want, abs=1e-10)


def test_frequency_ramp_matches_dense_integration():
    n_max, tau = 20, 1.0
    omega_of_t = lambda t: 2.0 - t / tau  # noqa: E731
    t_eval = np.linspace(0.0, tau, 5)
    ramp = oscillators.FrequencyRamp(omega_of_t, tau, n_max, t_eval=t_eval)

    ts = np.linspace(0.0, tau, 4001)
    spline = CubicSpline(ts, [omega_of_t(t) for t in ts])
    omega_dot, alpha = spline.derivative(), spline.antiderivative()
    a2 = oscillators.destroy(n_max) @ oscillators.destroy(n_max)
    dim = n_max + 1

    def rhs(t, y):
        u = y.reshape(dim, dim)
        xi_dot = float(omega_dot(t)) / (2 * float(spline(t)))
        phase = np.exp(-2j * float(alpha(t)))
        return (-(xi_dot / 2) * (phase * (a2 @ u)
                                 - np.conj(phase) * (a2.conj().T @ u))).reshape(-1)

    sol = solve_ivp(rhs, (0.0, tau), np.eye(dim, dtype=complex).reshape(-1),
                    t_eval=t_eval, method="DOP853", rtol=1e-11, atol=1e-13,
                    max_step=np.pi / (4 * 2.0))  # pi / (4 max omega), as the ramp
    for k, t in enumerate(t_eval):
        phases = np.exp(-1j * (np.arange(dim) + 0.5) * float(alpha(t)))
        s = oscillators.squeeze(0.5 * np.log(float(spline(t)) / 2.0), n_max)
        want = s @ (phases[:, None] * sol.y[:, k].reshape(dim, dim))
        assert np.max(np.abs(ramp.propagator(t) - want)) < 1e-12


def test_frequency_ramp_rejects_bad_inputs():
    with pytest.raises(InvalidParams):
        oscillators.FrequencyRamp(lambda t: 1.0 - t, 2.0, 4)
    ramp = oscillators.FrequencyRamp(lambda t: 1.0 + t, 1.0, 4,
                                     t_eval=[0.0, 1.0])
    with pytest.raises(ValueError):  # InvalidParams is also a ValueError
        ramp.propagator(0.5)


def test_damp_thermalize_reaches_gibbs():
    n_max = 40
    rho0 = fock_oracle.thermal_state(1.0, 1.5, 2.0, n_max)  # wrong-frequency thermal
    out = oscillators.damp_thermalize(rho0, 2.0, 2.0, 0.8, kappa=1.0,
                                      tau=40.0, n_max=n_max)
    target = fock_oracle.thermal_state(2.0, 0.8, 2.0, n_max)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out - target)))
    assert dist < 1e-8


# --- two-stroke machine -----------------------------------------------------------------


def test_two_stroke_identity_stroke():
    rep = cycles.two_stroke(5.0, 2.0, 2.0, 1.0, 0.0)
    assert rep.net_work_output == 0.0
    assert rep.q_hot == 0.0
    assert rep.q_cold == 0.0
    assert rep.mode == "Off"


def test_two_stroke_sign_reversal_at_carnot_point():
    # T_c/T_h = 0.5 and omega_k = 5: all exchanges reverse sign at omega_un = 2.5
    below = cycles.two_stroke(5.0, 2.5 - 1e-6, 2.0, 1.0, np.pi / 2)
    above = cycles.two_stroke(5.0, 2.5 + 1e-6, 2.0, 1.0, np.pi / 2)
    for attr in ["q_hot", "q_cold", "net_work_output"]:
        assert getattr(below, attr) * getattr(above, attr) < 0
    at = cycles.two_stroke(5.0, 2.5, 2.0, 1.0, np.pi / 2)
    assert abs(at.q_hot) < 1e-12 and abs(at.net_work_output) < 1e-12


def test_two_stroke_engine_efficiency():
    rep = cycles.two_stroke(5.0, 3.0, 2.0, 1.0, np.pi / 3)
    assert rep.mode == "Engine"
    assert rep.efficiency == pytest.approx(1 - 3.0 / 5.0)
    assert rep.carnot_margin >= -1e-9
    assert_first_law(rep)


def _two_stroke_unitary_oracle(omega_k, omega_un, t_h, t_c, theta):
    """Explicit 4x4 simulation: rotate the single-excitation subspace."""

    def gibbs2(omega, t):
        z = np.exp(-omega / t) + np.exp(omega / t)
        return np.diag([np.exp(-omega / t), np.exp(omega / t)]).astype(complex) / z

    rho = np.kron(gibbs2(omega_k, t_h), gibbs2(omega_un, t_c))
    u = np.eye(4, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    u[1, 1], u[1, 2], u[2, 1], u[2, 2] = c, -s, s, c
    rho_after = u @ rho @ u.conj().T
    space = qcore.CompositeSpace((2, 2))
    h_k = np.diag([omega_k, -omega_k]).astype(complex)
    h_un = np.diag([omega_un, -omega_un]).astype(complex)
    rk = qcore.partial_trace(rho_after, space, [0])
    run = qcore.partial_trace(rho_after, space, [1])
    q_h = float(np.trace((gibbs2(omega_k, t_h) - rk) @ h_k).real)
    q_c = float(np.trace((gibbs2(omega_un, t_c) - run) @ h_un).real)
    return q_h, q_c


@pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2, np.pi])
def test_two_stroke_matches_explicit_unitary(theta):
    omega_k, omega_un, t_h, t_c = 5.0, 3.0, 2.0, 1.0
    rep = cycles.two_stroke(omega_k, omega_un, t_h, t_c, theta)
    q_h, q_c = _two_stroke_unitary_oracle(omega_k, omega_un, t_h, t_c, theta)
    assert rep.q_hot == pytest.approx(q_h, abs=1e-12)
    assert rep.q_cold == pytest.approx(q_c, abs=1e-12)
    assert rep.net_work_output == pytest.approx(q_h + q_c, abs=1e-12)


def test_two_stroke_carnot_bound_random_sweep():
    for _ in range(1000):
        omega_k = rng.uniform(0.5, 6.0)
        omega_un = omega_k * rng.uniform(0.05, 0.95)
        t_c = rng.uniform(0.2, 2.0)
        t_h = t_c * rng.uniform(1.05, 8.0)
        theta = rng.uniform(0.0, np.pi)
        rep = cycles.two_stroke(omega_k, omega_un, t_h, t_c, theta)
        assert_first_law(rep)
        assert rep.carnot_margin >= -1e-9


# --- outcoupled engine ----------------------------------------------------------------


def test_outcoupled_single_cycle_settings_agree():
    p = cycles.OutcoupledParams(n_fock=20)
    w1 = cycles.outcoupled_multicycle(p, 1, False)
    w2 = cycles.outcoupled_multicycle(p, 1, True)
    assert w1[0] == pytest.approx(w2[0], abs=1e-15)


def test_outcoupled_non_finite_state_is_numerical_instability(monkeypatch):
    # a kick that is not finite once gave a NaN work that passed the
    # cutoff check (nan > 1e-10 is False)
    monkeypatch.setattr(cycles, "expm", lambda a: np.full_like(a, np.nan))
    with pytest.raises(NumericalInstability):
        cycles.outcoupled_multicycle(cycles.OutcoupledParams(n_fock=6), 1, False)


def test_outcoupled_coherence_exceeds_measured():
    p = cycles.OutcoupledParams()
    coherent = cycles.outcoupled_multicycle(p, 10, False)
    measured = cycles.outcoupled_multicycle(p, 10, True)
    assert np.any(coherent[1:10] > measured[1:10] + 1e-12)


def test_outcoupled_dephasing_equals_explicit_measurement_branches():
    """Propagating each projective outcome separately and averaging must
    equal the dephasing-channel implementation."""
    p = cycles.OutcoupledParams(n_fock=12)
    d = p.n_fock + 1
    delta, g, b, n_fock = p.delta, p.g, p.b, p.n_fock
    v, period, omega, beta_c, beta_h = p.v, p.period, p.omega, p.beta_c, p.beta_h
    w_channel = cycles.outcoupled_multicycle(p, 2, True)

    # oracle: run cycle 1 on the pure ground state, measure (branch), then
    # average the cycle-2 energies over branches
    def one_cycle(rho_s):
        sx = cycles.SIGMA_X
        sz = cycles.SIGMA_Z
        a = oscillators.destroy(n_fock)

        def h1(t):
            return delta * sx + (-v * t) * sz

        def h2(t):
            return delta * sx + (-v * (period - t)) * sz

        def phase(dt):
            return np.diag(np.exp(-1j * omega * np.arange(d) * dt))

        u1 = np.kron(qcore.midpoint_propagator(h1, 0, b * period, 400),
                     phase(b * period))
        kick = expm(-1j * g * np.kron(sx, a + a.conj().T))
        u2 = np.kron(qcore.midpoint_propagator(h1, b * period, period / 2, 400),
                     phase(period / 2 - b * period))
        u3 = np.kron(qcore.midpoint_propagator(h2, period / 2, period, 400),
                     phase(period / 2))
        space = qcore.CompositeSpace((2, d))
        rho = np.kron(qcore.gibbs_state(delta * sx, 1 / beta_c), rho_s)
        rho = u2 @ kick @ u1 @ rho @ u1.conj().T @ kick.conj().T @ u2.conj().T
        rho_mid = qcore.partial_trace(rho, space, [1])
        rho = np.kron(qcore.gibbs_state(h1(period / 2), 1 / beta_h), rho_mid)
        rho = u3 @ rho @ u3.conj().T
        return qcore.partial_trace(rho, space, [1])

    ground = np.zeros((d, d), dtype=complex)
    ground[0, 0] = 1.0
    rho1 = one_cycle(ground)
    probs = np.diag(rho1).real
    mean_e2 = 0.0
    for k in range(d):
        if probs[k] < 1e-16:
            continue
        branch = np.zeros((d, d), dtype=complex)
        branch[k, k] = 1.0
        rho2 = one_cycle(branch)
        mean_e2 += probs[k] * omega * float(np.sum(np.arange(d) * np.diag(rho2).real))
    assert w_channel[1] == pytest.approx(mean_e2, abs=1e-12)


def test_outcoupled_indistinct_ratio_single_atom():
    out = cycles.outcoupled_indistinct_ratio(
        1, 1.0, 1.0, 0.1, 0.35 * 10.0, beta_c=2.0 / np.sqrt(2.0))
    assert out == pytest.approx(1.0, abs=1e-10)


def test_outcoupled_indistinct_ratio_monotone_family():
    omega0 = 1.0
    period = 20.0 / omega0
    t1 = 0.35 * period / 2
    v = 0.1 * omega0**2
    eps0 = np.sqrt(omega0**2 + 1.0)
    eps_half = np.sqrt((omega0 + v * period / 2) ** 2 + 1.0)
    vals = [
        cycles.outcoupled_indistinct_ratio(
            n, 1.0, omega0, v, t1, beta_c=2.0 / eps0)
        for n in range(1, 9)
    ]
    assert vals[1] > 1.0
    assert np.all(np.diff(vals) > 0)
