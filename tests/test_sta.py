import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qtherm import oscillators, sta
from qtherm.errors import (
    DegenerateSpectrum,
    NumericalInstability,
    TrapInversionWarning,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

rng = np.random.default_rng(23)


# --- Ermakov schedules --------------------------------------------------------


def test_ermakov_noop_schedule():
    s = sta.ermakov_schedule(2.0, 2.0, 5.0)
    grid = np.linspace(0, 5.0, 200)
    assert np.allclose(s.b(grid), 1.0, atol=1e-14)
    assert np.allclose(s.omega(grid), 2.0, atol=1e-12)


def test_ermakov_boundary_conditions():
    s = sta.ermakov_schedule(4.0, 1.0, 10.0)
    assert s.b(0.0) == pytest.approx(1.0, abs=1e-12)
    assert s.b(10.0) == pytest.approx(2.0, abs=1e-12)  # sqrt(omega_i/omega_f)
    for f in (s.b_dot, s.b_ddot):
        assert abs(f(0.0)) < 1e-10
        assert abs(f(10.0)) < 1e-10
    assert s.omega(0.0) == pytest.approx(4.0, abs=1e-10)
    assert s.omega(10.0) == pytest.approx(1.0, abs=1e-10)
    assert np.min(s.b(np.linspace(0, 10, 1000))) > 0


def test_ermakov_equation_residual():
    s = sta.ermakov_schedule(4.0, 1.0, 10.0)
    grid = np.linspace(0.0, 10.0, 1000)
    res = s.b_ddot(grid) + s.omega_squared(grid) * s.b(grid) - s.omega0**2 / s.b(grid) ** 3
    assert np.max(np.abs(res)) < 1e-10


def test_ermakov_fast_schedule_inverts_trap():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = sta.ermakov_schedule(4.0, 1.0, 0.1)
    assert any(issubclass(w.category, TrapInversionWarning) for w in caught)
    assert np.min(s.omega_squared(np.linspace(0, 0.1, 1000))) < 0


def invariant_operator(schedule, t, n_max):
    """I(t) = (1/2)[omega_0^2 x^2 / b^2 + (b p - b' x)^2] in the
    omega_i-reference Fock basis (unit mass)."""
    x, p = oscillators.xp_ops(schedule.omega_i, n_max)
    b = float(schedule.b(t))
    bd = float(schedule.b_dot(t))
    lin = b * p - bd * x
    return 0.5 * (schedule.omega0**2 / b**2) * (x @ x) + 0.5 * (lin @ lin)


def fock_invariant_drift(schedule, temperature, n_max, n_samples=101):
    """Max relative drift of Tr(rho(t) I(t)), rho propagated by the Fock
    ``FrequencyRamp`` (the route ``verify_ermakov_invariant`` took before
    the second-moment one)."""
    rho0 = oscillators.thermal_state(schedule.omega_i, temperature,
                                     schedule.omega_i, n_max)
    ramp = oscillators.FrequencyRamp(
        lambda t: float(np.sqrt(schedule.omega_squared(t))), schedule.tau,
        n_max, t_eval=np.linspace(0.0, schedule.tau, n_samples))
    i0 = np.trace(rho0 @ invariant_operator(schedule, 0.0, n_max)).real
    drift = 0.0
    for k, t in enumerate(ramp.times):
        u = ramp.propagator_at_index(k)
        i_t = np.trace(u @ rho0 @ u.conj().T
                       @ invariant_operator(schedule, t, n_max)).real
        drift = max(drift, abs(i_t - i0) / abs(i0))
    return drift


class DetunedSchedule(sta.ErmakovSchedule):
    """Drives with omega(t)² (1 + sin²(pi t / tau) / 2), so I(t) is no longer
    conserved; omega(0) = omega_i still, as the Fock oracle's basis needs."""

    def omega_squared(self, t):
        return (1 + 0.5 * np.sin(np.pi * t / self.tau) ** 2) * super().omega_squared(t)


def test_ermakov_invariant_static_schedule():
    s = sta.ermakov_schedule(2.0, 2.0, 2.0)
    drift = sta.verify_ermakov_invariant(s, temperature=1.0)
    assert drift < 1e-9


@pytest.mark.parametrize("omega_f, tau", [(1.0, 3.0), (1.6, 5.0)])
def test_ermakov_invariant_drift_matches_fock_oracle(omega_f, tau):
    # the benchmark's range: omega_i = 2, omega_f in [1, 1.6], tau in [3, 5]
    s = sta.ermakov_schedule(2.0, omega_f, tau)
    drift = sta.verify_ermakov_invariant(s, temperature=0.5)
    assert drift < 1e-8
    assert fock_invariant_drift(s, 0.5, n_max=30) < 1e-8
    # off the Ermakov drive the invariant drifts by a few percent, and both
    # routes must agree on how far
    detuned = DetunedSchedule(s.omega_i, s.omega_f, s.tau, s.b_coeffs)
    want = fock_invariant_drift(detuned, 0.5, n_max=30)
    assert want > 1e-2
    assert sta.verify_ermakov_invariant(detuned, temperature=0.5) == \
        pytest.approx(want, abs=1e-8)


def test_ermakov_invariant_drift_and_population_restoration():
    s = sta.ermakov_schedule(4.0, 1.0, 10.0)
    n_max = 80
    drift = sta.verify_ermakov_invariant(s, temperature=2.0)
    assert drift < 1e-6

    # endpoint populations in the instantaneous eigenbasis are restored
    rho0 = oscillators.thermal_state(4.0, 2.0, 4.0, n_max)
    ramp = oscillators.FrequencyRamp(
        lambda t: float(np.sqrt(s.omega_squared(t))), 10.0, n_max)
    u = ramp.propagator()
    rho_f = u @ rho0 @ u.conj().T
    h_f = oscillators.hamiltonian(1.0, 4.0, n_max)
    vals, vecs = np.linalg.eigh(h_f)
    pops_f = np.real(np.einsum("in,ij,jn->n", vecs.conj(), rho_f, vecs))
    pops_0 = np.diag(rho0).real  # H(0) is diagonal in the reference basis
    # compare over levels that are both populated and far from the cutoff
    assert np.max(np.abs(pops_f[:30] - pops_0[:30])) < 1e-6


# --- counterdiabatic driving ------------------------------------------------------


def test_cd_time_independent_is_zero():
    h = 0.4 * SZ + 0.3 * SX
    h_cd = sta.counterdiabatic(lambda t: h, 0.5, 1e-5)
    assert np.max(np.abs(h_cd)) < 1e-8


def test_cd_landau_zener_closed_form():
    delta = 0.7

    def omega(t):
        return -2.0 * t

    def h0(t):
        return delta * SX + omega(t) * SZ

    for t in [0.1, 0.3, 0.8]:
        h_cd = sta.counterdiabatic(h0, t, 1e-6)
        omega_dot = -2.0
        expected = -0.5 * delta * omega_dot / (delta**2 + omega(t) ** 2) * SY
        assert np.max(np.abs(h_cd - expected)) < 1e-8
        assert np.max(np.abs(h_cd - h_cd.conj().T)) < 1e-10


def test_cd_gauge_diagonal_vanishes():
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ha, hb = (a + a.conj().T) / 2, (b + b.conj().T) / 2

    def h0(t):
        return np.diag([0.0, 1.0, 2.5, 4.0]) + 0.2 * np.cos(t) * ha + 0.2 * np.sin(t) * hb

    h_cd = sta.counterdiabatic(h0, 0.7, 1e-6)
    _, vecs = np.linalg.eigh(h0(0.7))
    diag = np.einsum("in,ij,jn->n", vecs.conj(), h_cd, vecs)
    assert np.max(np.abs(diag)) < 1e-10


def test_cd_degenerate_spectrum_raises():
    def h0(t):
        return np.diag([0.0, 1e-12, 1.0]) + 0j

    with pytest.raises(DegenerateSpectrum):
        sta.counterdiabatic(h0, 0.0, 1e-6)


def _transport_infidelity(h0, tau, level, dim):
    def rhs(t, y):
        h = h0(t) + sta.counterdiabatic(h0, t, 1e-6)
        return (-1j * h @ y.reshape(dim, 1)).reshape(-1)

    _, vecs0 = np.linalg.eigh(h0(0.0))
    sol = solve_ivp(rhs, (0.0, tau), vecs0[:, level].astype(complex),
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    t_eval=np.linspace(0, tau, 11))
    worst = 0.0
    for t, psi in zip(sol.t, sol.y.T):
        _, vecs = np.linalg.eigh(h0(t))
        worst = max(worst, 1 - abs(np.vdot(vecs[:, level], psi)) ** 2)
    return worst


def test_cd_fast_landau_zener_transport():
    delta = 0.5

    def h0(t):
        return delta * SX + (-40.0 * (t - 0.05)) * SZ  # 100x faster than adiabatic

    def rhs(t, y):
        h = h0(t) + sta.counterdiabatic(h0, t, 1e-7)
        return (-1j * h @ y.reshape(2, 1)).reshape(-1)

    _, v0 = np.linalg.eigh(h0(0.0))
    sol = solve_ivp(rhs, (0.0, 0.1), v0[:, 0].astype(complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    _, vf = np.linalg.eigh(h0(0.1))
    assert abs(np.vdot(vf[:, 0], sol.y[:, -1])) >= 1 - 1e-8


@pytest.mark.parametrize("dim", [3, 4])
def test_cd_transport_random_paths(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ha, hb = (a + a.conj().T) / 2, (b + b.conj().T) / 2

    def h0(t):
        base = np.diag(2.0 * np.arange(dim)).astype(complex)
        return base + 0.3 * np.cos(2 * t) * ha + 0.3 * np.sin(t) * hb

    for level in range(dim):
        assert _transport_infidelity(h0, 1.5, level, dim) < 1e-6


def _aligned_eig(h, reference):
    """Eigendecomposition with each eigenvector phase-aligned to the
    corresponding column of ``reference`` (maximal real overlap)."""
    vals, vecs = np.linalg.eigh(h)
    overlaps = np.einsum("ij,ij->j", reference.conj(), vecs)
    mags = np.abs(overlaps)
    phases = np.where(mags > 1e-14, overlaps / np.where(mags > 1e-14, mags, 1.0), 1.0)
    return vals, vecs * np.conj(phases)[None, :]


def counterdiabatic_by_eigenvector_difference(h0, t, dt):
    """H_CD = i sum_n (|d_t n><n| - <n|d_t n>|n><n|) from centred
    differences of phase-aligned eigenvectors, with the eigenbasis diagonal
    (a pure gauge) removed: an independent check of Berry's closed form."""
    _, vecs = np.linalg.eigh(h0(t))
    _, v_plus = _aligned_eig(h0(t + dt), vecs)
    _, v_minus = _aligned_eig(h0(t - dt), vecs)
    h_cd = 1j * ((v_plus - v_minus) / (2 * dt)) @ vecs.conj().T
    h_cd = (h_cd + h_cd.conj().T) / 2
    diag = np.einsum("in,ij,jn->n", vecs.conj(), h_cd, vecs)
    return h_cd - (vecs * diag[None, :].real) @ vecs.conj().T


def test_cd_matches_eigenvector_difference_oracle():
    local = np.random.default_rng(5)
    for _ in range(20):
        a = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
        b = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
        ha, hb = (a + a.conj().T) / 2, (b + b.conj().T) / 2
        t = local.uniform(-2.0, 2.0)

        def h0(tt):
            return (np.diag([0.0, 1.0, 2.5, 4.0]) + 0.3 * np.cos(tt) * ha
                    + 0.3 * np.sin(2 * tt) * hb)

        expected = counterdiabatic_by_eigenvector_difference(h0, t, 1e-5)
        assert np.max(np.abs(sta.counterdiabatic(h0, t, 1e-5) - expected)) < 1e-8


@pytest.mark.parametrize("velocity,t,dt", [
    (0.0, 1.7976931348623157e308, 1.7976931348623157e308),  # 0 * inf
    (1e308, 1e308, 1e-6),  # H0(t) itself overflows
    (1.0, 0.0, 1e-320),  # dH0/dt overflows
])
def test_cd_non_finite_drive_raises(velocity, t, dt):
    def h0(tt):
        eps = -velocity * tt  # no inf * 0 in building H0 itself
        return np.array([[eps, 1.0], [1.0, -eps]], dtype=complex)

    with pytest.raises(NumericalInstability):
        sta.counterdiabatic(h0, t, dt)
