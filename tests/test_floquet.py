import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import jv

import dense_gksl
from qtherm import floquet, lindblad, qcore
from qtherm.errors import InvalidParams, NoCoupling, UnclassifiableState
from qtherm.qcore import SIGMA_MINUS, SIGMA_PLUS

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# --- Floquet Hamiltonian -------------------------------------------------------


def floquet_hamiltonian(h_of_t, period: float, n_steps: int = 2000) -> np.ndarray:
    """Effective static Hamiltonian H_F = (i/T) log U(T, 0).

    The propagator is built from midpoint-exponential steps; the principal
    matrix logarithm puts the quasi-energies in (-Omega/2, Omega/2] with
    Omega = 2 pi / T.
    """
    u = qcore.midpoint_propagator(h_of_t, 0.0, period, n_steps)
    # principal log via the (unitary) eigendecomposition
    vals, vecs = sla.schur(u, output="complex")
    phases = np.angle(np.diag(vals))  # in (-pi, pi]
    quasi = -phases / period  # in [-Omega/2, Omega/2)
    omega = 2 * np.pi / period
    quasi = np.where(np.isclose(quasi, -omega / 2), omega / 2, quasi)
    hf = (vecs * quasi) @ vecs.conj().T
    return qcore.hermitianize(hf)


def test_floquet_time_independent():
    h = 0.3 * SZ + 0.2 * SX
    period = 1.0  # Omega = 2 pi, quasi-energies well inside the first zone
    hf = floquet_hamiltonian(lambda t: h, period)
    assert np.allclose(hf, h, atol=1e-8)


def test_floquet_commuting_drive():
    omega0 = 1.0
    period = 2.0  # Omega = pi > omega0
    hf = floquet_hamiltonian(lambda t: 0.5 * omega0 * SZ, period)
    assert np.allclose(hf, 0.5 * omega0 * SZ, atol=1e-8)


def test_floquet_stroboscopic_match():
    h_of_t = lambda t: 0.4 * SZ + 0.3 * np.sin(2 * np.pi * t / 1.7) * SX
    period = 1.7
    hf = floquet_hamiltonian(h_of_t, period, n_steps=4000)
    u = np.eye(2, dtype=complex)
    dt = period / 4000
    for k in range(4000):
        u = qcore.matrix_exp(h_of_t((k + 0.5) * dt), -1j * dt) @ u
    assert np.allclose(qcore.matrix_exp(hf, -1j * period), u, atol=1e-8)


def test_floquet_bch_second_order():
    h1 = 0.4 * SZ
    h2 = 0.3 * SX + 0.1 * SZ
    period = 0.02

    def h_of_t(t):
        return h1 if (t % period) < period / 2 else h2

    hf = floquet_hamiltonian(h_of_t, period, n_steps=2)
    # U = e^{-i h2 T/2} e^{-i h1 T/2}; BCH to second order
    comm = h2 @ h1 - h1 @ h2
    bch = (h1 + h2) / 2 - 1j * (period / 8) * comm
    assert np.allclose(hf, bch, atol=5 * period**2)


# --- sideband weights ------------------------------------------------------------


def test_sideband_constant():
    mod = floquet.PeriodicModulation(1.0, 2.0, "constant")
    w = floquet.sideband_weights(mod, 5)
    assert w.weight(0) == pytest.approx(1.0)
    assert w.total == pytest.approx(1.0)


def test_sideband_sinusoidal_bessel():
    for ratio in [0.3, 1.0, 5.0]:
        omega = 2.0
        mod = floquet.PeriodicModulation(10.0, omega, "sinusoidal", amplitude=ratio * omega)
        w = floquet.sideband_weights(mod, 40)
        for m in range(-10, 11):
            assert w.weight(m) == pytest.approx(jv(m, ratio) ** 2, abs=1e-8)
        assert w.total >= 1 - 1e-8


def test_sideband_asymmetric_parseval_and_mean():
    mod = floquet.PeriodicModulation(5.0, 1.0, "piecewise_asymmetric",
                                     amplitude=0.05, up_fraction=0.3)
    # the waveform's cycle mean is the declared mean gap
    t = np.linspace(0, mod.period, 20001)[:-1]
    assert np.mean(mod.gap(t)) == pytest.approx(5.0, abs=1e-10)
    w = floquet.sideband_weights(mod, 40)
    assert w.total >= 1 - 1e-8
    assert np.all(w.weights >= 0)


def test_modulation_rejects_up_fraction_at_construction():
    # this once reached sideband_weights and ended in a ZeroDivisionError
    with pytest.raises(InvalidParams, match="up_fraction"):
        floquet.PeriodicModulation(10.0, 1.0, "piecewise_asymmetric", 0.5,
                                   up_fraction=1.0)


def test_modulation_rejects_unknown_waveform_at_construction():
    with pytest.raises(InvalidParams, match="square"):
        floquet.PeriodicModulation(10.0, 1.0, "square")


# --- CTM ----------------------------------------------------------------------------


def ctm_generator(cfg, m_max=40):
    """The explicit sideband GKSL generator (4x4 superoperator). Every
    sideband of a bath shares the jumps sigma_-/sigma_+, so each bath is
    one dissipator at its summed down and up rates."""
    channels = floquet._channels(cfg, m_max)
    total = 0
    for bath in (cfg.hot_bath, cfg.cold_bath):
        down = sum(u for _m, b, _w, u in channels if b is bath)
        up = sum(u * np.exp(-w_m / bath.temperature)
                 for _m, b, w_m, u in channels if b is bath)
        total = total + dense_gksl.dissipator([SIGMA_MINUS, SIGMA_PLUS], [down, up])
    return total


def test_ctm_single_bath_constant_is_gibbs():
    cfg = floquet.spectral_separation_preset(10.0, 2.0, 4.0, 1.0)
    # constant modulation, one flat bath covering the gap
    mod = floquet.PeriodicModulation(10.0, 2.0, "constant")
    bath = lindblad.BathSpec(
        "hot", 4.0, lindblad.SpectralFunction("windowed_flat", 1.0, window=(0.0, 20.0)), SX
    )
    cold = lindblad.BathSpec(
        "cold", 1.0, lindblad.SpectralFunction("windowed_flat", 1.0, window=(30.0, 40.0)), SX
    )
    cfg = floquet.CTMConfig(mod, bath, cold)
    r = floquet.ctm_currents(cfg).r
    assert r == pytest.approx(np.exp(-10.0 / 4.0), abs=1e-12)


def test_ctm_equal_temperature_formula_reeval():
    t = 2.0
    cfg = floquet.spectral_separation_preset(10.0, 3.0, t + 1e-9, t, amplitude=1.5)
    r = floquet.ctm_currents(cfg).r
    w = floquet.sideband_weights(cfg.modulation, 40)
    num = den = 0.0
    for m, wm in [(1, 13.0), (-1, 7.0)]:
        num += w.weight(m) * np.exp(-wm / t)
        den += w.weight(m)
    assert r == pytest.approx(num / den, rel=1e-6)


def test_ctm_matches_generator_nullspace():
    cfg = floquet.spectral_separation_preset(10.0, 4.0, 4.0, 1.0)
    r = floquet.ctm_currents(cfg).r
    rho = dense_gksl.steady_state(ctm_generator(cfg))
    assert rho[0, 0].real / rho[1, 1].real == pytest.approx(r, abs=1e-10)


def test_ctm_no_coupling():
    mod = floquet.PeriodicModulation(10.0, 2.0, "constant")
    hot = lindblad.BathSpec(
        "hot", 4.0, lindblad.SpectralFunction("windowed_flat", 1.0, window=(100.0, 101.0)), SX
    )
    cold = lindblad.BathSpec(
        "cold", 1.0, lindblad.SpectralFunction("windowed_flat", 1.0, window=(102.0, 103.0)), SX
    )
    with pytest.raises(NoCoupling):
        floquet.ctm_currents(floquet.CTMConfig(mod, hot, cold))


def test_ctm_engine_efficiency_closed_form():
    omega0, th, tc = 10.0, 4.0, 1.0
    omega_cr = omega0 * (th - tc) / (th + tc)
    for omega in [1.0, 3.0, 5.0, omega_cr - 1e-3]:
        cfg = floquet.spectral_separation_preset(omega0, omega, th, tc)
        rep = floquet.ctm_currents(cfg)
        assert rep.mode == "Engine"
        assert rep.efficiency_or_cop == pytest.approx(2 * omega / (omega0 + omega), abs=1e-9)
        assert rep.efficiency_or_cop <= 1 - tc / th + 1e-9
        assert abs(rep.j_hot + rep.j_cold + rep.power) <= 1e-9 * (
            abs(rep.j_hot) + abs(rep.j_cold) + abs(rep.power) + 1
        )
        assert rep.j_hot / th + rep.j_cold / tc <= 1e-9


def test_ctm_refrigerator_above_critical():
    cfg = floquet.spectral_separation_preset(10.0, 7.0, 4.0, 1.0)
    rep = floquet.ctm_currents(cfg)
    assert rep.mode == "Refrigerator"
    assert rep.efficiency_or_cop == pytest.approx(rep.j_cold / rep.power, abs=1e-12)
    assert rep.efficiency_or_cop <= 1.0 / (4.0 - 1.0) + 1e-9


def test_ctm_carnot_point():
    cfg = floquet.spectral_separation_preset(10.0, 6.0, 4.0, 1.0)
    rep = floquet.ctm_currents(cfg)
    assert abs(rep.power) < 1e-12
    assert rep.omega_cr == pytest.approx(6.0)
    # efficiency just below the critical frequency approaches Carnot
    cfg2 = floquet.spectral_separation_preset(10.0, 6.0 - 1e-6, 4.0, 1.0)
    rep2 = floquet.ctm_currents(cfg2)
    assert rep2.efficiency_or_cop == pytest.approx(1 - 1.0 / 4.0, abs=1e-6)
    assert rep2.efficiency_or_cop == pytest.approx(2 * (6 - 1e-6) / (16 - 1e-6), abs=1e-9)


# --- classify_mode ---------------------------------------------------------------


def test_classify_mode_table():
    assert floquet.classify_mode(1.0, -0.6, -0.4) == "Engine"
    assert floquet.classify_mode(-1.0, 0.6, 0.4) == "Refrigerator"
    assert floquet.classify_mode(-0.5, -0.5, 1.0) == "Heater"
    assert floquet.classify_mode(0.0, 0.0, 0.0) == "Off"
    assert floquet.classify_mode(0.578, -0.651, 0.073) == "Accelerator"


def test_classify_mode_inconsistent():
    with pytest.raises(UnclassifiableState):
        floquet.classify_mode(1.0, 1.0, -2.0)
