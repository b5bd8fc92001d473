"""Periodically modulated two-level machinery: Floquet Hamiltonian,
sideband weights, and the continuous thermal machine (CTM).

The CTM is a two-level system with a periodically modulated gap omega_s(t)
(cycle mean omega0) coupled to spectrally separated hot and cold baths.
The drive redistributes the coupling over sidebands omega0 + m*Omega with
Fourier weights P_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from . import lindblad, qcore
from .errors import InvalidParams, NoCoupling, TruncationTooSmall, UnclassifiableState
from .qcore import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X


# --- modulation ---------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicModulation:
    """Gap modulation omega_s(t) with cycle mean omega0.

    Waveforms:
      * ``constant``: omega_s = omega0.
      * ``sinusoidal``: omega_s = omega0 + amplitude * sin(Omega t).
      * ``piecewise_asymmetric``: omega_s = omega0 + amplitude on the first
        ``up_fraction`` of each period and omega0 - amplitude * u/(1-u) on
        the rest, keeping the cycle mean at omega0.
    An unknown waveform or an up_fraction outside (0, 1) raises InvalidParams.
    """

    mean_gap: float
    drive_frequency: float
    waveform: str = "constant"
    amplitude: float = 0.0
    up_fraction: float = 0.5

    def __post_init__(self):
        if not self.drive_frequency > 0:
            raise InvalidParams("drive_frequency must be positive")
        if self.waveform not in ("constant", "sinusoidal",
                                 "piecewise_asymmetric"):
            raise InvalidParams(f"unknown waveform {self.waveform!r}")
        if not 0.0 < self.up_fraction < 1.0:
            raise InvalidParams("up_fraction must lie in (0, 1)")

    @property
    def period(self) -> float:
        return 2 * np.pi / self.drive_frequency

    def gap(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.waveform == "constant":
            return self.mean_gap + 0.0 * t
        if self.waveform == "sinusoidal":
            return self.mean_gap + self.amplitude * np.sin(self.drive_frequency * t)
        u = self.up_fraction  # piecewise_asymmetric
        phase = np.mod(t, self.period) / self.period
        down = -self.amplitude * u / (1.0 - u)
        return self.mean_gap + np.where(phase < u, self.amplitude, down)

    def phase_integral(self, t) -> np.ndarray:
        """Phi(t) = integral_0^t (omega_s - omega0) dt'."""
        t = np.asarray(t, dtype=float)
        w = self.drive_frequency
        if self.waveform == "constant":
            return 0.0 * t
        if self.waveform == "sinusoidal":
            return (self.amplitude / w) * (1.0 - np.cos(w * t))
        u = self.up_fraction  # piecewise_asymmetric
        period = self.period
        down = -self.amplitude * u / (1.0 - u)
        n_full = np.floor(t / period)
        frac = t - n_full * period
        up_time = np.minimum(frac, u * period)
        down_time = np.clip(frac - u * period, 0.0, None)
        # full periods integrate to zero by the mean constraint
        return self.amplitude * up_time + down * down_time


@dataclass(frozen=True)
class SidebandWeights:
    m_max: int
    weights: np.ndarray  # index m + m_max, m in [-m_max, m_max]

    def weight(self, m: int) -> float:
        return float(self.weights[m + self.m_max])

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


def sideband_weights(mod: PeriodicModulation, m_max: int = 40) -> SidebandWeights:
    """Fourier weights P_m = |(1/T) int_0^T e^{-i Phi(t)} e^{-i m Omega t} dt|^2.

    Computed by FFT on a uniform grid of 2^14 points per period
    (spectrally accurate for smooth waveforms). The weights sum to 1 over
    all m; raises TruncationTooSmall when those kept, |m| <= m_max, sum
    below 0.999, so up to 1e-3 of the weight may lie outside the window.
    """
    if m_max < 0:
        raise InvalidParams("m_max must be non-negative")
    if mod.waveform == "constant":
        w = np.zeros(2 * m_max + 1)
        w[m_max] = 1.0
        return SidebandWeights(m_max, w)
    n_samples = 1 << 14
    period = mod.period
    t = np.arange(n_samples) * (period / n_samples)
    f = np.exp(-1j * mod.phase_integral(t))
    # c_m = (1/T) int f(t) e^{-i m Omega t} dt  ->  FFT coefficients / N
    coeffs = np.fft.fft(f) / n_samples
    w = np.zeros(2 * m_max + 1)
    for m in range(-m_max, m_max + 1):
        w[m + m_max] = abs(coeffs[m % n_samples]) ** 2
    total = float(np.sum(w))
    if total < 0.999:
        raise TruncationTooSmall(
            f"sideband weights sum to {total:.6f} at m_max={m_max}; raise m_max"
        )
    return SidebandWeights(m_max, w)


# --- Floquet Hamiltonian --------------------------------------------------------


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


# --- continuous thermal machine --------------------------------------------------


@dataclass(frozen=True)
class CTMConfig:
    """Modulated TLS between spectrally separated hot and cold baths."""

    modulation: PeriodicModulation
    hot_bath: lindblad.BathSpec
    cold_bath: lindblad.BathSpec

    def __post_init__(self):
        if not self.hot_bath.temperature > self.cold_bath.temperature > 0:
            raise InvalidParams("require T_h > T_c > 0")


def spectral_separation_preset(
    omega0: float,
    drive_frequency: float,
    t_hot: float,
    t_cold: float,
    rate: float = 1.0,
    amplitude: Optional[float] = None,
    waveform: str = "sinusoidal",
) -> CTMConfig:
    """Default CTM configuration: hot bath covers only the first upper
    sideband, (omega0, omega0 + 1.5 Omega), cold bath only the first lower
    sideband, (max(0, omega0 - 1.5 Omega), omega0).

    The single-sideband windows make the engine efficiency exactly
    2 Omega / (omega0 + Omega) and pin the mode flip at the critical
    frequency. The amplitude defaults to Omega/2.
    """
    omega = drive_frequency
    if amplitude is None:
        amplitude = 0.5 * omega
    hot_window = (omega0, omega0 + 1.5 * omega)
    cold_window = (max(0.0, omega0 - 1.5 * omega), omega0)
    mod = PeriodicModulation(
        mean_gap=omega0, drive_frequency=omega, waveform=waveform,
        amplitude=amplitude,
    )
    hot = lindblad.BathSpec(
        "hot", t_hot,
        lindblad.SpectralFunction("windowed_flat", rate, window=hot_window),
        SIGMA_X,
    )
    cold = lindblad.BathSpec(
        "cold", t_cold,
        lindblad.SpectralFunction("windowed_flat", rate, window=cold_window),
        SIGMA_X,
    )
    return CTMConfig(mod, hot, cold)


def _channels(cfg: CTMConfig, m_max: int):
    """Active sideband channels: (m, bath, omega_m, P_m * gamma(omega_m)).

    Raises NoCoupling when no sideband falls inside any bath window.
    """
    weights = sideband_weights(cfg.modulation, m_max)
    omega0 = cfg.modulation.mean_gap
    omega = cfg.modulation.drive_frequency
    out = []
    for m in range(-m_max, m_max + 1):
        p = weights.weight(m)
        if p <= 0:
            continue
        w_m = omega0 + m * omega
        if w_m <= 0:
            continue
        for bath in (cfg.hot_bath, cfg.cold_bath):
            g = bath.spectral.positive_side(w_m)
            if p * g > 0:
                out.append((m, bath, w_m, p * g))
    if not out:
        raise NoCoupling("no sideband falls inside any bath window")
    return out


def _population_ratio(channels) -> float:
    num = sum(u * np.exp(-w / b.temperature) for _m, b, w, u in channels)
    den = sum(u for _m, _b, _w, u in channels)
    return float(num / den)


def ctm_steady_state(cfg: CTMConfig, m_max: int = 40) -> float:
    """Excited/ground steady population ratio r of the modulated TLS."""
    return _population_ratio(_channels(cfg, m_max))


def ctm_generator(cfg: CTMConfig, m_max: int = 40):
    """Assemble the explicit sideband GKSL generator (4x4 superoperator).

    Returns (total superoperator, per-bath parts dict, channel list).
    """
    channels = _channels(cfg, m_max)
    parts = {}
    for bath in (cfg.hot_bath, cfg.cold_bath):
        # every sideband of a bath shares the jumps sigma_-/sigma_+, so the
        # bath is one dissipator at the summed down and up rates
        down = sum(u for _m, b, _w, u in channels if b is bath)
        up = sum(u * np.exp(-w_m / bath.temperature)
                 for _m, b, w_m, u in channels if b is bath)
        parts[bath.label] = parts.get(bath.label, 0) + lindblad.dissipator_super(
            np.array([SIGMA_MINUS, SIGMA_PLUS]), [down, up])
    total = sum(parts.values())
    return total, parts, channels


@dataclass(frozen=True)
class CTMReport:
    r: float
    j_hot: float
    j_cold: float
    power: float
    mode: str
    efficiency_or_cop: Optional[float]
    omega_cr: float


def classify_mode(j_h: float, j_c: float, p: float, tol: float = 1e-9) -> str:
    """Operating mode from the steady-current sign table."""
    scale = max(abs(j_h), abs(j_c), abs(p), 1e-300)
    if abs(j_h + j_c + p) > max(tol, 1e-9 * scale) * 10:
        raise UnclassifiableState("first-law residual exceeds tolerance")
    sh = 0 if abs(j_h) <= tol else (1 if j_h > 0 else -1)
    sc = 0 if abs(j_c) <= tol else (1 if j_c > 0 else -1)
    sp = 0 if abs(p) <= tol else (1 if p > 0 else -1)
    if sh == sc == sp == 0:
        return "Off"
    if sh >= 0 and sc <= 0 and sp <= 0:
        return "Engine"
    if sh <= 0 and sc >= 0 and sp >= 0:
        return "Refrigerator"
    if sh <= 0 and sc <= 0 and sp >= 0:
        return "Heater"
    if sh >= 0 and sc <= 0 and sp >= 0:
        # work consumed while heat still flows from hot to cold
        return "Accelerator"
    raise UnclassifiableState(
        f"sign pattern (J_h={j_h}, J_c={j_c}, P={p}) matches no operating mode"
    )


def ctm_currents(cfg: CTMConfig, m_max: int = 40) -> CTMReport:
    """Steady-state heat currents, power, and operating mode.

    J_j = sum_m ((omega0 + m Omega)/omega0) Tr(L_m^j rho_ss H_F) with
    H_F = (omega0/2) sigma_z; P = -(J_h + J_c).
    """
    channels = _channels(cfg, m_max)
    r = _population_ratio(channels)
    omega0 = cfg.modulation.mean_gap
    omega = cfg.modulation.drive_frequency
    p_e = r / (1.0 + r)
    p_g = 1.0 / (1.0 + r)
    currents = {cfg.hot_bath.label: 0.0, cfg.cold_bath.label: 0.0}
    for _m, bath, w_m, u in channels:
        # net upward population flux of this channel at the steady state
        flux = u * (np.exp(-w_m / bath.temperature) * p_g - p_e)
        currents[bath.label] += w_m * flux
    j_h = currents[cfg.hot_bath.label]
    j_c = currents[cfg.cold_bath.label]
    power = -(j_h + j_c)
    t_h, t_c = cfg.hot_bath.temperature, cfg.cold_bath.temperature
    omega_cr = omega0 * (t_h - t_c) / (t_h + t_c)
    mode = classify_mode(j_h, j_c, power)
    eff = None
    if mode == "Engine" and j_h > 0:
        eff = -power / j_h
    elif mode == "Refrigerator" and power > 0:
        eff = j_c / power
    return CTMReport(r, j_h, j_c, power, mode, eff, omega_cr)
