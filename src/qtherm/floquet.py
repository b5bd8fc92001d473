"""Periodically modulated two-level machinery: sideband weights and the
continuous thermal machine (CTM).

The CTM is a two-level system with a periodically modulated gap omega_s(t)
(cycle mean omega0) coupled to spectrally separated hot and cold baths.
The drive redistributes the coupling over sidebands omega0 + m*Omega with
Fourier weights P_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import jv

from . import lindblad
from .cycles import _merit, classify_mode
from .errors import (InvalidParams, NoCoupling, NumericalInstability,
                     TruncationTooSmall)


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
    """Fourier weights P_m = |(1/T) int_0^T e^{-i Phi(t)} e^{-i m Omega t} dt|^2
    of the phase Phi(t) = int_0^t (omega_s - omega0) dt', in closed form.

    With a = A/Omega:
      * ``sinusoidal``: Phi = a (1 - cos Omega t), so P_m = J_m(a)^2.
      * ``piecewise_asymmetric``: Phi is linear on each of the two segments,
        slope A for the first u T and -A u/(1-u) for the rest. Each segment
        integrates to a sinc; their phases differ by pi m, so
        P_m = [u sinc((a + m) u) + (-1)^m (1-u) sinc(m (1-u) - a u)]^2
        with sinc(x) = sin(pi x)/(pi x).
      * ``constant``: P_m = delta_m0.
    The weights sum to 1 over all m; raises TruncationTooSmall when those
    kept, |m| <= m_max, sum below 0.999, so up to 1e-3 of the weight may
    lie outside the window. A phase (A/Omega, or A u T of the piecewise
    waveform) beyond the float range raises NumericalInstability.
    """
    with np.errstate(all="ignore"):  # checked in _sideband_weights
        return _sideband_weights(mod, m_max)


def _sideband_weights(mod: PeriodicModulation, m_max: int) -> SidebandWeights:
    """``sideband_weights`` for a caller that has set np.errstate: an
    overflow is checked here, not warned of."""
    if m_max < 0:
        raise InvalidParams("m_max must be non-negative")
    m = np.arange(-m_max, m_max + 1)
    if mod.waveform == "constant":
        return SidebandWeights(m_max, (m == 0).astype(float))
    a = mod.amplitude / mod.drive_frequency
    if mod.waveform == "sinusoidal":
        phase = a
        w = jv(m, a) ** 2
    else:  # piecewise_asymmetric
        u = mod.up_fraction
        phase = mod.amplitude * (u * mod.period)
        sign = 1 - 2 * (m % 2)
        w = (u * np.sinc((a + m) * u)
             + sign * (1 - u) * np.sinc(m * (1 - u) - a * u)) ** 2
    if not (np.isfinite(phase) and np.all(np.isfinite(w))):
        raise NumericalInstability(
            "the modulation phase over one period leaves the float range")
    total = float(np.sum(w))
    if not total >= 0.999:
        raise TruncationTooSmall(
            f"sideband weights sum to {total:.6f} at m_max={m_max}; raise m_max"
        )
    return SidebandWeights(m_max, w)


# --- continuous thermal machine --------------------------------------------------


@dataclass(frozen=True)
class CTMConfig:
    """Modulated TLS between spectrally separated hot and cold baths, each
    given by its temperature and coupling spectrum; both couple through
    sigma_x."""

    modulation: PeriodicModulation
    t_hot: float
    hot_spectrum: lindblad.SpectralFunction
    t_cold: float
    cold_spectrum: lindblad.SpectralFunction

    def __post_init__(self):
        if not self.t_hot > self.t_cold > 0:
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
    return CTMConfig(
        mod,
        t_hot, lindblad.SpectralFunction("windowed_flat", rate, window=hot_window),
        t_cold, lindblad.SpectralFunction("windowed_flat", rate, window=cold_window),
    )


def _channels(cfg: CTMConfig, m_max: int):
    """Active sideband channels: (m, hot, T, omega_m, P_m * gamma(omega_m)),
    with hot True for a channel of the hot bath and T its bath's
    temperature.

    Raises NoCoupling when no sideband falls inside any bath window. A
    sideband beyond the float range is inf, so the caller sets np.errstate.
    """
    weights = _sideband_weights(cfg.modulation, m_max)
    m = np.arange(-m_max, m_max + 1)
    w = cfg.modulation.mean_gap + m * cfg.modulation.drive_frequency
    up = w > 0
    m, w = m[up], w[up]
    sides = ((True, cfg.t_hot), (False, cfg.t_cold))
    u = weights.weights[up, None] * np.stack(
        [cfg.hot_spectrum.positive_side(w), cfg.cold_spectrum.positive_side(w)],
        axis=1)
    out = [(int(m[k]), *sides[j], float(w[k]), float(u[k, j]))
           for k, j in zip(*np.nonzero(u > 0))]  # by m, then hot before cold
    if not out:
        raise NoCoupling("no sideband falls inside any bath window")
    return out


def _population_ratio(channels) -> float:
    num = sum(u * np.exp(-w / t) for _m, _hot, t, w, u in channels)
    den = sum(u for *_, u in channels)
    return float(num / den)


@dataclass(frozen=True)
class CTMReport:
    r: float
    j_hot: float
    j_cold: float
    power: float
    mode: str
    efficiency_or_cop: Optional[float]
    omega_cr: float


def ctm_currents(cfg: CTMConfig, m_max: int = 40) -> CTMReport:
    """Steady-state heat currents, power, and operating mode.

    J_j = sum_m ((omega0 + m Omega)/omega0) Tr(L_m^j rho_ss H_F) with
    H_F = (omega0/2) sigma_z; P = -(J_h + J_c). A current or power beyond
    the float range raises NumericalInstability. The critical frequency
    omega0 (T_h - T_c)/(T_h + T_c) is formed from T_c/T_h, so it overflows
    only where omega0 does.
    """
    with np.errstate(all="ignore"):  # checked below
        channels = _channels(cfg, m_max)
        r = _population_ratio(channels)
        p_e = r / (1.0 + r)
        p_g = 1.0 / (1.0 + r)
        j_h = j_c = 0.0
        for _m, hot, t, w_m, u in channels:
            # net upward population flux of this channel at the steady state
            flux = u * (np.exp(-w_m / t) * p_g - p_e)
            if hot:
                j_h += w_m * flux
            else:
                j_c += w_m * flux
        power = -(j_h + j_c)
        ratio = cfg.t_cold / cfg.t_hot
        omega_cr = cfg.modulation.mean_gap * ((1.0 - ratio) / (1.0 + ratio))
    if not all(map(math.isfinite, (j_h, j_c, power))):
        raise NumericalInstability("CTM heat currents leave the float range")
    mode = classify_mode(j_h, j_c, power)
    return CTMReport(r, j_h, j_c, power, mode, _merit(mode, j_h, j_c, power),
                     omega_cr)
