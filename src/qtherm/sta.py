"""Shortcuts to adiabaticity.

Two routes are provided: invariant-based frequency schedules for the
harmonic oscillator (the drive omega(t) is reverse-engineered from a
scaling function b(t) satisfying the Ermakov equation
b'' + omega(t)^2 b = omega_0^2 / b^3), and counterdiabatic driving for
arbitrary finite systems, where an auxiliary Hermitian term cancels
diabatic transitions of a time-dependent bare Hamiltonian.

The Ermakov invariant is checked on the second-moment route of
``oscillators``: a thermal state stays Gaussian under the drive, so its
covariance gives <I(t)> exactly, with no Fock cutoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import oscillators, qcore
from .errors import (
    DegenerateSpectrum,
    DimMismatch,
    InvalidParams,
    NumericalInstability,
    TrapInversionWarning,
)


# --- Ermakov schedules ----------------------------------------------------------


@dataclass(frozen=True)
class ErmakovSchedule:
    """Quintic scaling function b(t) and the drive omega(t) it implies."""

    omega_i: float
    omega_f: float
    tau: float
    b_coeffs: tuple  # ascending polynomial coefficients of b(t)

    @property
    def omega0(self) -> float:
        return self.omega_i

    @cached_property
    def _derivative_coeffs(self):  # of b' and b'', once per schedule
        poly = np.polynomial.polynomial
        return poly.polyder(self.b_coeffs), poly.polyder(self.b_coeffs, 2)

    def b(self, t):
        return np.polynomial.polynomial.polyval(t, self.b_coeffs)

    def b_dot(self, t):
        return np.polynomial.polynomial.polyval(t, self._derivative_coeffs[0])

    def b_ddot(self, t):
        return np.polynomial.polynomial.polyval(t, self._derivative_coeffs[1])

    def omega_squared(self, t):
        b = self.b(t)
        return np.square(self.omega0) / b**4 - self.b_ddot(t) / b

    def omega(self, t):
        """Drive frequency; negative omega^2 (inverted trap) maps to nan."""
        w2 = self.omega_squared(t)
        return np.sqrt(np.where(w2 >= 0, w2, np.nan))


def ermakov_schedule(omega_i: float, omega_f: float, tau: float) -> ErmakovSchedule:
    """Minimal (degree-5) polynomial b(t) through the six boundary conditions
    b(0) = 1, b'(0) = b''(0) = 0, b(tau) = sqrt(omega_i/omega_f),
    b'(tau) = b''(tau) = 0.

    Fast schedules may require an inverted trap (omega^2 < 0) at
    intermediate times; this is flagged with TrapInversionWarning but the
    schedule is still returned. A b(t) that is not positive on the check
    grid (rounding loses b_f once omega_f/omega_i nears 1e31), or an
    omega(t)^2 there beyond the float range (omega_i beyond about 1e154,
    or omega_i²/b⁴ overflowing), raises InvalidParams.
    """
    if omega_i <= 0 or omega_f <= 0 or tau <= 0:
        raise InvalidParams("omega_i, omega_f, tau must be positive")
    b_f = np.sqrt(omega_i / omega_f)
    d = b_f - 1.0
    # smooth-step quintic: 1 + d (10 s^3 - 15 s^4 + 6 s^5), s = t/tau
    coeffs = (1.0, 0.0, 0.0, 10 * d / tau**3, -15 * d / tau**4, 6 * d / tau**5)
    sched = ErmakovSchedule(omega_i, omega_f, tau, coeffs)
    grid = np.linspace(0.0, tau, 1001)
    if not np.all(sched.b(grid) > 0):
        raise InvalidParams(f"scaling function b(t) is not positive for "
                            f"omega_f/omega_i = {omega_f / omega_i:.3g}")
    with np.errstate(over="ignore", invalid="ignore"):
        omega_squared = sched.omega_squared(grid)
    if not np.all(np.isfinite(omega_squared)):
        raise InvalidParams("omega(t)^2 leaves the float range")
    if np.min(omega_squared) < 0:
        warnings.warn(
            "schedule requires an inverted trap (omega^2 < 0) at intermediate times",
            TrapInversionWarning,
        )
    return sched


def verify_ermakov_invariant(schedule: ErmakovSchedule,
                             temperature: float = 1.0) -> float:
    """Max relative drift of <I(t)> for a thermal state driven by the
    schedule's omega(t), over 101 equally spaced times.

    The Lewis-Riesenfeld invariant
    I(t) = ½[omega_0² x²/b² + (b p - b' x)²] (unit mass) is quadratic, so
    <I(t)> = ½[omega_0² X/b² + b² P - 2 b b' C + b'² X] follows from the
    covariance X = <x²>, P = <p²>, C = <{x, p}>/2 that
    ``oscillators.ramp_covariance`` propagates from the Gibbs state at
    omega_i, on its sixth-order Magnus product sampled at the 101 times. A
    schedule that inverts the trap, or T <= 0, raises InvalidParams.
    """
    if not temperature > 0:
        raise InvalidParams("temperature must be positive")
    times = np.linspace(0.0, schedule.tau, 101)
    sigma0 = oscillators.thermal_covariance(schedule.omega_i, temperature)
    sigmas = oscillators.ramp_covariance(sigma0, schedule.omega_squared,
                                         schedule.tau, samples=times.size)
    x, c, p = sigmas[:, 0, 0], sigmas[:, 0, 1], sigmas[:, 1, 1]
    b, bd = schedule.b(times), schedule.b_dot(times)
    inv = 0.5 * (schedule.omega0**2 * x / b**2 + b**2 * p - 2 * b * bd * c
                 + bd**2 * x)
    return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))


# --- counterdiabatic driving ---------------------------------------------------------


def counterdiabatic(h0: np.ndarray, h0_dot: np.ndarray) -> np.ndarray:
    """Counterdiabatic term
    H_CD = i sum_{m != n} |m><m| dH0/dt |n><n| / (E_n - E_m)
    in the eigenbasis of the bare Hamiltonian ``h0`` at one instant (Berry's
    form, zero on the diagonal), from its exact time derivative ``h0_dot``.

    A gap between adjacent levels of at most 1e-8 max |E| raises
    DegenerateSpectrum, also when every level is 0 (one level has no gap,
    and its H_CD is 0); a non-finite H0, dH0/dt or H_CD raises
    NumericalInstability.
    """
    h0, h0_dot = (np.asarray(a, dtype=complex) for a in (h0, h0_dot))
    if h0.shape != h0_dot.shape:
        raise DimMismatch(f"H0 {h0.shape} and dH0/dt {h0_dot.shape} differ in shape")
    if not (np.all(np.isfinite(h0)) and np.all(np.isfinite(h0_dot))):
        raise NumericalInstability("H0 or its time derivative is not finite")
    vals, vecs = qcore.hermitian_eig(h0)
    with np.errstate(all="ignore"):
        gap = np.min(np.diff(vals), initial=np.inf)
        if gap <= 1e-8 * np.max(np.abs(vals)):
            raise DegenerateSpectrum(f"spectral gap {gap:.2e} below tolerance")
        denom = vals[None, :] - vals[:, None]  # E_n - E_m at [m, n]
        np.fill_diagonal(denom, np.inf)
        h_cd_eig = 1j * (vecs.conj().T @ h0_dot @ vecs) / denom
        h_cd = vecs @ h_cd_eig @ vecs.conj().T
    if not np.all(np.isfinite(h_cd)):
        raise NumericalInstability("counterdiabatic term is not finite")
    return qcore.hermitianize(h_cd)
