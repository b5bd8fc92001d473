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

import numpy as np

from . import oscillators, qcore
from .errors import DegenerateSpectrum, InvalidParams, TrapInversionWarning


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

    def b(self, t):
        return np.polynomial.polynomial.polyval(t, self.b_coeffs)

    def b_dot(self, t):
        c = np.polynomial.polynomial.polyder(self.b_coeffs)
        return np.polynomial.polynomial.polyval(t, c)

    def b_ddot(self, t):
        c = np.polynomial.polynomial.polyder(self.b_coeffs, 2)
        return np.polynomial.polynomial.polyval(t, c)

    def omega_squared(self, t):
        b = self.b(t)
        return self.omega0**2 / b**4 - self.b_ddot(t) / b

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
    schedule is still returned.
    """
    if omega_i <= 0 or omega_f <= 0 or tau <= 0:
        raise InvalidParams("omega_i, omega_f, tau must be positive")
    b_f = np.sqrt(omega_i / omega_f)
    d = b_f - 1.0
    # smooth-step quintic: 1 + d (10 s^3 - 15 s^4 + 6 s^5), s = t/tau
    coeffs = (1.0, 0.0, 0.0, 10 * d / tau**3, -15 * d / tau**4, 6 * d / tau**5)
    sched = ErmakovSchedule(omega_i, omega_f, tau, coeffs)
    grid = np.linspace(0.0, tau, 1001)
    if np.min(sched.omega_squared(grid)) < 0:
        warnings.warn(
            "schedule requires an inverted trap (omega^2 < 0) at intermediate times",
            TrapInversionWarning,
        )
    return sched


def verify_ermakov_invariant(schedule: ErmakovSchedule, temperature: float = 1.0,
                             n_samples: int = 101) -> float:
    """Max relative drift of <I(t)> for a thermal state driven by the
    schedule's omega(t), over ``n_samples`` equally spaced times.

    The Lewis-Riesenfeld invariant
    I(t) = ½[omega_0² x²/b² + (b p - b' x)²] (unit mass) is quadratic, so
    <I(t)> = ½[omega_0² X/b² + b² P - 2 b b' C + b'² X] follows from the
    covariance X = <x²>, P = <p²>, C = <{x, p}>/2 that
    ``oscillators.ramp_covariance`` propagates from the Gibbs state at
    omega_i. A schedule that inverts the trap raises InvalidParams.
    """
    t_eval = np.linspace(0.0, schedule.tau, n_samples)
    sigma0 = oscillators.thermal_covariance(schedule.omega_i, temperature)
    sigmas = oscillators.ramp_covariance(sigma0, schedule.omega_squared,
                                         schedule.tau, t_eval=t_eval)
    x, c, p = sigmas[:, 0, 0], sigmas[:, 0, 1], sigmas[:, 1, 1]
    b, bd = schedule.b(t_eval), schedule.b_dot(t_eval)
    inv = 0.5 * (schedule.omega0**2 * x / b**2 + b**2 * p - 2 * b * bd * c
                 + bd**2 * x)
    return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))


# --- counterdiabatic driving ---------------------------------------------------------


def _aligned_eig(h: np.ndarray, reference: np.ndarray = None):
    """Eigendecomposition with each eigenvector phase-aligned to the
    corresponding column of ``reference`` (maximal real overlap)."""
    vals, vecs = qcore.hermitian_eig(h)
    if reference is not None:
        overlaps = np.einsum("ij,ij->j", reference.conj(), vecs)
        mags = np.abs(overlaps)
        phases = np.where(mags > 1e-14, overlaps / np.where(mags > 1e-14, mags, 1.0), 1.0)
        vecs = vecs * np.conj(phases)[None, :]
    return vals, vecs


def counterdiabatic(h0_of_t, t: float, dt: float,
                    gap_tol: float = 1e-8) -> np.ndarray:
    """Counterdiabatic term H_CD(t) = i sum_n (|d_t n><n| - <n|d_t n>|n><n|)
    from centered finite-difference eigenvector derivatives.

    Eigenvectors at t +- dt are phase-aligned to those at t before
    differencing, and the residual instantaneous-eigenbasis diagonal
    (a pure gauge) is removed exactly.
    """
    h_mid = np.asarray(h0_of_t(t), dtype=complex)
    vals, vecs = qcore.hermitian_eig(h_mid)
    gaps = np.diff(vals)
    scale = max(np.max(np.abs(vals)), 1.0)
    if np.min(gaps) < gap_tol * scale:
        raise DegenerateSpectrum(
            f"spectral gap {np.min(gaps):.2e} below tolerance at t={t}"
        )
    _, v_plus = _aligned_eig(np.asarray(h0_of_t(t + dt), dtype=complex), vecs)
    _, v_minus = _aligned_eig(np.asarray(h0_of_t(t - dt), dtype=complex), vecs)
    dvecs = (v_plus - v_minus) / (2 * dt)
    h_cd = 1j * (dvecs @ vecs.conj().T)
    h_cd = qcore.hermitianize(h_cd)
    # gauge fix: remove the instantaneous-eigenbasis diagonal
    diag = np.einsum("in,ij,jn->n", vecs.conj(), h_cd, vecs)
    h_cd = h_cd - (vecs * diag[None, :].real) @ vecs.conj().T
    return h_cd
