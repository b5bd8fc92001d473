"""Truncated harmonic-oscillator helpers.

All operators are matrices in the Fock basis of a fixed reference frequency
omega_ref, with x = (a + a†)/sqrt(2 omega_ref), p = i sqrt(omega_ref/2)(a† - a)
and unit mass, so H(omega) = p²/2 + omega² x²/2.

Frequency ramps are integrated in the instantaneous squeeze frame: with
xi(t) = ½ ln(omega(t)/omega_ref) and S(xi) = exp(xi (a² - a†²)/2) one has
S† H(omega) S = omega (a†a + ½), so after removing the diagonal phases
analytically the frame Hamiltonian is O(d omega/dt / omega) — tiny for
near-adiabatic ramps — which makes long ramps cheap and accurate. That
frame Hamiltonian only holds a² and a†², which shift a Fock row by two, so
the right-hand side applies them as shifted row scalings.

Thermalization at fixed frequency is solved exactly rather than
integrated. In the frame where H(omega) is diagonal, the damping
dissipator with jump operators a and a† maps rho[m, n] only to
rho[m±1, n±1], so it never mixes the diagonals k = m - n of rho. Each
diagonal obeys its own real tridiagonal linear system, propagated with one
matrix exponential. This holds for the truncated ladder operators as they
are, so it is the same model an ODE solver would integrate, without the
step-size error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import expm

from .errors import CutoffTooSmall, InvalidParams


def destroy(n_max: int) -> np.ndarray:
    """Lowering operator on the (n_max+1)-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


def xp_ops(omega_ref: float, n_max: int):
    a = destroy(n_max)
    x = (a + a.conj().T) / np.sqrt(2 * omega_ref)
    p = 1j * np.sqrt(omega_ref / 2) * (a.conj().T - a)
    return x, p


def hamiltonian(omega: float, omega_ref: float, n_max: int) -> np.ndarray:
    """H(omega) = p²/2 + omega² x²/2 in the reference Fock basis."""
    x, p = xp_ops(omega_ref, n_max)
    return (p @ p) / 2 + (omega**2) * (x @ x) / 2


@lru_cache(maxsize=8)
def _squeeze_eig(n_max: int):
    """Eigenpairs of i (a² - a†²)/2, which do not depend on xi."""
    a = destroy(n_max)
    g = (a @ a - a.conj().T @ a.conj().T) / 2
    # g is anti-Hermitian: diagonalize i*g (Hermitian) once
    vals, vecs = np.linalg.eigh(1j * g)
    vals.flags.writeable = False  # shared by every caller
    vecs.flags.writeable = False
    return vals, vecs


def squeeze(xi: float, n_max: int) -> np.ndarray:
    """S(xi) = exp(xi (a² - a†²)/2)."""
    vals, vecs = _squeeze_eig(n_max)
    return (vecs * np.exp(-1j * xi * vals)) @ vecs.conj().T


def thermal_populations(omega: float, temperature: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    w = np.exp(-omega * n / temperature)
    return w / w.sum()


def thermal_state(omega: float, temperature: float, omega_ref: float, n_max: int,
                  tail_tol: float = 1e-10) -> np.ndarray:
    """Gibbs state of H(omega) expressed in the reference Fock basis."""
    pops = thermal_populations(omega, temperature, n_max)
    if pops[-1] > tail_tol:
        raise CutoffTooSmall(
            f"top Fock level holds population {pops[-1]:.2e} > {tail_tol:.0e}"
        )
    rho = np.diag(pops).astype(complex)
    if abs(omega - omega_ref) < 1e-14 * omega_ref:
        return rho
    s = squeeze(0.5 * np.log(omega / omega_ref), n_max)
    return s @ rho @ s.conj().T


class FrequencyRamp:
    """Propagator of H(t) = p²/2 + omega(t)² x²/2 with omega(0) = omega_ref.

    ``propagator(t)`` returns the full Schrödinger-picture propagator
    U(t, 0) in the reference Fock basis.
    """

    def __init__(self, omega_of_t, tau: float, n_max: int, t_eval=None,
                 grid_points: int = 4001, rtol: float = 1e-11, atol: float = 1e-13):
        self.tau = float(tau)
        self.n_max = int(n_max)
        ts = np.linspace(0.0, tau, grid_points)
        omegas = np.array([float(omega_of_t(t)) for t in ts])
        if not np.all(omegas > 0):  # also rejects the NaN of omega² < 0
            raise InvalidParams("frequency ramp must stay positive")
        self.omega_ref = omegas[0]
        spline = CubicSpline(ts, omegas)
        # omega, d omega/dt and int_0^t omega of the spline as one
        # vector-valued PPoly, so the right-hand side makes one call, not
        # three; the zero-padded high orders add exact zeros, so the values
        # equal those of the three separate polynomials
        coeffs = np.zeros((5, ts.size - 1, 3))
        coeffs[1:, :, 0] = spline.c
        coeffs[2:, :, 1] = spline.derivative().c
        coeffs[:, :, 2] = spline.antiderivative().c
        self._profile = PPoly(coeffs, ts)
        dim = n_max + 1
        # <n|a²|n+2> = sqrt(n+1) sqrt(n+2), the same floats a @ a holds
        up = (np.sqrt(np.arange(1, dim - 1)) * np.sqrt(np.arange(2, dim)))[:, None]

        def rhs(t, y):
            u = y.reshape(dim, dim)
            w, w_dot, alpha = self._profile(t)
            xi_dot = w_dot / (2 * w)
            if xi_dot == 0.0:
                return np.zeros_like(y)
            phase = np.exp(-2j * alpha)
            # a² u moves row n+2 to row n; a†² u moves row n to row n+2
            htilde_u = np.zeros_like(u)
            htilde_u[:-2] = phase * (up * u[2:])
            htilde_u[2:] -= np.conj(phase) * (up * u[:-2])
            htilde_u *= -(xi_dot / 2)
            return htilde_u.reshape(-1)

        w_max = float(np.max(omegas))
        t_eval = None if t_eval is None else np.asarray(t_eval, dtype=float)
        sol = solve_ivp(
            rhs, (0.0, tau), np.eye(dim, dtype=complex).reshape(-1),
            t_eval=t_eval, method="DOP853", rtol=rtol, atol=atol,
            max_step=np.pi / (4 * w_max),
        )
        self._times = sol.t
        self._frames = sol.y.T.reshape(-1, dim, dim)

    @property
    def times(self) -> np.ndarray:
        return self._times

    def propagator_at_index(self, k: int) -> np.ndarray:
        w, _, alpha = self._profile(self._times[k])
        xi = 0.5 * np.log(w / self.omega_ref)
        phases = np.exp(-1j * (np.arange(self.n_max + 1) + 0.5) * alpha)
        u = phases[:, None] * self._frames[k]
        if xi != 0.0:
            u = squeeze(xi, self.n_max) @ u
        return u

    def propagator(self, t: float = None) -> np.ndarray:
        if t is None:
            return self.propagator_at_index(len(self._times) - 1)
        k = int(np.argmin(np.abs(self._times - t)))
        if abs(self._times[k] - t) > 1e-9 * max(1.0, self.tau):
            raise InvalidParams("requested time was not in t_eval")
        return self.propagator_at_index(k)


def damp_thermalize(rho: np.ndarray, omega: float, omega_ref: float,
                    temperature: float, kappa: float, tau: float,
                    n_max: int) -> np.ndarray:
    """Thermalize an oscillator of frequency omega toward temperature T.

    Standard damping channel with jump operators a (rate kappa(nbar+1)) and
    a† (rate kappa nbar) of the omega-mode, solved in the interaction
    picture of H(omega) where the dissipator is time independent. There,
    the dissipator couples rho[m, n] only to rho[m±1, n±1], with the
    truncated a a† = diag(1, ..., n_max, 0), so each diagonal k = m - n
    evolves on its own under a real tridiagonal generator G_k. Diagonals k
    and -k share G_k, and exp(G_k tau) propagates both exactly. The free
    phase is restored at the end.
    """
    xi = 0.5 * np.log(omega / omega_ref)
    s = squeeze(xi, n_max) if xi != 0.0 else np.eye(n_max + 1, dtype=complex)
    rho_f = s.conj().T @ rho @ s  # frame where H = omega(n + 1/2) is diagonal
    nbar = 1.0 / np.expm1(omega / temperature)
    g_down = kappa * (nbar + 1)
    g_up = kappa * nbar
    dim = n_max + 1
    levels = np.arange(dim)
    aad = np.append(levels[1:], 0)  # diagonal of the truncated a a†
    out = np.empty_like(rho_f)
    for k in range(dim):
        m = levels[k:]  # the elements rho[m, j] of diagonal k
        j = m - k
        gen = np.diag(-0.5 * (g_down * (m + j) + g_up * (aad[m] + aad[j])))
        # a rho a† feeds rho[m, j] from rho[m+1, j+1]
        gen += np.diag(g_down * np.sqrt((m[:-1] + 1) * (j[:-1] + 1)), 1)
        # a† rho a feeds rho[m, j] from rho[m-1, j-1]
        gen += np.diag(g_up * np.sqrt(m[1:] * j[1:]), -1)
        prop = expm(gen * tau)
        out[m, j] = prop @ rho_f[m, j]
        out[j, m] = prop @ rho_f[j, m]
    phases = np.exp(-1j * omega * (levels + 0.5) * tau)
    out = phases[:, None] * out * np.conj(phases)[None, :]
    return s @ out @ s.conj().T
