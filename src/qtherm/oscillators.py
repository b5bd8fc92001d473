"""Harmonic-oscillator dynamics for H(omega) = p²/2 + omega² x²/2 (unit mass).

Second-moment route, used by ``cycles.otto_numeric`` and
``sta.verify_ermakov_invariant``. A Gibbs state is a zero-mean Gaussian,
and frequency ramps and the thermal damping channel keep it one, so the
covariance Sigma = [[<x²>, C], [C, <p²>]], C = <{x, p}>/2, carries every
quadratic observable. A ramp maps Sigma -> M Sigma Mᵀ, with M the 2x2
fundamental matrix of x'' + omega(t)² x = 0 (DOP853). At fixed frequency
the damping channel (jumps a at rate kappa(nbar+1), a† at rate kappa nbar)
relaxes <a†a> to nbar as e^{-kappa t} and turns <a²> as
e^{-(kappa + 2i omega) t}, in closed form. No Fock cutoff enters.

Fock basis. ``destroy`` builds ladder operators for ``battery``. No
function of the package calls ``squeeze``, ``FrequencyRamp`` or
``damp_thermalize``. They stay because the
benchmark's tracer (``bench/tracing.py``) wraps them by name (and this
module's ``solve_ivp``), and the tests use them as the independent Fock
oracle of the second-moment route. Their operators are matrices in the
Fock basis of a reference frequency omega_ref, with
x = (a + a†)/sqrt(2 omega_ref) and p = i sqrt(omega_ref/2)(a† - a).
``FrequencyRamp`` integrates in the instantaneous squeeze frame
S(xi) = exp(xi (a² - a†²)/2), xi = ½ ln(omega(t)/omega_ref), where
S† H(omega) S = omega (a†a + ½) and the remaining frame Hamiltonian holds
only a² and a†² (applied as row shifts). ``damp_thermalize`` is exact: in
the frame where H(omega) is diagonal the dissipator maps rho[m, n] only to
rho[m±1, n±1], so each diagonal m - n of rho evolves under its own
tridiagonal generator, propagated with one matrix exponential.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import expm

from .errors import InvalidParams, NumericalInstability, TooLarge

# the largest phase integral of omega(t) over a ramp, in radians
MAX_RAMP_PHASE = 1e4


# --- second-moment (Gaussian) route -----------------------------------------------


def thermal_covariance(omega: float, temperature: float) -> np.ndarray:
    """Covariance [[<x²>, C], [C, <p²>]] of the Gibbs state of H(omega),
    where <p²> = omega² <x²> = omega (nbar + ½) and C = 0."""
    energy = 0.5 * omega / np.tanh(omega / (2 * temperature))
    return np.diag([energy / omega**2, energy])


def covariance_energy(sigma: np.ndarray, omega: float) -> float:
    """<H(omega)> = <p²>/2 + omega² <x²>/2."""
    return float(0.5 * sigma[1, 1] + 0.5 * omega**2 * sigma[0, 0])


def ramp_covariance(sigma: np.ndarray, omega_squared, tau: float,
                    t_eval=None) -> np.ndarray:
    """Covariance under H(t) = p²/2 + omega(t)² x²/2 for 0 <= t <= tau.

    ``omega_squared`` maps an array of times to omega(t)² element-wise; it
    must be positive on a 4001-point grid of [0, tau], else InvalidParams.
    The phase integral of omega(t), a trapezoid on that grid, may not exceed
    MAX_RAMP_PHASE, else TooLarge: the DOP853 steps grow in proportion to it.
    The fundamental matrix M(t) of x'' + omega(t)² x = 0, M(0) = I, is
    integrated with DOP853 and Sigma(t) = M(t) Sigma M(t)ᵀ. Returns the
    2x2 covariance at tau, or a stack (len(t_eval), 2, 2) at ``t_eval``.
    """
    w2 = np.asarray(omega_squared(np.linspace(0.0, tau, 4001)), dtype=float)
    if not np.all(w2 > 0):  # also rejects NaN
        raise InvalidParams("frequency ramp must stay positive")
    w = np.sqrt(w2)
    phase = float(tau) * float(np.mean(0.5 * (w[1:] + w[:-1])))
    if phase > MAX_RAMP_PHASE:
        raise TooLarge(f"ramp phase {phase:.3g} rad exceeds {MAX_RAMP_PHASE:g}")

    def rhs(t, m):
        # d/dt [[x_x, x_p], [p_x, p_p]] = [[0, 1], [-omega², 0]] M
        w2_t = omega_squared(t)
        return [m[2], m[3], -w2_t * m[0], -w2_t * m[1]]

    sol = solve_ivp(rhs, (0.0, tau), [1.0, 0.0, 0.0, 1.0], t_eval=t_eval,
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise NumericalInstability(f"frequency ramp: {sol.message}")
    m = sol.y.T.reshape(-1, 2, 2)
    out = m @ sigma @ m.transpose(0, 2, 1)
    return out if t_eval is not None else out[-1]


def thermalize_covariance(sigma: np.ndarray, omega: float, temperature: float,
                          kappa: float, tau: float) -> np.ndarray:
    """Covariance after the damping channel of the omega-mode acts for tau.

    In terms of n = <a†a> and A = <a²> of the omega-mode,
    omega² <x²> = omega (n + ½ + Re A), <p²> = omega (n + ½ - Re A) and
    C = Im A. The channel maps n -> nbar + (n - nbar) e^{-kappa tau} and,
    with the free rotation, A -> A e^{-(kappa + 2i omega) tau}.
    """
    x, c, p = sigma[0, 0], sigma[0, 1], sigma[1, 1]
    with np.errstate(over="ignore"):  # e^x = inf is the nbar = 0 limit
        nbar = 1.0 / np.expm1(omega / temperature)
    n = (omega**2 * x + p) / (2 * omega) - 0.5
    a2 = (omega**2 * x - p) / (2 * omega) + 1j * c
    decay = np.exp(-kappa * tau)
    n = nbar + (n - nbar) * decay
    a2 = a2 * decay * np.exp(-2j * omega * tau)
    return np.array([[(n + 0.5 + a2.real) / omega, a2.imag],
                     [a2.imag, omega * (n + 0.5 - a2.real)]])


# --- Fock basis --------------------------------------------------------------------


def destroy(n_max: int) -> np.ndarray:
    """Lowering operator on the (n_max+1)-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


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


class FrequencyRamp:
    """Propagator of H(t) = p²/2 + omega(t)² x²/2 with omega(0) = omega_ref.

    ``propagator(t)`` returns the full Schrödinger-picture propagator
    U(t, 0) in the reference Fock basis.
    """

    def __init__(self, omega_of_t, tau: float, n_max: int, t_eval=None):
        self.tau = float(tau)
        self.n_max = int(n_max)
        ts = np.linspace(0.0, tau, 4001)
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
            t_eval=t_eval, method="DOP853", rtol=1e-11, atol=1e-13,
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
    with np.errstate(over="ignore"):  # e^x = inf is the nbar = 0 limit
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
