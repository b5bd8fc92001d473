"""Harmonic-oscillator dynamics for H(omega) = p²/2 + omega² x²/2 (unit mass).

Second-moment route, used by ``cycles.otto_numeric`` and
``sta.verify_ermakov_invariant``. A Gibbs state is a zero-mean Gaussian,
and frequency ramps and the thermal damping channel keep it one, so the
covariance Sigma = [[<x²>, C], [C, <p²>]], C = <{x, p}>/2, carries every
quadratic observable. A ramp maps Sigma -> M Sigma Mᵀ, with M the 2x2
fundamental matrix of x'' + omega(t)² x = 0 (``ramp_fundamental``), a
time-ordered product of closed-form exponentials of sixth-order Magnus
generators on a fixed grid (``qcore.ordered_product``). At fixed
frequency the damping channel (jumps a at rate kappa(nbar+1), a† at rate
kappa nbar) relaxes <a†a> to nbar as e^{-kappa t} and turns <a²> as
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

from . import qcore
from .errors import InvalidParams, NumericalInstability, TooLarge

# the largest phase integral of omega(t) over a ramp, in radians: the
# Magnus steps grow in proportion to the phase
MAX_RAMP_PHASE = 1e4
# a ramp's first Magnus grid has one step per RAMP_STEP_PHASE rad of phase;
# the grid doubles until two grids agree to RAMP_RTOL, at most
# MAX_RAMP_DOUBLINGS times
RAMP_STEP_PHASE = 0.05
RAMP_RTOL = 1e-10
MAX_RAMP_DOUBLINGS = 6
# Magnus steps evaluated and reduced per batch
_RAMP_CHUNK = 2**15
# Gauss-Legendre nodes of [0, 1]
_GL_NODES = 0.5 + np.sqrt(15.0) / 10 * np.array([-1.0, 0.0, 1.0])


# --- second-moment (Gaussian) route -----------------------------------------------


def thermal_covariance(omega: float, temperature: float) -> np.ndarray:
    """Covariance [[<x²>, C], [C, <p²>]] of the Gibbs state of H(omega),
    where <p²> = omega² <x²> = omega (nbar + ½) and C = 0. The squares are
    NumPy's, so one beyond the float range is inf, not an OverflowError."""
    energy = 0.5 * omega / np.tanh(omega / (2 * temperature))
    return np.diag([energy / np.square(omega), energy])


def covariance_energy(sigma: np.ndarray, omega: float) -> float:
    """<H(omega)> = <p²>/2 + omega² <x²>/2."""
    return float(0.5 * sigma[1, 1] + 0.5 * np.square(omega) * sigma[0, 0])


def _magnus_steps(omega_squared, starts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(Omega) over each step [t, t + h], with t from ``starts`` and h
    from ``h`` (broadcast against ``starts``), for x'' + omega(t)² x = 0,
    shape starts.shape + (2, 2).

    Omega = [[a, b], [c, -a]] is the sixth-order Magnus generator
    alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240, with
    C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 + C1]/60, built from
    A = [[0, 1], [-omega², 0]] at the Gauss-Legendre nodes t + c_i h
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)):
    alpha1 = h A_2, alpha2 = (sqrt(15) h/3)(A_3 - A_1) and
    alpha3 = (10 h/3)(A_3 - 2 A_2 + A_1) hold only -d1 and -d2 in their
    lower-left entry, and the commutators are written out below. Omega is
    traceless, so Omega² = (a² + bc) I and
    exp(Omega) = cos r I + (sin r / r) Omega with r² = -(a² + bc), or
    cosh and sinh where a² + bc > 0.
    """
    w = omega_squared(starts[..., None] + h[..., None] * _GL_NODES)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]
    d1 = np.sqrt(15.0) / 3 * h * (w3 - w1)
    d2 = 10.0 / 3 * h * (w3 - 2 * w2 + w1)
    hw2 = h * w2
    a = h * d1 * (1 / 12 + h * hw2 / 180 + h * d2 / 7200)
    b = h + h * h * (h * d1 * d1 / 3600 + d2 / 180)
    c = (-hw2 - d2 / 12
         + h * (hw2 * d2 / 180 + d2 * d2 / 3600 - d1 * d1 / 120
                - h * hw2 * d1 * d1 / 3600))
    q = a * a + b * c
    r = np.sqrt(np.abs(q))
    even, odd = np.cos(r), np.sinc(r / np.pi)
    hyp = q > 0
    if hyp.any():
        even[hyp], odd[hyp] = np.cosh(r[hyp]), np.sinh(r[hyp]) / r[hyp]
    return np.stack([even + odd * a, odd * b, odd * c, even - odd * a],
                    axis=-1).reshape(q.shape + (2, 2))


def _fundamental(omega_squared, tau: float, segments: int,
                 steps: int) -> np.ndarray:
    """M(t_j) at t_j = j tau / segments, j = 1..segments, on the grid of
    ``steps`` Magnus steps per segment and on its doubling, shape
    (2, segments, 2, 2). A batch holds a run of steps of width h and the
    two h/2 steps that halve each, from one ``_magnus_steps`` call; the
    halves are multiplied in pairs (step 2k+1 @ step 2k), which is the first
    level of the doubled grid's pairwise product, so one ordered product
    reduces both grids. A batch holds at most _RAMP_CHUNK steps, so memory
    does not grow with them."""
    h = tau / (segments * steps)
    first = np.arange(segments)[:, None] * steps  # first step of each segment
    per_batch = max(1, _RAMP_CHUNK // (3 * segments))
    seg = np.eye(2)
    for i0 in range(0, steps, per_batch):
        index = first + np.arange(i0, min(i0 + per_batch, steps))
        n = index.shape[1]
        halves = (2 * index[..., None] + np.arange(2)).reshape(segments, 2 * n)
        u = _magnus_steps(omega_squared,
                          np.concatenate([index * h, halves * (h / 2)], axis=1),
                          np.repeat([h, h / 2], [n, 2 * n]))
        fine = u[:, n:].reshape(segments, n, 2, 2, 2)
        both = np.stack([u[:, :n], fine[:, :, 1] @ fine[:, :, 0]])
        seg = qcore.ordered_product(both) @ seg
    out = [seg[:, 0]]
    for m in seg[:, 1:].swapaxes(0, 1):
        out.append(m @ out[-1])
    return np.stack(out, axis=1)


def ramp_fundamental(omega_squared, tau: float, samples: int = None) -> np.ndarray:
    """Fundamental matrix M(t) of x'' + omega(t)² x = 0, M(0) = I, over
    0 <= t <= tau: M maps (x, p) at 0 to (x, p) at t.

    ``omega_squared`` maps an array of times to omega(t)² element-wise; it
    must be positive on a 4001-point grid of [0, tau], else InvalidParams,
    and finite there, else NumericalInstability.
    The phase integral of omega(t), a trapezoid on that grid, may not exceed
    MAX_RAMP_PHASE, else TooLarge. M is a time-ordered product of
    sixth-order Magnus steps on a fixed grid, one step per RAMP_STEP_PHASE
    rad of phase and at least 8. The grid doubles until M agrees with the
    coarser grid's to RAMP_RTOL in the max norm of
    [[x_x, w x_p], [p_x / w, p_p]], w the mean frequency, at every sample;
    it doubles at most MAX_RAMP_DOUBLINGS times, else NumericalInstability,
    as for an overflow or a result that is not finite. Returns the 2x2
    M(tau), or a stack (samples, 2, 2) at ``samples`` equally spaced times
    from 0 (M = I) to tau.
    """
    if samples is not None and samples < 2:
        raise InvalidParams("a ramp needs at least 2 samples")
    w2 = np.asarray(omega_squared(np.linspace(0.0, tau, 4001)), dtype=float)
    if not np.all(w2 > 0):  # also rejects NaN
        raise InvalidParams("frequency ramp must stay positive")
    if not np.all(np.isfinite(w2)):
        raise NumericalInstability("frequency ramp: omega(t)² leaves the float range")
    w = np.sqrt(w2)
    w_mean = float(np.mean(0.5 * (w[1:] + w[:-1])))
    phase = float(tau) * w_mean
    if phase > MAX_RAMP_PHASE:
        raise TooLarge(f"ramp phase {phase:.3g} rad exceeds {MAX_RAMP_PHASE:g}")

    segments = 1 if samples is None else samples - 1
    steps = -(-max(8, int(np.ceil(phase / RAMP_STEP_PHASE))) // segments)
    scale = np.array([[1.0, w_mean], [1.0 / w_mean, 1.0]])
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(MAX_RAMP_DOUBLINGS):
                coarse, m = _fundamental(omega_squared, tau, segments, steps)
                steps *= 2
                err = np.max(np.abs((m - coarse) * scale), axis=(1, 2))
                if np.all(err <= RAMP_RTOL * np.max(np.abs(m * scale), axis=(1, 2))):
                    break
            else:
                raise NumericalInstability(
                    f"frequency ramp: Magnus grids of up to {steps * segments} "
                    f"steps disagree beyond {RAMP_RTOL:g}")
    except FloatingPointError as exc:
        raise NumericalInstability(f"frequency ramp: {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise NumericalInstability("frequency ramp: fundamental matrix is not finite")
    return m[-1] if samples is None else np.concatenate([np.eye(2)[None], m])


def ramp_covariance(sigma: np.ndarray, omega_squared, tau: float,
                    samples: int = None) -> np.ndarray:
    """Covariance under H(t) = p²/2 + omega(t)² x²/2 for 0 <= t <= tau,
    Sigma(t) = M(t) Sigma M(t)ᵀ with M from ``ramp_fundamental`` (which
    holds the checks). Returns the 2x2 covariance at tau, or a stack
    (samples, 2, 2) at ``samples`` equally spaced times from 0 to tau.
    """
    m = ramp_fundamental(omega_squared, tau, samples)
    if samples is None:
        return m @ sigma @ m.T
    m = m[1:]
    return np.concatenate([sigma[None], m @ sigma @ m.transpose(0, 2, 1)])


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
    n = (np.square(omega) * x + p) / (2 * omega) - 0.5
    a2 = (np.square(omega) * x - p) / (2 * omega) + 1j * c
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
