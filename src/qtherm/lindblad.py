"""Static-Hamiltonian GKSL generators, evolution, steady states, and
heat/entropy accounting.

The dissipators are built in the secular form: the coupling operator is
decomposed into jump operators S(omega) between Hamiltonian eigenspaces,
and each frequency gets an independent channel at the KMS-completed rate
gamma(omega). The Lamb shift is omitted. Superoperators use the project's
column-stacking convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import qcore
from .errors import (
    DegenerateSteadyState,
    DimMismatch,
    InvalidParams,
    NumericalInstability,
)


# --- bath specification ------------------------------------------------------


@dataclass(frozen=True)
class SpectralFunction:
    """One-sided coupling spectrum gamma(omega) for omega > 0.

    Families:
      * ``flat``: gamma = base_rate for all omega > 0.
      * ``ohmic_exp_cutoff``: gamma = base_rate * (omega/cutoff) * exp(-omega/cutoff).
      * ``windowed_flat``: gamma = base_rate inside the open interval
        ``window`` = (w_min, w_max), zero elsewhere (used for spectrally
        separated baths; open edges keep the separation frequency itself
        decoupled from both baths).

    The KMS completion gamma(-omega) = exp(-omega/T) gamma(omega) is applied
    by the bath wrapper, never stored here.
    """

    family: str = "flat"
    base_rate: float = 1.0
    cutoff: float = 1.0
    window: Optional[tuple] = None

    def positive_side(self, omega: float) -> float:
        """gamma(omega) for omega >= 0 (before KMS completion)."""
        if self.base_rate < 0:
            raise InvalidParams("base_rate must be non-negative")
        if self.family == "flat":
            return self.base_rate
        if self.family == "ohmic_exp_cutoff":
            if omega <= 0:
                return 0.0
            x = omega / self.cutoff
            return self.base_rate * x * np.exp(-x)
        if self.family == "windowed_flat":
            lo, hi = self.window
            return self.base_rate if lo < omega < hi else 0.0
        raise InvalidParams(f"unknown spectral family {self.family!r}")


@dataclass(frozen=True)
class BathSpec:
    """A thermal bath: temperature, spectrum, and system coupling operator."""

    label: str
    temperature: float
    spectral: SpectralFunction
    coupling_operator: np.ndarray

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidParams("bath temperature must be positive")
        qcore.require_hermitian(self.coupling_operator, tol=1e-10)

    def rate(self, omega: float) -> float:
        """KMS-completed rate at any (signed) frequency."""
        if omega >= 0:
            return self.spectral.positive_side(omega)
        return np.exp(omega / self.temperature) * self.spectral.positive_side(-omega)


@dataclass(frozen=True)
class JumpTerm:
    """Jump operator S(omega) between eigenspaces separated by omega."""

    frequency: float
    operator: np.ndarray
    rate: float = 0.0


# --- generator construction ---------------------------------------------------


def decompose_coupling(s: np.ndarray, h: np.ndarray, degeneracy_tol: float = None):
    """Split a coupling operator into eigenspace jump terms.

    Returns JumpTerms with sum_omega S(omega) = S and [H, S(omega)] = -omega S(omega).
    Gaps closer than ``degeneracy_tol`` (default 1e-9 x spectral radius) merge.
    """
    s = np.asarray(s, dtype=complex)
    vals, vecs = qcore.hermitian_eig(h)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(np.max(np.abs(vals)), 1.0)
    # group eigenvalues into (near-)degenerate clusters
    groups = []
    for idx, e in enumerate(vals):
        if groups and e - vals[groups[-1][0]] <= degeneracy_tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    energies = [np.mean(vals[g]) for g in groups]
    projs = [vecs[:, g] @ vecs[:, g].conj().T for g in groups]
    terms = {}
    for a, (ea, pa) in enumerate(zip(energies, projs)):
        for b, (eb, pb) in enumerate(zip(energies, projs)):
            omega = eb - ea  # S(omega) lowers the energy by omega
            op = pa @ s @ pb
            if np.max(np.abs(op)) < 1e-14 * (1 + np.max(np.abs(s))):
                continue
            key = round(omega / max(degeneracy_tol, 1e-300))
            if key in terms:
                terms[key] = JumpTerm(terms[key].frequency, terms[key].operator + op)
            else:
                terms[key] = JumpTerm(omega, op)
    return sorted(terms.values(), key=lambda t: t.frequency)


def dissipator_super(jump: np.ndarray, rate: float) -> np.ndarray:
    """Superoperator of rate * (S rho S† - ½{S†S, rho})."""
    sd = jump.conj().T
    sds = sd @ jump
    return rate * (
        qcore.sandwich_super(jump, sd)
        - 0.5 * (qcore.left_mult_super(sds) + qcore.right_mult_super(sds))
    )


def hamiltonian_super(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[H, rho]."""
    return -1j * (qcore.left_mult_super(h) - qcore.right_mult_super(h))


@dataclass
class LindbladGenerator:
    """d² x d² GKSL superoperator with per-bath dissipator parts."""

    dim: int
    hamiltonian: np.ndarray
    hamiltonian_part: np.ndarray
    dissipator_parts: dict = field(default_factory=dict)
    jump_terms: dict = field(default_factory=dict)  # bath label -> [(JumpTerm, rate)]

    @property
    def total(self) -> np.ndarray:
        out = self.hamiltonian_part.copy()
        for part in self.dissipator_parts.values():
            out = out + part
        return out


def build_generator(h: np.ndarray, baths) -> LindbladGenerator:
    """Assemble the secular GKSL generator for a Hamiltonian and baths."""
    h = qcore.require_hermitian(h, tol=1e-10)
    d = h.shape[0]
    gen = LindbladGenerator(dim=d, hamiltonian=h, hamiltonian_part=hamiltonian_super(h))
    for bath in baths:
        if bath.coupling_operator.shape != h.shape:
            raise DimMismatch(
                f"bath {bath.label!r} coupling dimension {bath.coupling_operator.shape}"
                f" does not match H {h.shape}"
            )
        part = np.zeros((d * d, d * d), dtype=complex)
        terms = []
        for jt in decompose_coupling(bath.coupling_operator, h):
            rate = bath.rate(jt.frequency)
            terms.append(JumpTerm(jt.frequency, jt.operator, rate))
            if rate > 0:
                part += dissipator_super(jt.operator, rate)
        gen.dissipator_parts[bath.label] = part
        gen.jump_terms[bath.label] = terms
    return gen


# --- evolution and steady state ----------------------------------------------


def evolve(gen: LindbladGenerator, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = expm(L t) applied to rho0 (column-stacked)."""
    if t < 0:
        raise InvalidParams("evolution time must be non-negative")
    v = qcore.matrix_exp(gen.total, scale=t) @ qcore.vectorize(rho0)
    rho = qcore.hermitianize(qcore.devectorize(v))
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-8:
        raise NumericalInstability(f"evolved state has eigenvalue {min_eig}")
    return rho


def evolve_quasi_static(h_of_t: Callable, baths, rho0: np.ndarray, times) -> list:
    """Evolve under a slowly varying Hamiltonian, rebuilding the generator
    per time slice (instantaneous-Hamiltonian GKSL). Validity of the
    quasi-static assumption is the caller's responsibility.

    Returns the list of states at ``times`` (including the initial time).
    """
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho0, dtype=complex)
    out = [rho]
    for t0, t1 in zip(times[:-1], times[1:]):
        gen = build_generator(h_of_t(0.5 * (t0 + t1)), baths)
        rho = evolve(gen, rho, t1 - t0)
        out.append(rho)
    return out


def evolve_ode(h: np.ndarray, jump_rate_pairs, rho0: np.ndarray, t_span, t_eval=None,
               rtol: float = 1e-10, atol: float = 1e-12):
    """Adaptive RK fallback: integrate drho/dt directly in matrix form.

    ``jump_rate_pairs`` is a list of (jump_operator, rate). Useful when the
    superoperator exponential would be too large.
    """
    d = h.shape[0]
    ops = [(np.sqrt(r) * j) for j, r in jump_rate_pairs if r > 0]
    sds = [o.conj().T @ o for o in ops]

    def rhs(_t, y):
        rho = y.reshape(d, d)
        drho = -1j * (h @ rho - rho @ h)
        for o, n in zip(ops, sds):
            drho += o @ rho @ o.conj().T - 0.5 * (n @ rho + rho @ n)
        return drho.reshape(-1)

    sol = solve_ivp(rhs, t_span, np.asarray(rho0, dtype=complex).reshape(-1),
                    t_eval=t_eval, method="DOP853", rtol=rtol, atol=atol)
    return [qcore.hermitianize(y.reshape(d, d)) for y in sol.y.T]


def steady_state(gen: LindbladGenerator, kernel_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one kernel element of the generator."""
    total = gen.total
    _u, s, vh = np.linalg.svd(total)
    scale = s[0] if s[0] > 0 else 1.0
    null_idx = np.where(s <= kernel_tol * scale)[0]
    if len(null_idx) == 0:
        null_idx = [len(s) - 1]
    if len(null_idx) > 1:
        basis = [qcore.devectorize(vh[i].conj()) for i in null_idx]
        raise DegenerateSteadyState(
            f"steady-state kernel has dimension {len(null_idx)}", kernel_basis=basis
        )
    rho = qcore.hermitianize(qcore.devectorize(vh[null_idx[0]].conj()))
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise DegenerateSteadyState("kernel element is traceless", kernel_basis=[rho])
    rho = rho / tr
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise NumericalInstability("steady state not positive semidefinite")
    return rho


# --- thermodynamic bookkeeping -------------------------------------------------


def heat_current(gen_part: np.ndarray, rho: np.ndarray, h: np.ndarray) -> float:
    """J = Tr((L_j rho) H); positive when energy flows into the system."""
    drho = qcore.devectorize(gen_part @ qcore.vectorize(rho))
    return float(np.trace(drho @ h).real)


def entropy_production(gen: LindbladGenerator, rho: np.ndarray, baths) -> float:
    """Spohn functional dS/dt - sum_j J_j / T_j (non-negative for KMS baths)."""
    rho = qcore.hermitianize(np.asarray(rho, dtype=complex))
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 1e-300, None)
    log_rho = (vecs * np.log(vals)) @ vecs.conj().T
    drho = qcore.devectorize(gen.total @ qcore.vectorize(rho))
    ds_dt = -float(np.trace(drho @ log_rho).real)
    flux = 0.0
    for bath in baths:
        j = heat_current(gen.dissipator_parts[bath.label], rho, gen.hamiltonian)
        flux += j / bath.temperature
    return ds_dt - flux


def bath_action(dissipator_of_t: Callable, tau_cyc: float) -> float:
    """Integral of the operator norm (largest singular value) of the
    dissipative superoperator over one cycle."""

    def integrand(t):
        d = dissipator_of_t(t)
        if d is None:
            return 0.0
        d = np.asarray(d)
        if not np.any(d):
            return 0.0
        return float(np.linalg.norm(d, 2))

    val, _err = quad(integrand, 0.0, tau_cyc, limit=200)
    return float(val)
