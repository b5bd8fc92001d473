"""Static-Hamiltonian GKSL generators, evolution, steady states, and
heat/entropy accounting.

The dissipators are built in the secular form: the coupling operator is
decomposed into jump operators S(omega) between Hamiltonian eigenspaces,
and each frequency gets an independent channel at the KMS-completed rate
gamma(omega). The Lamb shift is omitted. Superoperators use the project's
column-stacking convention and are dense d² x d² arrays; each bath's
dissipator is built from its stacked jump operators in one matrix product.

The steady state is one LU solve of the generator with its (redundant)
rho_00 row replaced by the trace functional; the kernel is computed by SVD
only to report a degenerate one. Evolution applies exp(L t) to the state
vector with ``scipy.sparse.linalg.expm_multiply`` and never forms the
propagator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply

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


def dissipator_super(jumps: np.ndarray, rates) -> np.ndarray:
    """Superoperator of sum_k r_k (S_k rho S_k† - ½{S_k†S_k, rho}).

    ``jumps`` is one d x d jump operator with a scalar rate, or a stack
    (n, d, d) with a length-n rate vector. The sandwich sum
    sum_k r_k conj(S_k) ⊗ S_k is one (d², n) @ (n, d²) product followed by
    an axis transpose; the anticommutator is built from
    K = sum_k r_k S_k†S_k, added on the diagonal blocks of I ⊗ K and
    K^T ⊗ I without forming either.
    """
    s = np.asarray(jumps, dtype=complex)
    d = s.shape[-1]
    s = s.reshape(-1, d, d)
    r = np.broadcast_to(np.asarray(rates, dtype=float), s.shape[:1])
    flat = s.reshape(-1, d * d)
    # [(p, q), (i, j)] = sum_k r_k conj(S_k[p, q]) S_k[i, j]
    pairs = (flat.conj().T * r) @ flat
    out = pairs.reshape(d, d, d, d).transpose(0, 2, 1, 3).copy()  # [p, i, q, j]
    rows = s.reshape(-1, d)  # S_k[j, :] stacked over (k, j)
    k = (rows.conj().T * np.repeat(r, d)) @ rows
    diag = np.arange(d)
    out[diag, :, diag, :] -= 0.5 * k  # I ⊗ K
    out[:, diag, :, diag] -= 0.5 * k.T  # K^T ⊗ I
    return out.reshape(d * d, d * d)


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
    jump_terms: dict = field(default_factory=dict)  # bath label -> [JumpTerm]

    @property
    def total(self) -> np.ndarray:
        out = self.hamiltonian_part.copy()
        for part in self.dissipator_parts.values():
            out += part
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
        terms = [JumpTerm(jt.frequency, jt.operator, bath.rate(jt.frequency))
                 for jt in decompose_coupling(bath.coupling_operator, h)]
        jumps = np.array([t.operator for t in terms], dtype=complex).reshape(-1, d, d)
        gen.dissipator_parts[bath.label] = dissipator_super(
            jumps, [t.rate for t in terms])
        gen.jump_terms[bath.label] = terms
    return gen


# --- evolution and steady state ----------------------------------------------


def evolve(gen: LindbladGenerator, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(L t) rho0, applied to the column-stacked state by
    ``expm_multiply`` (the d² x d² propagator is never formed)."""
    if t < 0:
        raise InvalidParams("evolution time must be non-negative")
    v = expm_multiply(t * gen.total, qcore.vectorize(rho0))
    rho = qcore.hermitianize(qcore.devectorize(v))
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-8:
        raise NumericalInstability(f"evolved state has eigenvalue {min_eig}")
    return rho


def steady_state(gen: LindbladGenerator, kernel_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one kernel element of the generator.

    The row of the rho_00 equation is redundant (the generator preserves
    the trace), so it is replaced by the trace functional and L x = 0,
    Tr x = 1 is solved by one LU factorisation. A pivot below
    ``kernel_tol`` times the largest, or a residual |L x| above
    ``kernel_tol`` |L| |x|, means the kernel is not one traceful state;
    only then is the kernel computed by SVD, for the exception.
    """
    total = gen.total
    d = gen.dim
    scale = float(np.abs(total).max()) or 1.0
    aug = total.copy()
    aug[0] = 0.0
    aug[0, :: d + 1] = scale  # Tr rho: vec entries k (d + 1), at L's scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)  # exact zero pivot
        lu, piv = sla.lu_factor(aug, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= kernel_tol * pivots.max():
        _raise_degenerate(total, kernel_tol)
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = scale
    x = sla.lu_solve((lu, piv), rhs, check_finite=False)
    residual = np.linalg.norm(total @ x)
    if not residual <= kernel_tol * np.linalg.norm(total) * np.linalg.norm(x):  # or NaN
        _raise_degenerate(total, kernel_tol)
    rho = qcore.hermitianize(qcore.devectorize(x))
    rho = rho / np.trace(rho).real
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise NumericalInstability("steady state not positive semidefinite")
    return rho


def _raise_degenerate(total: np.ndarray, kernel_tol: float):
    """Raise DegenerateSteadyState with the kernel of ``total`` (singular
    values up to ``kernel_tol`` times the largest, at least the smallest)."""
    _u, s, vh = np.linalg.svd(total)
    null_idx = np.where(s <= kernel_tol * s[0])[0]
    if len(null_idx) == 0:
        null_idx = [len(s) - 1]
    basis = [qcore.devectorize(vh[i].conj()) for i in null_idx]
    raise DegenerateSteadyState(
        f"no unique trace-one steady state: kernel of dimension {len(basis)}"
        f" at kernel_tol={kernel_tol:g}", kernel_basis=basis)


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
