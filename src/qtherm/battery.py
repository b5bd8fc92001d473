"""Quantum batteries: passive states and ergotropy, multi-copy
passivity, quantum speed limits in Hilbert and energy space,
charging-power bounds, and model charging simulators.

Conventions: hbar = k_B = 1; a battery is N identical cells with bare
Hamiltonian H0 = sum_i h0_i; charging is unitary under a driving
Hamiltonian that is switched on for a finite window. Instantaneous power
is P = d<H0>/dt and is bounded by P^2 <= Var(H0) * I_E where I_E is the
classical Fisher information of the energy distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq

from . import oscillators, qcore
from .errors import (
    CutoffTooSmall,
    DimMismatch,
    InconsistentTrajectory,
    InvalidParams,
    InvalidState,
    TargetUnreached,
    TooLarge,
    UndefinedFraction,
)

DENSE_DIM_BUDGET = 4096
# a charging trace keeps a state of up to DENSE_DIM_BUDGET amplitudes per step
MAX_TIME_STEPS = 10_000
P_FLOOR = 1e-12  # populations below this are dropped from Fisher sums


# --- domain types ------------------------------------------------------------------


@dataclass(frozen=True)
class BatterySpec:
    """N identical cells, each with Hamiltonian ``cell_hamiltonian``."""

    cell_hamiltonian: np.ndarray
    n_cells: int

    def __post_init__(self):
        h = qcore.require_hermitian(
            np.asarray(self.cell_hamiltonian, dtype=complex))
        object.__setattr__(self, "cell_hamiltonian", h)
        if self.n_cells < 1:
            raise InvalidParams("n_cells must be a positive integer")
        if self.dim > DENSE_DIM_BUDGET:
            raise TooLarge(
                f"composite dimension {self.dim} exceeds {DENSE_DIM_BUDGET}")

    @property
    def cell_dim(self) -> int:
        return self.cell_hamiltonian.shape[0]

    @property
    def dim(self) -> int:
        return self.cell_dim ** self.n_cells

    def battery_hamiltonian(self) -> np.ndarray:
        """H0 = sum_i h0_i on the full composite space."""
        d, n = self.cell_dim, self.n_cells
        h0 = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(n):
            ops = [np.eye(d, dtype=complex)] * n
            ops[i] = self.cell_hamiltonian
            h0 += qcore.kron_all(ops)
        return h0


@dataclass(frozen=True)
class ErgotropyReport:
    ergotropy: float
    passive_state: np.ndarray
    passive_energy: float
    thermal_bound: float
    bound_gap: float
    effective_beta: float


@dataclass(frozen=True)
class QSLReport:
    bures_distance: float
    time_averaged_variance: float
    time_averaged_energy: float
    tau_mt: float
    tau_unified: float
    actual_tau: float


@dataclass(frozen=True)
class ChargeTrace:
    """Charging observables on the bare Hamiltonian H0. ``final_fraction``
    (ergotropy over stored energy at the energy-optimal sample) is exactly 1
    for a pure global battery state, 0 when nothing is stored; only
    ``charge_dicke`` reports the fraction of a reduced state."""

    times: np.ndarray
    energies: np.ndarray
    powers: np.ndarray
    variances: np.ndarray
    energy_fisher: np.ndarray
    bound_tightness: np.ndarray
    final_fraction: float
    qsl: QSLReport


# --- passive states and ergotropy -----------------------------------------------------


def _passive(rho: np.ndarray, h: np.ndarray):
    """Spectrum of rho (ascending), levels of h (ascending) and the passive
    state, from one eigendecomposition of each."""
    rho = np.asarray(rho, dtype=complex)
    h = qcore.require_hermitian(np.asarray(h, dtype=complex))
    if rho.shape != h.shape:
        raise DimMismatch("state and Hamiltonian dimensions differ")
    pops = _spectrum(rho)
    eps, vecs = qcore.hermitian_eig(h)
    return pops, eps, (vecs * pops[::-1]) @ vecs.conj().T


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of rho (ascending); InvalidState if one is below -1e-9.
    The trace is not checked: a state given to three digits may sum to
    0.999."""
    pops = np.linalg.eigvalsh(qcore.hermitianize(np.asarray(rho, dtype=complex)))
    if pops[0] < -1e-9:
        raise InvalidState(f"state has a negative eigenvalue {pops[0]:.3g}")
    return pops


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unique passive state of rho: populations sorted descending, paired
    with the energy levels of h sorted ascending (ties broken by the
    ascending energy index of the stable sort)."""
    return _passive(rho, h)[2]


def _entropy(pops: np.ndarray) -> float:
    """Von Neumann entropy of a spectrum; InvalidState outside [0, ln d]
    (a population near the float maximum overflows p ln p to -inf)."""
    nz = pops[pops > 0]
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(-np.sum(nz * np.log(nz)))
    if not -1e-9 <= s <= np.log(len(pops)) + 1e-9:
        raise InvalidState(f"entropy {s} outside [0, ln {len(pops)}]")
    return s


def _gibbs_entropy_energy(eps: np.ndarray, beta: float) -> Tuple[float, float]:
    w = np.exp(-beta * (eps - eps.min()))
    p = w / w.sum()
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz))), float(p @ eps)


def ergotropy(rho: np.ndarray, h: np.ndarray) -> ErgotropyReport:
    """Maximum unitary work Tr(rho h) - Tr(sigma_rho h), plus the
    thermodynamic bound W_max against the entropy-matched Gibbs state,
    whose inverse temperature is searched on [1e-8, 1e8] and clamped to
    the end of that bracket when the target entropy lies beyond it."""
    pops, eps, sigma = _passive(rho, h)
    s_target = _entropy(pops)
    e_rho = float(np.vdot(h, rho).real)  # Tr(h^dagger rho) = Tr(rho h)
    e_pass = float(pops[::-1] @ eps)
    # S(zeta_beta) is monotone decreasing in beta: a root in log beta on
    # [1e-8, 1e8], or the end of the bracket the target lies beyond
    def excess(log_beta: float) -> float:
        return _gibbs_entropy_energy(eps, np.exp(log_beta))[0] - s_target

    lo, hi = np.log(1e-8), np.log(1e8)
    if excess(lo) <= 0:
        beta = 1e-8
    elif excess(hi) >= 0:
        beta = 1e8
    else:
        beta = float(np.exp(brentq(excess, lo, hi, xtol=1e-12, rtol=1e-14)))
    _, e_thermal = _gibbs_entropy_energy(eps, beta)
    w_max = e_rho - e_thermal
    return ErgotropyReport(
        ergotropy=e_rho - e_pass,
        passive_state=sigma,
        passive_energy=e_pass,
        thermal_bound=w_max,
        bound_gap=w_max - (e_rho - e_pass),
        effective_beta=float(beta),
    )


def n_copy_passive_energy(sigma: np.ndarray, h0: np.ndarray, n: int) -> float:
    """Per-cell energy of the passive state of N identical copies of
    ``sigma`` against H0 = sum_i h0_i.

    Both the copies' populations and the composite energies factorize, so
    the passive pairing (populations descending, energies ascending) is
    computed on the product arrays without building composite operators.
    """
    h0 = qcore.require_hermitian(np.asarray(h0, dtype=complex))
    d = h0.shape[0]
    if n < 1:
        raise InvalidParams("need at least one copy")
    # compared in logs so a huge n never forms d**n; the slack keeps
    # d**n == budget inside (the next integer is 2e-4 away in log)
    if n * np.log(d) > np.log(DENSE_DIM_BUDGET) + 1e-9:
        raise TooLarge(f"composite dimension {d}**{n} exceeds {DENSE_DIM_BUDGET}")
    _entropy(_spectrum(sigma))  # rejects a non-state, as ``ergotropy`` does
    evals, evecs = qcore.hermitian_eig(h0)
    pops = np.real(np.einsum("ik,ij,jk->k", evecs.conj(),
                             np.asarray(sigma, dtype=complex), evecs))
    total_e = np.zeros(1)
    total_p = np.ones(1)
    for _ in range(n):
        total_e = np.add.outer(total_e, evals).ravel()
        total_p = np.multiply.outer(total_p, pops).ravel()
    e_passive = float(np.sort(total_p)[::-1] @ np.sort(total_e))
    return e_passive / n


# --- quantum speed limits -------------------------------------------------------------


def _qsl_from_scalars(dist: float, de_tau: float, e_tau: float,
                      tau: float) -> QSLReport:
    if de_tau < 1e-14:
        if dist > 1e-9:
            raise InconsistentTrajectory(
                "finite Bures distance with zero time-averaged energy spread")
        tau_mt = 0.0
        tau_uni = 0.0
    else:
        tau_mt = dist / de_tau
        # Margolus-Levitin branch: 2 D^2 / (pi E), the generalization that
        # is valid at every angle and reduces to D/E at orthogonality
        # (D = pi/2); the linear-in-D form holds only there.
        ml = 2 * dist**2 / (np.pi * e_tau) if e_tau > 1e-14 else 0.0
        tau_uni = max(tau_mt, ml)
    if tau < tau_uni - 1e-9:
        raise InconsistentTrajectory(
            f"actual duration {tau} beats the unified bound {tau_uni}")
    return QSLReport(
        bures_distance=float(dist),
        time_averaged_variance=float(de_tau),
        time_averaged_energy=float(e_tau),
        tau_mt=float(tau_mt),
        tau_unified=float(tau_uni),
        actual_tau=float(tau),
    )


def qsl_report(trajectory: Sequence[Tuple[float, np.ndarray]],
               h_of_t: Callable[[float], np.ndarray]) -> QSLReport:
    """Mandelstam-Tamm and unified speed-limit bounds for a trajectory of
    (time, density matrix) samples driven by h_of_t.

    The unified bound combines the Mandelstam-Tamm branch D/DeltaE_tau with
    the Margolus-Levitin branch 2 D^2 / (pi E_tau), where E_tau is the
    time-averaged mean energy measured from the instantaneous ground state.
    """
    if len(trajectory) < 2:
        raise InvalidParams("need at least two trajectory samples")
    times = np.array([t for t, _ in trajectory], dtype=float)
    tau = float(times[-1] - times[0])
    if not tau > 0:
        raise InvalidParams(f"trajectory duration {tau} must be positive")
    dist = qcore.bures_angle(trajectory[0][1], trajectory[-1][1])
    spreads, means = [], []
    for t, rho in trajectory:
        h = np.asarray(h_of_t(t), dtype=complex)
        e = float(np.trace(rho @ h).real)
        e2 = float(np.trace(rho @ h @ h).real)
        spreads.append(np.sqrt(max(e2 - e**2, 0.0)))
        means.append(e - float(np.linalg.eigvalsh(h).min()))
    de_tau = float(np.trapezoid(spreads, times)) / tau
    e_tau = float(np.trapezoid(means, times)) / tau
    return _qsl_from_scalars(dist, de_tau, e_tau, tau)


# --- energy-space Fisher information and power bound ------------------------------------


def _group_energies(evals: np.ndarray):
    """Degenerate energy levels grouped together by
    ``qcore.level_clusters``. Returns the group energies (each group's
    mean) and the grouping (level order, group starts) that ``_aggregate``
    takes."""
    evals = np.asarray(evals, dtype=float)
    order = np.argsort(evals, kind="stable")
    starts, energies, _tol = qcore.level_clusters(evals[order])
    return energies, (order, starts)


def _aggregate(populations: np.ndarray, groups) -> np.ndarray:
    """Sum population columns over degenerate-energy groups."""
    order, starts = groups
    return np.add.reduceat(populations[:, order], starts, axis=1)


def _power_and_fisher(pops: np.ndarray, dev: np.ndarray,
                      dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Power P = sum_g dev_g dp_g/dt, with dev_g = e_g - <H0>, and Fisher
    information I_E = sum_g (dp_g/dt)^2 / p_g over the same supported terms
    (p_g > P_FLOOR), so the Cauchy-Schwarz bound P^2 <= Var * I_E holds
    sample-wise by construction.

    Restricting both sums to the supported populations also removes the
    finite-difference turn-on artifact: a level whose population is still
    zero at a sample contributes neither flux nor Fisher weight there.
    """
    dp = np.gradient(pops, dt, axis=0)
    mask = pops > P_FLOOR
    dp_kept = np.where(mask, dp, 0.0)
    powers = (dev * dp_kept).sum(axis=1)
    return powers, _fisher(pops, dp, mask)


def _fisher(pops: np.ndarray, dp: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fisher information sum_g dp_g^2 / p_g over the masked populations."""
    terms = np.where(mask, dp**2 / np.where(mask, pops, 1.0), 0.0)
    return terms.sum(axis=1)


def energy_fisher(trajectory: Sequence[np.ndarray], h0: np.ndarray,
                  dt: float) -> np.ndarray:
    """Classical Fisher information I_E(t) = sum_k (dp_k/dt)^2 / p_k of the
    energy distribution, with populations aggregated over degenerate
    levels of h0 and centered time differences (one-sided at the ends)."""
    h0 = qcore.require_hermitian(np.asarray(h0, dtype=complex))
    evals, evecs = qcore.hermitian_eig(h0)
    _energies, groups = _group_energies(evals)
    pops = _aggregate(np.array([
        np.real(np.einsum("ik,ij,jk->k", evecs.conj(),
                          np.asarray(rho, dtype=complex), evecs))
        for rho in trajectory
    ]), groups)
    return _fisher(pops, np.gradient(pops, dt, axis=0), pops > P_FLOOR)


def power_bound_check(trace: ChargeTrace) -> float:
    """Max over samples of P^2 - Var(H0) * I_E (contract: <= 1e-9)."""
    return float(np.max(trace.powers**2
                        - trace.variances * trace.energy_fisher))


def variance_decomposition(rho: np.ndarray, spec: BatterySpec) -> dict:
    """Split Var(H0) into the sum of local cell variances and the
    inter-cell covariance (nonzero only for entangled states)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != spec.dim:
        raise DimMismatch(
            f"state dimension {rho.shape[0]} != composite {spec.dim}")
    space = qcore.CompositeSpace([spec.cell_dim] * spec.n_cells)
    h = spec.cell_hamiltonian
    h2 = h @ h
    hh = np.kron(h, h)
    n = spec.n_cells
    means = np.zeros(n)
    local_sum = 0.0
    for i in range(n):
        r_i = qcore.partial_trace(rho, space, [i])
        means[i] = float(np.trace(r_i @ h).real)
        local_sum += float(np.trace(r_i @ h2).real) - means[i] ** 2
    ent = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r_ij = qcore.partial_trace(rho, space, [i, j])
            ent += 2 * (float(np.trace(r_ij @ hh).real) - means[i] * means[j])
    return {"local_sum": local_sum, "entanglement_part": ent}


# --- quantum advantage ------------------------------------------------------------------


def _first_passage(trace: ChargeTrace, target: float) -> float:
    """First time the energy trace reaches ``target`` (linear interpolation
    between samples)."""
    e = np.asarray(trace.energies, dtype=float)
    t = np.asarray(trace.times, dtype=float)
    if e[0] >= target:
        return float(t[0])
    hits = np.where(e >= target)[0]
    if len(hits) == 0:
        raise TargetUnreached(
            f"energy never reaches {target} (max {e.max()})")
    k = int(hits[0])
    frac = (target - e[k - 1]) / (e[k] - e[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def quantum_advantage(parallel: ChargeTrace, collective: ChargeTrace,
                      target_energy: Optional[float] = None) -> float:
    """Gamma = tau_parallel / tau_collective at first passage of the target
    energy (default: the lesser of the two trace maxima)."""
    e0p, e0c = parallel.energies[0], collective.energies[0]
    scale = max(abs(e0p), abs(e0c), 1.0)
    if abs(e0p - e0c) > 1e-6 * scale:
        raise InvalidParams("traces start from different energies")
    if target_energy is None:
        target_energy = min(np.max(parallel.energies),
                            np.max(collective.energies))
    tau_par = _first_passage(parallel, target_energy)
    tau_col = _first_passage(collective, target_energy)
    if tau_col <= 0:
        raise TargetUnreached("collective trace starts above the target")
    return tau_par / tau_col


def scaling_exponent(sizes, values) -> float:
    """Least-squares slope of log(values) against log(sizes)."""
    return float(np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                            np.log(np.asarray(values, dtype=float)), 1)[0])


# --- model charging simulators ------------------------------------------------------------


def _time_grid(tau: float, dt: float) -> np.ndarray:
    if tau <= 0 or dt <= 0 or tau < 2 * dt:
        raise InvalidParams("need tau > 0, dt > 0 and at least 3 samples")
    with np.errstate(over="ignore"):
        ratio = np.float64(tau) / np.float64(dt)
    if not ratio <= MAX_TIME_STEPS:  # also an overflow to inf
        raise TooLarge(f"tau/dt = {ratio:.3g} exceeds {MAX_TIME_STEPS} time steps")
    n_steps = int(round(float(ratio)))
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


@dataclass(frozen=True)
class _Sector:
    """Orthonormal basis of a symmetry sector of the full space: basis
    vector k is |rows[k]>, or (|rows[k]> + sign |partner[k]>)/sqrt(2) when
    a partner index set is given. Vectors run along the first axis."""

    rows: np.ndarray
    partner: Optional[np.ndarray] = None
    sign: float = 1.0

    def block(self, h: np.ndarray) -> np.ndarray:
        """Matrix of h in this basis. Exact when h leaves the sector
        invariant and, with a partner, commutes with the exchange of rows
        and partner (so h[P, P] = h[R, R] and h[P, R] = h[R, P])."""
        blk = h[np.ix_(self.rows, self.rows)]
        if self.partner is not None:
            blk += self.sign * h[np.ix_(self.rows, self.partner)]
        return blk

    def coords(self, psi: np.ndarray) -> np.ndarray:
        """Components in this basis of full-space vectors."""
        c = psi[self.rows]
        if self.partner is not None:
            c = (c + self.sign * psi[self.partner]) / np.sqrt(2)
        return c

    def embed(self, coords: np.ndarray, out: np.ndarray) -> None:
        """Add the full-space vectors with components ``coords`` to ``out``."""
        if self.partner is None:
            out[self.rows] += coords
        else:
            out[self.rows] += coords / np.sqrt(2)
            out[self.partner] += self.sign * coords / np.sqrt(2)


def _sector_eig(h: np.ndarray, sectors) -> list:
    """Eigenpairs of h one invariant sector at a time: a (sector, levels,
    eigenvectors in the sector basis) triple per sector."""
    return [(sector, *qcore.hermitian_eig(sector.block(h)))
            for sector in sectors]


def _matmul(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """a @ vecs for complex column vectors; a real ``a`` takes the real and
    imaginary parts in one real product (a quarter of the complex flops)."""
    if np.iscomplexobj(a):
        return a @ vecs
    return (a @ np.ascontiguousarray(vecs, dtype=complex).view(float)
            ).view(complex)


def _pure_trace(times: np.ndarray, drive: list, psi0: np.ndarray, h0: list,
                drive_ground: float = None) -> Tuple[ChargeTrace, np.ndarray]:
    """Exact closed evolution of a pure state under a constant drive, with
    all ChargeTrace observables taken on the bare Hamiltonian H0.

    ``drive`` and ``h0`` are eigenpairs sector by sector, as ``_sector_eig``
    returns them; an ``h0`` entry with vectors None is diagonal in its
    sector's basis. The drive sectors must span a subspace holding psi0,
    and the h0 sectors the whole space. The drive's ground level (the
    speed-limit reference) is its lowest level over its sectors unless
    ``drive_ground`` gives it.

    A pure state's ergotropy is its energy above the ground level of H0
    (Allahverdyan et al., EPL 67, 565 (2004)), so the final fraction is 1,
    or 0 when nothing is stored.

    Returns the trace and the sampled full-space states as columns
    (dim x n_times).
    """
    psis = np.zeros((len(psi0), len(times)), dtype=complex)
    levels, weights = [], []
    for sector, vals, vecs in drive:
        c0 = vecs.conj().T @ sector.coords(psi0)
        phases = np.exp(-1j * np.outer(vals, times))
        sector.embed(_matmul(vecs, phases * c0[:, None]), psis)
        levels.append(vals)
        weights.append(np.abs(c0) ** 2)
    vals, probs = np.concatenate(levels), np.concatenate(weights)
    h0_levels = np.concatenate([lv for _, lv, _ in h0])
    pops_full = np.concatenate(
        [np.abs(sector.coords(psis) if vecs is None
                else _matmul(vecs.conj().T, sector.coords(psis))) ** 2
         for sector, _, vecs in h0]).T
    group_e, groups = _group_energies(h0_levels)
    pops = _aggregate(pops_full, groups)
    energies = pops @ group_e
    # central moment: E[H0^2] - E[H0]^2 cancels to below zero at an eigenstate
    dev = group_e[None, :] - energies[:, None]
    variances = (pops * dev**2).sum(axis=1)
    powers, fisher = _power_and_fisher(pops, dev, times[1] - times[0])
    stored = energies.max() - h0_levels.min()
    denom = np.sqrt(variances * fisher)
    tightness = np.where(denom > 1e-300,
                         np.clip(powers / np.where(denom > 0, denom, 1.0),
                                 -1.0, 1.0), 0.0)
    # speed-limit bounds: the drive is constant, so the energy moments are
    # conserved and the time averages are single expectation values
    e_mean = float(probs @ vals)
    e2_mean = float(probs @ vals**2)
    de_tau = np.sqrt(max(e2_mean - e_mean**2, 0.0))
    e_tau = e_mean - float(vals.min() if drive_ground is None
                           else drive_ground)
    # Bures angle arccos|<psi(0)|psi(tau)>| = 2 arcsin(|psi(tau) - e^{i phi}
    # psi(0)| / 2), phi the phase of the overlap: exact to rounding where
    # the overlap is near 1 and arccos is not
    tau = float(times[-1] - times[0])
    phi = np.angle(probs @ np.exp(-1j * vals * tau))
    chord = np.sqrt(probs @ np.sin((vals * tau + phi) / 2) ** 2)
    dist = float(2 * np.arcsin(min(chord, 1.0)))
    qsl = _qsl_from_scalars(dist, de_tau, e_tau, tau)
    trace = ChargeTrace(
        times=times, energies=energies, powers=powers, variances=variances,
        energy_fisher=fisher, bound_tightness=tightness,
        final_fraction=1.0 if stored > 1e-12 else 0.0, qsl=qsl,
    )
    return trace, psis


def charge_spins_xxz(n_cells: int, b: float, g: float, alpha: float, nu: float,
                     interaction_range: str, omega: float, tau: float,
                     dt: float) -> ChargeTrace:
    """XXZ spin battery charged by a perpendicular field.

    Bare battery Hamiltonian H0 = H_B + H_g with field H_B = B sum_i
    sigma_z^i and internal couplings H_g = -sum_{i<j} g_ij [sigma_z sigma_z
    + alpha (sigma_x sigma_x + sigma_y sigma_y)], nearest-neighbor
    (g_ij = g delta_{j,i+1}) or power-law (g_ij = g |i-j|^-nu) range.
    During charging the field is switched off and the state evolves under
    H_c = H_g + omega sum_i sigma_x from the ferromagnetic ground state.
    Energies are reported relative to the initial energy (deposited
    energy), so the isotropic alpha = 1 trace coincides with the
    non-interacting g = 0 one. The battery state is pure, so the final
    fraction is exactly 1 (0 when no energy is stored).

    H0 is diagonalised one magnetisation sector at a time, and H_c in the
    two sectors of the global flip prod_i sigma_x^i.
    """
    if n_cells > 12:
        raise TooLarge("full 2^N representation limited to N <= 12")
    if n_cells < 1:
        raise InvalidParams("n_cells must be a positive integer")
    if interaction_range not in ("nearest_neighbor", "power_law"):
        raise InvalidParams(
            "interaction_range must be 'nearest_neighbor' or 'power_law'")
    dim = 2 ** n_cells
    idx = np.arange(dim)
    # bit i of the index is 0 for spin-up (sigma_z = +1), leftmost = site 0
    spins = np.array([1 - 2 * ((idx >> (n_cells - 1 - i)) & 1)
                      for i in range(n_cells)])
    h_g = np.zeros((dim, dim))
    for i in range(n_cells):
        for j in range(i + 1, n_cells):
            if interaction_range == "nearest_neighbor":
                g_ij = g if j == i + 1 else 0.0
            else:
                g_ij = g * float(j - i) ** (-nu)
            if g_ij == 0.0:
                continue
            h_g[idx, idx] -= g_ij * spins[i] * spins[j]
            # sigma_x sigma_x + sigma_y sigma_y flips anti-aligned pairs
            mask = (1 << (n_cells - 1 - i)) | (1 << (n_cells - 1 - j))
            anti = spins[i] != spins[j]
            h_g[idx[anti] ^ mask, idx[anti]] += -2.0 * g_ij * alpha
    h_drive = h_g.copy()
    for i in range(n_cells):
        h_drive[idx ^ (1 << (n_cells - 1 - i)), idx] += omega
    magnetisation = spins.sum(axis=0)
    h0 = h_g  # H0 = H_g + H_B, built in place
    h0[idx, idx] += b * magnetisation
    # the flip maps index s to dim - 1 - s; the upper half of the indices
    # are the partners of the lower half
    lower = np.arange(dim // 2)
    drive = _sector_eig(h_drive, [_Sector(lower, dim - 1 - lower, sign)
                                  for sign in (1.0, -1.0)])
    h0_eig = _sector_eig(h0, [_Sector(np.flatnonzero(magnetisation == m))
                              for m in np.unique(magnetisation)])
    psi0 = np.zeros(dim, dtype=complex)
    psi0[dim - 1] = 1.0  # all spins down
    times = _time_grid(tau, dt)
    trace, _ = _pure_trace(times, drive, psi0, h0_eig)
    return replace(trace, energies=trace.energies - trace.energies[0])


def charge_lmg(n_cells: int, lam: float, gamma: float, b: float, tau: float,
               dt: float) -> ChargeTrace:
    """Collective-spin battery with bare H0 = B sum_i sigma_z^i charged by
    the Lipkin-Meshkov-Glick interaction (lambda/N) sum_{i<j}
    (sigma_x sigma_x + gamma sigma_y sigma_y), in the symmetric sector.
    The battery state is pure, so the final fraction is exactly 1 (0 when
    no energy is stored)."""
    if n_cells > 14:
        raise TooLarge("symmetric-sector LMG limited to N <= 14")
    j = n_cells / 2.0
    jx, jy, jz = qcore.spin_operators(j)
    sx, sy, sz = 2 * jx, 2 * jy, 2 * jz
    eye = np.eye(n_cells + 1)
    v = (lam / n_cells) * 0.5 * ((sx @ sx - n_cells * eye)
                                 + gamma * (sy @ sy - n_cells * eye))
    h0_diag = b * np.real(np.diag(sz))
    h_drive = np.diag(h0_diag).astype(complex) + v
    whole = _Sector(np.arange(n_cells + 1))
    psi0 = np.zeros(n_cells + 1, dtype=complex)
    psi0[0] = 1.0  # m = -j, the ferromagnetic ground state for b > 0
    times = _time_grid(tau, dt)
    trace, _ = _pure_trace(times, _sector_eig(h_drive, [whole]), psi0,
                           [(whole, h0_diag, None)])
    return trace


def charge_dicke(n_cells: int, n_photons: int, lam: float, rescale: bool,
                 omega: float, omega_c: float, photon_cutoff: int, tau: float,
                 dt: float) -> ChargeTrace:
    """Dicke battery-charger: N two-level cells (battery H0 = omega J_z,
    J = sum_i sigma_i / 2) coupled to a cavity initialized in the Fock
    state |n_photons>; H = omega J_z + omega_c a†a +
    2 omega_c lambda J_x (a + a†), resonant (omega = omega_c).

    ``rescale`` applies lambda -> lambda/sqrt(N). The final fraction is
    the extractable fraction of the reduced battery state at the
    energy-optimal sample.

    H commutes with the parity (-1)^(m + j + n), so only the parity sector
    of the initial state is diagonalised and evolved; the other sector
    gives only its lowest level, for the speed-limit reference.
    """
    if not np.isclose(omega, omega_c):
        raise InvalidParams("resonance omega = omega_c required")
    if n_photons > photon_cutoff:
        raise CutoffTooSmall("initial photon number exceeds the cutoff")
    dim_spin = n_cells + 1
    dim_cav = photon_cutoff + 1
    if dim_spin * dim_cav > DENSE_DIM_BUDGET:
        raise TooLarge("Dicke composite dimension exceeds the dense budget")
    j = n_cells / 2.0
    jx, _jy, jz = (op.real for op in qcore.spin_operators(j))
    a = oscillators.destroy(photon_cutoff).real
    lam_eff = lam / np.sqrt(n_cells) if rescale else lam
    eye_c = np.eye(dim_cav)
    h = (omega * np.kron(jz, eye_c)
         + omega_c * np.kron(np.eye(dim_spin), a.T @ a)
         + 2 * omega_c * lam_eff * np.kron(jx, a + a.T))
    m = np.arange(-j, j + 1)
    h0_diag = omega * np.kron(m, np.ones(dim_cav))
    psi0 = np.zeros(dim_spin * dim_cav, dtype=complex)
    psi0[0 * dim_cav + n_photons] = 1.0  # |m=-j> x |n_photons>
    # index k * dim_cav + n holds m = -j + k, so the parity is (-1)^(k + n)
    parity = np.add.outer(np.arange(dim_spin), np.arange(dim_cav)).ravel() % 2
    start, other = (_Sector(np.flatnonzero(parity == p))
                    for p in (n_photons % 2, 1 - n_photons % 2))
    drive = _sector_eig(h, [start])
    ground = min(drive[0][1][0], sla.eigvalsh(other.block(h),
                                              subset_by_index=[0, 0])[0])
    times = _time_grid(tau, dt)

    trace, psis = _pure_trace(times, drive, psi0,
                              [(_Sector(np.arange(len(psi0))), h0_diag, None)],
                              drive_ground=ground)
    # cavity tail check over the whole trajectory
    blocks = psis.reshape(dim_spin, dim_cav, len(times))
    tail = np.max(np.sum(np.abs(blocks[:, -1, :]) ** 2, axis=0))
    if tail > 1e-8:
        raise CutoffTooSmall(f"top photon level holds population {tail:.2e}")
    block = blocks[:, :, int(np.argmax(trace.energies))]
    try:
        fraction = extractable_fraction(block @ block.conj().T,
                                        omega * np.diag(m))
    except UndefinedFraction:
        fraction = 0.0
    return replace(trace, final_fraction=fraction)


# --- usability of stored energy --------------------------------------------------------


def extractable_fraction(rho_sub: np.ndarray, h_sub: np.ndarray) -> float:
    """f = ergotropy / mean energy of the (possibly reduced) state, with
    the energy counted from the ground level of h_sub.

    One spectrum of each of rho and h gives both: the stored energy is
    Tr(rho h) - E_0 and the ergotropy Tr(rho h) - Tr(sigma_rho h).
    """
    pops, eps, _ = _passive(rho_sub, h_sub)
    e_rho = float(np.vdot(h_sub, rho_sub).real)
    energy = e_rho - eps[0]
    if energy <= 1e-12:
        raise UndefinedFraction(f"stored energy {energy} is not positive")
    _entropy(pops)  # rejects a non-state, as ``ergotropy`` does
    work = e_rho - float(pops[::-1] @ eps)
    return float(min(max(work / energy, 0.0), 1.0))
