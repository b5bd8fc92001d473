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
MAX_TIME_STEPS = 10_000
# a charging trace walks time in chunks of at most this many state
# amplitudes, and keeps only the populations of its energy groups
CHUNK_AMPLITUDES = 2**18
P_FLOOR = 1e-12  # populations below this are dropped from Fisher sums
# an energy spread below this fraction of max |E| of H0 is the rounding
# residue of an H0 eigenstate (a few eps): no power-bound tightness is
# defined there
SPREAD_FLOOR = 1e-13


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


def _gibbs_populations(x: np.ndarray, b: float) -> np.ndarray:
    """Gibbs populations at dimensionless inverse temperature b of the
    levels x (ascending, x[0] = 0)."""
    w = np.exp(-b * x)
    return w / w.sum()


def _gibbs_entropy(x: np.ndarray, b):
    """Entropy ln Z + b <x> of the Gibbs populations of the levels x
    (ascending, x[0] = 0, so Z >= 1 and no population is filtered out) at
    each dimensionless inverse temperature in ``b``."""
    w = np.exp(-np.multiply.outer(b, x))
    z = w.sum(axis=-1)
    return np.log(z) + b * (w * x).sum(axis=-1) / z


def ergotropy(rho: np.ndarray, h: np.ndarray) -> ErgotropyReport:
    """Maximum unitary work Tr(rho h) - Tr(sigma_rho h), plus the
    thermodynamic bound W_max against the entropy-matched Gibbs state.

    Its inverse temperature is searched on the dimensionless levels
    (E - E_min) / (E_max - E_min), as b = beta (E_max - E_min) on
    [1e-8, 1e8] (spread 1 for equal levels), so the result does not depend
    on the energy unit; b is clamped to the end of that bracket when the
    target entropy lies beyond it. InvalidParams when the spread, or beta
    itself (b over the spread), is not a finite float."""
    pops, eps, sigma = _passive(rho, h)
    s_target = _entropy(pops)
    e_rho = float(np.vdot(h, rho).real)  # Tr(h^dagger rho) = Tr(rho h)
    e_pass = float(pops[::-1] @ eps)
    with np.errstate(over="ignore"):
        spread = float(eps[-1] - eps[0]) or 1.0
    if not np.isfinite(spread):
        raise InvalidParams("the level spread overflows a float")
    x = (eps - eps[0]) / spread
    # S(zeta_b) is monotone decreasing in b: a root in log b on
    # [log 1e-8, log 1e8], bracketed by the first of 65 points where the
    # excess is not positive, or the end the target lies beyond
    def excess(log_b):
        return _gibbs_entropy(x, np.exp(log_b)) - s_target

    log_b = np.linspace(np.log(1e-8), np.log(1e8), 65)
    grid = excess(log_b)
    if grid[0] <= 0:
        b = 1e-8
    elif grid[-1] >= 0:
        b = 1e8
    else:
        k = int(np.argmax(grid <= 0))
        b = float(np.exp(brentq(excess, log_b[k - 1], log_b[k], xtol=1e-12,
                                rtol=1e-14)))
    with np.errstate(over="ignore"):
        beta = b / spread
    if not np.isfinite(beta):
        raise InvalidParams(f"level spread {spread:.3g} leaves no finite inverse "
                            f"temperature for the Gibbs bound (beta spread = {b:.3g})")
    e_thermal = float(_gibbs_populations(x, b) @ eps)
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


def _qsl_from_scalars(dist: float, de_tau: float, e_tau: float, tau: float,
                      scale: float) -> QSLReport:
    """Speed-limit bounds from the Bures distance and the time-averaged
    spread and mean energy; the energy floors are relative to ``scale``,
    the energy scale of the Hamiltonian, and the duration slack to tau."""
    if de_tau <= 1e-14 * scale:
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
        ml = 2 * dist**2 / (np.pi * e_tau) if e_tau > 1e-14 * scale else 0.0
        tau_uni = max(tau_mt, ml)
    if tau_uni - tau > 1e-9 * tau:
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


def _binary_scale(x: float) -> float:
    """The power of two s with 1 <= |x|/s < 2 (1 for x = 0)."""
    return float(np.ldexp(1.0, np.frexp(x)[1] - 1)) if x else 1.0


def qsl_report(times, rhos, hs) -> QSLReport:
    """Mandelstam-Tamm and unified speed-limit bounds for the density
    matrices ``rhos`` (k, d, d) sampled at ``times`` (k) under ``hs``: one
    Hamiltonian per sample (k, d, d), or one (d, d) Hamiltonian for all.

    The unified bound combines the Mandelstam-Tamm branch D/DeltaE_tau with
    the Margolus-Levitin branch 2 D^2 / (pi E_tau), where E_tau is the
    time-averaged mean energy measured from the instantaneous ground state.
    """
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    if not (times.ndim == 1 and rhos.shape == times.shape + rhos.shape[-1:] * 2
            and np.shape(hs) in (rhos.shape, rhos.shape[1:])):
        raise DimMismatch(f"times {times.shape}, states {rhos.shape} and "
                          f"Hamiltonians {np.shape(hs)} do not match")
    if len(times) < 2:
        raise InvalidParams("need at least two trajectory samples")
    tau = float(times[-1] - times[0])
    if not tau > 0:
        raise InvalidParams(f"trajectory duration {tau} must be positive")
    hs = np.broadcast_to(np.asarray(hs, dtype=complex), rhos.shape)
    dist = qcore.bures_angle(rhos[0], rhos[-1])
    # energies in units of s and times in units of s_t, the powers of two
    # of max |H| and tau: the scaling is exact, and no square or
    # time-energy product overflows or underflows. s is at least the least
    # normal float, as complex division by s forms 1/s
    h_max = float(np.max(np.abs(hs)))
    s = max(_binary_scale(h_max), np.finfo(float).tiny)
    s_t = _binary_scale(tau)
    hs = hs / s
    # Tr(rho H) and Tr(rho H²) of every sample, and every ground level
    rh = rhos @ hs
    e = np.einsum("kii->k", rh).real
    e2 = np.einsum("kij,kji->k", rh, hs).real
    spreads = np.sqrt(np.maximum(e2 - e**2, 0.0))
    means = e - np.linalg.eigvalsh(hs)[:, 0]
    t, span = times / s_t, tau / s_t
    de_tau = float(np.trapezoid(spreads, t)) / span * s
    e_tau = float(np.trapezoid(means, t)) / span * s
    return _qsl_from_scalars(dist, de_tau, e_tau, tau, h_max)


# --- energy-space Fisher information and power bound ------------------------------------


def _group_energies(evals: np.ndarray):
    """Degenerate energy levels grouped together by
    ``qcore.level_clusters``. Returns the group energies (each group's
    mean, ascending) and each level's group index, which ``_aggregate``
    takes."""
    evals = np.asarray(evals, dtype=float)
    order = np.argsort(evals, kind="stable")
    starts, energies, _tol = qcore.level_clusters(evals[order])
    group = np.empty(len(evals), dtype=int)
    group[order] = np.repeat(np.arange(len(starts)),
                             np.diff(np.append(starts, len(evals))))
    return energies, group


def _aggregate(level_pops: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Sum the rows of level populations (levels x samples) over the
    groups of ``group``: one row per group that holds a level, in the
    order of ``np.unique(group)``."""
    rows = np.argsort(group, kind="stable")
    starts = np.flatnonzero(np.diff(group[rows], prepend=-1))
    return np.add.reduceat(level_pops[rows], starts, axis=0)


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
    _energies, group = _group_energies(evals)
    level_pops = np.einsum("ik,tij,jk->kt", evecs.conj(),
                           np.asarray(trajectory, dtype=complex), evecs).real
    pops = _aggregate(level_pops, group).T
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
    # Tr(r a) = vdot(a, r) for Hermitian a
    for i in range(n):
        r_i = qcore.partial_trace(rho, space, [i])
        means[i] = np.vdot(h, r_i).real
        local_sum += np.vdot(h2, r_i).real - means[i] ** 2
    ent = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r_ij = qcore.partial_trace(rho, space, [i, j])
            ent += 2 * (np.vdot(hh, r_ij).real - means[i] * means[j])
    return {"local_sum": float(local_sum), "entanglement_part": float(ent)}


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
    """Orthonormal basis of a symmetry sector of the full space, for a
    group G of index permutations with a real character chi: basis vector
    k is scale_k sum_g chi_g |images[g, k]>, where images[0] (the identity)
    holds the orbit representatives and scale_k = 1/sqrt(|G| |Stab_k|).
    The trivial group gives a plain index set. Vectors run along the first
    axis; build them with ``_sectors``."""

    images: np.ndarray
    chars: np.ndarray
    scale: np.ndarray

    def _scale_column(self, ndim: int) -> np.ndarray:
        return self.scale.reshape((-1,) + (1,) * (ndim - 1))

    def coords(self, psi: np.ndarray) -> np.ndarray:
        """Components in this basis of full-space vectors."""
        c = psi[self.images[0]]  # a fresh array (chi_0 = 1)
        for chi, img in zip(self.chars[1:], self.images[1:]):
            if chi == 1:
                c += psi[img]
            else:
                c -= psi[img]
        c *= self._scale_column(c.ndim)
        return c

    def embed(self, coords: np.ndarray, out: np.ndarray) -> None:
        """Add the full-space vectors with components ``coords`` to ``out``."""
        coords = coords * self._scale_column(coords.ndim)
        # one orbit never repeats an index within one image row
        for chi, img in zip(self.chars, self.images):
            if chi == 1:
                out[img] += coords
            else:
                out[img] -= coords


def _sectors(perms: np.ndarray, chars, labels=None) -> dict:
    """The sectors of character ``chars`` (chars[g] = +-1, chars[0] = 1) of
    the group whose element g maps index s to perms[g, s], perms[0] being
    the identity: one per value of the group-invariant integer ``labels``
    (default: one value for every index) that holds a vector, keyed by that
    value in ascending order, all from one pass over the orbits. An orbit
    on which the character is not trivial over the stabiliser carries no
    vector."""
    perms = np.asarray(perms)
    chars = np.asarray(chars, dtype=float)
    # an orbit's representative is its least index
    images = perms[:, perms.min(axis=0) == np.arange(perms.shape[1])]
    fixed = images == images[0]
    stab = fixed.sum(axis=0)
    keep = chars @ fixed == stab
    images, stab = images[:, keep], stab[keep]
    label = (np.zeros(len(stab), dtype=int) if labels is None
             else np.asarray(labels)[images[0]])
    order = np.argsort(label, kind="stable")
    values, starts = np.unique(label[order], return_index=True)
    images, scale = images[:, order], 1 / np.sqrt(len(chars) * stab[order])
    ends = np.append(starts[1:], len(order))
    return {v: _Sector(images[:, a:b], chars, scale[a:b])
            for v, a, b in zip(values.tolist(), starts, ends)}


def _blocks(sectors: Sequence[_Sector], entries, dim: int) -> List[np.ndarray]:
    """Matrices in each of ``sectors`` (disjoint sectors of one character)
    of the real dim x dim matrix h whose nonzero entries are ``entries`` =
    (rows, cols, values), each position once: block entry (k, l) is
    |G| scale_k scale_l sum_g chi_g h[images_0[k], images_g[l]]. Exact
    when h leaves every sector invariant and commutes with every
    permutation of the group.

    One lookup from full index to basis position serves all the sectors.
    The entries whose row is a representative are listed once per group
    element, in group order, and one bincount scatters them into a flat
    buffer whose slices are the blocks: it sums in input order, so each
    block entry is summed over g in turn, as the orbit sum reads."""
    if not sectors:
        return []
    rows, cols, vals = entries
    images = np.concatenate([s.images for s in sectors], axis=1)
    sizes = np.array([len(s.scale) for s in sectors])
    offsets = np.concatenate(([0], np.cumsum(sizes**2)))
    size = np.repeat(sizes, sizes)  # of the block of a basis position
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # its first position
    positions = np.arange(len(first))
    # flat index of (position, first column of its block) minus that column
    row_base = np.repeat(offsets[:-1], sizes) + (positions - first) * size - first
    where = np.full(dim, -1)
    where[images[0]] = positions
    r = where[rows]
    kept = r >= 0
    r, cols, vals = r[kept], cols[kept], vals[kept]
    lo, hi, base = first[r], first[r] + size[r], row_base[r]
    flat, weights = [], []
    for chi, img in zip(sectors[0].chars, images):
        where.fill(-1)
        where[img] = positions
        c = where[cols]
        inside = (c >= lo) & (c < hi)
        flat.append(base[inside] + c[inside])
        weights.append(chi * vals[inside])
    total = np.bincount(np.concatenate(flat), np.concatenate(weights),
                        minlength=offsets[-1])
    blocks = []
    for s, a, b in zip(sectors, offsets[:-1], offsets[1:]):
        blk = total[a:b].reshape(len(s.scale), -1)
        blk *= len(s.chars) * s.scale[:, None]
        blk *= s.scale
        blocks.append(blk)
    return blocks


def _sector_eig(sectors: Sequence[_Sector], entries, dim: int) -> list:
    """Eigenpairs of the matrix with nonzero ``entries`` in each of
    ``sectors`` (as ``_blocks`` takes them): a (sector, levels,
    eigenvectors in the sector basis) triple per sector. The blocks are
    real and symmetric by construction, so they go to ``eigh`` unchecked."""
    return [(s, *np.linalg.eigh(blk))
            for s, blk in zip(sectors, _blocks(sectors, entries, dim))]


def _matmul(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """a @ vecs for complex column vectors; a real ``a`` takes the real and
    imaginary parts in one real product (a quarter of the complex flops)."""
    if np.iscomplexobj(a):
        return a @ vecs
    return (a @ np.ascontiguousarray(vecs, dtype=complex).view(float)
            ).view(complex)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _pure_trace(times: np.ndarray, drive: list, psi0: np.ndarray, h0: list,
                bare_levels=(), drive_ground: float = None,
                check_states: Callable[[np.ndarray], None] = None
                ) -> ChargeTrace:
    """Exact closed evolution of a pure state under a constant drive, with
    all ChargeTrace observables taken on the bare Hamiltonian H0.

    ``drive`` and ``h0`` are eigenpairs sector by sector, as ``_sector_eig``
    returns them; an ``h0`` entry with vectors None is diagonal in its
    sector's basis. The drive sectors must span a subspace holding psi0,
    and the h0 sectors one holding every state the drive reaches;
    ``bare_levels`` are the levels of H0 on the rest of the space, which
    enter its ground level, its largest |E| and the grouping of its
    levels. The drive's ground level (the speed-limit reference) is its
    lowest level over its sectors unless ``drive_ground`` gives it.

    Time is walked in chunks of at most CHUNK_AMPLITUDES amplitudes;
    ``check_states``, if given, sees each chunk's full-space states as
    columns (dim x samples). Only the populations of the energy groups are
    kept, and groups that hold no population at any sample are dropped.

    A pure state's ergotropy is its energy above the ground level of H0
    (Allahverdyan et al., EPL 67, 565 (2004)), so the final fraction is 1,
    or 0 when the stored energy is at most 1e-12 of the spread of H0's
    levels.
    """
    coeffs = [vecs.conj().T @ sector.coords(psi0) for sector, _, vecs in drive]
    vals = np.concatenate([v for _, v, _ in drive])
    probs = np.concatenate([_abs2(c) for c in coeffs])
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
    qsl = _qsl_from_scalars(dist, de_tau, e_tau, tau, np.max(np.abs(vals)))

    reached = np.concatenate([lv for _, lv, _ in h0])
    levels = np.concatenate([reached, bare_levels])
    group_e, group = _group_energies(levels)
    group = group[:len(reached)]
    n_t, dim = len(times), len(psi0)
    step = max(1, CHUNK_AMPLITUDES // dim)
    # e^{-iE t_k} for t_k = k dt, k = k0 + qK + r in a chunk from k0, as the
    # product of c e^{-iE t_(k0 + qK)} and e^{-iE t_r} (r < K): two small
    # tables of exps in place of one exp per entry
    K = int(np.ceil(np.sqrt(min(step, n_t))))
    fast = [np.exp(-1j * np.outer(v, times[:K])) for _, v, _ in drive]
    h0_maps = [(sector, None if vecs is None else vecs.conj().T)
               for sector, _, vecs in h0]

    def group_pops(k0: int, k1: int) -> np.ndarray:
        """Populations of the groups that hold a level (groups x samples)
        at samples k0 to k1."""
        psis = np.zeros((dim, k1 - k0), dtype=complex)
        for (sector, v, vecs), c, b in zip(drive, coeffs, fast):
            a = c[:, None] * np.exp(-1j * np.outer(v, times[k0:k1:K]))
            phases = (a[:, :, None] * b[:, None, :]).reshape(len(v), -1)
            sector.embed(_matmul(vecs, phases[:, :k1 - k0]), psis)
        if check_states is not None:
            check_states(psis)
        level_pops = np.concatenate(
            [_abs2(sector.coords(psis) if vecs_h is None
                   else _matmul(vecs_h, sector.coords(psis)))
             for sector, vecs_h in h0_maps])
        return _aggregate(level_pops, group)

    # a chunk's states are freed before the next chunk's are made
    pops = np.concatenate([group_pops(k0, min(k0 + step, n_t))
                           for k0 in range(0, n_t, step)], axis=1)
    present = np.unique(group)
    held = pops.any(axis=1)
    pops = np.ascontiguousarray(pops[held].T)
    group_e = group_e[present[held]]
    energies = pops @ group_e
    # central moment: E[H0^2] - E[H0]^2 cancels to below zero at an eigenstate
    dev = group_e[None, :] - energies[:, None]
    variances = (pops * dev**2).sum(axis=1)
    powers, fisher = _power_and_fisher(pops, dev, times[1] - times[0])
    stored = energies.max() - levels.min()
    spread = levels.max() - levels.min()
    # tightness P / sqrt(Var I_E), 0 where both are rounding residues
    denom = np.sqrt(variances * fisher)
    resolved = ((np.sqrt(variances) > SPREAD_FLOOR * np.max(np.abs(levels)))
                & (denom > 1e-300))
    tightness = np.where(resolved,
                         np.clip(powers / np.where(resolved, denom, 1.0),
                                 -1.0, 1.0), 0.0)
    return ChargeTrace(
        times=times, energies=energies, powers=powers, variances=variances,
        energy_fisher=fisher, bound_tightness=tightness,
        final_fraction=1.0 if stored > 1e-12 * spread else 0.0, qsl=qsl,
    )


def _xxz_entries(n_cells: int, b: float, g: float, alpha: float, nu: float,
                 interaction_range: str, omega: float):
    """Nonzero entries (rows, cols, values) of the XXZ battery's charging
    Hamiltonian H_c and of its H0 on the 2^N basis, from the bit rules of
    their terms (see ``charge_spins_xxz``), each position once. Bit i of an
    index is 0 for spin-up (sigma_z = +1), leftmost = site 0. Also returns
    every index's magnetisation."""
    dim = 2 ** n_cells
    idx = np.arange(dim)
    shifts = np.arange(n_cells - 1, -1, -1)  # of the bit of each site
    masks = 1 << shifts
    spins = 1 - 2 * ((idx >> shifts[:, None]) & 1)
    diag = np.zeros(dim)  # of H_g
    rows, cols, vals = [idx], [idx], [diag]
    for i in range(n_cells):
        for j in range(i + 1, n_cells):
            if interaction_range == "nearest_neighbor":
                g_ij = g if j == i + 1 else 0.0
            else:
                g_ij = g * float(j - i) ** (-nu)
            if g_ij == 0.0:
                continue
            diag -= g_ij * spins[i] * spins[j]
            # sigma_x sigma_x + sigma_y sigma_y flips anti-aligned pairs
            anti = idx[spins[i] != spins[j]]
            rows.append(anti ^ (masks[i] | masks[j]))
            cols.append(anti)
            vals.append(np.full(len(anti), -2.0 * g_ij * alpha))
    magnetisation = spins.sum(axis=0)
    # the drive flips one spin and H_g two, so no position repeats
    drive = tuple(np.concatenate(part) for part in (
        rows + [idx ^ m for m in masks], cols + [idx] * n_cells,
        vals + [np.full(n_cells * dim, float(omega))]))
    vals[0] = diag + b * magnetisation
    h0 = tuple(np.concatenate(part) for part in (rows, cols, vals))
    return drive, h0, magnetisation


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

    g_ij depends on |i - j| only, so the site reflection i -> N - 1 - i
    commutes with H0 and H_c, as does the global flip prod_i sigma_x^i
    with H_c. The all-down start is reflection-even, so H_c is
    diagonalised only on the two reflection-even sectors of flip x
    reflection, of total dimension (2^N + 2^ceil(N/2))/2, and H0 only on
    the reflection-even (magnetisation, +) sectors, which hold every state
    the drive reaches; the reflection-odd (magnetisation, -) sectors give
    only their levels. Where g and alpha have opposite signs the
    reflection-odd sectors of H_c also give their lowest level, for the
    speed-limit reference. Every block is built from the Hamiltonians'
    nonzero entries, with no 2^N x 2^N matrix.
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
    drive_entries, h0_entries, magnetisation = _xxz_entries(
        n_cells, b, g, alpha, nu, interaction_range, omega)
    # the flip maps index s to dim - 1 - s, the reflection reverses its bits
    reflect = sum(((idx >> i) & 1) << (n_cells - 1 - i) for i in range(n_cells))
    group = np.stack([idx, dim - 1 - idx, reflect, dim - 1 - reflect])
    even, odd = ([s for f in (1, -1)
                  for s in _sectors(group, (1, f, r, f * r)).values()]
                 for r in (1, -1))
    drive = [triple for s in even
             for triple in _sector_eig([s], drive_entries, dim)]
    # The speed-limit reference is the global ground of H_c. Where no
    # flip-flop amplitude -2 g_ij alpha is positive, H_c has no positive
    # off-diagonal entry once conjugated by prod_i sigma_z^i if omega > 0
    # (that product commutes with the reflection), so by Perron-Frobenius
    # its ground level has a reflection-even eigenvector. Otherwise the
    # ground can be reflection-odd, and the odd sectors give their lowest
    # level.
    levels = [vals[0] for _, vals, _ in drive]
    if np.sign(g) * np.sign(alpha) < 0:
        levels += [sla.eigvalsh(blk, subset_by_index=[0, 0])[0]
                   for s in odd for blk in _blocks([s], drive_entries, dim)]
    h0_even, h0_odd = (list(_sectors(group[::2], (1, r), magnetisation).values())
                       for r in (1, -1))
    bare = [np.linalg.eigvalsh(blk) for blk in _blocks(h0_odd, h0_entries, dim)]
    psi0 = np.zeros(dim, dtype=complex)
    psi0[dim - 1] = 1.0  # all spins down
    times = _time_grid(tau, dt)
    trace = _pure_trace(times, drive, psi0,
                        _sector_eig(h0_even, h0_entries, dim),
                        np.concatenate([np.zeros(0)] + bare),
                        drive_ground=min(levels))
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
    whole = _sectors(np.arange(n_cells + 1)[None], (1,))[0]
    psi0 = np.zeros(n_cells + 1, dtype=complex)
    psi0[0] = 1.0  # m = -j, the ferromagnetic ground state for b > 0
    times = _time_grid(tau, dt)
    return _pure_trace(times, [(whole, *qcore.hermitian_eig(h_drive))], psi0,
                       [(whole, h0_diag, None)])


def _dicke_entries(n_cells: int, omega: float, omega_c: float,
                   coupling: float, photon_cutoff: int):
    """Nonzero entries (rows, cols, values) of the Dicke Hamiltonian
    omega J_z + omega_c a†a + coupling J_x (a + a†) on the spin x cavity
    basis, index k (photon_cutoff + 1) + n for m = -j + k: the diagonal and
    four couplings (k, n) <-> (k +- 1, n +- 1) per row, each position once."""
    dim_spin, dim_cav = n_cells + 1, photon_cutoff + 1
    jx = qcore.spin_operators(n_cells / 2.0)[0].real
    spin_hop = np.diagonal(jx, 1)  # <m|J_x|m + 1>
    cav_hop = np.diagonal(oscillators.destroy(photon_cutoff).real, 1)  # sqrt(n)
    number = np.concatenate(([0.0], cav_hop**2))  # a†a, as (a^T a) gives it
    m = np.arange(-n_cells / 2.0, n_cells / 2.0 + 1)
    diag = (omega * m[:, None] + omega_c * number[None, :]).ravel()
    low = (np.arange(dim_spin - 1)[:, None] * dim_cav
           + np.arange(dim_cav - 1)[None, :]).ravel()  # (k, n)
    high = low + dim_cav + 1  # (k + 1, n + 1)
    hop = (coupling * np.multiply.outer(spin_hop, cav_hop)).ravel()
    idx = np.arange(dim_spin * dim_cav)
    return (np.concatenate([idx, low, high, low + 1, high - 1]),
            np.concatenate([idx, high, low, high - 1, low + 1]),
            np.concatenate([diag, hop, hop, hop, hop]))


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
    of the initial state is diagonalised and evolved, and H0 evaluated;
    the other sector gives only its lowest level, for the speed-limit
    reference. Both sector blocks come from the Hamiltonian's nonzero
    entries.
    """
    if not np.isclose(omega, omega_c, atol=0.0):  # relative, whatever the unit
        raise InvalidParams("resonance omega = omega_c required")
    if n_photons > photon_cutoff:
        raise CutoffTooSmall("initial photon number exceeds the cutoff")
    dim_spin = n_cells + 1
    dim_cav = photon_cutoff + 1
    dim = dim_spin * dim_cav
    if dim > DENSE_DIM_BUDGET:
        raise TooLarge("Dicke composite dimension exceeds the dense budget")
    lam_eff = lam / np.sqrt(n_cells) if rescale else lam
    entries = _dicke_entries(n_cells, omega, omega_c, 2 * omega_c * lam_eff,
                             photon_cutoff)
    m = np.arange(-n_cells / 2.0, n_cells / 2.0 + 1)
    h0_diag = omega * np.kron(m, np.ones(dim_cav))
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0 * dim_cav + n_photons] = 1.0  # |m=-j> x |n_photons>
    # index k * dim_cav + n holds m = -j + k, so the parity is (-1)^(k + n)
    parity = np.add.outer(np.arange(dim_spin), np.arange(dim_cav)).ravel() % 2
    sectors = _sectors(np.arange(dim)[None], (1,), parity)
    start = sectors[n_photons % 2]
    others = [s for s in sectors.values() if s is not start]
    blocks = _blocks([start] + others, entries, dim)
    drive = [(start, *np.linalg.eigh(blocks[0]))]
    ground = min([drive[0][1][0]] + [sla.eigvalsh(blk, subset_by_index=[0, 0])[0]
                                     for blk in blocks[1:]])
    times = _time_grid(tau, dt)

    def cavity_tail(psis):
        tail = np.max(_abs2(psis.reshape(dim_spin, dim_cav, -1)[:, -1, :])
                      .sum(axis=0))
        if tail > 1e-8:
            raise CutoffTooSmall(f"top photon level holds population {tail:.2e}")

    trace = _pure_trace(times, drive, psi0,
                        [(start, h0_diag[start.images[0]], None)],
                        np.concatenate([h0_diag[s.images[0]] for s in others]
                                       + [np.zeros(0)]),
                        drive_ground=ground, check_states=cavity_tail)
    # the state at the energy-optimal sample, from the drive eigenpairs
    _, vals, vecs = drive[0]
    t = trace.times[int(np.argmax(trace.energies))]
    psi = np.zeros((dim, 1), dtype=complex)
    start.embed(_matmul(vecs, (np.exp(-1j * vals * t)
                               * (vecs.T @ start.coords(psi0)))[:, None]), psi)
    block = psi.reshape(dim_spin, dim_cav)
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
    Tr(rho h) - E_0 and the ergotropy Tr(rho h) - Tr(sigma_rho h). A stored
    energy of at most 1e-12 of the spread of h's levels raises
    UndefinedFraction.
    """
    pops, eps, _ = _passive(rho_sub, h_sub)
    e_rho = float(np.vdot(h_sub, rho_sub).real)
    energy = e_rho - eps[0]
    if energy <= 1e-12 * (eps[-1] - eps[0]):
        raise UndefinedFraction(f"stored energy {energy} is not positive")
    _entropy(pops)  # rejects a non-state, as ``ergotropy`` does
    work = e_rho - float(pops[::-1] @ eps)
    return float(min(max(work / energy, 0.0), 1.0))
