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

from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.optimize import brentq

from . import oscillators, qcore
from .errors import (
    CutoffTooSmall,
    DimMismatch,
    InconsistentTrajectory,
    InvalidParams,
    InvalidState,
    NumericalInstability,
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
    """Spectrum of rho (ascending) and its entropy, levels of h (ascending)
    and the passive state, from one eigendecomposition of each."""
    rho = np.asarray(rho, dtype=complex)
    h = qcore.require_hermitian(np.asarray(h, dtype=complex))
    if rho.shape != h.shape:
        raise DimMismatch("state and Hamiltonian dimensions differ")
    pops, entropy = _spectrum(rho)
    eps, vecs = qcore.hermitian_eig(h)
    return pops, entropy, eps, (vecs * pops[::-1]) @ vecs.conj().T


def _spectrum(rho: np.ndarray):
    """Eigenvalues of rho (ascending) and its von Neumann entropy;
    InvalidState if an eigenvalue is below -1e-9 or the entropy lies
    outside [0, ln d] (a population near the float maximum overflows
    p ln p to -inf). The trace is not checked: a state given to three
    digits may sum to 0.999."""
    pops = np.linalg.eigvalsh(qcore.hermitianize(np.asarray(rho, dtype=complex)))
    if pops[0] < -1e-9:
        raise InvalidState(f"state has a negative eigenvalue {pops[0]:.3g}")
    nz = pops[pops > 0]
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(-np.sum(nz * np.log(nz)))
    if not -1e-9 <= s <= np.log(len(pops)) + 1e-9:
        raise InvalidState(f"entropy {s} outside [0, ln {len(pops)}]")
    return pops, s


def passive_state(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unique passive state of rho: populations sorted descending, paired
    with the energy levels of h sorted ascending (ties broken by the
    ascending energy index of the stable sort)."""
    return _passive(rho, h)[3]


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
    pops, s_target, eps, sigma = _passive(rho, h)
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

    The spectrum of the N copies is the products of sigma's eigenvalues and
    the composite levels are the sums of h0's, so the passive pairing
    (populations descending, energies ascending) is computed on the product
    arrays without building composite operators. DimMismatch unless sigma
    has h0's shape.
    """
    h0 = qcore.require_hermitian(np.asarray(h0, dtype=complex))
    if np.shape(sigma) != h0.shape:
        raise DimMismatch("state and Hamiltonian dimensions differ")
    d = h0.shape[0]
    if n < 1:
        raise InvalidParams("need at least one copy")
    # compared in logs so a huge n never forms d**n; the slack keeps
    # d**n == budget inside (the next integer is 2e-4 away in log)
    if n * np.log(d) > np.log(DENSE_DIM_BUDGET) + 1e-9:
        raise TooLarge(f"composite dimension {d}**{n} exceeds {DENSE_DIM_BUDGET}")
    pops = _spectrum(sigma)[0]  # rejects a non-state, as ``ergotropy`` does
    evals = np.linalg.eigvalsh(h0)
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


def _aggregate(group: np.ndarray) -> sparse.csr_array:
    """The indicator (groups x levels) whose product with level
    populations (levels x samples) sums them over the groups of ``group``:
    one row per group that holds a level, in the order of
    ``np.unique(group)``, each summing its levels in index order."""
    counts = np.bincount(group)
    indptr = np.concatenate(([0], np.cumsum(counts[counts > 0])))
    return sparse.csr_array((np.ones(len(group)),
                             np.argsort(group, kind="stable"), indptr),
                            shape=(len(indptr) - 1, len(group)))


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
    pops = (_aggregate(group) @ level_pops).T
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
    The trivial group gives a plain index set. Build them with
    ``_sectors``; the arrays are read-only."""

    images: np.ndarray
    chars: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        _freeze(self)

    def basis_coords(self, index: int) -> np.ndarray:
        """Components in this basis of the full-space basis vector
        |index>."""
        return (self.chars @ (self.images == index)) * self.scale


def _freeze(record):
    """``record`` (a dataclass or a NamedTuple), its array fields made
    read-only: sectors, plans and layouts may be cached and shared between
    calls."""
    values = (record if isinstance(record, tuple)
              else [getattr(record, f.name) for f in fields(record)])
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return record


def _sectors(perms: np.ndarray, chars, labels=None) -> dict:
    """The sectors of character ``chars`` (chars[g] = +-1, chars[0] = 1) of
    the group whose element g maps index s to perms[g, s], perms[0] being
    the identity: one per value of the group-invariant integer ``labels``
    (default: one value for every index) that holds a vector, keyed by that
    value in ascending order, all from one pass over the orbits. An orbit
    on which the character is not trivial over the stabiliser carries no
    vector."""
    perms = np.asarray(perms)
    chars = np.array(chars, dtype=float)
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


def _joined(pieces: Sequence[_Sector]) -> Optional[_Sector]:
    """The sector spanned by disjoint sectors of one character, their basis
    vectors in turn; None for no pieces."""
    if not pieces:
        return None
    return _Sector(np.concatenate([p.images for p in pieces], axis=1),
                   pieces[0].chars, np.concatenate([p.scale for p in pieces]))


class _BlockPlan(NamedTuple):
    """Where the entries of a matrix land in the blocks of ``sectors`` (see
    ``_block_plan``): for each term of the orbit sums, in summation order,
    the entry it reads, its character and its position in a flat buffer
    that holds the blocks one after another. The arrays are read-only."""

    sectors: Tuple[_Sector, ...]
    source: np.ndarray
    sign: np.ndarray
    flat: np.ndarray
    offsets: np.ndarray

    def blocks(self, vals: np.ndarray) -> List[np.ndarray]:
        """The blocks of the matrix whose entries at the planned positions
        are ``vals``: one bincount sums each block entry over g in turn,
        as the orbit sum reads, and the orbit scales then multiply it."""
        total = np.bincount(self.flat, self.sign * vals[self.source],
                            minlength=self.offsets[-1])
        blocks = []
        for s, a, b in zip(self.sectors, self.offsets[:-1], self.offsets[1:]):
            blk = total[a:b].reshape(len(s.scale), -1)
            blk *= len(s.chars) * s.scale[:, None]
            blk *= s.scale
            blocks.append(blk)
        return blocks


def _block_plan(sectors: Sequence[_Sector], rows: np.ndarray,
                cols: np.ndarray, dim: int) -> _BlockPlan:
    """The plan of the matrices in each of ``sectors`` (disjoint sectors of
    one character) of a real dim x dim matrix h whose nonzero entries sit
    at (rows, cols), each position once: block entry (k, l) is
    |G| scale_k scale_l sum_g chi_g h[images_0[k], images_g[l]]. Exact
    when h leaves every sector invariant and commutes with every
    permutation of the group. The plan depends on where the entries sit,
    not on their values.

    One lookup from full index to basis position serves all the sectors.
    The entries whose row is a representative are listed once per group
    element, in group order, so that a bincount over the plan sums each
    block entry over g in turn. No sectors give a plan of no blocks."""
    if not sectors:
        return _freeze(_BlockPlan((), np.zeros(0, np.int32),
                                  np.zeros(0, np.int8), np.zeros(0, np.int32),
                                  np.zeros(1, int)))
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
    kept = np.flatnonzero(r >= 0)
    r, cols = r[kept], cols[kept]
    lo, hi, base = first[r], first[r] + size[r], row_base[r]
    flat, source, sign = [], [], []
    for chi, img in zip(sectors[0].chars, images):
        where.fill(-1)
        where[img] = positions
        c = where[cols]
        inside = (c >= lo) & (c < hi)
        flat.append(base[inside] + c[inside])
        source.append(kept[inside])
        sign.append(np.full(len(flat[-1]), chi, dtype=np.int8))
    return _freeze(_BlockPlan(
        tuple(sectors), np.concatenate(source).astype(np.int32),
        np.concatenate(sign), np.concatenate(flat).astype(np.int32), offsets))


def _blocks(sectors: Sequence[_Sector], entries, dim: int) -> List[np.ndarray]:
    """Matrices in each of ``sectors`` of the matrix whose nonzero entries
    are ``entries`` = (rows, cols, values), as ``_block_plan`` defines
    them."""
    rows, cols, vals = entries
    return _block_plan(sectors, rows, cols, dim).blocks(vals)


def _matmul(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """a @ vecs for complex column vectors whose rows are contiguous (a
    column slice is); a real ``a`` takes the real and imaginary parts in
    one real product (a quarter of the complex flops), on a view."""
    if np.iscomplexobj(a):
        return a @ vecs
    return (a @ vecs.view(float)).view(complex)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


# an overflow, or the nan it makes, is caught by the finiteness check at
# the end
@np.errstate(over="ignore", invalid="ignore")
def _pure_trace(times: np.ndarray, dim: int, drive: list, reached: np.ndarray,
                populations: Callable[[list], np.ndarray], bare_levels,
                drive_ground: float) -> ChargeTrace:
    """Exact closed evolution of a pure state of a dim-dimensional space
    under a constant drive, with all ChargeTrace observables taken on the
    bare Hamiltonian H0, in the coordinates of the drive's sectors: no
    full-space state is formed.

    ``drive`` holds, per drive sector, its levels E, the amplitudes c of
    the initial state on its eigenvectors and transfer rows T; the sectors
    must span a subspace holding the initial state. ``populations`` maps
    the products T (c e^{-iEt}) of all the sectors (rows x samples) to the
    populations of ``reached``, the levels of H0 on a subspace holding
    every state the drive reaches, in that order. ``bare_levels`` are the levels
    of H0 on the rest of the space, which enter its ground level, its
    largest |E| and the grouping of its levels. ``drive_ground`` is the
    drive's ground level over the whole space, the speed-limit reference.

    Time is walked in chunks of CHUNK_AMPLITUDES // dim samples (at least
    one). Only the populations of the energy groups are kept, and groups
    that hold no population at any sample are dropped. NumericalInstability
    if an observable (or a power squared, or Var(H0) I_E) is not a finite
    float.

    A pure state's ergotropy is its energy above the ground level of H0
    (Allahverdyan et al., EPL 67, 565 (2004)), so the final fraction is 1,
    or 0 when the stored energy is at most 1e-12 of the spread of H0's
    levels.
    """
    vals = np.concatenate([v for v, _, _ in drive])
    probs = np.concatenate([_abs2(c) for _, c, _ in drive])
    # speed-limit bounds: the drive is constant, so the energy moments are
    # conserved and the time averages are single expectation values (NumPy
    # floats, whose squares overflow to inf as the arrays' do)
    e_mean = probs @ vals
    e2_mean = probs @ vals**2
    de_tau = np.sqrt(max(e2_mean - e_mean**2, 0.0))
    e_tau = e_mean - drive_ground
    # Bures angle arccos|<psi(0)|psi(tau)>| = 2 arcsin(|psi(tau) - e^{i phi}
    # psi(0)| / 2), phi the phase of the overlap: exact to rounding where
    # the overlap is near 1 and arccos is not
    tau = float(times[-1] - times[0])
    phi = np.angle(probs @ np.exp(-1j * vals * tau))
    chord = np.sqrt(probs @ np.sin((vals * tau + phi) / 2) ** 2)
    dist = float(2 * np.arcsin(min(chord, 1.0)))
    qsl = _qsl_from_scalars(dist, de_tau, e_tau, tau, np.max(np.abs(vals)))

    levels = np.concatenate([reached, bare_levels])
    group_e, group = _group_energies(levels)
    group = group[:len(reached)]
    indicator = _aggregate(group)
    n_t = len(times)
    step = max(1, CHUNK_AMPLITUDES // dim)
    # e^{-iE t_k} for t_k = k dt, k = k0 + qK + r in a chunk from k0, as the
    # product of c e^{-iE t_(k0 + qK)} and e^{-iE t_r} (r < K): two small
    # tables of exps in place of one exp per entry
    K = int(np.ceil(np.sqrt(min(step, n_t))))
    fast = [np.exp(-1j * np.outer(v, times[:K])) for v, _, _ in drive]

    def group_pops(k0: int, k1: int) -> np.ndarray:
        """Populations of the groups that hold a level (groups x samples)
        at samples k0 to k1."""
        products = []
        for (v, c, transfer), b in zip(drive, fast):
            a = c[:, None] * np.exp(-1j * np.outer(v, times[k0:k1:K]))
            phases = (a[:, :, None] * b[:, None, :]).reshape(len(v), -1)
            products.append(_matmul(transfer, phases[:, :k1 - k0]))
        return indicator @ populations(products)

    # a chunk's amplitudes are freed before the next chunk's are made
    pops = np.concatenate([group_pops(k0, min(k0 + step, n_t))
                           for k0 in range(0, n_t, step)], axis=1)
    held = pops.any(axis=1)
    pops = np.ascontiguousarray(pops[held].T)
    group_e = group_e[np.unique(group)[held]]
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
    if not all(np.isfinite(x).all() for x in (
            energies, variances, fisher, powers**2, variances * fisher,
            [getattr(qsl, f.name) for f in fields(qsl)])):
        raise NumericalInstability(
            f"charging observables leave the float range (drive levels up to "
            f"{np.max(np.abs(vals)):.3g}, time step {times[1] - times[0]:.3g})")
    return ChargeTrace(
        times=times, energies=energies, powers=powers, variances=variances,
        energy_fisher=fisher, bound_tightness=tightness,
        final_fraction=1.0 if stored > 1e-12 * spread else 0.0, qsl=qsl,
    )


class _PairedSectors(NamedTuple):
    """One reflection sector of the XXZ chain in the bases of the global
    flip F's two sectors, ``plus`` and ``minus``, each ordered by |M|, the
    absolute magnetisation (M = 0 first).

    H_g conserves M and commutes with F and the reflection, so it is
    block-diagonal over (flip, |M|). At |M| = m > 0 both flip sectors hold
    the same orbits in the same order, and basis vector k of ``minus`` is
    that of ``plus`` with its flipped half negated; so the ``minus`` block of
    H_g is D B D, B the ``plus`` block and D the sign of M at each orbit
    representative, and M maps basis vector k of one flip sector to m D_k
    times that of the other. With B = U diag(lambda) U^T, H0 = H_g + b M
    on the amplitudes (U^T x_+, U^T D x_-) of a state x is
    [[lambda, b m], [b m, lambda]]: levels lambda +- b m, with amplitudes
    (U^T x_+ +- U^T D x_-)/sqrt 2, from one eigenproblem per |M| > 0. At
    M = 0, b M vanishes and each flip sector has its own block. ``plus``
    (and so every |M| > 0 part) may hold no vector."""

    plus: Optional[_Sector]
    minus: Optional[_Sector]
    zeros: Tuple[int, int]  # the sizes of the M = 0 parts of plus and minus
    m: np.ndarray  # |M| of each |M| > 0 block, ascending
    bounds: np.ndarray  # the starts of those blocks past M = 0, and the end
    sign: np.ndarray  # D on the rows past M = 0
    h_g_plus: _BlockPlan  # H_g on plus, one block per |M|
    h_g_minus: _BlockPlan  # H_g on the M = 0 part of minus

    def blocks(self, h_g: np.ndarray) -> List[np.ndarray]:
        """H_g's blocks, from its entry values: on plus at M = 0 (where it
        holds vectors), on plus at each |M| > 0, and on minus at M = 0
        (where it holds vectors)."""
        return self.h_g_plus.blocks(h_g) + self.h_g_minus.blocks(h_g)

    def levels(self, lams: List[np.ndarray], b: float) -> np.ndarray:
        """H0's levels from the levels of ``blocks``, in the order of
        ``populations``: both M = 0 parts, then lambda + b m and
        lambda - b m over the |M| > 0 blocks."""
        n_plus, n_minus = (int(z > 0) for z in self.zeros)
        inner = np.concatenate(lams[n_plus:len(lams) - n_minus] + [np.zeros(0)])
        shift = b * np.repeat(self.m, np.diff(self.bounds))
        return np.concatenate(lams[:n_plus] + lams[len(lams) - n_minus:]
                              + [inner + shift, inner - shift])

    def transfer(self, vecs: List[np.ndarray], v_plus: np.ndarray,
                 v_minus: np.ndarray) -> None:
        """Turn v_plus and v_minus (vectors as columns, in the plus and
        minus bases) in place into the rows that take amplitudes on those
        columns to the coordinates ``populations`` reads, from the
        eigenvectors of ``blocks``: U^T on each |M| block of plus and
        U^T D on each of minus. Each block of rows is its own block of
        v's rows, so no second copy of v is made."""
        n_plus, n_minus = self.zeros
        if n_plus:
            v_plus[:n_plus] = vecs[0].T @ v_plus[:n_plus]
        if n_minus:
            v_minus[:n_minus] = vecs[-1].T @ v_minus[:n_minus]
        v_minus[n_minus:] *= self.sign[:, None]
        pairs = vecs[int(n_plus > 0):len(vecs) - int(n_minus > 0)]
        for u, a, b in zip(pairs, self.bounds[:-1], self.bounds[1:]):
            for v, n in ((v_plus, n_plus), (v_minus, n_minus)):
                v[n + a:n + b] = u.T @ v[n + a:n + b]

    def populations(self, products: list) -> np.ndarray:
        """Populations of the ``levels`` from the ``transfer`` products of
        the plus and minus amplitudes (rows x samples)."""
        plus, minus = products
        n_plus, n_minus = self.zeros
        a, b = plus[n_plus:], minus[n_minus:]
        return np.concatenate([_abs2(plus[:n_plus]), _abs2(minus[:n_minus]),
                               _abs2(a + b) / 2, _abs2(a - b) / 2])


def _paired_sectors(group: np.ndarray, r: int, magnetisation: np.ndarray,
                    rows: np.ndarray, cols: np.ndarray) -> _PairedSectors:
    """The sector of reflection character r of the XXZ chain, with the
    plans of H_g, whose nonzero entries sit at (rows, cols)."""
    dim = len(magnetisation)
    plus, minus = (_sectors(group, (1, f, r, f * r), np.abs(magnetisation))
                   for f in (1, -1))
    # the M = 0 pieces, where they hold vectors
    zero_plus, zero_minus = ([] if z is None else [z]
                             for z in (plus.pop(0, None), minus.pop(0, None)))
    pairs = list(plus.values())
    reps = np.concatenate([p.images[0] for p in pairs] + [np.zeros(0, int)])
    return _freeze(_PairedSectors(
        plus=_joined(zero_plus + pairs),
        minus=_joined(zero_minus + list(minus.values())),
        zeros=tuple(sum(len(z.scale) for z in zero)
                    for zero in (zero_plus, zero_minus)),
        m=np.array(list(plus), dtype=float),
        bounds=np.cumsum([0] + [len(p.scale) for p in pairs]),
        sign=np.sign(magnetisation[reps]).astype(float),
        h_g_plus=_block_plan(zero_plus + pairs, rows, cols, dim),
        h_g_minus=_block_plan(zero_minus, rows, cols, dim)))


class _XXZLayout(NamedTuple):
    """Everything of the XXZ battery that its couplings, field and drive do
    not change, for one chain shape (see ``_xxz_layout``); read-only."""

    distances: np.ndarray  # j - i of each coupled pair (i, j), as floats
    zz: np.ndarray  # -s_i s_j of each pair at each index (pairs x 2^N)
    # entry positions of H_c: H_g's diagonal, its flip-flops pair by pair,
    # then the drive's single flips
    rows: np.ndarray
    cols: np.ndarray
    pair: np.ndarray  # the pair of each flip-flop entry
    magnetisation: np.ndarray
    even: _PairedSectors  # reflection-even, which holds every reached state
    odd: _PairedSectors
    drive: Tuple[_BlockPlan, _BlockPlan]  # H_c on even.plus and even.minus


@cache
def _xxz_layout(n_cells: int, interaction_range: str) -> _XXZLayout:
    """The entry positions, symmetry sectors and block plans of the XXZ
    battery of ``charge_spins_xxz`` with N cells. Bit i of an index is 0
    for spin-up (sigma_z = +1), leftmost = site 0.

    Every pair of the range is listed, also where its coupling is zero,
    so no coupling enters the layout: it is built once per chain shape
    and shared by every trace of that shape."""
    dim = 2 ** n_cells
    idx = np.arange(dim)
    shifts = np.arange(n_cells - 1, -1, -1)  # of the bit of each site
    masks = 1 << shifts
    spins = 1 - 2 * ((idx >> shifts[:, None]) & 1)
    pairs = [(i, j) for i in range(n_cells) for j in range(i + 1, n_cells)
             if interaction_range == "power_law" or j == i + 1]
    rows, cols, pair = [idx], [idx], [np.zeros(0, dtype=int)]
    for p, (i, j) in enumerate(pairs):
        # sigma_x sigma_x + sigma_y sigma_y flips anti-aligned pairs
        anti = idx[spins[i] != spins[j]]
        rows.append(anti ^ (masks[i] | masks[j]))
        cols.append(anti)
        pair.append(np.full(len(anti), p))
    n_h_g = sum(map(len, rows))
    # the drive flips one spin and H_g two, so no position repeats
    rows = np.concatenate(rows + [idx ^ m for m in masks]).astype(np.int32)
    cols = np.concatenate(cols + [idx] * n_cells).astype(np.int32)
    magnetisation = spins.sum(axis=0)
    # the flip maps index s to dim - 1 - s, the reflection reverses its bits
    reflect = sum(((idx >> i) & 1) << (n_cells - 1 - i) for i in range(n_cells))
    group = np.stack([idx, dim - 1 - idx, reflect, dim - 1 - reflect])
    even, odd = (_paired_sectors(group, r, magnetisation, rows[:n_h_g],
                                 cols[:n_h_g]) for r in (1, -1))
    return _freeze(_XXZLayout(
        distances=np.array([j - i for i, j in pairs], dtype=float),
        zz=np.array([-spins[i] * spins[j] for i, j in pairs],
                    dtype=np.int8).reshape(len(pairs), dim),
        rows=rows, cols=cols, pair=np.concatenate(pair).astype(np.int32),
        magnetisation=magnetisation, even=even, odd=odd,
        drive=tuple(_block_plan([s], rows, cols, dim)
                    for s in (even.plus, even.minus))))


# the largest float whose square is a float: an energy above it has no
# variance
_SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))


def _xxz_entries(n_cells: int, g: float, alpha: float, nu: float,
                 interaction_range: str, omega: float):
    """Values of the nonzero entries of the XXZ battery's charging
    Hamiltonian H_c and of its couplings H_g on the 2^N basis, each
    position once: H_c's at the positions of ``_xxz_layout``, H_g's at the
    first of them (see ``charge_spins_xxz``). InvalidParams if a value is
    not a float whose square is a float."""
    layout = _xxz_layout(n_cells, interaction_range)
    dim = 2 ** n_cells
    with np.errstate(over="ignore", invalid="ignore"):
        if interaction_range == "nearest_neighbor":
            g_ij = np.full(len(layout.distances), float(g))
        else:
            # scalar powers, which round as the C library's pow does
            g_ij = np.array([g * d ** (-nu) for d in layout.distances])
        # the diagonal sums the pairs in turn
        diag = (g_ij[:, None] * layout.zz).sum(axis=0)
        h_g = np.concatenate([diag, (-2.0 * g_ij * alpha)[layout.pair]])
        h_c = np.concatenate([h_g, np.full(n_cells * dim, float(omega))])
    largest = np.max(np.abs(h_c))
    if not largest <= _SQRT_FLOAT_MAX:  # also a nan (an inf times 0)
        raise InvalidParams(
            f"the couplings give a Hamiltonian entry of magnitude "
            f"{largest:.3g}; above {_SQRT_FLOAT_MAX:.3g} its square, and so "
            f"an energy variance, is not a float")
    return h_c, h_g


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
    with H_c and H_g. The all-down start is reflection-even, so H_c is
    diagonalised only on the two reflection-even sectors of flip x
    reflection, of total dimension (2^N + 2^ceil(N/2))/2, and the trace is
    computed in their bases: H0 there takes one eigenproblem of H_g per
    |M| > 0, which gives the levels of both flip sectors (see
    ``_PairedSectors``), and the reflection-odd sectors give its levels
    alone, the same way. Where g and alpha have opposite signs the
    reflection-odd sectors of H_c also give their lowest level, for the
    speed-limit reference. Every block is built from the Hamiltonians'
    nonzero entries, with no 2^N x 2^N matrix and no 2^N state, by plans
    cached per (N, range).
    """
    if n_cells > 12:
        raise TooLarge("full 2^N representation limited to N <= 12")
    if n_cells < 1:
        raise InvalidParams("n_cells must be a positive integer")
    if interaction_range not in ("nearest_neighbor", "power_law"):
        raise InvalidParams(
            "interaction_range must be 'nearest_neighbor' or 'power_law'")
    times = _time_grid(tau, dt)
    layout = _xxz_layout(n_cells, interaction_range)
    h_c, h_g = _xxz_entries(n_cells, g, alpha, nu, interaction_range, omega)
    even, odd = layout.even, layout.odd
    drive = [np.linalg.eigh(plan.blocks(h_c)[0]) for plan in layout.drive]
    # The speed-limit reference is the global ground of H_c. Where no
    # flip-flop amplitude -2 g_ij alpha is positive, H_c has no positive
    # off-diagonal entry once conjugated by prod_i sigma_z^i if omega > 0
    # (that product commutes with the reflection), so by Perron-Frobenius
    # its ground level has a reflection-even eigenvector. Otherwise the
    # ground can be reflection-odd, and the odd sectors give their lowest
    # level (their plans are built here, as only this branch reads them).
    ground = [vals[0] for vals, _ in drive]
    if np.sign(g) * np.sign(alpha) < 0:
        ground += [sla.eigvalsh(blk, subset_by_index=[0, 0])[0]
                   for s in (odd.plus, odd.minus) if s is not None
                   for blk in _blocks([s], (layout.rows, layout.cols, h_c),
                                      2 ** n_cells)]
    # the all-down start, on each sector's drive eigenvectors
    coeffs = [vecs.T @ s.basis_coords(2 ** n_cells - 1)
              for (_, vecs), s in zip(drive, (even.plus, even.minus))]
    h0 = [np.linalg.eigh(blk) for blk in even.blocks(h_g)]
    # the drive eigenvectors become the transfer rows, in place
    even.transfer([u for _, u in h0], drive[0][1], drive[1][1])
    sectors = [(vals, c, rows) for (vals, rows), c in zip(drive, coeffs)]
    bare = odd.levels([np.linalg.eigvalsh(blk) for blk in odd.blocks(h_g)], b)
    trace = _pure_trace(times, 2 ** n_cells, sectors,
                        even.levels([lam for lam, _ in h0], b),
                        even.populations, bare, drive_ground=min(ground))
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
    psi0 = np.zeros(n_cells + 1, dtype=complex)
    psi0[0] = 1.0  # m = -j, the ferromagnetic ground state for b > 0
    times = _time_grid(tau, dt)
    vals, vecs = qcore.hermitian_eig(h_drive)
    # H0 is diagonal in the basis of the drive's one sector
    return _pure_trace(times, n_cells + 1, [(vals, vecs.conj().T @ psi0, vecs)],
                       h0_diag, lambda products: _abs2(products[0]), (), vals[0])


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
    of the initial state is diagonalised and evolved, and H0, diagonal in
    its basis, evaluated there; the other sector gives only its lowest
    level, for the speed-limit reference. Both sector blocks come from the
    Hamiltonian's nonzero entries.
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
    times = _time_grid(tau, dt)
    lam_eff = lam / np.sqrt(n_cells) if rescale else lam
    entries = _dicke_entries(n_cells, omega, omega_c, 2 * omega_c * lam_eff,
                             photon_cutoff)
    m = np.arange(-n_cells / 2.0, n_cells / 2.0 + 1)
    h0_diag = omega * np.kron(m, np.ones(dim_cav))
    # index k * dim_cav + n holds m = -j + k, so the parity is (-1)^(k + n)
    parity = np.add.outer(np.arange(dim_spin), np.arange(dim_cav)).ravel() % 2
    sectors = _sectors(np.arange(dim)[None], (1,), parity)
    start = sectors[n_photons % 2]
    others = [s for s in sectors.values() if s is not start]
    blocks = _blocks([start] + others, entries, dim)
    vals, vecs = np.linalg.eigh(blocks[0])
    ground = min([vals[0]] + [sla.eigvalsh(blk, subset_by_index=[0, 0])[0]
                              for blk in blocks[1:]])
    coeffs = vecs.T @ start.basis_coords(n_photons)  # |m=-j> x |n_photons>
    rows = start.images[0]  # the full index of each basis vector
    top = rows % dim_cav == photon_cutoff

    def populations(products):
        (amps,) = products
        tail = np.max(_abs2(amps[top]).sum(axis=0))
        if tail > 1e-8:
            raise CutoffTooSmall(f"top photon level holds population {tail:.2e}")
        return _abs2(amps)

    trace = _pure_trace(times, dim, [(vals, coeffs, vecs)], h0_diag[rows],
                        populations,
                        np.concatenate([h0_diag[s.images[0]] for s in others]
                                       + [np.zeros(0)]),
                        drive_ground=ground)
    # the state at the energy-optimal sample, from the drive eigenpairs
    t = trace.times[int(np.argmax(trace.energies))]
    psi = np.zeros(dim, dtype=complex)
    psi[rows] = _matmul(vecs, (np.exp(-1j * vals * t) * coeffs)[:, None])[:, 0]
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
    pops, _, eps, _ = _passive(rho_sub, h_sub)
    e_rho = float(np.vdot(h_sub, rho_sub).real)
    energy = e_rho - eps[0]
    if energy <= 1e-12 * (eps[-1] - eps[0]):
        raise UndefinedFraction(f"stored energy {energy} is not positive")
    work = e_rho - float(pops[::-1] @ eps)
    return float(min(max(work / energy, 0.0), 1.0))
