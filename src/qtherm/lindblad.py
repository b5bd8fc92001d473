"""Static-Hamiltonian GKSL generators, evolution, steady states, and
heat/entropy accounting.

The dissipators are built in the secular form: the coupling operator is
decomposed into jump operators S(omega) between Hamiltonian eigenspaces,
and each frequency gets an independent channel at the KMS-completed rate
gamma(omega). The Lamb shift is omitted. Such a generator maps a coherence
|a><b| of the eigenbasis of H only into coherences of the same Bohr
frequency E_a - E_b (Davies 1974), so it is stored in that eigenbasis as
blocks over Bohr sectors: the connected components of the level pairs
(a, b) that the nonzero entries of the dissipators join. One list of
those entries both finds the sectors and fills the blocks. Sectors of
equal size are stacked, so each operation is a few batched array
operations. The zero-frequency sector holds every population; for a
non-degenerate spectrum it has d pairs.

The steady state is one LU solve of the zero-frequency block with its
(redundant) ground-population row replaced by the trace functional; every
other block must be nonsingular. Evolution exponentiates each block. No
d² x d² array is formed on these paths.

The dense superoperator (column stacking) is the generator's lazy
``total``, built from ``decompose_coupling`` and ``dissipator_super``. No
function of the package reads it. It stays, with those two functions,
because the benchmark reads it: ``bench/checks.py`` checks the steady
state against ``total`` and ``bench/tracing.py`` wraps the two functions
by name.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad

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
    by the bath wrapper, never stored here. Parameters are checked once,
    at construction (InvalidParams).
    """

    family: str = "flat"
    base_rate: float = 1.0
    cutoff: float = 1.0
    window: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in ("flat", "ohmic_exp_cutoff", "windowed_flat"):
            raise InvalidParams(f"unknown spectral family {self.family!r}")
        if not (np.isfinite(self.base_rate) and self.base_rate >= 0):
            raise InvalidParams("base_rate must be finite and non-negative")
        if self.family == "ohmic_exp_cutoff" and not self.cutoff > 0:
            raise InvalidParams("ohmic_exp_cutoff needs a positive cutoff")
        if self.family == "windowed_flat" and not (
                len(self.window or ()) == 2 and self.window[0] < self.window[1]):
            raise InvalidParams(
                f"windowed_flat needs a window lo < hi, got {self.window!r}")

    def positive_side(self, omega: float) -> float:
        """gamma(omega) for omega >= 0 (before KMS completion)."""
        if self.family == "ohmic_exp_cutoff":
            if omega <= 0:
                return 0.0
            x = omega / self.cutoff
            return self.base_rate * x * np.exp(-x)
        if self.family == "windowed_flat":
            lo, hi = self.window
            return self.base_rate if lo < omega < hi else 0.0
        return self.base_rate


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


# --- jump terms and dense superoperators -----------------------------------------


def _bohr_terms(s: np.ndarray, s_eig: np.ndarray, vals: np.ndarray):
    """Jump term of each entry of S in the eigenbasis of H (-1 where the
    entry's cluster block is dropped) and the frequency of each term.

    Eigenvalues cluster by ``qcore.level_clusters``, with its tolerance.
    The block of ``s_eig`` between eigenvalue clusters a and b is the part
    of S that lowers the energy by E_b - E_a; blocks whose largest entry
    is below 1e-14 (1 + max |S|) are dropped. Blocks whose Bohr
    frequencies round to the same multiple of the tolerance form one term,
    which keeps the frequency of its first block in row-major order; terms
    come in ascending frequency.
    """
    starts, energies, degeneracy_tol = qcore.level_clusters(vals)
    mags = np.abs(s_eig)
    block_max = np.maximum.reduceat(np.maximum.reduceat(mags, starts, axis=0),
                                    starts, axis=1)
    present = block_max >= 1e-14 * (1 + np.max(np.abs(s)))
    omegas = energies[None, :] - energies[:, None]  # [a, b] = E_b - E_a
    keys = np.rint(omegas / degeneracy_tol)
    flat = np.flatnonzero(present)  # row-major
    _, first, term_of = np.unique(keys.flat[flat], return_index=True,
                                  return_inverse=True)
    block_term = np.full(present.shape, -1)
    block_term.flat[flat] = term_of
    cluster = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(vals)))
    return block_term[np.ix_(cluster, cluster)], omegas.flat[flat[first]]


def decompose_coupling(s: np.ndarray, h: np.ndarray):
    """Split a coupling operator into eigenspace jump terms.

    Returns (freqs, ops): ascending frequencies omega and the (n, d, d)
    stack of jump operators S(omega), with sum_omega S(omega) = S and
    [H, S(omega)] = -omega S(omega). S is rotated once into the eigenbasis
    of H and split there by ``_bohr_terms``.
    """
    s = np.asarray(s, dtype=complex)
    vals, vecs = qcore.hermitian_eig(h)
    s_eig = vecs.conj().T @ s @ vecs
    entry_term, freqs = _bohr_terms(s, s_eig, vals)
    masked = np.where(entry_term == np.arange(len(freqs))[:, None, None], s_eig, 0)
    return freqs, vecs @ masked @ vecs.conj().T


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


# --- Bohr-sector generator ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectorBlocks:
    """A superoperator in the eigenbasis of H, as blocks over Bohr sectors.

    ``vals`` and ``vecs`` are the eigenpairs of H. ``pairs`` holds one
    integer array (n, m) per class of n sectors of m level pairs each, a
    pair (a, b) being the flat index a d + b of a d x d matrix, and
    ``stacks`` the matching (n, m, m) blocks: entry [k, i, j] maps pair j
    of sector k into its pair i. ``pairs[0]`` is the zero-frequency sector
    (n = 1): every sector holding a population, in ascending pair order,
    so its first pair is the ground population (0, 0).
    """

    vals: np.ndarray
    vecs: np.ndarray
    pairs: tuple
    stacks: tuple

    def to_eig(self, a: np.ndarray) -> np.ndarray:
        return self.vecs.conj().T @ a @ self.vecs

    def from_eig(self, a: np.ndarray) -> np.ndarray:
        return self.vecs @ a @ self.vecs.conj().T

    def apply(self, rho: np.ndarray, fn: Callable = None) -> np.ndarray:
        """The superoperator (or ``fn`` of each stack of blocks) applied
        to ``rho``, in the original basis."""
        rho = np.asarray(rho, dtype=complex)
        x = self.to_eig(rho).reshape(-1)
        out = np.empty_like(x)
        for p, b in zip(self.pairs, self.stacks):
            out[p] = np.einsum("kij,kj->ki", b if fn is None else fn(b), x[p])
        return self.from_eig(out.reshape(rho.shape))


def _equal_pairs(key: np.ndarray):
    """Positions (i, j) of every ordered pair of entries with equal keys."""
    order = np.argsort(key, kind="stable")
    _, start, count = np.unique(key[order], return_index=True, return_counts=True)
    n_each = np.repeat(count, count)
    i = np.repeat(np.arange(len(key)), n_each)
    within = np.arange(len(i)) - np.repeat(np.cumsum(n_each) - n_each, n_each)
    return order[i], order[np.repeat(np.repeat(start, count), n_each) + within]


def _dissipator_entries(baths, vals: np.ndarray, vecs: np.ndarray):
    """Every nonzero entry of every bath's dissipator in the eigenbasis of
    H, as flat arrays (bath, into, frm, value): the entry maps level pair
    ``frm`` into pair ``into``, a pair (a, b) being the flat index a d + b.

    With s = S in the eigenbasis, r the rate of each entry's jump term and
    K = sum_omega r S(omega)†S(omega) (which commutes with H):
      * entries (a, c) and (b, e) of one jump term map (c, e) into (a, b)
        with r s_ac conj(s_be) (the sandwich);
      * K[a, c] maps (c, b) into (a, b), and (b, a) into (b, c), with
        -K[a, c]/2 for every level b (the anticommutator).
    """
    d = len(vals)
    s = np.array([bath.coupling_operator for bath in baths],
                 dtype=complex).reshape(-1, d, d)
    s_eig = vecs.conj().T @ s @ vecs
    terms, rates = [], []
    for bath, s_bath, s_bath_eig in zip(baths, s, s_eig):
        term, freqs = _bohr_terms(s_bath, s_bath_eig, vals)
        terms.append(term)
        rates.append(np.array([bath.rate(f) for f in freqs] + [0.0])[term])
    term = np.array(terms, dtype=int).reshape(-1, d, d)
    rated = np.array(rates).reshape(-1, d, d) * s_eig  # r(a, c) s_ac
    n, a, c = np.nonzero(rated)
    t, v = term[n, a, c], rated[n, a, c]
    n_keys = int(term.max(initial=0)) + 1
    i, j = _equal_pairs(n * n_keys + t)
    sandwich = (n[i], a[i] * d + a[j], c[i] * d + c[j],
                v[i] * s_eig[n[j], a[j], c[j]].conj())
    # only entries of one row and one jump term meet in K
    i, j = _equal_pairs((n * d + a) * n_keys + t)
    w = v[i].conj() * s_eig[n[j], a[j], c[j]]
    k = np.zeros((len(s), d, d), dtype=complex)
    np.add.at(k, (n[i], c[i], c[j]), w)
    kn, ka, kc = np.nonzero(k)
    b = np.arange(d)
    into = np.concatenate([ka[:, None] * d + b, b * d + kc[:, None]], axis=1)
    frm = np.concatenate([kc[:, None] * d + b, b * d + ka[:, None]], axis=1)
    anti = (np.repeat(kn, 2 * d), into.ravel(), frm.ravel(),
            np.repeat(-0.5 * k[kn, ka, kc], 2 * d))
    return tuple(np.concatenate(x) for x in zip(sandwich, anti))


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of n nodes joined by edges (src, dst): the
    smallest node of each node's component, by minimum-label propagation
    with pointer jumping."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[src], label[dst])
        new = label.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _bohr_sectors(d: int, into: np.ndarray, frm: np.ndarray) -> tuple:
    """Connected components of the level pairs joined by dissipator
    entries (``into``, ``frm``), as the ``pairs`` of SectorBlocks."""
    moves = into != frm  # an entry mapping a pair into itself joins nothing
    label = _components(d * d, into[moves], frm[moves])
    label[np.isin(label, label[np.arange(d) * (d + 1)])] = -1  # zero sector
    order = np.argsort(label, kind="stable")
    _, start, count = np.unique(label[order], return_index=True, return_counts=True)
    pairs = [order[None, :count[0]]]
    for m in np.unique(count[1:]):
        first = start[1:][count[1:] == m]
        pairs.append(order[first[:, None] + np.arange(m)])
    return tuple(pairs)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Secular GKSL generator over the Bohr sectors of its Hamiltonian.

    ``blocks`` is the whole generator, -i[H, .] plus every dissipator, and
    ``dissipator_parts`` maps each bath label to its own dissipator, both as
    SectorBlocks. ``total``, the dense d² x d² superoperator (read-only), is
    built on first access from ``decompose_coupling`` and
    ``dissipator_super``; see the module docstring for why it stays.
    """

    dim: int
    hamiltonian: np.ndarray
    baths: tuple
    blocks: SectorBlocks
    dissipator_parts: dict

    @cached_property
    def total(self) -> np.ndarray:
        h, eye = self.hamiltonian, np.eye(self.dim)
        total = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        for bath in self.baths:
            freqs, ops = decompose_coupling(bath.coupling_operator, h)
            total += dissipator_super(ops, [bath.rate(f) for f in freqs])
        total.flags.writeable = False
        return total


def build_generator(h: np.ndarray, baths) -> LindbladGenerator:
    """Assemble the secular GKSL generator for a Hamiltonian and baths."""
    h = qcore.require_hermitian(h, tol=1e-10)
    d = h.shape[0]
    baths = tuple(baths)
    if len({bath.label for bath in baths}) < len(baths):
        raise InvalidParams("bath labels must be distinct")
    for bath in baths:
        if bath.coupling_operator.shape != h.shape:
            raise DimMismatch(
                f"bath {bath.label!r} coupling dimension {bath.coupling_operator.shape}"
                f" does not match H {h.shape}"
            )
    vals, vecs = qcore.hermitian_eig(h)
    owner, into, frm, value = _dissipator_entries(baths, vals, vecs)
    pairs = _bohr_sectors(d, into, frm)
    # the classes' (baths, n, m, m) stacks laid end to end: entry
    # [bath, k, i, j], for the pairs p_i and p_j of sector k, sits at
    # row[p_i] + slot[p_j] + bath stride[p_i]
    row, slot, stride = (np.empty(d * d, dtype=int) for _ in range(3))
    offsets = np.cumsum([0] + [len(baths) * p.size * p.shape[-1] for p in pairs])
    for p, offset in zip(pairs, offsets):
        n, m = p.shape
        row[p] = offset + np.arange(n * m).reshape(n, m) * m
        slot[p] = np.arange(m)
        stride[p] = n * m * m
    flat = np.zeros(offsets[-1], dtype=complex)
    np.add.at(flat, row[into] + slot[frm] + owner * stride[into], value)
    parts, total = [], []
    for p, part in zip(pairs, np.split(flat, offsets[1:-1])):
        n, m = p.shape
        part = part.reshape(len(baths), n, m, m)
        a, b = np.divmod(p, d)
        blocks = part.sum(axis=0)
        blocks[:, np.arange(m), np.arange(m)] += -1j * (vals[a] - vals[b])
        parts.append(part)
        total.append(blocks)
    return LindbladGenerator(
        dim=d, hamiltonian=h, baths=baths,
        blocks=SectorBlocks(vals, vecs, pairs, tuple(total)),
        dissipator_parts={bath.label: SectorBlocks(vals, vecs, pairs,
                                                   tuple(part[k] for part in parts))
                          for k, bath in enumerate(baths)})


# --- evolution and steady state ----------------------------------------------


def evolve(gen: LindbladGenerator, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(L t) rho0, one batched exponential per class of Bohr
    sectors (a scalar one for sectors of one pair)."""
    if t < 0:
        raise InvalidParams("evolution time must be non-negative")
    rho = qcore.hermitianize(gen.blocks.apply(
        rho0, lambda b: np.exp(t * b) if b.shape[-1] == 1 else sla.expm(t * b)))
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-8:
        raise NumericalInstability(f"evolved state has eigenvalue {min_eig}")
    return rho


def steady_state(gen: LindbladGenerator) -> np.ndarray:
    """Unique trace-one kernel element of the generator.

    The kernel lies in the zero-frequency sector: every other block must
    have its smallest singular value above kernel_tol = 1e-9 times the largest
    of the generator. In the zero-frequency block the row of the ground
    population is redundant (the generator preserves the trace), so it is
    replaced by the trace functional and L x = 0, Tr x = 1 is solved by one
    LU factorisation. A pivot below kernel_tol times the largest, or a
    residual |L x| above kernel_tol |L| |x|, means the kernel is not one
    traceful state; only then is the kernel computed by SVD, for the
    exception.
    """
    blocks, d, kernel_tol = gen.blocks, gen.dim, 1e-9
    svals = [np.linalg.svd(b, compute_uv=False) for b in blocks.stacks]
    s_max = max(float(s.max()) for s in svals)
    if any(s[:, -1].min() <= kernel_tol * s_max for s in svals[1:]):
        _raise_degenerate(gen, kernel_tol)
    p0 = blocks.pairs[0][0]
    a, b = np.divmod(p0, d)
    l0 = blocks.stacks[0][0]
    scale = float(np.abs(l0).max()) or 1.0
    aug = l0.copy()
    aug[0] = 0.0
    aug[0, a == b] = scale  # Tr rho, at L's scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)  # exact zero pivot
        lu, piv = sla.lu_factor(aug, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= kernel_tol * pivots.max():
        _raise_degenerate(gen, kernel_tol)
    rhs = np.zeros(len(p0), dtype=complex)
    rhs[0] = scale
    x = sla.lu_solve((lu, piv), rhs, check_finite=False)
    residual = np.linalg.norm(l0 @ x)
    if not residual <= kernel_tol * np.linalg.norm(l0) * np.linalg.norm(x):  # or NaN
        _raise_degenerate(gen, kernel_tol)
    rho_eig = np.zeros(d * d, dtype=complex)
    rho_eig[p0] = x
    rho = qcore.hermitianize(blocks.from_eig(rho_eig.reshape(d, d)))
    rho = rho / np.trace(rho).real
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise NumericalInstability("steady state not positive semidefinite")
    return rho


def _raise_degenerate(gen: LindbladGenerator, kernel_tol: float):
    """Raise DegenerateSteadyState with the kernel of the generator: the
    right singular vectors of its blocks whose singular values are up to
    ``kernel_tol`` times the largest, or else the smallest one."""
    blocks, d = gen.blocks, gen.dim
    svds = [np.linalg.svd(b) for b in blocks.stacks]
    s_max = max(float(s.max()) for _u, s, _vh in svds)
    found = [(p[k], vh[k, i].conj())
             for p, (_u, s, vh) in zip(blocks.pairs, svds)
             for k, i in zip(*np.nonzero(s <= kernel_tol * s_max))]
    if not found:
        p, (_u, s, vh) = min(zip(blocks.pairs, svds), key=lambda ps: ps[1][1].min())
        k, i = np.unravel_index(np.argmin(s), s.shape)
        found = [(p[k], vh[k, i].conj())]
    basis = []
    for pairs, vec in found:
        x = np.zeros(d * d, dtype=complex)
        x[pairs] = vec
        basis.append(blocks.from_eig(x.reshape(d, d)))
    raise DegenerateSteadyState(
        f"no unique trace-one steady state: kernel of dimension {len(basis)}"
        f" at kernel_tol={kernel_tol:g}", kernel_basis=basis)


# --- thermodynamic bookkeeping -------------------------------------------------


def heat_current(gen_part: SectorBlocks, rho: np.ndarray, h: np.ndarray) -> float:
    """J = Tr((L_j rho) H); positive when energy flows into the system.

    ``h`` is the Hamiltonian the generator was built from. It is diagonal
    in the sector basis, and the diagonal of L_j rho is the output of the
    bath's zero-frequency block alone, so only that block is applied.
    """
    p0 = gen_part.pairs[0][0]
    x = gen_part.to_eig(np.asarray(rho, dtype=complex)).reshape(-1)[p0]
    h_eig = gen_part.to_eig(np.asarray(h, dtype=complex)).T.reshape(-1)[p0]
    return float(((gen_part.stacks[0][0] @ x) @ h_eig).real)


def entropy_production(gen: LindbladGenerator, rho: np.ndarray, baths) -> float:
    """Spohn functional dS/dt - sum_j J_j / T_j (non-negative for KMS baths)."""
    rho = qcore.hermitianize(np.asarray(rho, dtype=complex))
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 1e-300, None)
    log_rho = (vecs * np.log(vals)) @ vecs.conj().T
    drho = gen.blocks.apply(rho)
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
