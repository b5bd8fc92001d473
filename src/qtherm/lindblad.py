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
those entries, from every bath at once, both finds the sectors and fills
the blocks, so a build makes a fixed number of array passes whatever the
number of baths or of sector sizes, besides one vectorised rate
evaluation per bath. Sectors of equal size are stacked, so each
operation is a few batched array operations. The zero-frequency sector
holds every population; for a non-degenerate spectrum it has d pairs.

The steady state is one LU solve of the zero-frequency block with its
(redundant) ground-population row replaced by the trace functional; every
other block must be nonsingular, which a bound from their inverses
certifies (the singular values decide only where it cannot). Evolution
exponentiates each block. No d² x d² array is formed on these paths.

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

    def positive_side(self, omega):
        """gamma(omega) for omega >= 0 (before KMS completion), at a float
        or at each entry of an array of frequencies."""
        w = np.asarray(omega, dtype=float)
        if self.family == "ohmic_exp_cutoff":
            # x capped at 1e3, where e^-x is 0: omega/cutoff = inf gives 0
            with np.errstate(over="ignore"):
                x = np.minimum(w / self.cutoff, 1e3)
            gamma = self.base_rate * x * np.exp(-x)  # 0 at omega = 0
        elif self.family == "windowed_flat":
            lo, hi = self.window
            gamma = np.where((lo < w) & (w < hi), self.base_rate, 0.0)
        else:
            gamma = np.full_like(w, self.base_rate)
        return gamma[()]


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

    def rates(self, omegas: np.ndarray) -> np.ndarray:
        """KMS-completed rate at each of an array of (signed) frequencies:
        gamma(|omega|), times exp(omega/T) below zero."""
        w = np.asarray(omegas, dtype=float)
        with np.errstate(over="ignore"):  # omega/T = -inf: a factor of 0
            return self.spectral.positive_side(np.abs(w)) * np.exp(
                np.minimum(w, 0.0) / self.temperature)


# --- jump terms and dense superoperators -----------------------------------------


def _bohr_terms(s: np.ndarray, s_eig: np.ndarray, vals: np.ndarray):
    """Jump term of each entry of a stack of coupling operators S_n in the
    eigenbasis of H (-1 where the entry's cluster block is dropped), and
    the operator index n and the frequency of each term.

    Eigenvalues cluster by ``qcore.level_clusters``, with its tolerance.
    The block of ``s_eig[n]`` between eigenvalue clusters a and b is the
    part of S_n that lowers the energy by E_b - E_a; blocks whose largest
    entry is below 1e-14 (1 + max |S_n|) are dropped. Blocks of one S_n
    whose Bohr frequencies round to the same multiple of the tolerance
    form one term, which keeps the frequency of its first block in
    row-major order; terms are numbered by n, then by ascending frequency.
    """
    starts, energies, degeneracy_tol = qcore.level_clusters(vals)
    block_max = np.maximum.reduceat(np.maximum.reduceat(np.abs(s_eig), starts, axis=1),
                                    starts, axis=2)
    floor = 1e-14 * (1 + np.abs(s).max(axis=(1, 2)))
    present = block_max >= floor[:, None, None]
    omegas = energies[None, :] - energies[:, None]  # [a, b] = E_b - E_a
    keys = np.rint(omegas / degeneracy_tol)
    n_blocks = len(starts) ** 2
    owner, flat = np.nonzero(present.reshape(len(s), n_blocks))  # row-major
    span = 2 * np.abs(keys).max() + 1  # (owner, key) -> one exact float
    code = owner * span + keys.flat[flat]
    order = np.argsort(code, kind="stable")
    new = np.ones(len(code), dtype=bool)
    new[1:] = code[order[1:]] != code[order[:-1]]
    first = order[new]  # the first block of each term, in row-major order
    block_term = np.full(present.shape, -1)
    block_term.reshape(len(s), n_blocks)[owner[order], flat[order]] = np.cumsum(new) - 1
    cluster = np.searchsorted(starts, np.arange(len(vals)), side="right") - 1
    return (block_term[:, cluster[:, None], cluster], owner[first],
            omegas.flat[flat[first]])


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
    entry_term, _owner, freqs = _bohr_terms(s[None], s_eig[None], vals)
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
    """Positions (i, j) of every ordered pair of entries with equal keys,
    for non-negative integer keys."""
    order = np.argsort(key, kind="stable")
    count = np.bincount(key)
    n_each = np.repeat(count, count)  # group size, per sorted entry
    start = np.repeat(np.cumsum(count) - count, count)
    i = np.repeat(np.arange(len(key)), n_each)
    within = np.arange(len(i)) - np.repeat(np.cumsum(n_each) - n_each, n_each)
    return order[i], order[np.repeat(start, n_each) + within]


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
    Every bath's terms come from one ``_bohr_terms`` call on the stacked
    coupling operators, so the terms of different baths never meet.
    """
    d = len(vals)
    s = np.array([bath.coupling_operator for bath in baths],
                 dtype=complex).reshape(-1, d, d)
    s_eig = vecs.conj().T @ s @ vecs
    term, owner, freqs = _bohr_terms(s, s_eig, vals)
    ends = np.searchsorted(owner, np.arange(len(baths) + 1))  # terms of each bath
    rates = np.concatenate([bath.rates(freqs[lo:hi]) for bath, lo, hi
                            in zip(baths, ends, ends[1:])] + [[0.0]])
    rated = rates[term] * s_eig  # r(a, c) s_ac
    n, a, c = np.nonzero(rated)
    t, v, sv = term[n, a, c], rated[n, a, c], s_eig[n, a, c]
    i, j = _equal_pairs(t)
    x = v[i] * sv[j].conj()
    sandwich = (n[i], a[i] * d + a[j], c[i] * d + c[j], x)
    # only entries of one row and one jump term meet in K, with conj(x)
    row = a[i] == a[j]
    k = np.zeros((len(s), d, d), dtype=complex)
    np.add.at(k, (n[i[row]], c[i[row]], c[j[row]]), x[row].conj())
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
        if (new == label).all():
            return label
        label = new


def _sector_layout(d: int, into: np.ndarray, frm: np.ndarray):
    """Bohr sectors and where their blocks lie in one flat buffer.

    The sectors are the connected components of the level pairs joined by
    dissipator entries (``into``, ``frm``). Pairs are ordered by class (the
    zero-frequency sector, then ascending sector size), then by sector (by
    smallest pair), then by pair; each sector's m x m block follows the
    previous one's. Returns the ``pairs`` of SectorBlocks, the offset of
    each class in the buffer (and its size last), and for each pair p
    the offsets ``row`` and ``slot``: entry [k, i, j] of a class, for the
    pairs p_i and p_j of its sector k, sits at row[p_i] + slot[p_j].
    """
    moves = into != frm  # an entry mapping a pair into itself joins nothing
    label = _components(d * d, into[moves], frm[moves])
    in_zero = np.zeros(d * d, dtype=bool)
    in_zero[label[np.arange(d) * (d + 1)]] = True
    in_zero = in_zero[label]  # every sector holding a population
    root = (label == np.arange(d * d)) & ~in_zero
    sector = np.where(in_zero, 0, np.cumsum(root)[label])
    m = np.bincount(sector)[sector]
    cls = np.where(in_zero, 0, m)
    order = np.argsort(cls * d * d + sector, kind="stable")
    sector, m, cls = sector[order], m[order], cls[order]
    # each pair before pair q (in this order) takes m entries of the buffer
    start = np.cumsum(m) - m
    first = np.flatnonzero(np.concatenate(([True], sector[1:] != sector[:-1])))
    row, slot = np.empty(d * d, dtype=int), np.empty(d * d, dtype=int)
    row[order] = start
    slot[order] = np.arange(d * d) - np.repeat(first, m[first])
    lo = np.flatnonzero(np.concatenate(([True], cls[1:] != cls[:-1])))
    hi = np.concatenate((lo[1:], [d * d]))
    pairs = tuple(order[a:b].reshape(-1, m[a]) for a, b in zip(lo, hi))
    return pairs, np.concatenate((start[lo], [start[-1] + m[-1]])), row, slot


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
            total += dissipator_super(ops, bath.rates(freqs))
        total.flags.writeable = False
        return total


def build_generator(h: np.ndarray, baths) -> LindbladGenerator:
    """Assemble the secular GKSL generator for a Hamiltonian and baths.

    A fixed number of array passes, whatever the number of baths or of
    sector sizes, besides ``BathSpec.rates`` once per bath (on that bath's
    jump frequencies): every bath's dissipator entries are scattered into one
    flat buffer of (baths + 1) rows, the last row is their sum plus the
    -i omega diagonal, and every stack of ``blocks`` and of
    ``dissipator_parts`` is a reshaped view of that buffer.
    """
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
    pairs, offsets, row, slot = _sector_layout(d, into, frm)
    nb, size = len(baths), offsets[-1]
    flat = np.zeros((nb + 1) * size, dtype=complex)
    np.add.at(flat, owner * size + row[into] + slot[frm], value)
    flat = flat.reshape(nb + 1, size)
    np.sum(flat[:nb], axis=0, out=flat[nb])
    flat[nb, row + slot] -= 1j * np.subtract.outer(vals, vals).ravel()  # pair a d + b
    stacks = [flat[:, lo:hi].reshape(nb + 1, *p.shape, p.shape[-1])
              for p, lo, hi in zip(pairs, offsets[:-1], offsets[1:])]
    return LindbladGenerator(
        dim=d, hamiltonian=h, baths=baths,
        blocks=SectorBlocks(vals, vecs, pairs, tuple(s[nb] for s in stacks)),
        dissipator_parts={bath.label: SectorBlocks(vals, vecs, pairs,
                                                   tuple(s[k] for s in stacks))
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


# The certificate's slack over the SVD rule it stands in for: it covers
# the rounding of the computed inverses.
CERTIFICATE_MARGIN = 4.0


def steady_state(gen: LindbladGenerator) -> np.ndarray:
    """Unique trace-one kernel element of the generator.

    The kernel lies in the zero-frequency sector: every other block must
    have its smallest singular value above kernel_tol = 1e-9 times the
    largest of the generator. ``_nonsingular_certified`` proves this from
    one batched inverse per class; only a class it cannot certify
    (singular, non-finite, or within CERTIFICATE_MARGIN of the rule) sends
    the generator through the rule itself, on the singular values of every
    block, so exactly the generators the rule rejects raise. In the
    zero-frequency block the row of the ground population is redundant
    (the generator preserves the trace), so it is replaced by the trace
    functional and L x = 0, Tr x = 1 is solved by one LU factorisation. A
    pivot below kernel_tol times the largest, or a residual |L x| above
    kernel_tol |L| |x|, means the kernel is not one traceful state; only
    then is the kernel computed by SVD, for the exception.
    """
    blocks, d, kernel_tol = gen.blocks, gen.dim, 1e-9
    if not _nonsingular_certified(blocks.stacks, kernel_tol):
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


def _nonsingular_certified(stacks, kernel_tol: float) -> bool:
    """Whether every block after the zero-frequency one provably has its
    smallest singular value above ``kernel_tol`` times the largest of all
    blocks, with CERTIFICATE_MARGIN to spare.

    sigma_min(B) = 1/|B^-1|_2 >= 1/|B^-1|_F, from one batched inverse per
    class (|b| for 1 x 1 blocks), and every sigma_max(B) is at most
    sqrt(|L|_1 |L|_inf), the largest column and row sums of all blocks.
    A singular, non-finite or uncertified class gives False.
    """
    norms, lows = [], [np.inf]  # |B|_1, |B|_inf per class; sigma_min bounds
    with np.errstate(all="ignore"):  # inf and NaN give False below
        for k, b in enumerate(stacks):
            mags = np.abs(b)
            norms += [mags.sum(axis=1).max(), mags.sum(axis=2).max()]
            if k == 0:
                continue
            if b.shape[-1] == 1:  # sigma_min = |b|
                lows.append(mags.min())
                continue
            try:
                inv = np.abs(np.linalg.inv(b))
            except np.linalg.LinAlgError:
                return False
            lows.append(1 / np.sqrt((inv * inv).sum(axis=(1, 2)).max()))
        s_max = np.sqrt(np.max(norms[0::2]) * np.max(norms[1::2]))
        return bool(np.min(lows) > CERTIFICATE_MARGIN * kernel_tol * s_max)


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
