"""Dense complex linear algebra and quantum-state primitives.

Conventions used project-wide:
  * hbar = k_B = 1.
  * Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho).
  * Matrix functions of density matrices floor eigenvalues at 0.

No function of the package calls ``matrix_exp``. It stays because the
benchmark's tracer (``bench/tracing.py``) wraps it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimMismatch, InvalidParams, InvalidSubsystem, NotHermitian

HERM_TOL = 1e-12

# Pauli matrices in the basis (|e>, |g>), so sigma_z |e> = +|e>
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered local dimensions of a tensor-product Hilbert space."""

    factor_dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        if any(d < 1 for d in self.factor_dims):
            raise InvalidParams("factor dimensions must be positive")

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))


def require_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Validate Hermiticity; returns the input unchanged (as a float array
    when it has no complex dtype, a complex one otherwise)."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian("not a square matrix")
    scale = 1.0 + np.max(np.abs(a)) if a.size else 1.0
    if np.max(np.abs(a - a.conj().T)) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2, halved before the sum so that it cannot
    overflow."""
    return a / 2 + a.conj().T / 2


def spin_operators(j: float):
    """Spin-j operators (jx, jy, jz) in the |j, m> basis, m ascending."""
    m = np.arange(-j, j + 1)
    jz = np.diag(m).astype(complex)
    lower = np.sqrt(j * (j + 1) - m[1:] * (m[1:] - 1))
    jm = np.diag(lower, k=1).astype(complex)  # <m-1| J- |m>
    jp = jm.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / (2j)
    return jx, jy, jz


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def partial_trace(rho: np.ndarray, space: CompositeSpace, keep) -> np.ndarray:
    """Trace out all factors not listed in ``keep`` (indices into the space).

    The kept factors retain their original relative order.
    """
    dims = space.factor_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in np.atleast_1d(keep)))
    if any(k < 0 or k >= n for k in keep):
        raise InvalidSubsystem(f"keep indices {keep} out of range for {n} factors")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (space.dim, space.dim):
        raise DimMismatch(
            f"state dimension {rho.shape} does not match space dimension {space.dim}"
        )
    tensor = rho.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # Trace highest index first so lower positions stay valid.
    for i in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return tensor.reshape(d_keep, d_keep)


def hermitian_eig(h: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvector columns. Input
    with no imaginary part uses the real routine (real eigenvectors); a
    real dtype stays real throughout."""
    h = hermitianize(require_hermitian(h, tol=1e-10))
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real
    return np.linalg.eigh(h)


def level_clusters(levels: np.ndarray):
    """Clusters of (near-)degenerate levels among ascending ``levels``: a
    level joins the cluster of the one below it when their gap is at most
    tol = 1e-9 max(max |E|, 1), so clusters chain. Returns each cluster's
    first index and mean energy, and tol."""
    tol = 1e-9 * max(np.max(np.abs(levels)), 1.0)
    starts = np.flatnonzero(np.diff(levels, prepend=-np.inf) > tol)
    sizes = np.diff(starts, append=len(levels))
    return starts, np.add.reduceat(levels, starts) / sizes, tol


def matrix_exp(a: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * a) via scaling-and-squaring."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch("matrix_exp requires a square matrix")
    return sla.expm(scale * a)


def midpoint_propagator(h_of_t, t0: float, t1: float, n_steps: int) -> np.ndarray:
    """Time-ordered propagator U(t1, t0) of the Hamiltonian ``h_of_t``,
    as a product of n_steps exponentials of H at each step's midpoint,
    all taken from one batched eigendecomposition."""
    dt = (t1 - t0) / n_steps
    hs = np.array([h_of_t(t0 + (k + 0.5) * dt) for k in range(n_steps)], dtype=complex)
    if np.max(np.abs(hs - hs.conj().swapaxes(1, 2))) > 1e-10 * (1.0 + np.max(np.abs(hs))):
        raise NotHermitian("midpoint Hamiltonian is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(hs)
    steps = (vecs * np.exp(-1j * dt * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    u = np.eye(hs.shape[-1], dtype=complex)
    for step in steps:
        u = step @ u
    return u


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix, eigenvalues floored at 0."""
    vals, vecs = np.linalg.eigh(hermitianize(rho))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _principal_eigvec(rho: np.ndarray):
    vals, vecs = np.linalg.eigh(hermitianize(rho))
    return vals[-1], vecs[:, -1]


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) in [0, 1].

    Pure-state fast paths keep precision when either argument is
    (numerically) rank one: for two pure states F = |<psi1|psi2>|, and for
    a pure state against a mixed one F = sqrt(<psi|rho|psi>).
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimMismatch("fidelity arguments must share dimension")
    p1, v1 = _principal_eigvec(rho1)
    p2, v2 = _principal_eigvec(rho2)
    pure1 = p1 > 1.0 - 1e-12
    pure2 = p2 > 1.0 - 1e-12
    if pure1 and pure2:
        f = abs(np.vdot(v1, v2))
    elif pure1:
        f = np.sqrt(max(np.vdot(v1, rho2 @ v1).real, 0.0))
    elif pure2:
        f = np.sqrt(max(np.vdot(v2, rho1 @ v2).real, 0.0))
    else:
        s1 = sqrtm_psd(rho1)
        inner = hermitianize(s1 @ rho2 @ s1)
        vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
        f = float(np.sum(np.sqrt(vals)))
    return float(min(max(f, 0.0), 1.0))


def bures_angle(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Bures angular distance arccos(F), F clamped into [0, 1].

    For two pure states it is the chord form 2 arcsin(|psi1 - e^{i phi}
    psi2| / 2), with phi the phase of <psi2|psi1>: arccos loses half the
    digits where F rounds to 1, and the chord keeps them.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimMismatch("Bures angle arguments must share dimension")
    p1, v1 = _principal_eigvec(rho1)
    p2, v2 = _principal_eigvec(rho2)
    if p1 > 1.0 - 1e-12 and p2 > 1.0 - 1e-12:
        overlap = np.vdot(v2, v1)
        phase = overlap / abs(overlap) if overlap != 0 else 1.0
        chord = np.linalg.norm(v1 - phase * v2)
        return float(2 * np.arcsin(min(chord / 2, 1.0)))
    return float(np.arccos(fidelity(rho1, rho2)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S = -sum lambda ln lambda with 0 ln 0 := 0."""
    vals = np.linalg.eigvalsh(hermitianize(np.asarray(rho, dtype=complex)))
    vals = np.clip(vals, 0.0, None)
    nz = vals[vals > 0]
    return float(-np.sum(nz * np.log(nz)))


def gibbs_state(h: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal state exp(-H/T)/Z (computed stably via the spectrum)."""
    vals, vecs = hermitian_eig(h)
    w = np.exp(-(vals - vals.min()) / temperature)
    w /= w.sum()
    return (vecs * w) @ vecs.conj().T

