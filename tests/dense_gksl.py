"""Dense GKSL oracle for the tests.

The library stores a generator as blocks over the Bohr sectors of its
Hamiltonian. This module keeps the independent dense route, on the d² x d²
superoperator in the column-stacking convention: the superoperator built
from Kronecker products, the same superoperator reassembled from sector
blocks, the trace-augmented LU steady state, the SVD kernel, and an ODE
integration of the master equation in matrix form.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from qtherm import lindblad, qcore
from qtherm.errors import DegenerateSteadyState


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


@dataclass(frozen=True)
class JumpTerm:
    """Jump operator S(omega) between eigenspaces separated by omega."""

    frequency: float
    operator: np.ndarray
    rate: float = 0.0


def jump_terms(gen) -> dict:
    """Bath label -> [JumpTerm] of a generator, each at its bath's rate."""
    out = {}
    for bath in gen.baths:
        freqs, ops = lindblad.decompose_coupling(bath.coupling_operator, gen.hamiltonian)
        out[bath.label] = [JumpTerm(f, op, bath.rate(f)) for f, op in zip(freqs, ops)]
    return out


def dissipator(jumps, rates) -> np.ndarray:
    """One three-Kronecker superoperator per jump term, summed."""
    d = jumps[0].shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for s, r in zip(jumps, rates):
        n = s.conj().T @ s
        out += r * (np.kron(s.conj(), s) - 0.5 * (np.kron(eye, n) + np.kron(n.T, eye)))
    return out


def superoperator(h, jumps=(), rates=()) -> np.ndarray:
    """-i[H, .] plus the dissipator of the jump terms (the commutator
    alone when there are none)."""
    d = h.shape[0]
    eye = np.eye(d)
    commutator = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    return commutator + dissipator(jumps, rates) if len(jumps) else commutator


def generator_super(gen, labels=None) -> np.ndarray:
    """Dense superoperator of a generator's jump terms; with ``labels``,
    the dissipator of those baths alone."""
    terms = [t for label, ts in jump_terms(gen).items()
             if labels is None or label in labels for t in ts]
    ops, rates = [t.operator for t in terms], [t.rate for t in terms]
    if labels is not None:
        return dissipator(ops, rates)
    return superoperator(gen.hamiltonian, ops, rates)


def from_blocks(part) -> np.ndarray:
    """The dense superoperator, in the original basis, of sector blocks."""
    d = len(part.vals)
    eig = np.zeros((d * d, d * d), dtype=complex)  # pairs a d + b
    for p, stack in zip(part.pairs, part.stacks):
        eig[p[:, :, None], p[:, None, :]] = stack
    col = np.arange(d * d).reshape(d, d).T.reshape(-1)  # a + d b -> a d + b
    w = np.kron(part.vecs.conj(), part.vecs)  # vec(V X V†) = (conj(V) ⊗ V) vec X
    return w @ eig[np.ix_(col, col)] @ w.conj().T


def svd_kernel(total, kernel_tol=1e-9):
    """Kernel of ``total``: right singular vectors of singular values up to
    ``kernel_tol`` times the largest, at least the smallest."""
    _u, s, vh = np.linalg.svd(total)
    null_idx = np.where(s <= kernel_tol * s[0])[0]
    if len(null_idx) == 0:
        null_idx = [len(s) - 1]
    return [devectorize(vh[i].conj()) for i in null_idx]


def svd_null_state(total):
    """Right singular vector of the smallest singular value, normalised to
    unit trace."""
    _u, _s, vh = np.linalg.svd(total)
    rho = qcore.hermitianize(devectorize(vh[-1].conj()))
    return rho / np.trace(rho).real


def _raise_degenerate(total, kernel_tol):
    basis = svd_kernel(total, kernel_tol)
    raise DegenerateSteadyState(
        f"no unique trace-one steady state: kernel of dimension {len(basis)}"
        f" at kernel_tol={kernel_tol:g}", kernel_basis=basis)


def steady_state(total, kernel_tol=1e-9):
    """Unique trace-one kernel element of a dense generator.

    The row of the rho_00 equation is redundant (the generator preserves
    the trace), so it is replaced by the trace functional and L x = 0,
    Tr x = 1 is solved by one LU factorisation. A pivot below
    ``kernel_tol`` times the largest, or a residual |L x| above
    ``kernel_tol`` |L| |x|, means the kernel is not one traceful state.
    """
    d = int(round(np.sqrt(total.shape[0])))
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
    rho = qcore.hermitianize(devectorize(x))
    return rho / np.trace(rho).real


def evolve(total, rho0, t):
    """exp(L t) applied to the column-stacked state."""
    return devectorize(sla.expm(t * total) @ vectorize(rho0))


def evolve_ode(h, jump_rate_pairs, rho0, t_span, t_eval=None, rtol=1e-10, atol=1e-12):
    """Integrate drho/dt in matrix form with DOP853."""
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
