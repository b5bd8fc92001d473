"""Quantum estimation tools and null-point measurement protocols.

Fisher-information machinery (symmetric logarithmic derivative, quantum
and classical Fisher information, Cramér-Rao floor) for arbitrary
finite-dimensional parameter families, plus two Wheatstone-bridge style
protocols built on thermal machines: Otto-null thermometry with two
exchange-coupled oscillators and two-stroke magnetometry. The protocols
estimate an unknown parameter by sweeping a known control until a
current/work observable changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import cycles, qcore
from .errors import (
    InvalidParams,
    InvalidPOVM,
    NullNotBracketed,
    NumericalInstability,
    SingularState,
)


# --- parameter families and Fisher information ------------------------------------


@dataclass(frozen=True)
class ParamFamily:
    """Differentiable map theta -> density matrix, with a finite-difference step."""

    generator: Callable[[float], np.ndarray]
    dtheta: Optional[float] = None

    def step(self, theta: float) -> float:
        if self.dtheta is not None:
            return self.dtheta
        return 1e-5 * max(abs(theta), 1.0)

    def drho(self, theta: float) -> np.ndarray:
        dt = self.step(theta)
        plus = np.asarray(self.generator(theta + dt), dtype=complex)
        minus = np.asarray(self.generator(theta - dt), dtype=complex)
        return qcore.hermitianize((plus - minus) / (2 * dt))


@dataclass(frozen=True)
class FisherReport:
    qfi: float
    sld: np.ndarray
    cramer_rao_floor: float


@dataclass(frozen=True)
class NullProtocolResult:
    null_location: float
    estimated_parameter: float
    error_estimate: float
    sweep_trace: List[Tuple[float, float]] = field(default_factory=list)


SLD_FLOOR = 1e-12


def _sld_in_eigenbasis(family: ParamFamily, theta0: float):
    rho = qcore.hermitianize(np.asarray(family.generator(theta0), dtype=complex))
    vals, vecs = np.linalg.eigh(rho)
    drho = vecs.conj().T @ family.drho(theta0) @ vecs
    denom = vals[:, None] + vals
    support = denom > SLD_FLOOR
    if np.any(np.abs(drho[~support]) > 1e-8):
        raise SingularState("parameter derivative couples into the kernel of rho")
    l_eig = np.divide(2 * drho, denom, out=np.zeros_like(drho), where=support)
    return vals, vecs, drho, l_eig


def sld(family: ParamFamily, theta0: float) -> np.ndarray:
    """Symmetric logarithmic derivative L solving
    d_theta rho = (L rho + rho L)/2, restricted to the support of rho."""
    _vals, vecs, _drho, l_eig = _sld_in_eigenbasis(family, theta0)
    return qcore.hermitianize(vecs @ l_eig @ vecs.conj().T)


def qfi(family: ParamFamily, theta0: float) -> FisherReport:
    """Quantum Fisher information: population term sum (dp_i)^2/p_i plus the
    coherence term, equivalently sum_ij 2|d_theta rho_ij|^2/(p_i + p_j) =
    Re sum_ij conj(d_theta rho_ij) L_ij over p_i + p_j > SLD_FLOOR in the
    eigenbasis of rho. Cross-checked against Tr(rho L^2)."""
    vals, vecs, drho, l_eig = _sld_in_eigenbasis(family, theta0)
    h = float(np.sum(drho.conj() * l_eig).real)  # L is 0 off the support
    l_op = qcore.hermitianize(vecs @ l_eig @ vecs.conj().T)
    rho = vecs @ np.diag(np.clip(vals, 0, None)).astype(complex) @ vecs.conj().T
    h_check = float(np.trace(rho @ l_op @ l_op).real)
    if abs(h - h_check) > 1e-7 * max(h, 1.0):
        raise NumericalInstability(
            f"QFI spectral formula ({h}) disagrees with Tr(rho L^2) ({h_check})"
        )
    floor = np.inf if h == 0 else 1.0 / h
    return FisherReport(qfi=h, sld=l_op, cramer_rao_floor=floor)


def cfi(family: ParamFamily, theta0: float, povm) -> float:
    """Classical Fisher information sum_x (d_theta p_x)^2 / p_x for a POVM,
    over the outcomes with p_x above 1e-12."""
    povm = [np.asarray(e, dtype=complex) for e in povm]
    d = povm[0].shape[0]
    total = sum(povm)
    if np.max(np.abs(total - np.eye(d))) > 1e-10:
        raise InvalidPOVM("POVM elements do not sum to the identity")
    rho = np.asarray(family.generator(theta0), dtype=complex)
    drho = family.drho(theta0)
    out = 0.0
    for e in povm:
        p = float(np.trace(rho @ e).real)
        dp = float(np.trace(drho @ e).real)
        if p > 1e-12:
            out += dp**2 / p
    return out


# --- null-point protocols ----------------------------------------------------------


def _locate_null(grid: np.ndarray, values: np.ndarray) -> Tuple[float, float]:
    """First sign change of ``values`` along ``grid``: returns the bracket
    midpoint and the bracket width. An exact zero on the grid is returned
    with zero width."""
    signs = np.sign(values)
    if np.all(signs == 0):
        raise NullNotBracketed("observable vanishes identically on the grid")
    zeros = np.where(signs == 0)[0]
    if len(zeros) > 0:
        return float(grid[zeros[0]]), 0.0
    crossings = np.where(signs[:-1] * signs[1:] < 0)[0]
    if len(crossings) == 0:
        raise NullNotBracketed("observable does not change sign on the grid")
    k = int(crossings[0])
    # halved before the sum, so that the midpoint of two huge points is finite
    return float(0.5 * grid[k] + 0.5 * grid[k + 1]), float(abs(grid[k + 1] - grid[k]))


# --- Otto-null thermometry -------------------------------------------------------------


def _bose(omega: float, temperature: float) -> float:
    return 1.0 / np.expm1(omega / temperature)


def _occupation_gap(omega_h: float, omega_c: float, t_h, t_c: float):
    """nbar_c - nbar_h, elementwise over an array of T_h; expm1
    overflowing to inf gives the nbar = 0 limit."""
    with np.errstate(all="ignore"):
        return _bose(omega_c, t_c) - _bose(omega_h, t_h)


def _exchange_conductance(kappa_h: float, kappa_c: float, g: float) -> float:
    """K in I = K (nbar_c - nbar_h): the exchange rate G = 4 g^2/(kappa_h +
    kappa_c) in series with both damping rates, 1/K = 1/G + 1/kappa_h +
    1/kappa_c. K is 0 at g = 0 and tends to the series damping rate at
    g >> kappa, so it cannot overflow."""
    with np.errstate(divide="ignore", over="ignore"):
        inv_g = (0.5 * kappa_h + 0.5 * kappa_c) / np.float64(2 * g * g)
        return float(1.0 / (inv_g + 1.0 / kappa_h + 1.0 / kappa_c))


def thermometry_current(omega_h: float, omega_c: float, kappa_h: float,
                        kappa_c: float, g: float, t_h, t_c: float):
    """Steady-state exchange current of two resonantly coupled modes.

    Second-moment equations of the g(a_h+ a_c + h.c.) model with local
    damping are closed and linear: with c = <a_h+ a_c>,
        dn_h/dt = 2 g Im c + kappa_h (nbar_h - n_h)
        dn_c/dt = -2 g Im c + kappa_c (nbar_c - n_c)
        dc/dt   = i g (n_c - n_h) - (kappa_h + kappa_c)/2 c.
    Their steady state gives the current 2 g Im c = K (nbar_c - nbar_h) in
    closed form (see ``_exchange_conductance``), evaluated elementwise over
    an array of T_h. It is positive when quanta flow from the cold mode to
    the hot mode, and its sign is exactly that of nbar_c - nbar_h, which
    vanishes at Omega_h/T_h = Omega_c/T_c.
    """
    gap = _occupation_gap(omega_h, omega_c, t_h, t_c)
    with np.errstate(over="ignore", invalid="ignore"):
        return _exchange_conductance(kappa_h, kappa_c, g) * gap


def thermometry_simulate(omega_h: float, omega_c: float, kappa_h: float,
                         kappa_c: float, g: float, t_c_true: float,
                         t_h_grid) -> NullProtocolResult:
    """Sweep T_h, locate the sign change of the steady current, and read
    off T_c = T_h* Omega_c/Omega_h (Otto-null thermometry).

    The bracketing midpoint is used as the null locator (first order in
    the grid spacing); a grid point exactly on the null is returned with
    zero error. Both frequencies, both damping rates and every temperature
    must be positive. A current that is not finite raises
    NumericalInstability.
    """
    t_h_grid = np.asarray(t_h_grid, dtype=float)
    if not (np.all(t_h_grid > 0)
            and min(omega_h, omega_c, kappa_h, kappa_c, t_c_true) > 0):
        raise InvalidParams("frequencies, damping rates and temperatures "
                            "must be positive")
    currents = thermometry_current(omega_h, omega_c, kappa_h, kappa_c, g,
                                   t_h_grid, t_c_true)
    if not np.all(np.isfinite(currents)):
        raise NumericalInstability("exchange current overflows the float range")
    # K > 0 whenever g != 0, so the current changes sign exactly where
    # nbar_c - nbar_h does, also where K (nbar_c - nbar_h) underflows to 0
    signs = (_occupation_gap(omega_h, omega_c, t_h_grid, t_c_true) if g
             else currents)
    t_star, step = _locate_null(t_h_grid, signs)
    return NullProtocolResult(
        null_location=float(t_star),
        estimated_parameter=float(t_star * (omega_c / omega_h)),
        error_estimate=float(0.5 * step * (omega_c / omega_h)),
        sweep_trace=list(zip(t_h_grid.tolist(), currents.tolist())),
    )


def thermometry_error(omega_h: float, omega_c: float, t_c: float,
                      kappa_h: float, kappa_c: float, g: float,
                      delta_i: float, delta_t_h: float) -> dict:
    """Error-propagation estimate of the recovered T_c at the null point,
    plus the closed-form constants comparing it to the Cramér-Rao floor.

    Delta T_c^2 = (dI/dT_c)^-2 DeltaI^2 + (Omega_c/Omega_h)^2 DeltaT_h^2,
    with the exact slope dI/dT_c = K (Omega_c/T_c^2) nbar_c (nbar_c + 1) of
    the moment-model current at T_h = T_c Omega_h/Omega_c. C_2/C_1 >= 1
    measures how far the protocol sits above the Cramér-Rao floor; for
    equal damping rates it is minimized at g/kappa = 8^(-1/4) where it
    equals 1 + sqrt(2).
    """
    if min(omega_h, omega_c, t_c, kappa_h, kappa_c, g) <= 0:
        raise InvalidParams("all thermometry parameters must be positive")
    nbar_c = _bose(omega_c, t_c)
    di_dtc = (_exchange_conductance(kappa_h, kappa_c, g) * omega_c / t_c**2
              * nbar_c * (nbar_c + 1))
    delta_t_c = np.sqrt((delta_i / di_dtc) ** 2
                        + (omega_c / omega_h) ** 2 * delta_t_h**2)
    c1 = (2 * (kappa_h + kappa_c) * (kappa_h * kappa_c + 4 * g**2)) / (
        kappa_c * np.sqrt(
            8 * g**2 * kappa_c * kappa_h
            + kappa_h**2 * (kappa_c**2 + 16 * g**2)
            + 2 * kappa_c * kappa_h**3
            + 32 * g**4
            + kappa_h**4
        )
    )
    c2 = (kappa_h + kappa_c) * (kappa_h * kappa_c + 4 * g**2) / (
        np.sqrt(2.0) * kappa_h * kappa_c * g
    )
    return {
        "delta_t_c": float(delta_t_c),
        "c1": float(c1),
        "c2": float(c2),
        "c2_over_c1": float(c2 / c1),
    }


def josephson_a_operator(lam: float, n_max: int) -> np.ndarray:
    """Diagonal dressing operator of a Josephson-coupled cavity mode,
    A = 2 lam e^{-2 lam^2} sum_n L_n^{(1)}(4 lam^2)/(n+1) |n><n|.

    Provided for completeness; the quantitative thermometry protocol runs
    on the effective exchange coupling g = E_J A_h A_c / 2 built from the
    ground-state matrix elements (see ``josephson_effective_g``).
    """
    from scipy.special import eval_genlaguerre

    n = np.arange(n_max + 1)
    diag = 2 * lam * np.exp(-2 * lam**2) * eval_genlaguerre(n, 1, 4 * lam**2) / (n + 1)
    return np.diag(diag).astype(complex)


def josephson_effective_g(e_j: float, lam_h: float, lam_c: float) -> float:
    """Effective exchange coupling g = E_J A_h A_c / 2 from the
    ground-state elements of the dressing operators."""
    a_h = float(josephson_a_operator(lam_h, 0)[0, 0].real)
    a_c = float(josephson_a_operator(lam_c, 0)[0, 0].real)
    return 0.5 * e_j * a_h * a_c


# --- two-stroke magnetometry -------------------------------------------------------------


def magnetometry_null(omega_un_true: float, t_h: float, t_c: float,
                      theta: float, omega_k_grid) -> NullProtocolResult:
    """Sweep the known gap omega_k, locate the work sign reversal of the
    two-stroke machine, and estimate omega_un = omega_k* T_c/T_h.

    The per-point error in locating omega_k* (half the bracketing step)
    propagates to the estimate suppressed by the factor T_c/T_h.
    """
    omega_k_grid = np.asarray(omega_k_grid, dtype=float)
    trace = []
    for omega_k in omega_k_grid:
        rep = cycles.two_stroke(float(omega_k), omega_un_true, t_h, t_c, theta)
        trace.append((float(omega_k), rep.net_work_output))
    works = np.array([w for _, w in trace])
    omega_star, step = _locate_null(omega_k_grid, works)
    return NullProtocolResult(
        null_location=float(omega_star),
        estimated_parameter=float(omega_star * (t_c / t_h)),
        error_estimate=float(0.5 * step * (t_c / t_h)),
        sweep_trace=trace,
    )
