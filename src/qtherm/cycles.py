"""Reciprocating thermal machines.

Closed-form cycles (three-level maser, particle-in-box Carnot, harmonic
Otto with thermal or squeezed-thermal hot bath, two-qubit two-stroke
machine) plus numerically simulated variants: a finite-time Otto cycle on
a harmonic oscillator, integrated on the second-moment (covariance) route
of ``oscillators``, and the outcoupled engine that deposits work into an
external oscillator through impulse couplings, run on the oscillator's
<a> and <n>.

Sign convention used throughout the package: W > 0 is work done ON the
working fluid, Q > 0 is heat flowing INTO it, so a cycle satisfies
sum(W) + sum(Q) = 0 and the useful output is net_work_output = -sum(W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
# unused here, but bench/tracing.py counts calls to cycles.expm by name
from scipy.linalg import expm  # noqa: F401

from . import oscillators, qcore
from .errors import InvalidParams, NumericalInstability, UnclassifiableState
from .qcore import SIGMA_X, SIGMA_Z

QUASI_STATIC = "QuasiStatic"
# the work of a heat-only stroke: -0.0 is the additive identity of floats
# (x + 0.0 is +0.0 for x = -0.0), so it never moves a sum's sign of zero
_NO_WORK = -0.0


# --- report types ----------------------------------------------------------------


@dataclass(frozen=True)
class StrokeRecord:
    """One stroke of a cycle: its kind, work/heat ledger entries, duration."""

    kind: str
    work: float
    heat: float
    duration: object = QUASI_STATIC


@dataclass(frozen=True)
class CycleReport:
    strokes: List[StrokeRecord]
    net_work_output: float
    q_hot: float
    q_cold: float
    efficiency: Optional[float]
    cop: Optional[float]
    mode: str
    carnot_margin: float
    extras: dict


@dataclass(frozen=True)
class MaserReport:
    eta: float
    cop: float
    inversion: bool
    mode: str


# --- the machine ledger ---------------------------------------------------------------


def classify_mode(j_h: float, j_c: float, p: float, tol: float = 1e-9) -> str:
    """Operating mode from the sign table of the hot and cold heats (or
    steady currents) J_h, J_c and the work (or power) P put in. A value at
    most tol scale counts as zero, and the first law must hold to 1e-8
    scale, with scale = max(|J_h|, |J_c|, |P|): no energy unit enters."""
    scale = max(abs(j_h), abs(j_c), abs(p))
    if abs(j_h + j_c + p) > 1e-8 * scale:
        raise UnclassifiableState("first-law residual exceeds tolerance")
    sh, sc, sp = (0 if abs(x) <= tol * scale else (1 if x > 0 else -1)
                  for x in (j_h, j_c, p))
    if sh == sc == sp == 0:
        return "Off"
    if sh >= 0 and sc <= 0 and sp <= 0:
        return "Engine"
    if sh <= 0 and sc >= 0 and sp >= 0:
        return "Refrigerator"
    if sh <= 0 and sc <= 0 and sp >= 0:
        return "Heater"
    if sh >= 0 and sc <= 0 and sp >= 0:
        # work consumed while heat still flows from hot to cold
        return "Accelerator"
    raise UnclassifiableState(
        f"sign pattern (J_h={j_h}, J_c={j_c}, P={p}) matches no operating mode"
    )


def _merit(mode: str, q_h: float, q_c: float, w_in: float) -> Optional[float]:
    """Figure of merit of a machine whose heats are integrated, from its
    heats and work input: eta = W_out/Q_h for an Engine with Q_h > 0,
    COP = Q_c/W_in for a Refrigerator with W_in > 0, None otherwise."""
    if mode == "Engine" and q_h > 0:
        return -w_in / q_h
    if mode == "Refrigerator" and w_in > 0:
        return q_c / w_in
    return None


def _report(strokes, q_h, q_c, mode, merit, t_h, t_c, extras) -> CycleReport:
    """The CycleReport of a cycle. Its net work output is minus the stroke
    works added one by one in stroke order; ``merit`` is an Engine's
    efficiency or a Refrigerator's COP, with its Carnot margin between the
    reference temperatures t_h > t_c, or None (margin 0)."""
    total = _NO_WORK
    for stroke in strokes:
        total += stroke.work
    eta = merit if mode == "Engine" else None
    cop = merit if mode == "Refrigerator" else None
    margin = 0.0
    if eta is not None:
        margin = (1 - t_c / t_h) - eta
    elif cop is not None:
        margin = t_c / (t_h - t_c) - cop
    return CycleReport(strokes, -total, q_h, q_c, eta, cop, mode, margin,
                       extras)


def _otto_strokes(w_ab, q_c, w_ba, q_h, ramp, thermalization):
    """The four strokes of an Otto cycle from omega_a to omega_b and back."""
    return [
        StrokeRecord("IsentropicExpansion", w_ab, 0.0, ramp),
        StrokeRecord("ColdIsochore", _NO_WORK, q_c, thermalization),
        StrokeRecord("IsentropicCompression", w_ba, 0.0, ramp),
        StrokeRecord("HotIsochore", _NO_WORK, q_h, thermalization),
    ]


def _coth(x: float) -> float:
    return 1.0 / np.tanh(x)


# --- three-level maser -------------------------------------------------------------


def maser_analyze(omega_h: float, omega_c: float, t_h: float, t_c: float) -> MaserReport:
    """Quasi-static three-level maser operating between two baths.

    The pump transition extracts omega_p = omega_h - omega_c per quantum;
    population inversion (and hence engine operation) requires
    omega_c/omega_h >= T_c/T_h.
    """
    if not (omega_h > omega_c > 0):
        raise InvalidParams("need omega_h > omega_c > 0")
    if not (t_h > t_c > 0):
        raise InvalidParams("need T_h > T_c > 0")
    inversion = omega_c / omega_h >= t_c / t_h
    eta = 1.0 - omega_c / omega_h
    cop = omega_c / (omega_h - omega_c)
    mode = "Engine" if inversion else "Refrigerator"
    return MaserReport(eta=eta, cop=cop, inversion=inversion, mode=mode)


# --- particle-in-box Carnot ---------------------------------------------------------


def box_carnot(l_a: float, l_b: float, mass: float) -> CycleReport:
    """Two-level particle-in-a-box Carnot cycle.

    The working fluid is restricted to the two lowest box levels
    E_n(L) = n^2 pi^2 / (2 m L^2). Adiabats hold the populations fixed;
    the "isotherms" hold the mean energy fixed while the ground-state
    weight |a1(L)|^2 = 4/3 - L^2/(3 l_ref^2) adjusts. Work per stroke is
    the integral of the force F(L) = sum_n |a_n|^2 n^2 pi^2 / (m L^3)
    along L, in closed form in the ground-level energies E_A, E_B at L_A,
    L_B. Energies or works that leave the float range raise InvalidParams.
    """
    if not (l_a > l_b > 0):
        raise InvalidParams("need L_A > L_B > 0")
    if mass <= 0:
        raise InvalidParams("mass must be positive")
    two_ln2 = 2 * float(np.log(2.0))
    with np.errstate(all="ignore"):
        e_a, e_b = (np.pi**2 / (2 * mass * np.array([l_a, l_b]) ** 2)).tolist()
    # e_a <= e_b, so this keeps every work finite (and rejects NaN)
    if not (e_a > 0 and two_ln2 * e_b < np.inf):
        raise InvalidParams(f"box energies E_A = {e_a:.3g}, E_B = {e_b:.3g} "
                            "leave the float range")
    # work done BY the system on the wall along each stroke
    w_ab = e_a - e_b
    w_bc = two_ln2 * e_b
    w_cd = -w_ab
    w_da = -two_ln2 * e_a

    q_hot = w_bc   # isothermal expansion: <E> constant, heat in = work out
    q_cold = w_da  # isothermal compression: heat expelled (negative)
    strokes = [
        StrokeRecord("IsentropicCompression", -w_ab, 0.0),
        StrokeRecord("IsothermalExpansion", -w_bc, q_hot),
        StrokeRecord("IsentropicExpansion", -w_cd, 0.0),
        StrokeRecord("IsothermalCompression", -w_da, q_cold),
    ]
    eta = _merit("Engine", q_hot, q_cold, -(w_ab + w_bc + w_cd + w_da))
    # <E_A> and <E_B> play the role of the cold/hot temperatures here, so
    # the cycle saturates its own Carnot bound by construction.
    return _report(strokes, q_hot, q_cold, "Engine", eta, e_b, e_a, {})


# --- harmonic-oscillator Otto cycle ----------------------------------------------------


def _check_otto(omega_a, omega_b, t_h, t_c):
    if not (omega_a > omega_b > 0):
        raise InvalidParams("need omega_A > omega_B > 0")
    if not (t_h > t_c > 0):
        raise InvalidParams("need T_h > T_c > 0")


def _otto_report(omega_a, omega_b, t_h, t_c, delta_h_r, t_h_gen, extras, engine):
    """Stroke ledger of the ideal harmonic Otto cycle.

    The hot-end mean energy is the thermal one at T_h scaled by
    ``delta_h_r``; ``t_h_gen`` is the hot temperature the Carnot margin is
    taken against, and ``engine`` selects the mode. A stroke energy beyond
    the float range raises NumericalInstability.
    """
    with np.errstate(all="ignore"):  # checked below
        ch = _coth(omega_a / (2 * t_h)) * delta_h_r
        cc = _coth(omega_b / (2 * t_c))
        w_ab = 0.5 * (omega_b - omega_a) * ch
        q_c = 0.5 * omega_b * (cc - ch)
        w_ba = 0.5 * (omega_a - omega_b) * cc
        q_h = -(w_ab + q_c + w_ba)
    if not np.all(np.isfinite([w_ab, q_c, w_ba, q_h])):
        raise NumericalInstability(
            "an Otto stroke energy leaves the float range")
    strokes = _otto_strokes(w_ab, q_c, w_ba, q_h, QUASI_STATIC, QUASI_STATIC)
    ratio = omega_b / omega_a
    if engine:
        mode, merit = "Engine", 1.0 - ratio
    else:
        mode, merit = "Refrigerator", ratio / (1.0 - ratio)
    return _report(strokes, q_h, q_c, mode, merit, t_h_gen, t_c, extras)


def otto_qho(omega_a: float, omega_b: float, t_h: float, t_c: float) -> CycleReport:
    """Ideal (adiabatic, fully thermalizing) harmonic Otto cycle.

    Engine when omega_b/omega_a >= T_c/T_h with eta = 1 - omega_b/omega_a;
    refrigerator otherwise with COP = omega_b/(omega_a - omega_b). The ratio
    decides even where both coth factors round to 1 and the net work to 0.
    """
    _check_otto(omega_a, omega_b, t_h, t_c)
    return _otto_report(omega_a, omega_b, t_h, t_c, 1.0, t_h, {},
                        engine=omega_b / omega_a >= t_c / t_h)


def otto_max_power(t_h: float, t_c: float) -> dict:
    """High-temperature work maximization over the compression ratio.

    W = (x - 1)(T_c/x - T_h) over x = omega_B/omega_A has its maximum
    where dW/dx = T_c/x^2 - T_h vanishes, at the Curzon-Ahlborn point
    x* = sqrt(T_c/T_h), eta_bar = 1 - sqrt(T_c/T_h).
    """
    if not (t_h > t_c > 0):
        raise InvalidParams("need T_h > T_c > 0")
    x_star = float(np.sqrt(t_c / t_h))
    return {"ratio_star": x_star, "eta_bar": 1.0 - x_star}


def otto_squeezed(omega_a: float, omega_b: float, t_h: float, t_c: float,
                  r: float) -> CycleReport:
    """Otto cycle with a squeezed-thermal hot contact of squeezing r.

    The hot-end mean energy is scaled by
    Delta_H_r = 1 + (2 + 1/<n0>) sinh^2 r; the cycle efficiency stays
    1 - omega_b/omega_a but the relevant bound becomes the generalized
    limit eta_gen = 1 - T_c/(T_h (1 + 2 sinh^2 r)). The cycle is an engine
    when it outputs work, i.e. Delta_H_r coth(omega_a/2T_h) >=
    coth(omega_b/2T_c), a sign taken without cancellation. A hot-end energy
    or T_gen beyond the float range raises InvalidParams.
    """
    _check_otto(omega_a, omega_b, t_h, t_c)
    if r < 0:
        raise InvalidParams("squeezing must be non-negative")
    # Delta_H_r - 1 with 1/<n0> = expm1(omega_a/T_h); r = 0 is exactly the
    # thermal cycle even where expm1 overflows
    with np.errstate(all="ignore"):  # checked below
        excess = (2.0 + np.expm1(omega_a / t_h)) * np.sinh(r) ** 2 if r > 0 else 0.0
        dhr = 1.0 + excess
        hot_energy = 0.5 * omega_a * _coth(omega_a / (2 * t_h)) * dhr
        t_h_gen = t_h * (1.0 + 2.0 * np.sinh(r) ** 2)
    if not (np.isfinite(hot_energy) and np.isfinite(t_h_gen)):
        raise InvalidParams(f"squeezed hot-end energy {hot_energy:.3g} or T_gen "
                            f"{t_h_gen:.3g} leaves the float range")
    eta_bar_sq = 1.0 - np.sqrt(t_c / t_h_gen)
    eta_gen = 1.0 - t_c / t_h_gen
    extras = {"eta_bar_squeezed": eta_bar_sq, "eta_gen": eta_gen, "delta_h_r": dhr}
    engine = _hot_end_dominates(omega_a / (2 * t_h), omega_b / (2 * t_c), excess)
    return _otto_report(omega_a, omega_b, t_h, t_c, dhr, t_h_gen, extras, engine)


def _hot_end_dominates(a: float, b: float, excess: float) -> bool:
    """Whether (1 + excess) coth(a) >= coth(b), i.e. the cycle outputs work.

    For b >= a it holds since coth falls. Otherwise it compares
    excess coth(a) with coth(b) - coth(a)
    = 2 e^{-2b} (1 - e^{-2(a-b)}) / ((1 - e^{-2a})(1 - e^{-2b})),
    whose factors carry no cancellation, so the sign survives where both
    coth round to 1.
    """
    if b >= a:
        return True
    gap = 2.0 * np.exp(-2.0 * b) * -np.expm1(-2.0 * (a - b)) / (
        np.expm1(-2.0 * a) * np.expm1(-2.0 * b))
    return bool(excess * _coth(a) > gap)


def otto_numeric(omega_a: float, omega_b: float, t_h: float, t_c: float,
                 ramp_duration: float, thermalization_time: float,
                 kappa: float = 1.0) -> CycleReport:
    """Finite-time Otto cycle of a harmonic oscillator.

    Isentropes are linear frequency ramps driven unitarily; isochores are
    a damping channel at rate kappa toward the respective bath
    temperature. One cycle is run starting from the hot Gibbs state on the
    second-moment route of ``oscillators`` (exact for these Gaussian
    states, with no Fock cutoff), and the diabatic work excess relative to
    the ideal cycle is reported in ``extras`` (quantum friction makes it
    non-negative).

    Only the expansion's fundamental matrix M = [[a, b], [c, d]] is
    integrated (``oscillators.ramp_fundamental``). The compression's
    omega(t) is the expansion's at ramp_duration - t, and if y(t) solves
    the expansion, P y(ramp_duration - t) with P = diag(1, -1) solves the
    compression, so its fundamental matrix is P M⁻¹ P = [[d, b], [c, a]]
    (det M = 1: each Magnus step is the exponential of a traceless
    matrix). The swap only permutes the entries of the scaled norm the
    ramp's grid is refined in, so the compression meets the same
    tolerance.
    """
    _check_otto(omega_a, omega_b, t_h, t_c)
    for name, value in (("ramp_duration", ramp_duration),
                        ("thermalization_time", thermalization_time),
                        ("kappa", kappa)):
        if not value > 0:
            raise InvalidParams(f"{name} must be positive")

    def expansion_squared(t):
        return (omega_a + (omega_b - omega_a) * t / ramp_duration) ** 2

    energy = oscillators.covariance_energy
    with np.errstate(all="ignore"):  # checked below
        sigma = oscillators.thermal_covariance(omega_a, t_h)
        e0 = energy(sigma, omega_a)
        m = oscillators.ramp_fundamental(expansion_squared, ramp_duration)
        sigma = m @ sigma @ m.T  # expansion
        e1 = energy(sigma, omega_b)
        sigma = oscillators.thermalize_covariance(sigma, omega_b, t_c, kappa,
                                                  thermalization_time)
        e2 = energy(sigma, omega_b)
        m = m[::-1, ::-1].T  # [[d, b], [c, a]]
        sigma = m @ sigma @ m.T  # compression
        e3 = energy(sigma, omega_a)
        sigma = oscillators.thermalize_covariance(sigma, omega_a, t_h, kappa,
                                                  thermalization_time)
        e4 = energy(sigma, omega_a)
        w_ab, q_c, w_ba, q_h = e1 - e0, e2 - e1, e3 - e2, e4 - e3
        net_out = -(w_ab + w_ba)
        ideal = otto_qho(omega_a, omega_b, t_h, t_c)
    # a frequency whose square, or an energy E/omega², leaves the float range
    if not np.all(np.isfinite([e0, e1, e2, e3, e4, net_out])):
        raise NumericalInstability("oscillator energies leave the float range")

    extras = {
        "diabatic_work_excess": ideal.net_work_output - net_out,
        "cycle_closure": e4 - e0,
    }
    strokes = _otto_strokes(w_ab, q_c, w_ba, q_h, ramp_duration,
                            thermalization_time)
    mode = classify_mode(q_h, q_c, -net_out, tol=1e-12)
    return _report(strokes, q_h, q_c, mode, _merit(mode, q_h, q_c, -net_out),
                   t_h, t_c, extras)


# --- two-stroke two-qubit machine -----------------------------------------------------


def two_stroke_work(omega_k, omega_un: float, t_h: float, t_c: float,
                    theta: float):
    """Excited populations n_k, n_un, transferred fraction sin²(theta) and
    unitary-stroke work W of the two-stroke machine, elementwise over an
    array of omega_k (see ``two_stroke``).

    Beyond log(max float) e^x overflows, and its inf is the n = 0 limit.
    The exact factor 2 multiplies last, after the gap has met the
    population difference (below 1/2 in size), so W overflows only when
    its true value does.
    """
    if not (np.all(omega_k > omega_un) and omega_un > 0):
        raise InvalidParams("need omega_k > omega_un > 0")
    if not (t_h > t_c > 0):
        raise InvalidParams("need T_h > T_c > 0")
    if not (0 <= theta <= np.pi):
        raise InvalidParams("theta must lie in [0, pi]")
    with np.errstate(over="ignore"):
        n_k = 1.0 / (1.0 + np.exp(2 * omega_k / t_h))
        n_un = 1.0 / (1.0 + np.exp(2 * omega_un / t_c))
        s2 = np.sin(theta) ** 2
        w = -(omega_k - omega_un) * (n_k - n_un) * s2 * 2
    return n_k, n_un, s2, w


def two_stroke(omega_k: float, omega_un: float, t_h: float, t_c: float,
               theta: float) -> CycleReport:
    """Two-qubit two-stroke machine: partial swap, then re-thermalization.

    The qubits (levels +-omega) start Gibbs-populated at T_h (gap omega_k)
    and T_c (gap omega_un); the unitary stroke rotates the single-excitation
    subspace by theta, transferring a fraction sin^2(theta) of the
    population difference.
    """
    n_k, n_un, s2, w = two_stroke_work(omega_k, omega_un, t_h, t_c, theta)
    q_c = omega_un * (n_un - n_k) * s2 * 2  # 2 last, as in the work
    q_h = omega_k * (n_k - n_un) * s2 * 2
    if not np.all(np.isfinite([w, q_h, q_c])):
        raise NumericalInstability(
            "two-stroke work or heat leaves the float range")
    strokes = [
        StrokeRecord("UnitaryStroke", w, 0.0),
        StrokeRecord("ThermalizationStroke", _NO_WORK, q_h),
        StrokeRecord("ThermalizationStroke", _NO_WORK, q_c),
    ]
    if abs(n_k - n_un) < 1e-15 or s2 == 0.0:
        mode, merit = "Off", None
    elif n_k > n_un:
        mode, merit = "Engine", 1.0 - omega_un / omega_k
    else:
        mode, merit = "Refrigerator", omega_un / (omega_k - omega_un)
    return _report(strokes, q_h, q_c, mode, merit, t_h, t_c,
                   {"n_k": n_k, "n_un": n_un})


# --- outcoupled engine: inter-cycle coherence ------------------------------------------


@dataclass(frozen=True)
class OutcoupledParams:
    """TLS Otto engine kicking an external oscillator once per cycle.

    The engine Hamiltonian is H_E(t) = delta sx + Omega(t) sz with
    Omega(t) = -v t on the first half cycle and -v(T - t) on the second;
    the impulse coupling g sx (a + a+) fires at t = (m + b) T. Baths act
    as instantaneous Gibbs resets of the engine (cold at the cycle
    boundaries, hot at mid-cycle). v, the period T, the oscillator
    frequency omega and the cold inverse temperature follow from delta.

    |g| is bounded by 1e6. Each kick moves <a> by at most |g|, so <n>
    stays below (n_cycles g)², far inside the float range for any cycle
    count a loop can reach; a kick that strong is far outside the weak
    coupling the engine models.
    """

    delta: float = 1.0
    g: float = 0.02
    b: float = 0.1

    def __post_init__(self):
        if not 1e-150 < self.delta < 1e150:  # so delta² is a normal float
            raise InvalidParams("delta must lie in (1e-150, 1e150)")
        if not abs(self.g) <= 1e6:
            raise InvalidParams("|g| must be at most 1e6")

    @property
    def v(self) -> float:
        return 0.5 * self.delta**2

    @property
    def period(self) -> float:
        return 20.0 / self.delta

    @property
    def omega(self) -> float:
        return 2 * np.pi * 0.05 / self.period

    @property
    def beta_c(self) -> float:
        return 1.0 / self.delta


def outcoupled_multicycle(params: OutcoupledParams, n_cycles: int,
                          per_cycle_measurement: bool) -> np.ndarray:
    """Average external-system work after each of n_cycles engine cycles.

    Returns the length-n_cycles array of mean oscillator energy gains
    W_k = omega <n>_k (the external system starts in its ground state,
    E_0 = 0). With ``per_cycle_measurement`` the oscillator is fully
    dephased in its energy basis at each cycle boundary, which reproduces
    the average over per-cycle projective energy measurements.

    The mean work needs only <a> and <n>. In the sx basis the kick is
    sum_s |s><s| (x) D(-i g s); the engine is re-prepared at every half
    cycle and only unitaries act on it between the kick and the trace, so
    the oscillator is displaced by -i g s with probability
    <s|rho_E(bT)|s> and otherwise rotates freely. With
    alpha = -i g Tr(rho_E(bT) sx) and a' = e^{-i omega b T} <a>, a cycle
    maps <n> to <n> + g² + 2 Re(alpha* a') and <a> to
    e^{-i omega (1 - b) T} (a' + alpha), or to 0 when dephased.
    """
    delta, g, b = params.delta, params.g, params.b
    v, period, omega = params.v, params.period, params.omega
    if not (0 < b < 0.5):
        raise InvalidParams("impulse fraction b must lie in (0, 1/2)")

    # engine state at the kick: the cold Gibbs state, then the first ramp
    u_e1 = qcore.midpoint_propagator(delta * SIGMA_X, -v * SIGMA_Z, 0.0,
                                     b * period, 400)
    gibbs_c = qcore.gibbs_state(delta * SIGMA_X, 1.0 / params.beta_c)
    alpha = -1j * g * np.trace(u_e1 @ gibbs_c @ u_e1.conj().T @ SIGMA_X).real
    to_kick, from_kick = np.exp(-1j * omega * period * np.array([b, 1 - b]))

    a_mean, n_mean = 0j, 0.0
    energies = np.zeros(n_cycles)
    for cyc in range(n_cycles):
        a_kick = to_kick * a_mean
        n_mean += g**2 + 2 * (alpha.conjugate() * a_kick).real
        a_mean = 0j if per_cycle_measurement else from_kick * (a_kick + alpha)
        energies[cyc] = omega * n_mean
    if not np.all(np.isfinite(energies)):
        raise NumericalInstability("oscillator moments are not finite")
    return energies


# --- outcoupled engine: quantum statistics --------------------------------------------


def outcoupled_indistinct_ratio(n_atoms: int, delta: float, omega0: float,
                                v: float, t1: float, beta_c: float) -> float:
    """Work ratio of indistinguishable vs distinguishable N-atom engines.

    To leading order in the impulse coupling the work deposited in the
    external oscillator factorizes, and the engine statistics enter only
    through <[V_E(t1) in the interaction picture]^2> over the initial
    Gibbs state. Distinguishable atoms use the full 2^N product state with
    V_E = sum_j sx_j; indistinguishable bosonic atoms use the (N+1)-dim
    symmetric sector with V_E = S_x. Returns indistinct / distinct.
    """
    if n_atoms < 1 or n_atoms > 12:
        raise InvalidParams("n_atoms must be in [1, 12]")

    # distinguishable: per-atom mean of the evolved sx, H(t) = h1 + t v sz
    h1 = delta * SIGMA_X + omega0 * SIGMA_Z
    u1 = qcore.midpoint_propagator(h1, v * SIGMA_Z, 0.0, t1, 400)
    rho1 = qcore.gibbs_state(h1, 1.0 / beta_c)
    sx_t = u1.conj().T @ SIGMA_X @ u1
    m1 = float(np.trace(rho1 @ sx_t).real)
    dist = n_atoms + n_atoms * (n_atoms - 1) * m1**2  # (sx_t)^2 = identity

    # indistinguishable: symmetric sector, S_x = 2 J_x, S_z = 2 J_z
    jx, _jy, jz = qcore.spin_operators(n_atoms / 2.0)
    sx, sz = 2 * jx, 2 * jz
    h = delta * sx + omega0 * sz
    u = qcore.midpoint_propagator(h, v * sz, 0.0, t1, 400)
    rho = qcore.gibbs_state(h, 1.0 / beta_c)
    v_i = u.conj().T @ sx @ u
    indist = float(np.trace(rho @ v_i @ v_i).real)
    return indist / dist
