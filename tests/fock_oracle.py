"""Fock-basis oscillator oracle for the tests.

The library runs the oscillator on its second-moment (Gaussian) route.
This module keeps the pieces of the independent Fock route that the
library does not need: position and momentum matrices, the Hamiltonian
H(omega) = p²/2 + omega² x²/2 and its Gibbs state, all in the Fock basis
of a reference frequency omega_ref, with x = (a + a†)/sqrt(2 omega_ref) and
p = i sqrt(omega_ref/2)(a† - a). The ramp and damping propagators,
``oscillators.FrequencyRamp`` and ``oscillators.damp_thermalize``, stay in
the library.

It also keeps the Fock route of the outcoupled engine, which the library
runs on the oscillator's <a> and <n> alone: the engine and a truncated
oscillator share one density matrix, the kick is one ``expm`` and the
engine is traced out at each bath reset.
"""

import numpy as np
from scipy.linalg import expm

from qtherm import oscillators, qcore
from qtherm.errors import CutoffTooSmall
from qtherm.qcore import SIGMA_X, SIGMA_Z


def xp_ops(omega_ref: float, n_max: int):
    a = oscillators.destroy(n_max)
    x = (a + a.conj().T) / np.sqrt(2 * omega_ref)
    p = 1j * np.sqrt(omega_ref / 2) * (a.conj().T - a)
    return x, p


def hamiltonian(omega: float, omega_ref: float, n_max: int) -> np.ndarray:
    """H(omega) = p²/2 + omega² x²/2 in the reference Fock basis."""
    x, p = xp_ops(omega_ref, n_max)
    return (p @ p) / 2 + (omega**2) * (x @ x) / 2


def thermal_populations(omega: float, temperature: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    w = np.exp(-omega * n / temperature)
    return w / w.sum()


def thermal_state(omega: float, temperature: float, omega_ref: float,
                  n_max: int) -> np.ndarray:
    """Gibbs state of H(omega) expressed in the reference Fock basis."""
    pops = thermal_populations(omega, temperature, n_max)
    if pops[-1] > 1e-10:
        raise CutoffTooSmall(
            f"top Fock level holds population {pops[-1]:.2e} > 1e-10"
        )
    rho = np.diag(pops).astype(complex)
    if abs(omega - omega_ref) < 1e-14 * omega_ref:
        return rho
    s = oscillators.squeeze(0.5 * np.log(omega / omega_ref), n_max)
    return s @ rho @ s.conj().T


def outcoupled_cycle(params, n_fock: int):
    """One cycle of ``cycles.OutcoupledParams``' engine on the engine ⊗
    Fock(n_fock) space, as a map of the oscillator's density matrix."""
    delta, g, b = params.delta, params.g, params.b
    v, period, omega = params.v, params.period, params.omega
    e_max = 2 * np.sqrt(delta**2 + (v * period / 2) ** 2)
    beta_h = 1.0 / (4 * e_max)  # the hot reset's inverse temperature
    dim = n_fock + 1

    def h_first_half(t):
        return delta * SIGMA_X + (-v * t) * SIGMA_Z

    def h_second_half(t):
        return delta * SIGMA_X + (-v * (period - t)) * SIGMA_Z

    def osc_phase(dt):
        return np.diag(np.exp(-1j * omega * np.arange(dim) * dt))

    a = oscillators.destroy(n_fock)
    u1 = np.kron(qcore.midpoint_propagator(h_first_half, 0.0, b * period, 400),
                 osc_phase(b * period))
    kick = expm(-1j * g * np.kron(SIGMA_X, a + a.conj().T))
    u2 = np.kron(qcore.midpoint_propagator(h_first_half, b * period,
                                           period / 2, 400),
                 osc_phase(period / 2 - b * period))
    u3 = np.kron(qcore.midpoint_propagator(h_second_half, period / 2, period,
                                           400),
                 osc_phase(period / 2))
    gibbs_c = qcore.gibbs_state(delta * SIGMA_X, 1.0 / params.beta_c)
    gibbs_h = qcore.gibbs_state(h_first_half(period / 2), 1.0 / beta_h)
    space = qcore.CompositeSpace((2, dim))

    def one_cycle(rho_s):
        rho = np.kron(gibbs_c, rho_s)
        rho = u2 @ kick @ u1 @ rho @ u1.conj().T @ kick.conj().T @ u2.conj().T
        rho = np.kron(gibbs_h, qcore.partial_trace(rho, space, [1]))
        rho = u3 @ rho @ u3.conj().T
        return qcore.partial_trace(rho, space, [1])

    return one_cycle


def outcoupled_multicycle(params, n_cycles: int, per_cycle_measurement: bool,
                          n_fock: int) -> np.ndarray:
    """``cycles.outcoupled_multicycle`` on the Fock route; CutoffTooSmall
    once the top Fock level holds more than 1e-10."""
    one_cycle = outcoupled_cycle(params, n_fock)
    rho_s = np.zeros((n_fock + 1, n_fock + 1), dtype=complex)
    rho_s[0, 0] = 1.0
    energies = np.zeros(n_cycles)
    for cyc in range(n_cycles):
        rho_s = one_cycle(rho_s)
        if per_cycle_measurement:
            rho_s = np.diag(np.diag(rho_s))
        if float(rho_s[-1, -1].real) > 1e-10:
            raise CutoffTooSmall("oscillator population reached the Fock cutoff")
        energies[cyc] = params.omega * float(np.arange(n_fock + 1)
                                             @ np.diag(rho_s).real)
    return energies
