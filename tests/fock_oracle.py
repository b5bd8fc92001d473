"""Fock-basis oscillator oracle for the tests.

The library runs the oscillator on its second-moment (Gaussian) route.
This module keeps the pieces of the independent Fock route that the
library does not need: position and momentum matrices, the Hamiltonian
H(omega) = p²/2 + omega² x²/2 and its Gibbs state, all in the Fock basis
of a reference frequency omega_ref, with x = (a + a†)/sqrt(2 omega_ref) and
p = i sqrt(omega_ref/2)(a† - a). The ramp and damping propagators,
``oscillators.FrequencyRamp`` and ``oscillators.damp_thermalize``, stay in
the library.
"""

import numpy as np

from qtherm import oscillators
from qtherm.errors import CutoffTooSmall


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
