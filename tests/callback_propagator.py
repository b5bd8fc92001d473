"""Batched midpoint propagator of a Hamiltonian given as a function of
time, for the tests.

The library's ``qcore.midpoint_propagator`` takes the linear sweep
H(t) = h_a + t h_b as two arrays. This module keeps the general route for
drives that are not linear in t (sinusoidal drives, Floquet periods) and
as the oracle the linear route is checked against bit for bit: H at each
step's midpoint from one call each, one batched eigendecomposition, and
the steps multiplied in time order by ``qcore.ordered_product``.
"""

import numpy as np

from qtherm import qcore


def callback_propagator(h_of_t, t0: float, t1: float, n_steps: int) -> np.ndarray:
    dt = (t1 - t0) / n_steps
    hs = np.array([h_of_t(t0 + (k + 0.5) * dt) for k in range(n_steps)],
                  dtype=complex)
    vals, vecs = np.linalg.eigh(hs)
    steps = (vecs * np.exp(-1j * dt * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return qcore.ordered_product(steps)
