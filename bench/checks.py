"""Independent oracles and output checks for the benchmark workloads.

Nothing here imports qtherm: every expected value is computed from a
closed form, a moment model, a brute-force search or a direct NumPy
construction, so a checker can reject a wrong output of the program.
A checker raises ``CheckFailed`` naming the quantity that disagrees.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import jv


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(what: str, got, want, atol: float, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if not np.all(err <= lim):
        k = int(np.argmax(err - lim))
        raise CheckFailed(f"{what}: {float(got.flat[k])!r} != {float(want.flat[k])!r}"
                          f" (|diff| {err.flat[k]:.2e})")


# --- otto-friction: second-moment model of the oscillator Otto cycle ---------


def _coth(x: float) -> float:
    return 1.0 / np.tanh(x)


def gibbs_energy(omega: float, temperature: float) -> float:
    return 0.5 * omega * _coth(omega / (2 * temperature))


def ramp_energy(omega_i: float, omega_f: float, tau: float,
                temperature: float) -> float:
    """Energy after a linear ramp omega_i -> omega_f of duration tau that
    starts from the Gibbs state at omega_i.

    For H = p²/2 + omega(t)² x²/2 the moments X = <x²>, P = <p²> and
    C = <{x, p}>/2 obey dX/dt = 2C, dP/dt = -2 omega² C and
    dC/dt = P - omega² X.
    """
    e = gibbs_energy(omega_i, temperature)
    y0 = [e / omega_i**2, e, 0.0]

    def rhs(t, y):
        w2 = (omega_i + (omega_f - omega_i) * t / tau) ** 2
        x, p, c = y
        return [2 * c, -2 * w2 * c, p - w2 * x]

    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    x, p, _c = sol.y[:, -1]
    return 0.5 * p + 0.5 * omega_f**2 * x


def otto_moment_model(omega_a, omega_b, t_h, t_c, ramp) -> dict:
    """Net work, hot and cold heat of the finite-time Otto cycle whose
    isochores thermalize completely (exact to e^-20 at kappa tau = 20)."""
    e0 = gibbs_energy(omega_a, t_h)
    e1 = ramp_energy(omega_a, omega_b, ramp, t_h)
    e2 = gibbs_energy(omega_b, t_c)
    e3 = ramp_energy(omega_b, omega_a, ramp, t_c)
    return {"net_work_output": -((e1 - e0) + (e3 - e2)),
            "q_hot": e0 - e3, "q_cold": e2 - e1}


def ideal_otto_work(omega_a, omega_b, t_h, t_c) -> float:
    return 0.5 * (omega_a - omega_b) * (_coth(omega_a / (2 * t_h))
                                        - _coth(omega_b / (2 * t_c)))


def check_otto(row: dict, p: dict) -> None:
    want = otto_moment_model(p["omega_a"], p["omega_b"], p["t_h"], p["t_c"],
                             p["ramp_duration"])
    for key in ("net_work_output", "q_hot", "q_cold"):
        close(key, row[key], want[key], atol=1e-7)
    ideal = ideal_otto_work(p["omega_a"], p["omega_b"], p["t_h"], p["t_c"])
    require(ideal - row["net_work_output"] >= -1e-9,
            f"diabatic work excess {ideal - row['net_work_output']:.3e} < 0")
    if want["net_work_output"] > 1e-3 and want["q_hot"] > 0:
        require(row["mode"] == "Engine", f"mode {row['mode']!r} != 'Engine'")
        close("efficiency", row["efficiency"],
              row["net_work_output"] / row["q_hot"], atol=1e-12)


# --- lindblad-steady ---------------------------------------------------------------


def gibbs_matrix(h: np.ndarray, temperature: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-(vals - vals.min()) / temperature)
    return (vecs * (w / w.sum())) @ vecs.conj().T


def check_density(what: str, rho: np.ndarray, tol: float = 1e-9) -> None:
    close(f"{what} trace", np.trace(rho).real, 1.0, atol=1e-10)
    close(f"{what} hermiticity", np.max(np.abs(rho - rho.conj().T)), 0.0,
          atol=1e-12)
    require(np.linalg.eigvalsh(rho).min() >= -tol,
            f"{what} has eigenvalue {np.linalg.eigvalsh(rho).min():.2e}")


def check_two_mode(out: dict, h: np.ndarray, t_h: float, t_c: float) -> None:
    rho, total = out["rho"], out["generator"].total
    check_density("steady state", rho)
    residual = np.linalg.norm(total @ rho.reshape(-1, order="F"))
    close("residual |L rho|", residual, 0.0,
          atol=1e-9 * max(1.0, np.linalg.norm(total, 2)))
    j_h, j_c = out["j_hot"], out["j_cold"]
    close("J_h + J_c", j_h + j_c, 0.0, atol=1e-10)
    require(out["sigma"] >= -1e-10,
            f"entropy production {out['sigma']:.3e} < 0")
    if t_h > t_c:
        require(j_h > 0, f"J_h = {j_h:.3e} not positive with T_h > T_c")
    close("max |evolve(rho_ss) - rho_ss|", np.max(np.abs(out["evolved"] - rho)),
          0.0, atol=1e-8)
    if t_h == t_c:
        close("max |rho_ss - Gibbs|", np.max(np.abs(rho - gibbs_matrix(h, t_h))),
              0.0, atol=1e-8)


def check_lindblad_triple(out: dict, h: np.ndarray, temperature: float) -> None:
    """Criterion-05 properties of one random d=2-4 model."""
    check_density("evolved state", out["evolved"])
    require(out["sigma"] >= -1e-9,
            f"entropy production {out['sigma']:.3e} < 0")
    vals, vecs = np.linalg.eigh(h)
    pops = np.real(np.einsum("in,ij,jn->n", vecs.conj(), out["rho"], vecs))
    close("detailed balance", pops[1:] / pops[0],
          np.exp(-(vals[1:] - vals[0]) / temperature), atol=1e-9)


# --- battery-charging ----------------------------------------------------------------


def check_power_bound(trace) -> None:
    slack = np.asarray(trace.powers) ** 2 - (np.asarray(trace.variances)
                                             * np.asarray(trace.energy_fisher))
    require(np.max(slack) <= 1e-9,
            f"P^2 - Var*I_E = {np.max(slack):.3e} > 0")


def free_spin_charging(n: int, b: float, omega: float, times) -> np.ndarray:
    """Deposited energy 2 B N sin²(omega t) of N free spins."""
    return 2 * b * n * np.sin(omega * np.asarray(times)) ** 2


def ergotropy_oracle(rho: np.ndarray, h: np.ndarray) -> float:
    """Ergotropy by brute force over all pairings of populations with
    energy levels."""
    pops = np.linalg.eigvalsh(rho)
    levels = np.linalg.eigvalsh(h)
    perms = np.array(list(itertools.permutations(range(len(pops)))))
    passive = float(np.min(pops[perms] @ levels))
    return float(np.trace(rho @ h).real) - passive


def local_hamiltonian(cell_h: np.ndarray, n: int) -> np.ndarray:
    d = cell_h.shape[0]
    total = np.zeros((d**n, d**n), dtype=complex)
    for i in range(n):
        total += np.kron(np.kron(np.eye(d**i), cell_h), np.eye(d ** (n - i - 1)))
    return total


def energy_variance(rho: np.ndarray, h: np.ndarray) -> float:
    e = np.trace(rho @ h).real
    return float(np.trace(rho @ h @ h).real - e**2)


# --- small-calls --------------------------------------------------------------------


def check_ctm_sweep(rows, omega0: float, t_hot: float, t_cold: float) -> None:
    omega_cr = omega0 * (t_hot - t_cold) / (t_hot + t_cold)
    for row in rows:
        big_omega = row["drive_frequency"]
        close("J_h + J_c + P", row["j_hot"] + row["j_cold"] + row["power"],
              0.0, atol=1e-12)
        close("omega_cr", row["omega_cr"], omega_cr, atol=1e-12, rtol=1e-12)
        if big_omega < omega_cr * (1 - 1e-3):
            require(row["mode"] == "Engine",
                    f"mode {row['mode']!r} below omega_cr at {big_omega}")
            close(f"efficiency at {big_omega}", row["efficiency_or_cop"],
                  2 * big_omega / (omega0 + big_omega), atol=1e-9)
        elif big_omega > omega_cr * (1 + 1e-3):
            require(row["mode"] == "Refrigerator",
                    f"mode {row['mode']!r} above omega_cr at {big_omega}")


def sideband_reference(ratio: float, m_max: int) -> np.ndarray:
    """P_m = J_m(A/Omega)² for the sinusoidal gap modulation."""
    return jv(np.arange(-m_max, m_max + 1), ratio) ** 2


def check_null_estimate(row: dict, key: str, truth: float) -> None:
    err = abs(row[key] - truth)
    require(err <= row["error_estimate"] * (1 + 1e-9) + 1e-12,
            f"{key} {row[key]!r} misses {truth!r} by {err:.3e}"
            f" > stated error {row['error_estimate']:.3e}")


def cd_coefficient(delta: float, v: float, t: float) -> float:
    """Counterdiabatic sigma_y coefficient of H0 = delta sx - v t sz."""
    return 0.5 * delta * v / (delta**2 + (v * t) ** 2)


def diagonal_ergotropy(energies, pops) -> float:
    energies = np.asarray(energies, dtype=float)
    pops = np.asarray(pops, dtype=float)
    return float(pops @ energies - np.sort(pops)[::-1] @ np.sort(energies))


def qubit_qsl(omega: float, tau: float) -> dict:
    """|+> precessing under (omega/2) sz: Bures angle and the
    Mandelstam-Tamm time D / (omega/2)."""
    dist = float(np.arccos(abs(np.cos(omega * tau / 2))))
    return {"bures_distance": dist, "tau_mt": dist / (omega / 2)}


def thermal_qubit_qfi(omega: float, temperature: float) -> float:
    """Fisher information of a thermal qubit about its temperature:
    (dp/dT)² / (p (1 - p)) with p = 1 / (1 + e^(omega/T))."""
    p = 1.0 / (1.0 + np.exp(omega / temperature))
    dp = p * (1 - p) * omega / temperature**2
    return dp**2 / (p * (1 - p))
