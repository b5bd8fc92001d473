import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from qtherm import battery, qcore
from qtherm.errors import (
    CutoffTooSmall,
    DimMismatch,
    InconsistentTrajectory,
    InvalidParams,
    InvalidState,
    TargetUnreached,
    TooLarge,
    UndefinedFraction,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

rng = np.random.default_rng(11)


def random_density(d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def site_op(pauli, i, n, other=None, j=None):
    """``pauli`` on site i (times ``other`` on site j) of n qubits."""
    ops = [np.eye(2, dtype=complex)] * n
    ops[i] = pauli
    if other is not None:
        ops[j] = other
    return qcore.kron_all(ops)


# --- passive states ---------------------------------------------------------


def test_passive_thermal_is_itself():
    e = np.array([0.0, 0.7, 1.6])
    p = np.exp(-1.3 * e)
    rho = np.diag(p / p.sum())
    sigma = battery.passive_state(rho, np.diag(e).astype(complex))
    assert np.max(np.abs(sigma - rho)) < 1e-12


def test_passive_qubit_swap():
    sigma = battery.passive_state(np.diag([0.2, 0.8]).astype(complex),
                                  np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(sigma, np.diag([0.8, 0.2]), atol=1e-12)


def test_passive_equals_permutation_minimum():
    d = 5
    for _ in range(20):
        rho = random_density(d)
        h = random_hermitian(d)
        sigma = battery.passive_state(rho, h)
        e_pass = float(np.trace(sigma @ h).real)
        pops = np.linalg.eigvalsh(rho)
        levels = np.linalg.eigvalsh(h)
        best = min(float(pops[list(perm)] @ levels)
                   for perm in itertools.permutations(range(d)))
        assert e_pass == pytest.approx(best, abs=1e-12)


# --- ergotropy --------------------------------------------------------------


def test_ergotropy_passive_input_is_zero():
    h = np.diag([0.0, 0.4, 1.1]).astype(complex)
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    rep = battery.ergotropy(rho, h)
    assert abs(rep.ergotropy) < 1e-12
    assert rep.bound_gap >= -1e-9


def test_ergotropy_pure_excited_qubit():
    omega = 1.7
    rep = battery.ergotropy(np.diag([0.0, 1.0]).astype(complex),
                            np.diag([0.0, omega]).astype(complex))
    assert rep.ergotropy == pytest.approx(omega, abs=1e-9)
    assert rep.thermal_bound == pytest.approx(omega, abs=1e-6)


def test_ergotropy_qubit_regression():
    # inverted qubit: swap is the optimal unitary, and in d = 2 the
    # entropy-matched Gibbs state has the same spectrum, so W_max = ergotropy
    rep = battery.ergotropy(np.diag([0.3, 0.7]).astype(complex),
                            np.diag([0.0, 1.0]).astype(complex))
    assert rep.ergotropy == pytest.approx(0.4, abs=1e-10)
    assert rep.thermal_bound == pytest.approx(0.4, abs=1e-8)
    assert np.allclose(rep.passive_state, np.diag([0.7, 0.3]), atol=1e-12)


def test_ergotropy_invariants_random():
    for d in (2, 3, 4, 6):
        for _ in range(10):
            rho = random_density(d)
            h = random_hermitian(d)
            rep = battery.ergotropy(rho, h)
            assert rep.ergotropy >= -1e-10
            assert rep.bound_gap >= -1e-9
            s_rho = qcore.von_neumann_entropy(rho)
            s_pass = qcore.von_neumann_entropy(rep.passive_state)
            assert s_pass == pytest.approx(s_rho, abs=1e-9)
            rep2 = battery.ergotropy(rep.passive_state, h)
            assert abs(rep2.ergotropy) < 1e-9


def test_ergotropy_invalid_state_raises():
    with pytest.raises(InvalidState):
        battery.ergotropy(1.5 * np.eye(2, dtype=complex),
                          np.diag([0.0, 1.0]).astype(complex))


def _bisection_beta(rho, h):
    """The entropy-matched inverse temperature by 200 geometric bisection
    steps on [1e-8, 1e8], stopping within 1e-10 of the target entropy."""
    s_target = qcore.von_neumann_entropy(rho)
    eps = np.linalg.eigvalsh(h)

    def entropy(beta):
        w = np.exp(-beta * (eps - eps.min()))
        p = w / w.sum()
        nz = p[p > 0]
        return float(-np.sum(nz * np.log(nz))), float(p @ eps)

    lo, hi = 1e-8, 1e8
    for _ in range(200):
        beta = np.sqrt(lo * hi)
        s_mid, _ = entropy(beta)
        if abs(s_mid - s_target) < 1e-10:
            break
        if s_mid > s_target:
            lo = beta
        else:
            hi = beta
    return beta, float(np.vdot(h, rho).real) - entropy(beta)[1]


def test_ergotropy_effective_beta_matches_bisection():
    local = np.random.default_rng(5)
    for d in (2, 3, 5, 7):
        for _ in range(10):
            a, b = local.normal(size=(2, d, d)) + 1j * local.normal(
                size=(2, d, d))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            h = (b + b.conj().T) / 2
            rep = battery.ergotropy(rho, h)
            beta, w_max = _bisection_beta(rho, h)
            assert rep.effective_beta == pytest.approx(beta, rel=1e-6)
            assert rep.thermal_bound == pytest.approx(w_max, abs=1e-8)


@pytest.mark.parametrize("levels", [[1.0, 1.0, 1.0], [0.0, 1e-9, 2e-9]])
def test_ergotropy_beta_beyond_the_bracket(levels):
    # no beta in [1e-8, 1e8] cools the Gibbs state down to the target
    # entropy: both routes return the upper end
    rho = np.diag([0.9, 0.08, 0.02]).astype(complex)
    h = np.diag(levels).astype(complex)
    rep = battery.ergotropy(rho, h)
    beta, w_max = _bisection_beta(rho, h)
    assert rep.effective_beta == 1e8
    assert beta == pytest.approx(1e8, rel=1e-12)
    assert rep.thermal_bound == pytest.approx(w_max, abs=1e-12)


# --- N-copy passivity ------------------------------------------------------


def test_n_copy_thermal_is_constant():
    e = np.array([0.0, 0.6, 1.3])
    p = np.exp(-e)
    sigma = np.diag(p / p.sum()).astype(complex)
    h = np.diag(e).astype(complex)
    base = battery.n_copy_passive_energy(sigma, h, 1)
    for n in (2, 3, 4):
        assert battery.n_copy_passive_energy(sigma, h, n) == pytest.approx(
            base, abs=1e-12)


def test_n_copy_three_level_strictly_decreasing():
    h = np.diag([0.0, 0.579, 1.0]).astype(complex)
    sigma = np.diag([0.538, 0.237, 0.224]).astype(complex)
    e = [battery.n_copy_passive_energy(sigma, h, n) for n in (1, 2, 3)]
    assert e[0] == pytest.approx(0.361223, abs=1e-9)
    assert e[1] == pytest.approx(0.360861777, abs=1e-9)
    assert e[2] == pytest.approx(0.35930140422133333, abs=1e-9)
    assert e[0] > e[1] > e[2]
    # thermal floor: per-cell energy of the entropy-matched Gibbs state
    rep = battery.ergotropy(sigma, h)
    thermal_floor = float(np.trace(sigma @ h).real) - rep.thermal_bound
    assert all(en >= thermal_floor - 1e-9 for en in e)


def test_n_copy_single_copy_is_passive_energy():
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    assert battery.n_copy_passive_energy(sigma, h, 1) == pytest.approx(
        0.3 + 0.4, abs=1e-12)


def test_n_copy_too_large():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    sigma = np.eye(3, dtype=complex) / 3
    with pytest.raises(TooLarge):
        battery.n_copy_passive_energy(sigma, h, 8)
    # the check never forms d**n, whose digits alone would not fit a message
    with pytest.raises(TooLarge, match=r"3\*\*1000000000 "):
        battery.n_copy_passive_energy(sigma, h, 10**9)


def test_n_copy_dimension_at_budget_is_allowed():
    h = np.diag([0.0, 1.0]).astype(complex)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    n = int(np.log2(battery.DENSE_DIM_BUDGET))
    assert battery.n_copy_passive_energy(sigma, h, n) == pytest.approx(
        0.3, abs=1e-12)
    with pytest.raises(TooLarge):
        battery.n_copy_passive_energy(sigma, h, n + 1)


# --- quantum speed limits ---------------------------------------------------


def test_qsl_stationary_state():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.8, 0.2]).astype(complex)
    traj = [(t, rho) for t in np.linspace(0.0, 2.0, 21)]
    rep = battery.qsl_report(traj, lambda t: h)
    assert rep.bures_distance < 1e-9
    assert rep.tau_mt == 0.0
    assert rep.tau_unified == 0.0


def test_qsl_mandelstam_tamm_saturation():
    # |+> under H = (omega/2) sigma_z reaches |-> at tau = pi/omega, and the
    # evolution saturates the Mandelstam-Tamm bound throughout
    omega = 2.0
    tau = np.pi / omega
    times = np.linspace(0.0, tau, 401)
    h = (omega / 2) * SZ
    plus = np.array([1.0, 1.0]) / np.sqrt(2)

    def state(t):
        psi = np.exp(-1j * np.array([omega / 2, -omega / 2]) * t) * plus
        return np.outer(psi, psi.conj())

    rep = battery.qsl_report([(t, state(t)) for t in times], lambda t: h)
    assert rep.bures_distance == pytest.approx(np.pi / 2, abs=1e-9)
    assert rep.time_averaged_variance == pytest.approx(omega / 2, abs=1e-12)
    assert abs(rep.actual_tau - rep.tau_mt) < 1e-9


def test_qsl_random_driven_qubits():
    for _ in range(100):
        h = random_hermitian(2)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 = a / np.linalg.norm(a)
        tau = rng.uniform(0.5, 3.0)
        times = np.linspace(0.0, tau, 51)
        vals, vecs = np.linalg.eigh(h)
        c0 = vecs.conj().T @ psi0
        traj = []
        for t in times:
            psi = vecs @ (np.exp(-1j * vals * t) * c0)
            traj.append((t, np.outer(psi, psi.conj())))
        rep = battery.qsl_report(traj, lambda t: h)
        assert rep.actual_tau >= rep.tau_unified - 1e-9


def test_qsl_stationary_pure_states_do_not_raise():
    # an eigenstate evolved exactly stays put up to rounding; arccos of a
    # fidelity of 1 - 1e-16 read as an angle of about 1.5e-8 here
    for _ in range(200):
        d = int(rng.integers(2, 7))
        h = random_hermitian(d)
        vals, vecs = np.linalg.eigh(h)
        k = int(rng.integers(d))
        traj = []
        for t in np.linspace(0.0, rng.uniform(0.5, 3.0), 5):
            psi = np.exp(-1j * vals[k] * t) * vecs[:, k]
            traj.append((t, np.outer(psi, psi.conj())))
        rep = battery.qsl_report(traj, lambda t: h)
        assert rep.bures_distance < 1e-9


def test_qsl_zero_duration_raises():
    rho = np.diag([0.8, 0.2]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(InvalidParams, match="duration"):
        battery.qsl_report([(1.0, rho), (1.0, rho)], lambda t: h)


def test_qsl_inconsistent_trajectory_raises():
    h0 = np.zeros((2, 2), dtype=complex)
    traj = [(0.0, np.diag([1.0, 0.0]).astype(complex)),
            (1.0, np.diag([0.0, 1.0]).astype(complex))]
    with pytest.raises(InconsistentTrajectory):
        battery.qsl_report(traj, lambda t: h0)


# --- energy-space Fisher information ----------------------------------------


def test_energy_fisher_stationary_is_zero():
    h0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    fisher = battery.energy_fisher([rho] * 50, h0, 0.01)
    assert np.max(np.abs(fisher)) < 1e-20


def test_energy_fisher_rabi_closed_form():
    # H = g sigma_x from |0>: p_excited = sin^2(gt), I_E = 4 g^2 everywhere
    g = 1.0
    dt = 1e-4
    times = np.arange(0.2, 1.2, dt)
    traj = [np.diag([np.cos(g * t) ** 2, np.sin(g * t) ** 2]).astype(complex)
            for t in times]
    fisher = battery.energy_fisher(traj, np.diag([0.0, 1.0]).astype(complex), dt)
    interior = fisher[1:-1]
    assert np.max(np.abs(interior - 4 * g**2)) < 1e-6


def test_energy_fisher_matches_kl_expansion():
    # KL(p(t) || p(t+dt)) = I_E dt^2 / 2 + O(dt^3): the energy-space speed
    # v_E = sqrt(I_E/2) measures statistical distinguishability per unit time
    g = 0.8
    t0 = 0.7

    def pops(t):
        return np.array([np.cos(g * t) ** 2, np.sin(g * t) ** 2])

    dt = 1e-4
    times = np.arange(t0 - 5 * dt, t0 + 5.5 * dt, dt)
    traj = [np.diag(pops(t)).astype(complex) for t in times]
    fisher = battery.energy_fisher(traj, np.diag([0.0, 1.0]).astype(complex), dt)
    i_mid = fisher[5]
    p, q = pops(t0), pops(t0 + dt)
    kl = float(np.sum(p * np.log(p / q)))
    assert 2 * kl / dt**2 == pytest.approx(i_mid, rel=1e-3)
    assert np.sqrt(i_mid / 2) == pytest.approx(np.sqrt(2) * g, rel=1e-6)


def test_energy_fisher_degenerate_levels_aggregate():
    # two degenerate excited levels share the population; the Fisher sum must
    # treat them as one energy eigenspace, not double-count the flux
    g = 1.0
    dt = 1e-4
    times = np.arange(0.3, 0.7, dt)
    h0 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    traj = []
    for t in times:
        pe = np.sin(g * t) ** 2
        traj.append(np.diag([1 - pe, pe / 2, pe / 2]).astype(complex))
    fisher = battery.energy_fisher(traj, h0, dt)
    assert np.max(np.abs(fisher[1:-1] - 4 * g**2)) < 1e-6


def _group_energies_loop(evals, tol=None):
    """Level-by-level grouping: a level joins the current group when its gap
    to the group's last sorted level is at most tol."""
    evals = np.asarray(evals, dtype=float)
    if tol is None:
        tol = 1e-9 * max(np.max(np.abs(evals)), 1.0)
    order = np.argsort(evals)
    groups, energies = [], []
    current = [order[0]]
    for idx in order[1:]:
        if evals[idx] - evals[current[-1]] <= tol:
            current.append(idx)
        else:
            groups.append(np.array(current))
            energies.append(float(np.mean(evals[current])))
            current = [idx]
    groups.append(np.array(current))
    energies.append(float(np.mean(evals[current])))
    return np.array(energies), groups


@pytest.mark.parametrize("evals", [
    [0.0],
    [2.0, 1.0, 2.0, 0.0, 1.0, 2.0],
    # a chain of gaps each within tol spans far more than tol
    [0.0, 3e-9, 6e-9, 9e-9, 12e-9, 5.0, 5.0 + 2e-9],
    [-3.0, 3.0, -3.0 - 5e-10, 3.0 + 1e-8, 0.0],
    np.repeat(np.arange(-4.0, 5.0, 2.0), [1, 4, 6, 4, 1]),
])
def test_group_energies_matches_level_loop(evals):
    evals = np.asarray(evals, dtype=float)
    pops = np.random.default_rng(2).random((3, len(evals)))
    energies, groups = battery._group_energies(evals)
    ref_energies, ref_groups = _group_energies_loop(evals)
    assert np.allclose(energies, ref_energies, rtol=1e-15, atol=0)
    ref = np.stack([pops[:, g].sum(axis=1) for g in ref_groups], axis=1)
    assert np.allclose(battery._aggregate(pops, groups), ref, rtol=1e-14,
                       atol=0)


# --- power bound -------------------------------------------------------------


def test_power_bound_parallel_additivity():
    single = battery.charge_dicke(1, 1, 0.2, False, 1.0, 1.0, 20, 10.0, 0.01)
    n = 5
    scaled = dataclasses.replace(
        single,
        energies=n * single.energies, powers=n * single.powers,
        variances=n * single.variances, energy_fisher=n * single.energy_fisher)
    assert battery.power_bound_check(single) <= 1e-9
    # both sides of the bound scale as N^2 for a product of identical cells,
    # so the tightness profile is that of the single cell
    assert battery.power_bound_check(scaled) <= n * n * 1e-9
    denom_s = np.sqrt(single.variances * single.energy_fisher)
    denom_n = np.sqrt(scaled.variances * scaled.energy_fisher)
    keep = denom_s > 1e-10
    assert np.allclose(scaled.powers[keep] / denom_n[keep],
                       single.powers[keep] / denom_s[keep], atol=1e-10)


@pytest.mark.parametrize("charge", [
    lambda: battery.charge_spins_xxz(6, 1.0, 0.5, 0.4, 2.0, "nearest_neighbor",
                                     1.0, 4.0, 0.02),
    lambda: battery.charge_lmg(8, 0.8, 0.5, 1.0, 4.0, 0.02),
    lambda: battery.charge_dicke(1, 1, 0.2, False, 1.0, 1.0, 20, 10.0, 0.01),
], ids=["xxz", "lmg", "dicke"])
def test_variances_non_negative(charge):
    # each trace starts in an H0 eigenstate, where E[H0^2] - E[H0]^2
    # cancels to a rounding error of either sign
    assert charge().variances.min() >= 0


def test_power_bound_stationary_segment():
    trace = battery.charge_dicke(3, 3, 0.0, False, 1.0, 1.0, 10, 5.0, 0.01)
    assert np.max(np.abs(trace.powers)) < 1e-12
    assert np.max(np.abs(trace.energy_fisher)) < 1e-20
    assert battery.power_bound_check(trace) <= 1e-9


# --- variance decomposition ---------------------------------------------------


def test_variance_decomposition_product_state():
    spec = battery.BatterySpec(cell_hamiltonian=SZ / 2, n_cells=3)
    cells = [random_density(2) for _ in range(3)]
    rho = qcore.kron_all(cells)
    parts = battery.variance_decomposition(rho, spec)
    assert abs(parts["entanglement_part"]) < 1e-10
    h0 = spec.battery_hamiltonian()
    var = np.trace(rho @ h0 @ h0).real - np.trace(rho @ h0).real ** 2
    assert parts["local_sum"] + parts["entanglement_part"] == pytest.approx(
        var, abs=1e-10)


def test_variance_decomposition_ghz():
    n = 4
    spec = battery.BatterySpec(cell_hamiltonian=SZ / 2, n_cells=n)
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    parts = battery.variance_decomposition(rho, spec)
    assert parts["entanglement_part"] == pytest.approx(n * (n - 1) / 4,
                                                       abs=1e-10)
    assert parts["local_sum"] == pytest.approx(n / 4, abs=1e-10)
    h0 = spec.battery_hamiltonian()
    var = np.trace(rho @ h0 @ h0).real - np.trace(rho @ h0).real ** 2
    assert parts["local_sum"] + parts["entanglement_part"] == pytest.approx(
        var, abs=1e-10)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3)])
def test_variance_decomposition_k_producible_bound(n, k):
    # blocks of k cells in a GHZ state: 4 Var(H0) <= r k^2 + (N - rk)^2
    ghz = np.zeros(2**k, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    blocks = [np.outer(ghz, ghz.conj())] * (n // k)
    rho = qcore.kron_all(blocks)
    spec = battery.BatterySpec(cell_hamiltonian=SZ / 2, n_cells=n)
    parts = battery.variance_decomposition(rho, spec)
    var = parts["local_sum"] + parts["entanglement_part"]
    r = n // k
    assert 4 * var <= r * k**2 + (n - r * k) ** 2 + 1e-9


def test_variance_decomposition_dim_mismatch():
    spec = battery.BatterySpec(cell_hamiltonian=SZ / 2, n_cells=3)
    with pytest.raises(DimMismatch):
        battery.variance_decomposition(np.eye(4, dtype=complex) / 4, spec)


# --- quantum advantage --------------------------------------------------------


def test_advantage_identical_protocols():
    trace = battery.charge_dicke(2, 2, 0.2, False, 1.0, 1.0, 20, 10.0, 0.01)
    assert battery.quantum_advantage(trace, trace) == pytest.approx(1.0,
                                                                    abs=1e-12)


def test_advantage_target_unreached():
    trace = battery.charge_dicke(2, 2, 0.2, False, 1.0, 1.0, 20, 10.0, 0.01)
    with pytest.raises(TargetUnreached):
        battery.quantum_advantage(trace, trace, target_energy=1e6)


def test_advantage_mismatched_initial_energies():
    a = battery.charge_dicke(2, 2, 0.2, False, 1.0, 1.0, 20, 5.0, 0.01)
    b = dataclasses.replace(a, energies=a.energies + 1.0)
    with pytest.raises(InvalidParams):
        battery.quantum_advantage(a, b)


def _dicke_advantage_sweep(rescale):
    sizes = np.arange(2, 9)
    gammas = []
    for n in sizes:
        n = int(n)
        collective = battery.charge_dicke(n, n, 0.2, rescale, 1.0, 1.0, 50,
                                          25.0, 0.01)
        single = battery.charge_dicke(1, 1, 0.2, False, 1.0, 1.0, 20,
                                      25.0, 0.01)
        parallel = dataclasses.replace(single, energies=n * single.energies)
        target = collective.energies[0] + 0.2 * n  # 20% of capacity N*omega
        gammas.append(battery.quantum_advantage(parallel, collective,
                                                target_energy=target))
    return sizes, gammas


def test_advantage_dicke_sqrt_n_without_rescaling():
    sizes, gammas = _dicke_advantage_sweep(rescale=False)
    exp = battery.scaling_exponent(sizes, gammas)
    assert exp == pytest.approx(0.5, abs=0.15)


def test_advantage_dicke_disappears_with_rescaling():
    sizes, gammas = _dicke_advantage_sweep(rescale=True)
    exp = battery.scaling_exponent(sizes, gammas)
    assert exp == pytest.approx(0.0, abs=0.15)


# --- XXZ spin battery -----------------------------------------------------------


def _xxz_dense(n, b, g, alpha, nu, interaction_range, omega):
    """Charging and bare Hamiltonians of the XXZ battery, built from
    Kronecker products of Pauli matrices."""
    h_g = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if interaction_range == "nearest_neighbor":
                g_ij = g if j == i + 1 else 0.0
            else:
                g_ij = g * float(j - i) ** (-nu)
            h_g -= g_ij * (site_op(SZ, i, n, SZ, j)
                           + alpha * (site_op(SX, i, n, SX, j)
                                      + site_op(SY, i, n, SY, j)))
    h_drive = h_g + omega * sum(site_op(SX, i, n) for i in range(n))
    h0 = h_g + b * sum(site_op(SZ, i, n) for i in range(n))
    return h_drive, h0


def test_xxz_isotropic_matches_noninteracting():
    kwargs = dict(b=1.0, alpha=1.0, nu=1.0, interaction_range="power_law",
                  omega=1.0, tau=6.0, dt=0.01)
    iso = battery.charge_spins_xxz(5, g=0.3, **kwargs)
    free = battery.charge_spins_xxz(5, g=0.0, **kwargs)
    assert np.max(np.abs(iso.energies - free.energies)) < 1e-9
    assert battery.power_bound_check(iso) <= 1e-9


def test_xxz_isotropic_entanglement_part_matches_noninteracting():
    # the interaction commutes with the charging Hamiltonian at alpha = 1,
    # so even the inter-cell covariance of the field term is unchanged
    n = 4
    spec = battery.BatterySpec(cell_hamiltonian=SZ, n_cells=n)
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[-1] = 1.0
    for t in (0.5, 1.7):
        parts = []
        for g in (0.3, 0.0):
            h_drive, _ = _xxz_dense(n, 0.0, g, 1.0, 1.0, "power_law", 1.0)
            psi = sla.expm(-1j * h_drive * t) @ psi0
            rho = np.outer(psi, psi.conj())
            parts.append(battery.variance_decomposition(rho, spec))
        assert parts[0]["entanglement_part"] == pytest.approx(
            parts[1]["entanglement_part"], abs=1e-9)


def test_xxz_no_drive_is_flat():
    trace = battery.charge_spins_xxz(4, 1.0, 0.3, 0.5, 1.0, "power_law",
                                     0.0, 4.0, 0.01)
    assert np.max(np.abs(trace.energies)) < 1e-10
    assert np.max(np.abs(trace.powers)) < 1e-10
    assert trace.final_fraction == 0.0  # nothing stored


@pytest.mark.parametrize("interaction_range", ["nearest_neighbor",
                                               "power_law"])
def test_xxz_pure_state_fraction_is_one(interaction_range):
    n = 4
    params = (1.0, 0.4, 0.5, 1.5, interaction_range, 1.0)
    trace = battery.charge_spins_xxz(n, *params, 3.0, 0.01)
    h_drive, h0 = _xxz_dense(n, *params)
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[-1] = 1.0
    k_best = int(np.argmax(trace.energies))
    psi = sla.expm(-1j * h_drive * trace.times[k_best]) @ psi0
    deposited = float(np.real(psi.conj() @ h0 @ psi - psi0.conj() @ h0 @ psi0))
    assert deposited == pytest.approx(trace.energies[k_best], abs=1e-9)
    assert trace.final_fraction == 1.0
    assert battery.extractable_fraction(np.outer(psi, psi.conj()), h0) == \
        pytest.approx(trace.final_fraction, abs=1e-9)


def test_xxz_superlinear_power_long_range():
    # flat long-range couplings (nu -> 0) in the weak-coupling window: the
    # interaction energy deposited through all N(N-1)/2 pairs makes the peak
    # charging power grow faster than the battery size
    sizes = np.arange(4, 11)
    pmax = []
    for n in sizes:
        trace = battery.charge_spins_xxz(int(n), 0.2, 0.1, 0.5, 0.01,
                                         "power_law", 1.0, 8.0, 0.005)
        pmax.append(np.max(trace.powers))
        assert battery.power_bound_check(trace) <= 1e-9
    exp = battery.scaling_exponent(sizes, pmax)
    assert exp > 1.15
    # sanity: still far from the fully collective quadratic regime
    assert exp < 1.9


def test_xxz_nearest_neighbor_bound_and_enum():
    trace = battery.charge_spins_xxz(5, 1.0, 0.2, 0.5, 1.0,
                                     "nearest_neighbor", 1.0, 5.0, 0.01)
    assert battery.power_bound_check(trace) <= 1e-9
    with pytest.raises(InvalidParams):
        battery.charge_spins_xxz(4, 1.0, 0.2, 0.5, 1.0, "bogus", 1.0, 5.0,
                                 0.01)


def test_xxz_too_large():
    with pytest.raises(TooLarge):
        battery.charge_spins_xxz(13, 1.0, 0.1, 0.5, 1.0, "power_law", 1.0,
                                 5.0, 0.01)


def test_xxz_needs_a_cell():
    with pytest.raises(InvalidParams):
        battery.charge_spins_xxz(0, 1.0, 0.1, 0.5, 1.0, "power_law", 1.0,
                                 5.0, 0.01)


# --- LMG battery ----------------------------------------------------------------


def test_lmg_no_coupling_is_flat():
    trace = battery.charge_lmg(6, 0.0, -1.0, 1.0, 5.0, 0.01)
    assert np.max(np.abs(trace.powers)) < 1e-10
    assert np.max(trace.energies) - np.min(trace.energies) < 1e-10


def test_lmg_isotropic_is_flat():
    # gamma = 1 makes the interaction commute with total J_z: no charging
    trace = battery.charge_lmg(6, 20.0, 1.0, 1.0, 5.0, 0.01)
    assert np.max(trace.energies) - np.min(trace.energies) < 1e-9


def test_lmg_matches_full_space():
    n = 4
    dim = 2**n
    lam, gamma, b = 5.0, -1.0, 1.0
    tau, dt = 2.0, 0.01
    trace = battery.charge_lmg(n, lam, gamma, b, tau, dt)
    h0 = b * sum(site_op(SZ, i, n) for i in range(n))
    v = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            v += (lam / n) * (site_op(SX, i, n) @ site_op(SX, j, n)
                              + gamma * site_op(SY, i, n) @ site_op(SY, j, n))
    psi0 = np.zeros(dim, dtype=complex)
    psi0[-1] = 1.0
    vals, vecs = np.linalg.eigh(h0 + v)
    c0 = vecs.conj().T @ psi0
    k_best = int(np.argmax(trace.energies))
    for k in (0, len(trace.times) // 2, len(trace.times) - 1, k_best):
        psi = vecs @ (np.exp(-1j * vals * trace.times[k]) * c0)
        e = float(np.real(psi.conj() @ h0 @ psi))
        assert trace.energies[k] == pytest.approx(e, abs=1e-9)
    # the charged global state is pure: all its stored energy is extractable
    assert trace.final_fraction == 1.0
    assert battery.extractable_fraction(np.outer(psi, psi.conj()), h0) == \
        pytest.approx(trace.final_fraction, abs=1e-9)


def test_lmg_scaling_sweep():
    sizes = np.array([4, 6, 8, 10, 12, 14])
    pmax, vmax, imean = [], [], []
    for n in sizes:
        trace = battery.charge_lmg(int(n), 20.0, -1.0, 1.0, 10.0, 0.002)
        assert battery.power_bound_check(trace) <= 1e-9
        pmax.append(np.max(trace.powers))
        vmax.append(np.max(trace.variances))
        imean.append(np.mean(trace.energy_fisher))
    assert battery.scaling_exponent(sizes, pmax) == pytest.approx(1.0,
                                                                  abs=0.2)
    assert battery.scaling_exponent(sizes, imean) == pytest.approx(0.0,
                                                                   abs=0.2)
    assert battery.scaling_exponent(sizes, vmax) == pytest.approx(2.0,
                                                                  abs=0.35)


def test_lmg_too_large():
    with pytest.raises(TooLarge):
        battery.charge_lmg(15, 1.0, -1.0, 1.0, 2.0, 0.01)


# --- Dicke battery ---------------------------------------------------------------


def test_dicke_no_coupling_is_flat():
    trace = battery.charge_dicke(4, 4, 0.0, False, 1.0, 1.0, 10, 5.0, 0.01)
    assert np.max(trace.energies) - np.min(trace.energies) < 1e-10


def test_dicke_off_resonance_rejected():
    with pytest.raises(InvalidParams):
        battery.charge_dicke(2, 2, 0.2, False, 1.0, 1.5, 20, 5.0, 0.01)


def test_dicke_cutoff_too_small():
    with pytest.raises(CutoffTooSmall):
        battery.charge_dicke(2, 5, 0.2, False, 1.0, 1.0, 4, 5.0, 0.01)
    with pytest.raises(CutoffTooSmall):
        # cutoff formally above the photon number, but the strong drive
        # populates the top level during the evolution
        battery.charge_dicke(4, 4, 0.5, False, 1.0, 1.0, 6, 10.0, 0.01)


def test_dicke_strong_coupling_usability():
    trace = battery.charge_dicke(6, 6, 0.5, True, 1.0, 1.0, 60, 25.0, 0.01)
    # battery-cavity entanglement locks part of the stored energy
    assert 0.0 < trace.final_fraction < 0.95
    # poor time-averaged saturation of the power bound (the instantaneous
    # tightness touches 1 at turn-on where only two levels exchange flux)
    assert np.mean(np.abs(trace.bound_tightness)) < 0.5
    assert np.all(np.abs(trace.bound_tightness) <= 1.0)
    assert battery.power_bound_check(trace) <= 1e-9


def test_dicke_rescaled_strong_coupling_scaling():
    sizes = np.arange(2, 9)
    pmax, vend, imax = [], [], []
    for n in sizes:
        trace = battery.charge_dicke(int(n), int(n), 0.5, True, 1.0, 1.0, 60,
                                     50.0, 0.01)
        assert battery.power_bound_check(trace) <= 1e-9
        pmax.append(np.max(trace.powers))
        vend.append(trace.variances[-1])
        imax.append(np.max(trace.energy_fisher))
    assert battery.scaling_exponent(sizes, pmax) == pytest.approx(1.0,
                                                                  abs=0.2)
    assert battery.scaling_exponent(sizes, vend) == pytest.approx(2.0,
                                                                  abs=0.3)
    assert battery.scaling_exponent(sizes, imax) == pytest.approx(1.0,
                                                                  abs=0.3)


# --- symmetry sectors against the full space -------------------------------------


def _dense_trace(times, h_drive, psi0, h0):
    """Charging observables from one full-space eigendecomposition of the
    drive and one of H0, with levels grouped by ``_group_energies_loop``.
    Returns the fields to compare and the sampled states (n_times x dim)."""
    vals, vecs = np.linalg.eigh(h_drive)
    c0 = vecs.conj().T @ psi0
    psis = (np.exp(-1j * np.outer(times, vals)) * c0) @ vecs.T
    e0, w0 = np.linalg.eigh(h0)
    group_e, groups = _group_energies_loop(e0)
    full = np.abs(psis @ w0.conj()) ** 2
    pops = np.stack([full[:, g].sum(axis=1) for g in groups], axis=1)
    energies = pops @ group_e
    dev = group_e[None, :] - energies[:, None]
    dp = np.gradient(pops, times[1] - times[0], axis=0)
    mask = pops > battery.P_FLOOR
    probs = np.abs(c0) ** 2
    e_mean = probs @ vals
    spread = np.sqrt(max(probs @ vals**2 - e_mean**2, 0.0))
    dist = np.arccos(min(abs(np.vdot(psis[0], psis[-1])), 1.0))
    tau = times[-1] - times[0]
    tau_mt = dist / spread
    ml = 2 * dist**2 / (np.pi * (e_mean - vals.min()))
    fields = dict(
        energies=energies, powers=(dev * np.where(mask, dp, 0.0)).sum(axis=1),
        variances=(pops * dev**2).sum(axis=1),
        energy_fisher=np.where(mask, dp**2 / np.where(mask, pops, 1.0),
                               0.0).sum(axis=1),
        qsl=battery.QSLReport(dist, spread, e_mean - vals.min(), tau_mt,
                              max(tau_mt, ml), tau))
    return fields, psis


def _assert_trace_matches(trace, ref):
    for name in ("energies", "powers", "variances"):
        assert np.max(np.abs(getattr(trace, name) - ref[name])) < 1e-10, name
    fisher = ref["energy_fisher"]
    assert np.max(np.abs(trace.energy_fisher - fisher)) \
        <= 1e-8 * np.max(np.abs(fisher))
    for name, value in dataclasses.asdict(ref["qsl"]).items():
        assert getattr(trace.qsl, name) == pytest.approx(value, rel=1e-9,
                                                         abs=1e-10), name


@pytest.mark.parametrize("interaction_range", ["nearest_neighbor",
                                               "power_law"])
@pytest.mark.parametrize("n", range(2, 9))
def test_xxz_sectors_match_full_space(n, interaction_range):
    b, nu, omega = 0.7, 1.3, 0.9
    times = np.linspace(0.0, 3.0, 151)
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[-1] = 1.0
    # g = 0 leaves H0 = B sum sigma_z, degenerate across the sectors
    for g, alpha in ((0.4, 0.3), (0.4, 1.0), (0.0, 0.3)):
        trace = battery.charge_spins_xxz(n, b, g, alpha, nu, interaction_range,
                                         omega, 3.0, 0.02)
        h_drive, h0 = _xxz_dense(n, b, g, alpha, nu, interaction_range, omega)
        ref, _ = _dense_trace(times, h_drive, psi0, h0)
        ref["energies"] = ref["energies"] - ref["energies"][0]
        _assert_trace_matches(trace, ref)


def _dicke_dense(n, lam, cutoff):
    """Dicke Hamiltonian and battery levels on the full spin x cavity
    space, omega = omega_c = 1."""
    jx, _jy, jz = qcore.spin_operators(n / 2.0)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    eye_c = np.eye(cutoff + 1)
    h = (np.kron(jz, eye_c) + np.kron(np.eye(n + 1), a.T @ a)
         + 2 * lam * np.kron(jx, a + a.T))
    return h, np.kron(jz, eye_c)


@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize("n", range(1, 5))
def test_dicke_parity_sector_matches_full_space(n, rescale):
    lam, cutoff = 0.3, 40
    times = np.linspace(0.0, 3.0, 151)
    for n_photons in (n, n + 1):
        trace = battery.charge_dicke(n, n_photons, lam, rescale, 1.0, 1.0,
                                     cutoff, 3.0, 0.02)
        h, h0 = _dicke_dense(n, lam / np.sqrt(n) if rescale else lam, cutoff)
        psi0 = np.zeros(len(h), dtype=complex)
        psi0[n_photons] = 1.0
        ref, psis = _dense_trace(times, h, psi0, h0)
        _assert_trace_matches(trace, ref)
        block = psis[int(np.argmax(ref["energies"]))].reshape(n + 1,
                                                              cutoff + 1)
        fraction = battery.extractable_fraction(
            block @ block.conj().T, np.diag(np.arange(-n / 2, n / 2 + 1)))
        assert trace.final_fraction == pytest.approx(fraction, abs=1e-10)


@pytest.mark.parametrize("n, n_photons, lam, cutoff", [
    (2, 2, 0.5, 6), (4, 4, 0.5, 6), (3, 3, 0.4, 8), (3, 4, 0.2, 14)])
def test_dicke_parity_sector_cutoff_check_matches_full_space(n, n_photons,
                                                             lam, cutoff):
    times = np.linspace(0.0, 10.0, 1001)
    h, h0 = _dicke_dense(n, lam, cutoff)
    psi0 = np.zeros(len(h), dtype=complex)
    psi0[n_photons] = 1.0
    _, psis = _dense_trace(times, h, psi0, h0)
    top = np.abs(psis.reshape(len(times), n + 1, cutoff + 1)[:, :, -1]) ** 2
    tail = np.max(top.sum(axis=1))
    assert tail > 1e-6 or tail < 1e-10  # far from the 1e-8 threshold
    if tail > 1e-8:
        with pytest.raises(CutoffTooSmall):
            battery.charge_dicke(n, n_photons, lam, False, 1.0, 1.0, cutoff,
                                 10.0, 0.01)
    else:
        battery.charge_dicke(n, n_photons, lam, False, 1.0, 1.0, cutoff,
                             10.0, 0.01)


def _reassembled(h, sectors):
    """Full-space eigenvectors and levels from per-sector eigenpairs."""
    columns, levels = [], []
    for sector, vals, vecs in battery._sector_eig(h, sectors):
        full = np.zeros((len(h), len(vals)), dtype=complex)
        sector.embed(vecs, full)
        columns.append(full)
        levels.append(vals)
    return np.hstack(columns), np.concatenate(levels)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sector_blocks_reassemble_the_full_hamiltonian(n):
    dim = 2**n
    lower = np.arange(dim // 2)
    flip = [battery._Sector(lower, dim - 1 - lower, sign)
            for sign in (1.0, -1.0)]
    magnetisation = np.array([sum(1 - 2 * ((s >> k) & 1) for k in range(n))
                              for s in range(dim)])
    spin_sectors = [battery._Sector(np.flatnonzero(magnetisation == m))
                    for m in np.unique(magnetisation)]
    h_drive, h0 = _xxz_dense(n, 0.8, 0.5, 0.3, 1.2, "power_law", 0.9)
    cutoff = 5
    parity = np.add.outer(np.arange(n + 1), np.arange(cutoff + 1)).ravel() % 2
    h_dicke, _ = _dicke_dense(n, 0.4, cutoff)
    for h, sectors in (
            (h_drive, flip), (h0, spin_sectors),
            (h_dicke, [battery._Sector(np.flatnonzero(parity == p))
                       for p in (0, 1)])):
        vecs, vals = _reassembled(h, sectors)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(len(h)), atol=1e-12)
        assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)
    # the flip blocks are H[R, R] + H[R, R-bar] and H[R, R] - H[R, R-bar]
    bar = dim - 1 - lower
    assert np.allclose(flip[0].block(h_drive) - flip[1].block(h_drive),
                       2 * h_drive[np.ix_(lower, bar)], atol=1e-14)


# --- extractable fraction ---------------------------------------------------------


def test_fraction_pure_state_is_one():
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, psi.conj())
    f = battery.extractable_fraction(rho, np.diag([0.0, 1.0]).astype(complex))
    assert f == pytest.approx(1.0, abs=1e-12)


def test_fraction_maximally_mixed_qubit_is_zero():
    f = battery.extractable_fraction(np.eye(2, dtype=complex) / 2,
                                     np.diag([0.0, 1.0]).astype(complex))
    assert f == pytest.approx(0.0, abs=1e-12)


def test_fraction_half_bell_pair_is_zero():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    space = qcore.CompositeSpace([2, 2])
    rho_half = qcore.partial_trace(rho, space, [0])
    h = np.diag([0.0, 1.0]).astype(complex)
    energy = float(np.trace(rho_half @ h).real)
    assert energy == pytest.approx(0.5, abs=1e-12)
    assert battery.extractable_fraction(rho_half, h) == pytest.approx(
        0.0, abs=1e-12)


def test_fraction_is_ergotropy_over_energy_above_ground():
    gen = np.random.default_rng(8)
    a = gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    h = np.diag([-1.3, -0.2, 0.4, 0.9, 2.5]).astype(complex)
    energy = np.trace(rho @ h).real - h[0, 0].real  # above the ground level
    want = battery.ergotropy(rho, h).ergotropy / energy
    assert battery.extractable_fraction(rho, h) == pytest.approx(want, abs=1e-12)


def test_fraction_undefined_for_ground_state():
    with pytest.raises(UndefinedFraction):
        battery.extractable_fraction(np.diag([1.0, 0.0]).astype(complex),
                                     np.diag([0.0, 1.0]).astype(complex))
