import numpy as np
import pytest
from scipy.linalg import expm

import dense_gksl
from qtherm import cycles, lindblad, metrology, oscillators, qcore
from qtherm.errors import (
    DimMismatch,
    InvalidParams,
    InvalidPOVM,
    NullNotBracketed,
    SingularState,
)

rng = np.random.default_rng(31)


def random_hermitian(dim, seed_rng=rng):
    a = seed_rng.normal(size=(dim, dim)) + 1j * seed_rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def qubit_thermal(omega, temperature):
    """Gibbs state of H = (omega/2) sigma_z: diag(p_e, p_g)."""
    p_e = 1.0 / (1.0 + np.exp(omega / temperature))
    return np.diag([p_e, 1.0 - p_e]).astype(complex)


def at(gen, theta, step=None):
    """The state gen(theta) and its centred-difference derivative, at the
    step 1e-5 max(|theta|, 1) unless one is given."""
    h = 1e-5 * max(abs(theta), 1.0) if step is None else step
    drho = (np.asarray(gen(theta + h)) - np.asarray(gen(theta - h))) / (2 * h)
    return gen(theta), qcore.hermitianize(drho)


def fidelity(rho, sigma):
    vals, vecs = np.linalg.eigh(rho)
    sq = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    inner = sq @ sigma @ sq
    w = np.linalg.eigvalsh(qcore.hermitianize(inner))
    return float(np.sum(np.sqrt(np.clip(w, 0, None)))) ** 2


# --- symmetric logarithmic derivative ---------------------------------------------


def test_sld_constant_family_is_zero():
    rho = qubit_thermal(1.0, 1.0)
    assert np.max(np.abs(metrology.sld(*at(lambda theta: rho, 0.3)))) < 1e-10


def test_sld_diagonal_thermal_closed_form():
    omega, temp = 1.3, 0.8
    l_op = metrology.sld(*at(lambda t: qubit_thermal(omega, t), temp))
    # L is diagonal with L_ii = d_T ln p_i
    x = omega / temp
    dp_e = (omega / temp**2) * np.exp(x) / (1 + np.exp(x)) ** 2
    p_e = 1.0 / (1.0 + np.exp(x))
    expected = np.diag([dp_e / p_e, -dp_e / (1.0 - p_e)])
    assert np.max(np.abs(l_op - expected)) < 1e-7


def test_sld_solves_lyapunov_equation():
    k = random_hermitian(3)
    c = rng.normal(size=3)
    d = rng.normal(size=3)

    def gen(theta):
        w = np.exp(c + theta * d)
        pops = w / w.sum()
        u = expm(-1j * theta * k)
        return u @ np.diag(pops).astype(complex) @ u.conj().T

    theta0 = 0.4
    rho, drho = at(gen, theta0)
    l_op = metrology.sld(rho, drho)
    residual = drho - 0.5 * (l_op @ rho + rho @ l_op)
    assert np.max(np.abs(residual)) < 1e-8
    assert np.max(np.abs(l_op - l_op.conj().T)) < 1e-12


def test_sld_kernel_coupling_raises():
    base = np.diag([1.0, 0.0, 0.0]).astype(complex)
    kick = np.zeros((3, 3), dtype=complex)
    kick[1, 2] = kick[2, 1] = 1.0

    def gen(theta):
        return base + theta * kick

    with pytest.raises(SingularState):
        metrology.sld(*at(gen, 0.0))


# --- quantum Fisher information ---------------------------------------------------


def test_qfi_pure_state_unitary_family():
    dim = 4
    g = random_hermitian(dim)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    rho0 = np.outer(psi0, psi0.conj())

    def gen(theta):
        u = expm(-1j * theta * g)
        return u @ rho0 @ u.conj().T

    mean = np.vdot(psi0, g @ psi0).real
    var = np.vdot(psi0, g @ g @ psi0).real - mean**2
    rep = metrology.qfi(*at(gen, 0.2))
    assert rep.qfi == pytest.approx(4 * var, rel=1e-7)
    assert rep.cramer_rao_floor == pytest.approx(1.0 / (4 * var), rel=1e-7)


def test_qfi_thermal_qubit_closed_form():
    omega, temp = 1.0, 1.0
    x = omega / temp
    dp = (omega / temp**2) * np.exp(x) / (1 + np.exp(x)) ** 2
    p = 1.0 / (1.0 + np.exp(x))
    expected = dp**2 * (1.0 / p + 1.0 / (1.0 - p))
    rep = metrology.qfi(*at(lambda t: qubit_thermal(omega, t), temp))
    assert rep.qfi == pytest.approx(expected, rel=1e-7)


def test_qfi_matches_fidelity_susceptibility():
    k = random_hermitian(2)

    def gen(theta):
        p = 0.7 + 0.1 * np.sin(theta)
        u = expm(-1j * theta * k)
        return u @ np.diag([p, 1 - p]).astype(complex) @ u.conj().T

    theta0 = 0.3
    rep = metrology.qfi(*at(gen, theta0, step=1e-6))

    def chi(eps):
        # Bures relation uses the fidelity amplitude sqrt(F)
        f = fidelity(gen(theta0 - eps / 2), gen(theta0 + eps / 2))
        return 8 * (1 - np.sqrt(f)) / eps**2

    eps = 4e-3
    chi_r = (4 * chi(eps / 2) - chi(eps)) / 3  # Richardson in eps^2
    assert rep.qfi == pytest.approx(chi_r, rel=1e-6)


# --- classical Fisher information ---------------------------------------------------


def mixed_qubit_state():
    """A rotating, dephasing qubit and its derivative at theta = 0.45."""
    k = random_hermitian(2, np.random.default_rng(7))

    def gen(theta):
        p = 0.65 + 0.2 * np.sin(theta)
        u = expm(-1j * theta * k)
        return u @ np.diag([p, 1 - p]).astype(complex) @ u.conj().T

    return at(gen, 0.45)


def test_cfi_sld_eigenbasis_saturates_qfi():
    state = mixed_qubit_state()
    rep = metrology.qfi(*state)
    _, vecs = np.linalg.eigh(rep.sld)
    povm = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(2)]
    assert metrology.cfi(*state, povm) == pytest.approx(rep.qfi, rel=1e-7)


def test_cfi_trivial_povm_is_zero():
    state = mixed_qubit_state()
    assert metrology.cfi(*state, [np.eye(2)]) == pytest.approx(0.0, abs=1e-12)


def test_cfi_incomplete_povm_raises():
    state = mixed_qubit_state()
    proj = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidPOVM):
        metrology.cfi(*state, [proj])


def test_cfi_empty_povm_raises():
    with pytest.raises(InvalidPOVM):
        metrology.cfi(np.eye(2) / 2, np.zeros((2, 2)), [])


def test_cfi_povm_of_another_dimension_raises():
    with pytest.raises(DimMismatch):
        metrology.cfi(np.eye(2) / 2, np.zeros((2, 2)), [np.eye(3)])


def test_non_square_state_raises():
    rho = np.ones((2, 3)) / 3
    for call in (lambda: metrology.sld(rho, np.zeros((2, 3))),
                 lambda: metrology.qfi(rho, np.zeros((2, 3))),
                 lambda: metrology.cfi(rho, np.zeros((2, 3)), [np.eye(2)])):
        with pytest.raises(DimMismatch):
            call()


def test_mismatched_derivative_raises():
    rho = np.eye(2) / 2
    for call in (lambda: metrology.sld(rho, np.eye(3)),
                 lambda: metrology.qfi(rho, np.eye(3)),
                 lambda: metrology.cfi(rho, np.eye(3), [np.eye(2)])):
        with pytest.raises(DimMismatch):
            call()


def test_cfi_bounded_by_qfi():
    state = mixed_qubit_state()
    rep = metrology.qfi(*state)
    for _ in range(100):
        a = random_hermitian(2)
        _, vecs = np.linalg.eigh(a)
        povm = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(2)]
        assert metrology.cfi(*state, povm) <= rep.qfi + 1e-8


# --- Otto-null thermometry ----------------------------------------------------------


def test_thermometry_current_null_and_sign():
    omega_h, omega_c, t_c = 8.5, 1.0, 15.0
    t_star = t_c * omega_h / omega_c
    i0 = metrology.thermometry_current(omega_h, omega_c, 0.06, 0.06, 0.1,
                                       t_star, t_c)
    assert abs(i0) < 1e-14
    # below the null the cold occupation exceeds the hot one: current > 0
    assert metrology.thermometry_current(omega_h, omega_c, 0.06, 0.06, 0.1,
                                         0.5 * t_star, t_c) > 0
    assert metrology.thermometry_current(omega_h, omega_c, 0.06, 0.06, 0.1,
                                         2.0 * t_star, t_c) < 0


def test_thermometry_simulate_recovers_cold_temperature():
    res = metrology.thermometry_simulate(
        8.5, 1.0, 0.06, 0.06, 0.1, 15.0, np.linspace(50.0, 250.0, 201))
    assert res.null_location == pytest.approx(127.5, abs=1e-9)
    assert res.estimated_parameter == pytest.approx(15.0, abs=1e-9)
    assert res.error_estimate == pytest.approx(0.5 * 1.0 / 8.5, rel=1e-9)
    works = np.array([w for _, w in res.sweep_trace])
    assert np.sum(np.sign(works)[:-1] != np.sign(works)[1:]) == 1


def test_null_protocols_report_positive_width_on_descending_grids():
    for grid in (np.linspace(50.0, 250.0, 201), np.linspace(250.0, 50.0, 201)):
        res = metrology.thermometry_simulate(8.5, 1.0, 0.06, 0.06, 0.1, 15.0,
                                             grid)
        assert res.estimated_parameter == pytest.approx(15.0, abs=1e-9)
        assert res.error_estimate == pytest.approx(0.5 / 8.5, rel=1e-9)
    for grid in (np.linspace(3.05, 8.05, 51), np.linspace(8.05, 3.05, 51)):
        res = metrology.magnetometry_null(2.5, 5.0, 2.5, 0.3, grid)
        assert res.estimated_parameter == pytest.approx(2.5, abs=1e-9)
        assert res.error_estimate == pytest.approx(0.025, rel=1e-9)


def test_thermometry_simulate_unbracketed_raises():
    with pytest.raises(NullNotBracketed):
        metrology.thermometry_simulate(
            8.5, 1.0, 0.06, 0.06, 0.1, 15.0, np.linspace(20.0, 60.0, 41))


def test_thermometry_refinement_tightens_estimate():
    t_c = 15.3  # null at T_h = 130.05, off any grid node below
    errs = []
    for n_pts, step in [(31, 2.0), (61, 1.0), (121, 0.5)]:
        res = metrology.thermometry_simulate(
            8.5, 1.0, 0.06, 0.06, 0.1, t_c, np.linspace(100.0, 160.0, n_pts))
        err = abs(res.estimated_parameter - t_c)
        assert err <= 0.5 * step / 8.5 + 1e-12
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]


def test_thermometry_grid_point_on_the_null_is_exact():
    # Omega_h/T_h = Omega_c/T_c at T_h = 1.6 exactly: the current there is 0
    res = metrology.thermometry_simulate(2.0, 1.0, 1.0, 0.7, 0.3, 0.8,
                                         np.linspace(0.8, 2.4, 201))
    assert res.null_location == 1.6
    assert res.estimated_parameter == 0.8
    assert res.error_estimate == 0.0


def test_thermometry_zero_coupling_is_not_bracketed():
    # g = 0 carries no current at all, which is no null to locate
    with pytest.raises(NullNotBracketed):
        metrology.thermometry_simulate(2.0, 1.0, 1.0, 0.7, 0.0, 0.8,
                                       np.linspace(0.8, 2.4, 21))


@pytest.mark.parametrize("g", [1e-155, 1e-161])
def test_thermometry_tiny_coupling_still_brackets_the_null(g):
    # the current underflows to 0 here, but not the occupation gap whose
    # sign it carries; the null is at T_h = 0.83 * 2 = 1.66
    res = metrology.thermometry_simulate(2.0, 1.0, 1.0, 0.7, g, 0.83,
                                         np.linspace(0.8, 2.4, 201))
    assert abs(res.estimated_parameter - 0.83) <= res.error_estimate
    assert res.error_estimate == pytest.approx(0.002, rel=1e-9)


def moment_solve_current(omega_h, omega_c, kappa_h, kappa_c, g, t_h, t_c):
    """2 g Im c from solving the 2x2 steady-state moment system for
    (n_h, n_c): an independent check of the closed-form current."""
    nbar_h = 1.0 / np.expm1(omega_h / t_h)
    nbar_c = 1.0 / np.expm1(omega_c / t_c)
    big_g = 4 * g**2 / (kappa_h + kappa_c)
    a = np.array([[kappa_h + big_g, -big_g], [-big_g, kappa_c + big_g]])
    b = np.array([kappa_h * nbar_h, kappa_c * nbar_c])
    n_h, n_c = np.linalg.solve(a, b)
    return big_g * (n_c - n_h)


def test_thermometry_current_matches_moment_solve():
    local = np.random.default_rng(7)
    for _ in range(500):
        omega_h, omega_c, kappa_h, kappa_c, g = local.uniform(0.1, 3.0, size=5)
        t_c, t_h = local.uniform(0.2, 3.0), local.uniform(0.1, 10.0)
        exact = metrology.thermometry_current(omega_h, omega_c, kappa_h,
                                              kappa_c, g, t_h, t_c)
        oracle = moment_solve_current(omega_h, omega_c, kappa_h, kappa_c, g,
                                      t_h, t_c)
        assert exact == pytest.approx(oracle, rel=1e-12)


def test_thermometry_error_slope_matches_central_difference():
    local = np.random.default_rng(8)
    for _ in range(50):
        omega_h, kappa_h, kappa_c, g = local.uniform(0.1, 3.0, size=4)
        omega_c, t_c, delta_i = 1.0, local.uniform(0.2, 3.0), 1e-4
        t_h_star = t_c * omega_h / omega_c
        step = 1e-6 * t_c
        slope = (metrology.thermometry_current(omega_h, omega_c, kappa_h,
                                               kappa_c, g, t_h_star, t_c + step)
                 - metrology.thermometry_current(omega_h, omega_c, kappa_h,
                                                 kappa_c, g, t_h_star,
                                                 t_c - step)) / (2 * step)
        out = metrology.thermometry_error(omega_h, omega_c, t_c, kappa_h,
                                          kappa_c, g, delta_i=delta_i,
                                          delta_t_h=0.0)
        assert out["delta_t_c"] == pytest.approx(delta_i / abs(slope), rel=1e-6)


def lindblad_exchange_current(omega_h, omega_c, kappa_h, kappa_c, g,
                              t_h, t_c, n_max):
    """Steady exchange current 2 g Im<a_h† a_c> of the truncated two-mode
    model, from the library's GKSL steady state (interaction picture:
    only the exchange term remains in the Hamiltonian)."""
    dim = n_max + 1
    a = oscillators.destroy(n_max)
    eye = np.eye(dim)
    a_h = np.kron(a, eye)
    a_c = np.kron(eye, a)
    h = g * (a_h.conj().T @ a_c + a_c.conj().T @ a_h)
    nb_h = 1.0 / np.expm1(omega_h / t_h)
    nb_c = 1.0 / np.expm1(omega_c / t_c)
    jumps = np.array([a_h, a_h.conj().T, a_c, a_c.conj().T])
    rates = [kappa_h * (nb_h + 1), kappa_h * nb_h, kappa_c * (nb_c + 1), kappa_c * nb_c]
    rho = dense_gksl.steady_state(dense_gksl.superoperator(h)
                                  + lindblad.dissipator_super(jumps, rates))
    c = np.trace(rho @ a_h.conj().T @ a_c)
    return 2 * g * float(c.imag)


def test_thermometry_moment_model_matches_lindblad():
    # dual route: the closed second-moment equations are exact for this
    # quadratic model, so the truncated-Lindblad current must converge to
    # the moment-model value as the Fock cutoff grows
    args = (2.0, 1.0, 0.3, 0.2, 0.15, 0.8, 0.6)
    exact = metrology.thermometry_current(*args)
    errs = [abs(lindblad_exchange_current(*args, n_max=n) - exact) / abs(exact)
            for n in (3, 5, 7)]
    assert errs[2] < 1e-4
    assert errs[2] < errs[1] < errs[0]


def test_thermometry_error_known_temperature_term():
    # with a noiseless current readout the recovered-T_c error is the hot
    # thermometer error suppressed by Omega_c/Omega_h
    out = metrology.thermometry_error(8.5, 1.0, 15.0, 0.06, 0.06, 0.1,
                                      delta_i=0.0, delta_t_h=1.0)
    assert out["delta_t_c"] == pytest.approx(1.0 / 8.5, rel=1e-12)


def test_thermometry_error_constants_ordering():
    for _ in range(50):
        kh, kc, g = rng.uniform(0.01, 1.0, size=3)
        out = metrology.thermometry_error(8.5, 1.0, 15.0, kh, kc, g,
                                          delta_i=1e-4, delta_t_h=0.1)
        assert out["c2"] >= out["c1"] - 1e-12
        assert out["c2_over_c1"] >= 1.0


def test_thermometry_error_reference_circuit_ratio():
    # equal damping rates and the Josephson-dressed coupling of the
    # reference circuit (E_J/kappa = 10/3, lambda = 0.3)
    g = metrology.josephson_effective_g(0.2, 0.3, 0.3)
    out = metrology.thermometry_error(8.5, 1.0, 15.0, 0.06, 0.06, g,
                                      delta_i=1e-4, delta_t_h=0.1)
    assert out["c2_over_c1"] == pytest.approx(2.55, abs=0.05)


def test_thermometry_error_symmetric_rate_minimum():
    kappa = 0.1
    g_star = kappa * 8.0 ** (-0.25)

    def ratio(g):
        return metrology.thermometry_error(8.5, 1.0, 15.0, kappa, kappa, g,
                                           delta_i=1e-4, delta_t_h=0.1)["c2_over_c1"]

    assert ratio(g_star) == pytest.approx(1 + np.sqrt(2), rel=1e-10)
    assert ratio(0.8 * g_star) > ratio(g_star)
    assert ratio(1.2 * g_star) > ratio(g_star)
    # weak coupling is penalized: the readout constant diverges as g -> 0
    assert ratio(1e-4) > 100.0


def test_josephson_dressing_values():
    # A(lambda) ground-state element: 2 lambda e^{-2 lambda^2}
    a = metrology.josephson_a_operator(0.3, 4)
    assert a[0, 0].real == pytest.approx(0.6 * np.exp(-0.18), rel=1e-12)
    assert np.max(np.abs(a - np.diag(np.diag(a)))) == 0.0
    g = metrology.josephson_effective_g(0.2, 0.3, 0.3)
    assert g == pytest.approx(0.1 * (0.6 * np.exp(-0.18)) ** 2, rel=1e-12)


# --- two-stroke magnetometry ---------------------------------------------------------


def test_magnetometry_null_recovers_gap():
    res = metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3,
                                      np.linspace(3.05, 8.05, 51))
    assert res.null_location == pytest.approx(5.0, abs=1e-9)
    assert res.estimated_parameter == pytest.approx(2.5, abs=1e-9)
    assert res.error_estimate == pytest.approx(0.05 * 0.5, rel=1e-9)
    works = np.array([w for _, w in res.sweep_trace])
    assert np.sum(np.sign(works)[:-1] != np.sign(works)[1:]) == 1


def test_magnetometry_exact_grid_zero():
    # omega_k* = 5.0 sits on the grid: the work vanishes identically there
    res = metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3,
                                      np.linspace(3.0, 8.0, 51))
    assert res.null_location == pytest.approx(5.0, abs=1e-12)
    assert res.error_estimate == 0.0


def test_magnetometry_error_suppressed_by_temperature_ratio():
    # same grid spacing, colder ratio: the estimate error shrinks by 5x
    warm = metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3,
                                       np.linspace(3.05, 8.05, 51))
    cold = metrology.magnetometry_null(2.5, 10.0, 1.0, 0.3,
                                       np.linspace(23.05, 28.05, 51))
    assert cold.estimated_parameter == pytest.approx(2.5, abs=0.01)
    assert cold.error_estimate == pytest.approx(warm.error_estimate / 5, rel=1e-9)


def test_magnetometry_trace_is_the_two_stroke_output():
    # the grid is one array expression; each point equals a scalar call
    grid = np.linspace(3.05, 8.05, 51)
    res = metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3, grid)
    want = [(w, cycles.two_stroke(w, 2.5, 2.0, 1.0, 0.3).net_work_output)
            for w in grid.tolist()]
    assert res.sweep_trace == want


def test_magnetometry_grid_reaching_the_unknown_gap_raises():
    with pytest.raises(InvalidParams):
        metrology.magnetometry_null(2.5, 2.0, 1.0, 0.3, np.linspace(2.5, 8.0, 12))


def test_magnetometry_zero_swap_angle_raises():
    with pytest.raises(NullNotBracketed):
        metrology.magnetometry_null(2.5, 2.0, 1.0, 0.0,
                                    np.linspace(3.05, 8.05, 51))
