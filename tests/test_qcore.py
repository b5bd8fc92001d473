import numpy as np
import pytest
import scipy.linalg as sla

from qtherm import qcore
from qtherm.errors import InvalidSubsystem, NotHermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

rng = np.random.default_rng(7)


def random_hermitian(d, rng=rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_density(d, rng=rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(d, rng=rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# --- partial trace ----------------------------------------------------------


def test_partial_trace_product_state():
    ra, rb = random_density(2), random_density(3)
    space = qcore.CompositeSpace((2, 3))
    rho = np.kron(ra, rb)
    assert np.allclose(qcore.partial_trace(rho, space, [0]), ra, atol=1e-12)
    assert np.allclose(qcore.partial_trace(rho, space, [1]), rb, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    out = qcore.partial_trace(rho, qcore.CompositeSpace((2, 2)), [0])
    assert np.allclose(out, I2 / 2, atol=1e-12)


def test_partial_trace_nested_sum_oracle():
    space = qcore.CompositeSpace((2, 3))
    rho = random_density(6)
    out = qcore.partial_trace(rho, space, [0])
    # explicit index summation: (tr_B rho)[i, j] = sum_k rho[i*3+k, j*3+k]
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                oracle[i, j] += rho[3 * i + k, 3 * j + k]
    assert np.allclose(out, oracle, atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bad_index():
    with pytest.raises(InvalidSubsystem):
        qcore.partial_trace(np.eye(4) / 4, qcore.CompositeSpace((2, 2)), [2])


def test_partial_trace_three_factors():
    parts = [random_density(2) for _ in range(3)]
    rho = qcore.kron_all(parts)
    space = qcore.CompositeSpace((2, 2, 2))
    for k in range(3):
        assert np.allclose(qcore.partial_trace(rho, space, [k]), parts[k], atol=1e-12)


# --- eig / exp ----------------------------------------------------------------


def test_hermitian_eig_paulis():
    vals, _ = qcore.hermitian_eig(SZ)
    assert np.allclose(vals, [-1, 1])
    vals, vecs = qcore.hermitian_eig(SX)
    assert np.allclose(vals, [-1, 1])
    assert abs(abs(np.vdot(vecs[:, 0], [1, -1] / np.sqrt(2))) - 1) < 1e-12


def test_hermitian_eig_reconstruction():
    h = random_hermitian(8)
    vals, vecs = qcore.hermitian_eig(h)
    assert np.iscomplexobj(vecs)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-10)
    assert np.all(np.diff(vals) >= -1e-12)


def test_hermitian_eig_real_valued_input():
    # complex dtype, zero imaginary part: decomposed by the real routine
    h = random_hermitian(8, np.random.default_rng(3)).real.astype(complex)
    vals, vecs = qcore.hermitian_eig(h)
    assert not np.iscomplexobj(vecs)
    assert np.allclose(vals, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)
    assert np.allclose((vecs * vals) @ vecs.conj().T, h, rtol=0, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        qcore.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 7.0])
def test_spin_operators_algebra(j):
    jx, jy, jz = qcore.spin_operators(j)
    eye = np.eye(int(round(2 * j + 1)))
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    assert np.allclose(jx @ jx + jy @ jy + jz @ jz, j * (j + 1) * eye, atol=1e-12)
    assert np.array_equal(np.diag(jz).real, np.arange(-j, j + 1))


def test_midpoint_propagator_constant_hamiltonian():
    h = random_hermitian(4)
    u = qcore.midpoint_propagator(lambda t: h, 0.3, 1.7, 50)
    assert np.allclose(u, sla.expm(-1j * h * 1.4), rtol=0, atol=1e-12)


def expm_loop_propagator(h_of_t, t0, t1, n_steps):
    """Oracle: one ``expm`` per midpoint step, multiplied in time order."""
    u = np.eye(np.asarray(h_of_t(t0)).shape[0], dtype=complex)
    dt = (t1 - t0) / n_steps
    for k in range(n_steps):
        u = sla.expm(-1j * dt * h_of_t(t0 + (k + 0.5) * dt)) @ u
    return u


def test_midpoint_propagator_matches_expm_loop():
    for d, n_steps in [(2, 400), (3, 37), (5, 12)]:
        h0, h1 = random_hermitian(d), random_hermitian(d)
        h_of_t = lambda t: h0 + np.sin(1.3 * t) * h1
        got = qcore.midpoint_propagator(h_of_t, 0.2, 2.9, n_steps)
        assert np.max(np.abs(got - expm_loop_propagator(h_of_t, 0.2, 2.9, n_steps))) < 1e-13


def test_midpoint_propagator_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        qcore.midpoint_propagator(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0, 4)


def test_matrix_exp_trivial():
    assert np.allclose(qcore.matrix_exp(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(qcore.matrix_exp(SX, 1j * np.pi / 2), 1j * SX, atol=1e-12)


def test_matrix_exp_taylor_oracle():
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a /= np.linalg.norm(a, 2)
    # 40-term Taylor series with scaling (A/2^6) and squaring back
    scaled = a / 64
    term = np.eye(6, dtype=complex)
    acc = np.eye(6, dtype=complex)
    for k in range(1, 41):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(6):
        acc = acc @ acc
    assert np.allclose(qcore.matrix_exp(a), acc, atol=1e-9)


def test_matrix_exp_inverse_property():
    for _ in range(5):
        a = 1j * random_hermitian(5) * 2
        assert np.allclose(qcore.matrix_exp(a) @ qcore.matrix_exp(-a), np.eye(5), atol=1e-9)


# --- fidelity / entropy -----------------------------------------------------------


def test_fidelity_basic():
    rho = random_density(3)
    assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert qcore.fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_state_reduction():
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = random_density(4)
    f = qcore.fidelity(np.outer(psi, psi.conj()), rho)
    assert f == pytest.approx(np.sqrt(np.vdot(psi, rho @ psi).real), abs=1e-10)


def test_fidelity_symmetric_and_unity_iff_equal():
    for _ in range(100):
        r1, r2 = random_density(3), random_density(3)
        f12, f21 = qcore.fidelity(r1, r2), qcore.fidelity(r2, r1)
        assert abs(f12 - f21) < 1e-10
        assert f12 < 1.0 - 1e-8  # random pairs never coincide
    r = random_density(3)
    assert qcore.fidelity(r, r.copy()) == pytest.approx(1.0, abs=1e-10)


def test_bures_angle():
    rho = random_density(2)
    assert qcore.bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert qcore.bures_angle(e0, e1) == pytest.approx(np.pi / 2, abs=1e-12)


def test_bures_angle_bloch_closed_form():
    for phi in [0.3, 1.1, 2.0, 3.0]:
        psi0 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([np.cos(phi / 2), np.sin(phi / 2)], dtype=complex)
        d = qcore.bures_angle(np.outer(psi0, psi0), np.outer(psi1, psi1))
        assert d == pytest.approx(np.arccos(abs(np.cos(phi / 2))), abs=1e-10)


def test_von_neumann_entropy():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert qcore.von_neumann_entropy(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-12)
    assert qcore.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)
    s = qcore.von_neumann_entropy(np.diag([0.3, 0.7]).astype(complex))
    assert s == pytest.approx(-0.3 * np.log(0.3) - 0.7 * np.log(0.7), abs=1e-12)


def test_entropy_unitary_invariance():
    for _ in range(5):
        rho = random_density(4)
        u = random_unitary(4)
        assert qcore.von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            qcore.von_neumann_entropy(rho), abs=1e-10
        )


def test_vectorization_roundtrip_and_sandwich():
    rho = random_density(3)
    assert np.allclose(qcore.devectorize(qcore.vectorize(rho)), rho)
    a, b = random_hermitian(3), random_hermitian(3)
    # column stacking: vec(A rho B) = (B^T ⊗ A) vec(rho)
    lhs = qcore.devectorize(np.kron(b.T, a) @ qcore.vectorize(rho))
    assert np.allclose(lhs, a @ rho @ b, atol=1e-12)
