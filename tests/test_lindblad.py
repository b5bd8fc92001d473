import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from qtherm import lindblad, qcore
from qtherm.errors import DegenerateSteadyState, DimMismatch

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

rng = np.random.default_rng(11)


def random_hermitian(d, rng=rng, gap_min=0.05):
    """Hermitian with non-degenerate, well-separated gaps."""
    while True:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        vals = np.linalg.eigvalsh(h)
        gaps = np.abs(np.subtract.outer(vals, vals))
        gaps += np.eye(d) * 10
        # also require distinct gap values (secular structure)
        if gaps.min() > gap_min:
            return h


def random_density(d, rng=rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def flat_bath(label, temperature, coupling, rate=1.0):
    return lindblad.BathSpec(
        label, temperature, lindblad.SpectralFunction("flat", rate), coupling
    )


def two_mode_model(cutoff, t_h, t_c, rate):
    """H = 2a†a + b†b + 0.15(a†b + ab†), flat baths on x_a (hot) and x_b
    (cold), ``cutoff`` quanta per mode (d = (cutoff + 1)²)."""
    a1 = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1).astype(complex)
    eye = np.eye(cutoff + 1)
    a, b = np.kron(a1, eye), np.kron(eye, a1)
    ad, bd = a.conj().T, b.conj().T
    h = 2 * ad @ a + bd @ b + 0.15 * (ad @ b + a @ bd)
    return h, [flat_bath("hot", t_h, a + ad, rate), flat_bath("cold", t_c, b + bd, rate)]


def per_term_dissipator(jumps, rates):
    """Oracle: one three-Kronecker superoperator per jump term, summed."""
    d = jumps[0].shape[0]
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for s, r in zip(jumps, rates):
        n = s.conj().T @ s
        out += r * (np.kron(s.conj(), s) - 0.5 * (np.kron(eye, n) + np.kron(n.T, eye)))
    return out


def svd_null_state(total):
    """Oracle: right singular vector of the smallest singular value,
    normalised to unit trace."""
    _u, _s, vh = np.linalg.svd(total)
    rho = qcore.hermitianize(qcore.devectorize(vh[-1].conj()))
    return rho / np.trace(rho).real


def evolve_ode(h, jump_rate_pairs, rho0, t_span, t_eval=None, rtol=1e-10, atol=1e-12):
    """Oracle for ``evolve``: integrate drho/dt in matrix form with DOP853."""
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


# --- decompose_coupling ---------------------------------------------------------


def test_decompose_sigma_x_tls():
    h = 0.5 * 2.0 * SZ  # gap omega0 = 2
    terms = lindblad.decompose_coupling(SX, h)
    freqs = sorted(t.frequency for t in terms)
    assert freqs == pytest.approx([-2.0, 2.0], abs=1e-12)
    by_freq = {round(t.frequency): t.operator for t in terms}
    # lowering operator |g><e| sits at +omega0; note eigh orders ground first,
    # so in the computational (sigma_z) basis |e> = (1,0)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.allclose(by_freq[2], sm, atol=1e-12)
    assert np.allclose(by_freq[-2], sm.conj().T, atol=1e-12)


def test_decompose_dephasing():
    terms = lindblad.decompose_coupling(SZ, 0.5 * SZ)
    assert len(terms) == 1
    assert terms[0].frequency == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(terms[0].operator, SZ, atol=1e-12)


def test_decompose_reconstruction_and_commutator():
    h = random_hermitian(4)
    s = random_hermitian(4)
    terms = lindblad.decompose_coupling(s, h)
    total = sum(t.operator for t in terms)
    assert np.allclose(total, s, atol=1e-12)
    for t in terms:
        comm = h @ t.operator - t.operator @ h
        assert np.allclose(comm, -t.frequency * t.operator, atol=1e-10)
    # adjoint pairing S(-w) = S(w)^dagger
    for t in terms:
        partner = [u for u in terms if abs(u.frequency + t.frequency) < 1e-9]
        assert len(partner) == 1
        assert np.allclose(partner[0].operator, t.operator.conj().T, atol=1e-12)


# --- build_generator --------------------------------------------------------------


def hand_built_qubit_superop(omega0, temperature, rate):
    """Independent 4x4 oracle: -i[H,.] + down/up channels, column stacking."""
    h = 0.5 * omega0 * SZ
    sm = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e| with |e>=(1,0)
    sp = sm.conj().T

    def diss(op, g):
        n = op.conj().T @ op
        return g * (
            np.kron(op.conj(), op)
            - 0.5 * (np.kron(np.eye(2), n) + np.kron(n.T, np.eye(2)))
        )

    out = -1j * (np.kron(np.eye(2), h) - np.kron(h.T, np.eye(2)))
    out += diss(sm, rate)
    out += diss(sp, rate * np.exp(-omega0 / temperature))
    return out


def test_build_generator_qubit_oracle():
    gen = lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SX, rate=1.0)])
    oracle = hand_built_qubit_superop(1.0, 1.0, 1.0)
    assert np.allclose(gen.total, oracle, atol=1e-12)
    terms = gen.jump_terms["b"]
    rates = sorted(t.rate for t in terms)
    assert rates == pytest.approx(sorted([1.0, np.exp(-1.0)]), abs=1e-12)


def test_zero_rate_reduces_to_commutator():
    gen = lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SX, rate=0.0)])
    assert np.allclose(gen.total, gen.hamiltonian_part, atol=1e-14)


def test_stacked_dissipator_matches_per_term_build():
    for d, n in [(2, 1), (3, 4), (5, 7), (6, 3)]:
        jumps = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        rates = rng.uniform(0.0, 2.0, size=n)
        rates[0] = 0.0  # a closed channel contributes nothing
        got = lindblad.dissipator_super(jumps, rates)
        assert np.max(np.abs(got - per_term_dissipator(jumps, rates))) < 1e-13
    single = lindblad.dissipator_super(jumps[1], rates[1])
    assert np.max(np.abs(single - per_term_dissipator(jumps[1:2], rates[1:2]))) < 1e-13


def test_build_generator_matches_per_term_build():
    h, baths = two_mode_model(3, 2.0, 0.6, 0.1)
    gen = lindblad.build_generator(h, baths)
    for bath in baths:
        terms = gen.jump_terms[bath.label]
        oracle = per_term_dissipator([t.operator for t in terms], [t.rate for t in terms])
        assert np.max(np.abs(gen.dissipator_parts[bath.label] - oracle)) < 1e-13


def test_two_bath_additivity():
    h = random_hermitian(3)
    b1 = flat_bath("one", 1.0, random_hermitian(3), rate=0.4)
    b2 = flat_bath("two", 2.0, random_hermitian(3), rate=0.7)
    both = lindblad.build_generator(h, [b1, b2])
    only1 = lindblad.build_generator(h, [b1])
    only2 = lindblad.build_generator(h, [b2])
    assert np.allclose(
        both.total,
        only1.total + only2.total - both.hamiltonian_part,
        atol=1e-12,
    )
    # trace preservation: the row representing Tr is zero
    d = 3
    tr_row = qcore.vectorize(np.eye(d)).conj() @ both.total
    assert np.max(np.abs(tr_row)) < 1e-12


def test_build_generator_dim_mismatch():
    with pytest.raises(DimMismatch):
        lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, random_hermitian(3))])


# --- evolve / steady state -----------------------------------------------------------


def test_evolve_t0_identity():
    gen = lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SX)])
    rho = random_density(2)
    assert np.allclose(lindblad.evolve(gen, rho, 0.0), rho, atol=1e-12)


def test_evolve_to_gibbs():
    h = 0.5 * 1.3 * SZ
    gen = lindblad.build_generator(h, [flat_bath("b", 0.7, SX)])
    rho = lindblad.evolve(gen, random_density(2), 200.0)
    gibbs = qcore.gibbs_state(h, 0.7)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - gibbs)))
    assert dist < 1e-8


def test_evolve_trace_preservation_random_triples():
    for _ in range(100):
        d = int(rng.integers(2, 4))
        h = random_hermitian(d)
        bath = flat_bath("b", float(rng.uniform(0.2, 3.0)), random_hermitian(d),
                         rate=float(rng.uniform(0.1, 1.0)))
        gen = lindblad.build_generator(h, [bath])
        rho = lindblad.evolve(gen, random_density(d), float(rng.uniform(0, 5)))
        assert abs(np.trace(rho).real - 1.0) < 1e-10


def test_semigroup_property():
    gen = lindblad.build_generator(random_hermitian(3),
                                   [flat_bath("b", 1.0, random_hermitian(3))])
    rho = random_density(3)
    a = lindblad.evolve(gen, rho, 0.9 + 1.4)
    b = lindblad.evolve(gen, lindblad.evolve(gen, rho, 0.9), 1.4)
    assert np.allclose(a, b, atol=1e-9)


def test_steady_state_detailed_balance():
    h = 0.5 * 2.0 * SZ
    t = 0.8
    gen = lindblad.build_generator(h, [flat_bath("b", t, SX)])
    rho = lindblad.steady_state(gen)
    vals, vecs = qcore.hermitian_eig(h)
    pops = np.real(np.diag(vecs.conj().T @ rho @ vecs))
    assert pops[1] / pops[0] == pytest.approx(np.exp(-(vals[1] - vals[0]) / t), abs=1e-10)


def test_steady_state_infinite_temperature():
    gen = lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1e6, SX)])
    assert np.allclose(lindblad.steady_state(gen), np.eye(2) / 2, atol=1e-5)


def test_pure_dephasing_degenerate_kernel():
    gen = lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SZ)])
    with pytest.raises(DegenerateSteadyState) as exc:
        lindblad.steady_state(gen)
    assert len(exc.value.kernel_basis) >= 2


def test_steady_state_matches_svd_null_vector():
    for _ in range(60):
        d = int(rng.integers(2, 7))
        baths = [flat_bath(f"b{k}", float(rng.uniform(0.2, 3.0)), random_hermitian(d),
                           rate=float(rng.uniform(0.1, 1.5)))
                 for k in range(int(rng.integers(1, 3)))]
        gen = lindblad.build_generator(random_hermitian(d), baths)
        assert np.max(np.abs(lindblad.steady_state(gen) - svd_null_state(gen.total))) < 1e-12
    for t_h, t_c in [(2.0, 0.6), (0.8, 0.8)]:
        gen = lindblad.build_generator(*two_mode_model(3, t_h, t_c, 0.1))
        assert np.max(np.abs(lindblad.steady_state(gen) - svd_null_state(gen.total))) < 1e-12


def test_untouched_qubit_gives_two_state_kernel():
    # the bath flips only the first qubit, so each population of the
    # second is conserved: the kernel is rho_th ⊗ |0><0| and rho_th ⊗ |1><1|.
    # In the product basis the LU meets an exact zero pivot; in a rotated
    # basis rounding leaves a tiny nonzero one.
    eye = np.eye(2)
    h = 0.5 * np.kron(SZ, eye) + 0.8 * np.kron(eye, SZ)
    s = np.kron(SX, eye)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for u in (np.eye(4), q):
        gen = lindblad.build_generator(
            qcore.hermitianize(u @ h @ u.conj().T),
            [flat_bath("b", 1.0, qcore.hermitianize(u @ s @ u.conj().T))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            with pytest.raises(DegenerateSteadyState) as exc:
                lindblad.steady_state(gen)
        basis = exc.value.kernel_basis
        assert len(basis) == 2
        for k in basis:
            assert np.max(np.abs(gen.total @ qcore.vectorize(k))) < 1e-12


# --- heat current / entropy production ------------------------------------------------


def test_heat_current_zero_at_own_steady_state():
    h = 0.5 * SZ
    bath = flat_bath("b", 1.0, SX)
    gen = lindblad.build_generator(h, [bath])
    rho = lindblad.steady_state(gen)
    j = lindblad.heat_current(gen.dissipator_parts["b"], rho, h)
    assert abs(j) < 1e-10


def test_heat_current_sign_hot_system():
    h = 0.5 * SZ
    bath = flat_bath("b", 0.5, SX)
    gen = lindblad.build_generator(h, [bath])
    hot_rho = qcore.gibbs_state(h, 5.0)  # hotter than the bath
    j = lindblad.heat_current(gen.dissipator_parts["b"], hot_rho, h)
    assert j < 0
    # population-rate oracle: J = omega0 * d p_e/dt
    drho = qcore.devectorize(gen.dissipator_parts["b"] @ qcore.vectorize(hot_rho))
    assert j == pytest.approx(1.0 * drho[0, 0].real, abs=1e-12)


def test_first_law_at_two_bath_steady_state():
    h = 0.5 * 2.0 * SZ
    hot = flat_bath("h", 3.0, SX, rate=0.8)
    cold = flat_bath("c", 1.0, SX, rate=0.5)
    gen = lindblad.build_generator(h, [hot, cold])
    rho = lindblad.steady_state(gen)
    jh = lindblad.heat_current(gen.dissipator_parts["h"], rho, h)
    jc = lindblad.heat_current(gen.dissipator_parts["c"], rho, h)
    assert jh + jc == pytest.approx(0.0, abs=1e-10)  # static limit: no power
    assert jh > 0 and jc < 0


def test_entropy_production_gibbs_zero_and_steady_nonneg():
    h = 0.5 * 1.5 * SZ
    bath = flat_bath("b", 1.2, SX)
    gen = lindblad.build_generator(h, [bath])
    gibbs = qcore.gibbs_state(h, 1.2)
    assert lindblad.entropy_production(gen, gibbs, [bath]) == pytest.approx(0.0, abs=1e-10)
    hot = flat_bath("h", 3.0, SX, rate=0.8)
    cold = flat_bath("c", 1.0, SX, rate=0.5)
    gen2 = lindblad.build_generator(h, [hot, cold])
    rho = lindblad.steady_state(gen2)
    sigma = lindblad.entropy_production(gen2, rho, [hot, cold])
    jh = lindblad.heat_current(gen2.dissipator_parts["h"], rho, h)
    jc = lindblad.heat_current(gen2.dissipator_parts["c"], rho, h)
    assert sigma == pytest.approx(-(jh / 3.0 + jc / 1.0), abs=1e-10)
    assert sigma >= 0


def test_entropy_production_random_states():
    h = 0.5 * 2.0 * SZ
    hot = flat_bath("h", 3.0, SX, rate=0.8)
    cold = flat_bath("c", 1.0, SX, rate=0.5)
    gen = lindblad.build_generator(h, [hot, cold])
    for _ in range(100):
        sigma = lindblad.entropy_production(gen, random_density(2), [hot, cold])
        assert sigma >= -1e-9


# --- bath action -----------------------------------------------------------------


def test_bath_action():
    assert lindblad.bath_action(lambda t: None, 3.0) == pytest.approx(0.0)
    d = lindblad.dissipator_super(np.array([[0, 0], [1, 0]], dtype=complex), 0.7)
    norm = np.linalg.norm(d, 2)
    assert lindblad.bath_action(lambda t: d, 3.0) == pytest.approx(3.0 * norm, rel=1e-9)
    piecewise = lambda t: d if t < 1.5 else None
    assert lindblad.bath_action(piecewise, 3.0) == pytest.approx(1.5 * norm, rel=1e-6)


def test_evolve_ode_matches_expm():
    h = 0.5 * 1.7 * SZ
    bath = flat_bath("b", 0.9, SX, rate=0.6)
    gen = lindblad.build_generator(h, [bath])
    rho0 = random_density(2)
    pairs = [(t.operator, t.rate) for t in gen.jump_terms["b"]]
    out = evolve_ode(h, pairs, rho0, (0.0, 2.0), t_eval=[0.0, 2.0])
    assert np.allclose(out[-1], lindblad.evolve(gen, rho0, 2.0), atol=1e-8)
    # two-mode model, d = 16, from a state far from the steady one
    h, baths = two_mode_model(3, 2.0, 0.6, 0.15)
    gen = lindblad.build_generator(h, baths)
    rho0 = random_density(16)
    pairs = [(t.operator, t.rate) for b in baths for t in gen.jump_terms[b.label]]
    out = evolve_ode(h, pairs, rho0, (0.0, 5.0), t_eval=[1.0, 5.0])
    for t, rho in zip([1.0, 5.0], out):
        assert np.max(np.abs(rho - lindblad.evolve(gen, rho0, t))) < 1e-8
