import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import dense_gksl
from qtherm import battery, lindblad, qcore
from qtherm.errors import DegenerateSteadyState, DimMismatch, InvalidParams

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


# --- decompose_coupling ---------------------------------------------------------


def test_decompose_sigma_x_tls():
    h = 0.5 * 2.0 * SZ  # gap omega0 = 2
    freqs, ops = lindblad.decompose_coupling(SX, h)
    assert sorted(freqs) == pytest.approx([-2.0, 2.0], abs=1e-12)
    by_freq = {round(f): op for f, op in zip(freqs, ops)}
    # lowering operator |g><e| sits at +omega0; note eigh orders ground first,
    # so in the computational (sigma_z) basis |e> = (1,0)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.allclose(by_freq[2], sm, atol=1e-12)
    assert np.allclose(by_freq[-2], sm.conj().T, atol=1e-12)


def test_decompose_dephasing():
    freqs, ops = lindblad.decompose_coupling(SZ, 0.5 * SZ)
    assert len(freqs) == len(ops) == 1
    assert freqs[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ops[0], SZ, atol=1e-12)


def test_decompose_reconstruction_and_commutator():
    h = random_hermitian(4)
    s = random_hermitian(4)
    freqs, ops = lindblad.decompose_coupling(s, h)
    terms = [dense_gksl.JumpTerm(f, op) for f, op in zip(freqs, ops)]
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


def projector_loop_terms(s, h, degeneracy_tol=None):
    """Oracle: P_a S P_b for every pair of eigenvalue clusters, in a Python
    loop, merged by rounded Bohr frequency (the per-pair construction
    ``decompose_coupling`` used before its single rotation)."""
    vals, vecs = np.linalg.eigh(h)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(np.max(np.abs(vals)), 1.0)
    groups = []
    for idx, e in enumerate(vals):
        if groups and e - vals[groups[-1][-1]] <= degeneracy_tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    energies = [np.mean(vals[g]) for g in groups]
    projs = [vecs[:, g] @ vecs[:, g].conj().T for g in groups]
    terms = {}
    for ea, pa in zip(energies, projs):
        for eb, pb in zip(energies, projs):
            op = pa @ s @ pb
            if np.max(np.abs(op)) < 1e-14 * (1 + np.max(np.abs(s))):
                continue
            key = round((eb - ea) / degeneracy_tol)
            freq, acc = terms.get(key, (eb - ea, 0))
            terms[key] = (freq, acc + op)
    return sorted(terms.values(), key=lambda t: t[0])


@pytest.mark.parametrize("model", ["two-mode d=16", "two-mode d=25",
                                   "degenerate d=16", "random d=6"])
def test_decompose_matches_projector_loop(model):
    if model.startswith("random"):
        h, s = random_hermitian(6), random_hermitian(6)
    else:
        h, baths = two_mode_model(3 if "16" in model else 4, 2.0, 0.6, 0.1)
        if model.startswith("degenerate"):  # a† a + b† b: shells of equal energy
            h = np.diag(np.add.outer(np.arange(4.0), np.arange(4.0)).ravel())
        s = baths[1].coupling_operator
    # blocks of roundoff size (~1e-16) pass or fail the 1e-14 zero test
    # depending on the eigensolver's rounding; compare the terms that matter
    freqs, ops = lindblad.decompose_coupling(s, h)
    got = [dense_gksl.JumpTerm(f, op) for f, op in zip(freqs, ops)
           if np.max(np.abs(op)) > 1e-12]
    want = [t for t in projector_loop_terms(s, h) if np.max(np.abs(t[1])) > 1e-12]
    assert len(got) == len(want)
    for term, (freq, op) in zip(got, want):
        assert term.frequency == pytest.approx(freq, abs=1e-13)
        assert np.max(np.abs(term.operator - op)) < 1e-13


# --- build_generator --------------------------------------------------------------


def test_generator_total_is_built_once():
    h, baths = two_mode_model(2, 2.0, 0.6, 0.1)
    gen = lindblad.build_generator(h, baths)
    rho = lindblad.steady_state(gen)
    lindblad.evolve(gen, rho, 1.0)
    lindblad.entropy_production(gen, rho, baths)
    # no library path reads the dense view
    assert "total" not in vars(gen)
    assert gen.total is gen.total
    assert not gen.total.flags.writeable
    want = dense_gksl.superoperator(h)
    for terms in dense_gksl.jump_terms(gen).values():
        want = want + lindblad.dissipator_super(
            np.array([t.operator for t in terms]), [t.rate for t in terms])
    assert np.array_equal(gen.total, want)


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
    terms = dense_gksl.jump_terms(gen)["b"]
    rates = sorted(t.rate for t in terms)
    assert rates == pytest.approx(sorted([1.0, np.exp(-1.0)]), abs=1e-12)


def test_zero_rate_reduces_to_commutator():
    commutator = dense_gksl.superoperator(0.5 * SZ)
    # a closed channel, a zero coupling operator, no bath at all
    for baths in ([flat_bath("b", 1.0, SX, rate=0.0)],
                  [flat_bath("b", 1.0, np.zeros((2, 2)))], []):
        gen = lindblad.build_generator(0.5 * SZ, baths)
        assert np.allclose(gen.total, commutator, atol=1e-14)
        assert np.allclose(dense_gksl.from_blocks(gen.blocks), commutator, atol=1e-14)


def test_stacked_dissipator_matches_per_term_build():
    for d, n in [(2, 1), (3, 4), (5, 7), (6, 3)]:
        jumps = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        rates = rng.uniform(0.0, 2.0, size=n)
        rates[0] = 0.0  # a closed channel contributes nothing
        got = lindblad.dissipator_super(jumps, rates)
        assert np.max(np.abs(got - dense_gksl.dissipator(jumps, rates))) < 1e-13
    single = lindblad.dissipator_super(jumps[1], rates[1])
    assert np.max(np.abs(single - dense_gksl.dissipator(jumps[1:2], rates[1:2]))) < 1e-13


def test_build_generator_matches_per_term_build():
    h, baths = two_mode_model(3, 2.0, 0.6, 0.1)
    gen = lindblad.build_generator(h, baths)
    for bath in baths:
        terms = dense_gksl.jump_terms(gen)[bath.label]
        oracle = dense_gksl.dissipator([t.operator for t in terms], [t.rate for t in terms])
        part = dense_gksl.from_blocks(gen.dissipator_parts[bath.label])
        assert np.max(np.abs(part - oracle)) < 1e-13


def test_two_bath_additivity():
    h = random_hermitian(3)
    b1 = flat_bath("one", 1.0, random_hermitian(3), rate=0.4)
    b2 = flat_bath("two", 2.0, random_hermitian(3), rate=0.7)
    both = lindblad.build_generator(h, [b1, b2])
    only1 = lindblad.build_generator(h, [b1])
    only2 = lindblad.build_generator(h, [b2])
    assert np.allclose(
        both.total,
        only1.total + only2.total - dense_gksl.superoperator(h),
        atol=1e-12,
    )
    # trace preservation: the row representing Tr is zero
    d = 3
    tr_row = dense_gksl.vectorize(np.eye(d)).conj() @ both.total
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
    assert len(exc.value.kernel_basis) == len(dense_gksl.svd_kernel(gen.total))


def test_steady_state_matches_svd_null_vector():
    for _ in range(60):
        d = int(rng.integers(2, 7))
        baths = [flat_bath(f"b{k}", float(rng.uniform(0.2, 3.0)), random_hermitian(d),
                           rate=float(rng.uniform(0.1, 1.5)))
                 for k in range(int(rng.integers(1, 3)))]
        gen = lindblad.build_generator(random_hermitian(d), baths)
        want = dense_gksl.svd_null_state(gen.total)
        assert np.max(np.abs(lindblad.steady_state(gen) - want)) < 1e-12
    for t_h, t_c in [(2.0, 0.6), (0.8, 0.8)]:
        gen = lindblad.build_generator(*two_mode_model(3, t_h, t_c, 0.1))
        want = dense_gksl.svd_null_state(gen.total)
        assert np.max(np.abs(lindblad.steady_state(gen) - want)) < 1e-12


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
        assert len(basis) == 2 == len(dense_gksl.svd_kernel(gen.total))
        for k in basis:
            assert np.max(np.abs(gen.total @ dense_gksl.vectorize(k))) < 1e-12


# --- Bohr sectors against the dense oracle ------------------------------------------------

FAMILIES = {"flat": {}, "ohmic_exp_cutoff": {"cutoff": 1.5},
            "windowed_flat": {"window": (0.0, 2.0)}}


def random_baths(d, n_baths, family):
    return [lindblad.BathSpec(
        f"b{k}", float(rng.uniform(0.3, 3.0)),
        lindblad.SpectralFunction(family, float(rng.uniform(0.1, 1.5)), **FAMILIES[family]),
        random_hermitian(d)) for k in range(n_baths)]


def assert_matches_dense(gen, tol=1e-12):
    """Blocks, evolution, steady state and heat currents of ``gen`` against
    the dense superoperator of its jump terms."""
    total = gen.total
    assert np.max(np.abs(dense_gksl.from_blocks(gen.blocks) - total)) < tol
    assert np.max(np.abs(dense_gksl.generator_super(gen) - total)) < tol
    parts = {}
    for bath in gen.baths:
        parts[bath.label] = dense_gksl.generator_super(gen, [bath.label])
        got = dense_gksl.from_blocks(gen.dissipator_parts[bath.label])
        assert np.max(np.abs(got - parts[bath.label])) < tol
    rho0 = random_density(gen.dim)
    for t in (0.3, 2.0):
        want = qcore.hermitianize(dense_gksl.evolve(total, rho0, t))
        assert np.max(np.abs(lindblad.evolve(gen, rho0, t) - want)) < tol
    flux = 0.0
    for bath in gen.baths:
        j = lindblad.heat_current(gen.dissipator_parts[bath.label], rho0, gen.hamiltonian)
        drho = dense_gksl.devectorize(parts[bath.label] @ dense_gksl.vectorize(rho0))
        assert abs(j - np.trace(drho @ gen.hamiltonian).real) < tol
        flux += j / bath.temperature
    vals, vecs = np.linalg.eigh(rho0)
    drho = dense_gksl.devectorize(total @ dense_gksl.vectorize(rho0))
    sigma = -np.trace(drho @ (vecs * np.log(vals)) @ vecs.conj().T).real - flux
    assert abs(lindblad.entropy_production(gen, rho0, gen.baths) - sigma) < tol
    try:
        want = dense_gksl.steady_state(total)
    except DegenerateSteadyState as exc:
        with pytest.raises(DegenerateSteadyState) as got:
            lindblad.steady_state(gen)
        assert len(got.value.kernel_basis) == len(exc.kernel_basis)
        return
    rho = lindblad.steady_state(gen)
    assert np.max(np.abs(rho - want)) < tol
    for label, part in parts.items():
        j = lindblad.heat_current(gen.dissipator_parts[label], rho, gen.hamiltonian)
        drho = dense_gksl.devectorize(part @ dense_gksl.vectorize(rho))
        assert abs(j - np.trace(drho @ gen.hamiltonian).real) < tol


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_baths", [1, 2])
def test_sector_blocks_match_dense_oracle(family, n_baths):
    for d in range(2, 7):
        for _ in range(3):
            gen = lindblad.build_generator(random_hermitian(d),
                                           random_baths(d, n_baths, family))
            assert_matches_dense(gen)


@pytest.mark.parametrize("model", ["degenerate", "rotated degenerate", "lambda", "ladder",
                                   "near ladder", "untouched qubit"])
def test_sector_edge_cases_match_dense_oracle(model):
    a = np.diag(np.sqrt(np.arange(1.0, 8.0)), 1)
    if "degenerate" in model:  # a† a + b† b: shells of equal energy
        h, baths = two_mode_model(2, 2.0, 0.6, 0.3)
        h = np.diag(np.add.outer(np.arange(3.0), np.arange(3.0)).ravel())
        if model.startswith("rotated"):  # couples within and across shells
            baths[1] = flat_bath("cold", 0.6, random_hermitian(9), 0.3)
    elif model == "lambda":
        # degenerate upper pair coupled to the ground level only through
        # (|1> + |2>)/sqrt2: only K couples the coherences |0><1| and |0><2|
        v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        s = np.outer([1.0, 0.0, 0.0], v)
        h, baths = np.diag([0.0, 1.0, 1.0]), [flat_bath("b", 0.7, s + s.T, 0.5)]
    elif model == "ladder":  # equally spaced levels: large Bohr sectors
        h = np.diag(np.arange(8.0))
        baths = [flat_bath("hot", 2.0, a + a.T, 0.2), flat_bath("cold", 0.5, a @ a.T, 0.4)]
    elif model == "near ladder":
        # gaps 1 + 0.4 k tol: neighbouring Bohr frequencies round together
        # in chains, so one sector spans terms that stay apart
        n = np.arange(8.0)
        h = np.diag(n + 0.4 * 7e-9 * n * (n - 1) / 2)
        baths = [flat_bath("b", 1.0, a + a.T + 0.5 * (a @ a + a.T @ a.T), 0.5)]
    else:  # the bath flips the first qubit only
        eye = np.eye(2)
        h = 0.5 * np.kron(SZ, eye) + 0.8 * np.kron(eye, SZ)
        baths = [flat_bath("b", 1.0, np.kron(SX, eye))]
    assert_matches_dense(lindblad.build_generator(h, baths))


@pytest.mark.parametrize("offset,gap,n_terms", [(0.0, 0.6, 5), (0.4999999984375, 0.6, 7),
                                                (0.0, 1.5, 7)],
                         ids=["merged", "split-below-tol", "split-above-tol"])
def test_bohr_gap_at_rounding_edge_matches_dense_oracle(offset, gap, n_terms):
    """Levels offset + (0, 1, 2), the top one raised by ``gap`` times the
    degeneracy tolerance: Bohr frequencies 1 and 1 + gap tol either round
    to one jump term, which couples their coherences, or stay two."""
    e = offset + np.array([0.0, 1.0, 2.0])
    e[2] += gap * 1e-9 * e[2]
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h, s = qcore.hermitianize(q @ np.diag(e) @ q.conj().T), random_hermitian(3)
    assert len(lindblad.decompose_coupling(s, h)[0]) == n_terms
    assert_matches_dense(lindblad.build_generator(h, [flat_bath("b", 0.8, s, 0.5)]))


def test_level_chain_clusters_alike_in_lindblad_and_battery():
    """Levels 0, 0.6 tol and 1.2 tol chain into one cluster (each gap is
    below the tolerance, the whole span is not) next to a level at 1: the
    jump terms and the battery's energy groups cluster them alike."""
    tol = 1e-9
    e = np.array([0.0, 0.6 * tol, 1.2 * tol, 1.0])
    group_e, _ = battery._group_energies(e)
    assert len(group_e) == 2
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h, s = qcore.hermitianize(q @ np.diag(e) @ q.conj().T), random_hermitian(4)
    freqs, _ops = lindblad.decompose_coupling(s, h)
    want = np.unique(np.subtract.outer(group_e, group_e))
    assert len(freqs) == len(want)
    assert np.max(np.abs(freqs - want)) < 1e-14
    assert_matches_dense(lindblad.build_generator(h, [flat_bath("b", 0.8, s, 0.5)]))


def svd_rule_accepts(gen, kernel_tol=1e-9):
    """The SVD rule: every block but the zero-frequency one has its
    smallest singular value above ``kernel_tol`` times the largest of all
    blocks."""
    svals = [np.linalg.svd(b, compute_uv=False) for b in gen.blocks.stacks]
    s_max = max(s.max() for s in svals)
    return all(s[:, -1].min() > kernel_tol * s_max for s in svals[1:])


def kernel_projector(basis):
    """Orthogonal projector onto the span of d x d matrices."""
    q, _ = np.linalg.qr(np.array([dense_gksl.vectorize(k) for k in basis]).T)
    return q @ q.conj().T


def near_degenerate_model(delta, rate, strong_rate):
    """Levels 0, 1, 1 + delta, 1.5: the bath joins 0 with 1 and with 2 at
    ``rate``, a second one 0 with 3 at ``strong_rate``. The coherence of
    the near pair has Bohr frequency delta and is damped at about ``rate``,
    so its 1 x 1 block is nearly singular against the largest block."""
    h = np.diag([0.0, 1.0, 1.0 + delta, 1.5])
    weak, strong = np.zeros((4, 4)), np.zeros((4, 4))
    weak[0, 1:3] = weak[1:3, 0] = 1.0
    strong[0, 3] = strong[3, 0] = 1.0
    return h, [flat_bath("weak", 0.7, weak, rate),
               flat_bath("strong", 0.7, strong, strong_rate)]


def test_certificate_accepts_only_what_the_svd_rule_accepts():
    for family in sorted(FAMILIES):
        for d in range(2, 7):
            for n_baths in (1, 2):
                gen = lindblad.build_generator(random_hermitian(d),
                                               random_baths(d, n_baths, family))
                # well-separated random models: every sector is certified
                assert lindblad._nonsingular_certified(gen.blocks.stacks, 1e-9)
                assert svd_rule_accepts(gen)
    fixtures = [lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SZ)])]
    eye = np.eye(2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for u in (np.eye(4), q):  # the untouched qubit, in two bases
        fixtures.append(lindblad.build_generator(
            qcore.hermitianize(u @ (0.5 * np.kron(SZ, eye) + 0.8 * np.kron(eye, SZ))
                               @ u.conj().T),
            [flat_bath("b", 1.0, qcore.hermitianize(u @ np.kron(SX, eye) @ u.conj().T))]))
    _h, baths = two_mode_model(2, 2.0, 0.6, 0.3)  # a† a + b† b: degenerate shells
    fixtures.append(lindblad.build_generator(
        np.diag(np.add.outer(np.arange(3.0), np.arange(3.0)).ravel()), baths))
    fixtures += [lindblad.build_generator(*near_degenerate_model(2.5e-9, 1e-9, 1e-9)),
                 lindblad.build_generator(*near_degenerate_model(1e-8, 1e-9, 100.0))]
    verdicts = []
    for gen in fixtures:
        certified = lindblad._nonsingular_certified(gen.blocks.stacks, 1e-9)
        accepted = svd_rule_accepts(gen)
        assert accepted or not certified
        verdicts.append((certified, accepted))
        try:
            lindblad.steady_state(gen)
        except DegenerateSteadyState as exc:
            want = dense_gksl.svd_kernel(gen.total)
            assert len(exc.kernel_basis) == len(want)
            assert np.max(np.abs(kernel_projector(exc.kernel_basis)
                                 - kernel_projector(want))) < 1e-9
        else:
            assert accepted
    # the near pair: uncertified, then accepted by the SVD rule (about 1.8
    # times kernel_tol) or, beside the strong channel, rejected by it
    assert verdicts[-2:] == [(False, True), (False, False)]


def test_uncertified_sector_falls_back_to_the_svd_rule():
    h, baths = near_degenerate_model(2.5e-9, 1e-9, 1e-9)
    gen = lindblad.build_generator(h, baths)
    assert not lindblad._nonsingular_certified(gen.blocks.stacks, 1e-9)
    rho = lindblad.steady_state(gen)
    assert np.max(np.abs(rho - qcore.gibbs_state(h, 0.7))) < 1e-12
    stacks = list(gen.blocks.stacks)
    stacks[1] = stacks[1].copy()
    stacks[1][0] = 0.0  # an exactly singular 1 x 1 block
    assert not lindblad._nonsingular_certified(stacks, 1e-9)
    for bad in (np.nan, np.inf):
        stacks[0] = np.full_like(gen.blocks.stacks[0], bad)
        assert not lindblad._nonsingular_certified(stacks, 1e-9)


def _written_out_rate(spectral, temperature, omega):
    """The KMS-completed rate of one frequency, each family's formula
    written out with the math module."""
    x = abs(omega)
    if spectral.family == "ohmic_exp_cutoff":
        gamma = spectral.base_rate * (x / spectral.cutoff) * math.exp(-x / spectral.cutoff)
    elif spectral.family == "windowed_flat":
        gamma = spectral.base_rate if spectral.window[0] < x < spectral.window[1] else 0.0
    else:
        gamma = spectral.base_rate
    return gamma * math.exp(min(omega, 0.0) / temperature)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vectorised_rates_match_scalar_rate(family):
    kwargs = {"cutoff": 1.5} if family == "ohmic_exp_cutoff" else {"window": (0.5, 2.0)}
    spectral = lindblad.SpectralFunction(family, 0.7, **kwargs)
    edges = [0.5, 2.0, np.nextafter(0.5, 0), np.nextafter(2.0, 3)]
    w = [0.0, -0.0, 1e-300, 0.3, 1.0, 1.7, 10.0, 1e3, 1e5, 1e300, 1.7976931348623157e308]
    w = np.array(edges + w + [-x for x in edges + w])
    for temperature in (0.1, 1.0, 1e-300, 1e300):
        bath = lindblad.BathSpec("b", temperature, spectral, SX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bath.rates(w)
            scalar = [float(bath.rates(float(x))) for x in w]
        want = [_written_out_rate(spectral, temperature, float(x)) for x in w]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert np.array_equal(scalar, got)
    assert np.array_equal(bath.rates(w.reshape(2, -1)), got.reshape(2, -1))
    # floquet reads the one-sided spectrum at single positive frequencies
    assert [spectral.positive_side(float(x)) for x in w[w >= 0]] == list(
        spectral.positive_side(w[w >= 0]))


def test_ohmic_rate_is_zero_where_omega_over_cutoff_overflows():
    # omega/cutoff = inf once gave inf * e^-inf = NaN, with a RuntimeWarning
    spectral = lindblad.SpectralFunction("ohmic_exp_cutoff", 1.0, cutoff=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral.positive_side(1e10) == 0
        assert list(spectral.positive_side(np.array([1e10, 1e-300, 0.0]))) == [
            0.0, math.exp(-1.0), 0.0]


def test_d256_steady_state_without_superoperator():
    """Two-mode model at cutoff 15: its d² x d² superoperator would take
    about 69 GB."""
    tracemalloc.start()
    try:
        for t_h, t_c in [(0.8, 0.8), (2.0, 0.6)]:
            h, baths = two_mode_model(15, t_h, t_c, 0.1)
            gen = lindblad.build_generator(h, baths)
            rho = lindblad.steady_state(gen)
            j_h, j_c = (lindblad.heat_current(gen.dissipator_parts[b.label], rho, h)
                        for b in baths)
            if t_h == t_c:
                assert np.max(np.abs(rho - qcore.gibbs_state(h, t_h))) < 1e-12
            else:
                assert j_h > 1e-3 and abs(j_h + j_c) < 1e-14
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_duplicate_bath_labels_rejected():
    with pytest.raises(InvalidParams):
        lindblad.build_generator(0.5 * SZ, [flat_bath("b", 1.0, SX), flat_bath("b", 2.0, SX)])


@pytest.mark.parametrize("args, kwargs", [
    (("lorentzian", 1.0), {}),
    (("flat", -0.1), {}),
    (("flat", float("inf")), {}),
    (("flat", float("nan")), {}),
    (("ohmic_exp_cutoff", 1.0), {"cutoff": 0.0}),
    (("ohmic_exp_cutoff", 1.0), {"cutoff": -2.0}),
    (("windowed_flat", 1.0), {}),
    (("windowed_flat", 1.0), {"window": (2.0, 2.0)}),
    (("windowed_flat", 1.0), {"window": (3.0, 1.0)}),
    (("windowed_flat", 1.0), {"window": (1.0,)}),
], ids=["unknown-family", "negative-rate", "infinite-rate", "nan-rate",
        "zero-cutoff", "negative-cutoff", "no-window", "empty-window",
        "reversed-window", "one-edge-window"])
def test_spectral_function_rejected_at_construction(args, kwargs):
    with pytest.raises(InvalidParams):
        lindblad.SpectralFunction(*args, **kwargs)


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
    part = dense_gksl.from_blocks(gen.dissipator_parts["b"])
    drho = dense_gksl.devectorize(part @ dense_gksl.vectorize(hot_rho))
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


def test_evolve_ode_matches_expm():
    h = 0.5 * 1.7 * SZ
    bath = flat_bath("b", 0.9, SX, rate=0.6)
    gen = lindblad.build_generator(h, [bath])
    rho0 = random_density(2)
    pairs = [(t.operator, t.rate) for t in dense_gksl.jump_terms(gen)["b"]]
    out = dense_gksl.evolve_ode(h, pairs, rho0, (0.0, 2.0), t_eval=[0.0, 2.0])
    assert np.allclose(out[-1], lindblad.evolve(gen, rho0, 2.0), atol=1e-8)
    # two-mode model, d = 16, from a state far from the steady one
    h, baths = two_mode_model(3, 2.0, 0.6, 0.15)
    gen = lindblad.build_generator(h, baths)
    rho0 = random_density(16)
    terms = dense_gksl.jump_terms(gen)
    pairs = [(t.operator, t.rate) for b in baths for t in terms[b.label]]
    out = dense_gksl.evolve_ode(h, pairs, rho0, (0.0, 5.0), t_eval=[1.0, 5.0])
    for t, rho in zip([1.0, 5.0], out):
        assert np.max(np.abs(rho - lindblad.evolve(gen, rho0, t))) < 1e-8
