import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import wqed_subradiance.spectrum as spectrum_module
from wqed_subradiance import (
    ArrayConfig,
    DomainError,
    EigenState,
    NumericalError,
    build_hamiltonian,
    diagonalize,
    diagonalize_sector,
    enumerate_sector,
    hosvd,
    min_decay_rate,
    most_subradiant_state,
    sector_decay_rates,
    to_symmetric_tensor,
)
from wqed_subradiance.lattice import (
    complement_masks,
    complement_permutation,
    mirror_permutation,
    rank_masks,
)
from wqed_subradiance.spectrum import GAMMA_FLOOR, PIVOT_ATOL, RESIDUAL_TOL
from oracles import (
    dense_min_decay_rate,
    full_space_hamiltonian,
    project_to_sector,
    sector_hamiltonian,
    symmetry_blocks_by_gather,
)


def test_dicke_limit_two_atoms():
    config = ArrayConfig(n_atoms=2, phase=0.0)
    rates = sector_decay_rates(config, 1)
    np.testing.assert_allclose(rates, [0.0, 2.0], atol=1e-12)
    assert min_decay_rate(config, 1) == pytest.approx(0.0, abs=1e-15)


def test_two_atoms_double_excitation_sector():
    config = ArrayConfig(n_atoms=2, phase=0.456)
    states = diagonalize(config, 2)
    assert len(states) == 1
    assert states[0].epsilon == pytest.approx(-1j, abs=1e-12)
    assert states[0].gamma == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("extra", [-1, 1])
def test_eigenstate_rejects_amplitudes_of_another_dimension(extra):
    basis = enumerate_sector(6, 2)
    amps = np.zeros(basis.dim + extra, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(DomainError):
        EigenState(epsilon=0j, gamma=0.0, amplitudes=amps, basis=basis)


def test_every_state_carries_its_own_sector_basis():
    """Including 2k > N, solved through sector N - k, and k = N."""
    for n in range(1, 9):
        config = ArrayConfig.from_period(n, 0.13)
        for k in range(1, n + 1):
            states = enumerate_sector(n, k).states
            for state in diagonalize(config, k):
                assert state.basis.states == states and state.k == k, (n, k)


def test_eigenstates_unit_norm_residual_and_gauge():
    config = ArrayConfig.from_period(7, 0.13)
    basis = enumerate_sector(7, 3)
    ham = build_hamiltonian(config, basis)
    for state in diagonalize_sector(ham):
        v = state.amplitudes
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        residual = np.linalg.norm(ham.matrix @ v - 3 * state.epsilon * v)
        assert residual < 1e-9
        # pivot: the first entry within PIVOT_ATOL of the largest magnitude
        mags = np.abs(v)
        pivot = v[np.argmax(mags >= mags.max() - PIVOT_ATOL)]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_sorting_ascending_gamma():
    config = ArrayConfig.from_period(8, 0.07)
    for k in (1, 2, 3):
        gammas = [s.gamma for s in diagonalize(config, k)]
        assert gammas == sorted(gammas)


def test_trace_preservation():
    config = ArrayConfig.from_period(7, 0.11)
    for k in (1, 2, 3, 4):
        ham = build_hamiltonian(config, enumerate_sector(7, k))
        states = diagonalize_sector(ham)
        total = sum(s.epsilon * k for s in states)
        expected = -1j * k * math.comb(7, k)
        assert abs(total - expected) < 1e-9 * abs(expected)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_eigenvalue_set_invariant_under_basis_permutation(seed):
    config = ArrayConfig.from_period(6, 0.09)
    h = build_hamiltonian(config, enumerate_sector(6, 2)).matrix
    rng = np.random.default_rng(seed)
    perm = rng.permutation(h.shape[0])
    hp = h[np.ix_(perm, perm)]
    ev = np.sort_complex(np.linalg.eigvals(h))
    evp = np.sort_complex(np.linalg.eigvals(hp))
    np.testing.assert_allclose(ev, evp, atol=1e-9)


@pytest.fixture(scope="module")
def oracle_n10():
    return full_space_hamiltonian(10, 2 * math.pi * 0.05)


def test_min_decay_n10_k2_vs_full_space_oracle(oracle_n10):
    basis = enumerate_sector(10, 2)
    projected = project_to_sector(oracle_n10, 10, basis.states)
    oracle_min = np.sort(-np.linalg.eigvals(projected).imag / 2)[0]
    config = ArrayConfig.from_period(10, 0.05)
    assert min_decay_rate(config, 2) == pytest.approx(oracle_min, abs=1e-10)
    # the two smallest single-excitation rates nearly account for it (total scale)
    single = sector_decay_rates(config, 1)
    total = 2 * min_decay_rate(config, 2)
    assert abs(single[:2].sum() - total) / total < 0.25


@pytest.mark.parametrize("k", [3, 5])
def test_min_decay_n10_vs_full_space_oracle(oracle_n10, k):
    """Sector rates behind the dilute-limit and half-filling criteria."""
    basis = enumerate_sector(10, k)
    projected = project_to_sector(oracle_n10, 10, basis.states)
    oracle_min = np.sort(-np.linalg.eigvals(projected).imag / k)[0]
    config = ArrayConfig.from_period(10, 0.05)
    assert min_decay_rate(config, k) == pytest.approx(oracle_min, abs=1e-10)


def test_min_decay_domain():
    config = ArrayConfig.from_period(4, 0.05)
    with pytest.raises(DomainError):
        min_decay_rate(config, 0)
    with pytest.raises(DomainError):
        min_decay_rate(config, 5)


def test_half_filling_rates_n10(oracle_n10):
    """Frozen oracle values for the f=1/2 transition at d=0.05."""
    config = ArrayConfig.from_period(10, 0.05)
    g5 = min_decay_rate(config, 5)
    g6 = min_decay_rate(config, 6)
    basis = enumerate_sector(10, 6)
    projected = project_to_sector(oracle_n10, 10, basis.states)
    oracle_g6 = np.sort(-np.linalg.eigvals(projected).imag / 6)[0]
    assert g6 == pytest.approx(oracle_g6, abs=1e-9)
    assert g5 == pytest.approx(0.051520167, abs=1e-6)
    assert g6 == pytest.approx(0.337018490, abs=1e-6)
    assert g6 > 0.1  # brighter than a tenth of the single-atom rate
    assert g6 / g5 == pytest.approx(6.541, abs=0.01)


def test_dimer_ansatz_rayleigh_quotient_n4():
    """The explicit two-dimer product state pins min gamma at small period."""
    config = ArrayConfig.from_period(4, 0.01)
    basis = enumerate_sector(4, 2)
    amps = np.zeros(basis.dim, dtype=complex)
    signs = {(0, 2): 0.5, (0, 3): -0.5, (1, 2): -0.5, (1, 3): 0.5}
    for subset, value in signs.items():
        amps[basis.states.index(subset)] = value
    h = build_hamiltonian(config, basis).matrix
    rayleigh_gamma = -(amps.conj() @ h @ amps).imag / 2
    exact = min_decay_rate(config, 2)
    assert abs(rayleigh_gamma - exact) / exact < 0.10


def test_sum_rule_k1_coincides():
    """At k=1 the summed-rate estimate is the smallest single-excitation rate itself."""
    config = ArrayConfig.from_period(9, 0.08)
    assert np.sort(sector_decay_rates(config, 1))[0] == min_decay_rate(config, 1)


def test_darkness_bound_examples():
    """Sector k hosts dark states (total rate 0 at d = 0) iff C(N,k) > C(N,k-1)."""

    def dark(n, k):
        return bool((k * sector_decay_rates(ArrayConfig(n_atoms=n, phase=0.0), k) < 1e-9).any())

    assert dark(10, 5) is True
    assert dark(10, 6) is False
    assert dark(4, 3) is False
    with pytest.raises(DomainError):
        dark(4, 5)


def test_half_wavelength_equivalent_to_small_period():
    a = min_decay_rate(ArrayConfig.from_period(10, 0.05), 1)
    b = min_decay_rate(ArrayConfig.from_period(10, 0.45), 1)
    assert abs(a - b) / a < 0.20
    assert a == pytest.approx(b, rel=1e-9)  # exact mirror identity of the model


def test_most_subradiant_state_matches_min():
    config = ArrayConfig.from_period(8, 0.05)
    state = most_subradiant_state(config, 3)
    assert state.gamma == pytest.approx(min_decay_rate(config, 3), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_most_subradiant_state_is_the_first_diagonalize_state_bitwise(n):
    """Lifting only each block's lowest pairs keeps the state the full lift sorts
    first, ties included (d = 0 and 0.5 have many states at gamma = 0)."""
    for d in (0.0, 0.05, 0.13, 0.25, 0.5):
        config = ArrayConfig.from_period(n, d)
        for k in range(1, n + 1):
            first, state = diagonalize(config, k)[0], most_subradiant_state(config, k)
            assert (state.epsilon, state.gamma) == (first.epsilon, first.gamma)
            assert state.amplitudes.tobytes() == first.amplitudes.tobytes()


def _multiset_distance(a, b):
    """Largest gap between two complex multisets under the best matching."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@pytest.mark.parametrize("d", [0.05, 0.13, 0.3])
def test_parity_blocks_keep_the_unblocked_spectrum(d):
    """Every sector, k = 0 and k = N included (there the odd block is empty)."""
    for n in range(1, 11):
        config = ArrayConfig.from_period(n, d)
        for k in range(n + 1):
            ham = build_hamiltonian(config, enumerate_sector(n, k))
            states = diagonalize_sector(ham)
            blocked = np.array([s.epsilon * max(k, 1) for s in states])
            unblocked = np.linalg.eigvals(ham.matrix)
            assert len(blocked) == len(unblocked)
            assert _multiset_distance(blocked, unblocked) < 1e-10


@pytest.mark.parametrize(
    "n,k,d", [(6, 3, 0.13), (7, 3, 0.05), (8, 4, 0.3), (9, 2, 0.25), (10, 5, 0.05)]
)
def test_lifted_states_are_mirror_eigenvectors_with_full_residual(n, k, d):
    ham = build_hamiltonian(ArrayConfig.from_period(n, d), enumerate_sector(n, k))
    mirror = mirror_permutation(ham.basis)
    states = diagonalize_sector(ham)
    values = np.array([s.epsilon * k for s in states])
    vectors = np.array([s.amplitudes for s in states]).T
    residual = np.linalg.norm(ham.matrix @ vectors - vectors * values, axis=0)
    assert (residual <= RESIDUAL_TOL * np.maximum(1.0, np.abs(values))).all()
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-12)
    gaps = np.abs(values[:, None] - values[None, :]) + np.diag(np.full(len(values), np.inf))
    nondegenerate = gaps.min(axis=1) > 1e-6
    assert nondegenerate.sum() > len(states) // 2
    for state in np.array(states, dtype=object)[nondegenerate]:
        v = state.amplitudes
        parity = np.vdot(v, v[mirror]).real
        assert abs(abs(parity) - 1.0) < 1e-12
        np.testing.assert_allclose(v[mirror], np.sign(parity) * v, atol=1e-12)


@pytest.mark.parametrize("n,k,d", [(6, 3, 0.13), (8, 4, 0.05), (10, 5, 0.3)])
def test_half_filling_states_have_joint_mirror_and_complement_parity(n, k, d):
    """At N = 2k every nondegenerate state is even or odd under both maps."""
    ham = build_hamiltonian(ArrayConfig.from_period(n, d), enumerate_sector(n, k))
    states = diagonalize_sector(ham)
    values = np.array([s.epsilon * k for s in states])
    gaps = np.abs(values[:, None] - values[None, :]) + np.diag(np.full(len(values), np.inf))
    nondegenerate = gaps.min(axis=1) > 1e-6
    assert nondegenerate.sum() > len(states) // 2
    parities = set()
    for state in np.array(states, dtype=object)[nondegenerate]:
        v = state.amplitudes
        signs = []
        for perm in (mirror_permutation(ham.basis), complement_permutation(ham.basis)):
            parity = np.vdot(v, v[perm]).real
            assert abs(abs(parity) - 1.0) < 1e-12
            np.testing.assert_allclose(v[perm], np.sign(parity) * v, atol=1e-12)
            signs.append(np.sign(parity))
        parities.add(tuple(signs))
    assert len(parities) == 4


@pytest.mark.parametrize("d", [0.05, 0.13, 0.3])
def test_particle_hole_duality_of_sector_spectra(d):
    """H of sector (N, N-k) is H of (N, k) relabelled by S -> N\\S, with the
    diagonal -i*k replaced by -i*(N-k)."""
    for n in range(1, 11):
        config = ArrayConfig.from_period(n, d)
        for k in range(n + 1):
            particle = np.array([s.epsilon * max(k, 1) for s in diagonalize(config, k)])
            hole = np.array([s.epsilon * max(n - k, 1) for s in diagonalize(config, n - k)])
            shifted = particle - 1j * (n - 2 * k)
            assert _multiset_distance(hole, shifted) < 1e-10


def test_min_decay_rate_matches_unblocked_solver_values():
    """Frozen values of the single dense eig over the whole sector (d = 0.05)."""
    frozen = {
        (11, 5): 0.01933662700020265,
        (12, 6): 0.051293550014536206,
        (10, 1): 0.0001323720729591158,
    }
    for (n, k), gamma in frozen.items():
        config = ArrayConfig.from_period(n, 0.05)
        assert min_decay_rate(config, k) == pytest.approx(gamma, rel=1e-10)


@pytest.mark.parametrize("n", range(1, 11))
def test_min_decay_rate_is_the_diagonalize_minimum_bitwise(n):
    for d in (0.05, 0.13, 0.3):
        config = ArrayConfig.from_period(n, d)
        for k in range(1, n + 1):
            expected = max(0.0, min(s.gamma for s in diagonalize(config, k)))
            assert min_decay_rate(config, k) == expected


@pytest.mark.parametrize("d", [0.01, 0.07, 0.13, 0.2, 0.3])
def test_spectra_repeat_with_period_one_half_and_mirror_about_one_quarter(d):
    """H(pi - phi) = -D H(phi)* D and H(phi + pi) = D H(phi) D, with
    D = prod_j (-1)^(j n_j).  So eps -> -eps* at 1/2 - d, with states D v*,
    and gamma is the same at d, 1/2 - d, d + 1/2 and 1 - d.  D is a phase on
    each site and conjugation keeps singular values, so a nondegenerate most
    subradiant state has the same HOSVD entropy at d and 1/2 - d."""
    for n in range(1, 11):
        config, mirrored = ArrayConfig.from_period(n, d), ArrayConfig.from_period(n, 0.5 - d)
        others = [mirrored] + [ArrayConfig.from_period(n, e) for e in (d + 0.5, 1.0 - d)]
        for k in range(1, n + 1):
            basis = enumerate_sector(n, k)
            sign = np.array([(-1.0) ** sum(state) for state in basis.states])
            h = build_hamiltonian(config, basis).matrix
            flipped = -sign[:, None] * h.conj() * sign
            np.testing.assert_allclose(build_hamiltonian(mirrored, basis).matrix, flipped, atol=1e-12)
            gamma = min_decay_rate(config, k)
            for other in others:
                assert min_decay_rate(other, k) == pytest.approx(gamma, rel=0, abs=1e-12)
            rates = sector_decay_rates(config, k)
            if len(rates) > 1 and rates[1] - rates[0] <= 1e-8:
                continue
            entropy = [
                hosvd(to_symmetric_tensor(most_subradiant_state(c, k))).entropy
                for c in (config, mirrored)
            ]
            assert entropy[1] == pytest.approx(entropy[0], rel=0, abs=1e-10), (n, k)


def test_hop_table_blocks_equal_the_dense_gather_bitwise():
    """Every sector N <= 10: blocks and lifts from the hop-table entries are
    the blocks gathered from the dense H, byte for byte."""
    for d in (0.0, 0.05, 0.13, 0.25, 0.5):
        for n in range(1, 11):
            config = ArrayConfig.from_period(n, d)
            for k in range(n + 1):
                basis = enumerate_sector(n, k)
                blocks = spectrum_module._symmetry_blocks(build_hamiltonian(config, basis))
                gathered = symmetry_blocks_by_gather(build_hamiltonian(config, basis).matrix, basis)
                for (block, lifts), (want, want_lifts) in zip(blocks, gathered, strict=True):
                    assert block.tobytes() == want.tobytes(), (n, k, d)
                    for (index, coef), (want_index, want_coef) in zip(lifts, want_lifts, strict=True):
                        assert np.array_equal(index, want_index)
                        assert coef.tobytes() == want_coef.tobytes()


@pytest.mark.parametrize("d", [0.0, 0.05, 0.13, 0.25, 0.5])
def test_sector_is_its_complement_sector_shifted(d):
    """H_k = P H_{N-k} P^T - i*(2k - N): every hop bitwise, the
    diagonal within one ulp of the larger diagonal max(k, N-k)."""
    for n in range(1, 11):
        config = ArrayConfig.from_period(n, d)
        for k in range(n + 1):
            basis, dual = enumerate_sector(n, k), enumerate_sector(n, n - k)
            perm = rank_masks(dual, complement_masks(basis))
            h = build_hamiltonian(config, basis).matrix
            moved = build_hamiltonian(config, dual).matrix[np.ix_(perm, perm)]
            off = ~np.eye(basis.dim, dtype=bool)
            assert h[off].tobytes() == moved[off].tobytes()
            shifted = moved.diagonal() - 1j * (2 * k - n)
            assert (h.diagonal().real == shifted.real).all()
            ulp = np.spacing(float(max(k, n - k)))
            assert (np.abs(h.diagonal().imag - shifted.imag) <= ulp).all(), (n, k)


@pytest.mark.parametrize("d", [0.0, 0.05, 0.13, 0.25, 0.5])
def test_sectors_above_half_filling_match_a_direct_dense_solve(d):
    """2k > N goes through sector N - k; k = N through the empty sector."""
    for n in range(1, 11):
        config = ArrayConfig.from_period(n, d)
        for k in range(n // 2 + 1, n + 1):
            h = build_hamiltonian(config, enumerate_sector(n, k)).matrix
            assert min_decay_rate(config, k) == pytest.approx(
                dense_min_decay_rate(config, k), rel=1e-12, abs=0
            )
            states = diagonalize(config, k)
            values = np.array([s.epsilon * k for s in states])
            dense = np.linalg.eigvals(h)
            cost = np.abs(values[:, None] - dense[None, :]) / np.abs(dense)
            rows, cols = linear_sum_assignment(cost)
            assert len(rows) == len(dense) and cost[rows, cols].max() < 1e-12, (n, k)
            vectors = np.array([s.amplitudes for s in states]).T
            residual = np.linalg.norm(h @ vectors - vectors * values, axis=0)
            assert (residual <= RESIDUAL_TOL * np.maximum(1.0, np.abs(values))).all()
            np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-12)


def test_full_sector_needs_no_eigensolve(monkeypatch):
    monkeypatch.setattr(spectrum_module.np.linalg, "eig", None)
    config = ArrayConfig.from_period(5, 0.13)
    assert min_decay_rate(config, 5) == 1.0
    (state,) = diagonalize(config, 5)
    assert state.gamma == 1.0 and state.epsilon == -1j
    assert state.amplitudes.tolist() == [1.0]


def test_min_decay_rate_solves_a_sector_and_its_complement_once(monkeypatch):
    solved = []
    real = spectrum_module.build_hamiltonian
    monkeypatch.setattr(
        spectrum_module,
        "build_hamiltonian",
        lambda config, basis: solved.append(basis.n_excitations) or real(config, basis),
    )
    spectrum_module._min_gamma.cache_clear()
    config = ArrayConfig.from_period(9, 0.13)
    first = [min_decay_rate(config, k) for k in (3, 6, 4, 5)]
    assert solved == [3, 4]
    spectrum_module._min_gamma.cache_clear()
    # the memo does not change a result: k > N/2 always derives from N - k
    assert [min_decay_rate(config, k) for k in (6, 5, 3, 4)] == [first[1], first[3], first[0], first[2]]
    assert solved == [3, 4, 3, 4]


def test_min_decay_rate_allocates_no_dense_sector_matrix():
    """At (12, 6) the peak stays below one dense 924 x 924 complex H."""
    import tracemalloc

    config = ArrayConfig.from_period(12, 0.05)
    spectrum_module._min_gamma.cache_clear()
    tracemalloc.start()
    try:
        min_decay_rate(config, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < math.comb(12, 6) ** 2 * 16, peak


@pytest.mark.parametrize("solve", [min_decay_rate, most_subradiant_state], ids=lambda f: f.__name__)
def test_sector_solves_hold_one_symmetry_block_at_a_time(solve, monkeypatch):
    """At (12, 5), two 396 x 396 blocks, in units of the largest block: traced
    memory stays below 1 when each block is built and below 2 when it is
    solved, since no array of the last block is alive; the peak stays below
    4: the block, its eigenvectors, one temporary of their column norms and
    the sector's entries.  Keeping the last block reads 1.4 at the second
    build (2.4 with its eigenvectors), and forming every residual at once
    peaks at 4.4."""
    import tracemalloc

    config = ArrayConfig.from_period(12, 0.05)
    h = build_hamiltonian(config, enumerate_sector(12, 5))
    largest = max(block.nbytes for block, _ in spectrum_module._symmetry_blocks(h))
    del h
    traced = {"build": [], "eig": []}

    def recorded(stage, fn):
        def call(*args):
            traced[stage].append(tracemalloc.get_traced_memory()[0] / largest)
            return fn(*args)

        return call

    build, eig = spectrum_module._character_sum, spectrum_module.np.linalg.eig
    monkeypatch.setattr(spectrum_module, "_character_sum", recorded("build", build))
    monkeypatch.setattr(spectrum_module.np.linalg, "eig", recorded("eig", eig))
    spectrum_module._min_gamma.cache_clear()
    tracemalloc.start()
    try:
        solve(config, 5)
        peak = tracemalloc.get_traced_memory()[1] / largest
    finally:
        tracemalloc.stop()
        spectrum_module._min_gamma.cache_clear()
    assert len(traced["build"]) == len(traced["eig"]) == 2
    assert max(traced["build"]) < 1 and max(traced["eig"]) < 2, traced
    assert peak < 4, peak


def _sector(n=6, k=3, d=0.13):
    return build_hamiltonian(ArrayConfig.from_period(n, d), enumerate_sector(n, k))


def _via_diagonalize_sector(ham, monkeypatch):
    diagonalize_sector(ham)


def _via_min_decay_rate(ham, monkeypatch):
    # min_decay_rate assembles its own sector and memoizes its result:
    # inject ``ham`` and start from an empty memo
    monkeypatch.setattr(spectrum_module, "build_hamiltonian", lambda config, basis: ham)
    spectrum_module._min_gamma.cache_clear()
    try:
        min_decay_rate(ArrayConfig.from_period(ham.basis.n_atoms, 0.13), ham.basis.n_excitations)
    finally:
        spectrum_module._min_gamma.cache_clear()


def _fingerprint(ham):
    """The fingerprint of ``ham`` with its entries listed row-major."""
    return spectrum_module._fingerprint(sector_hamiltonian(ham.basis, ham.matrix))


entry_points = pytest.mark.parametrize(
    "solve", [_via_diagonalize_sector, _via_min_decay_rate],
    ids=["diagonalize_sector", "min_decay_rate"],
)


@entry_points
def test_corrupted_eigenvectors_raise_with_residual_and_fingerprint(solve, monkeypatch):
    real_eig = spectrum_module.np.linalg.eig

    def corrupted_eig(block, *args, **kwargs):
        values, vectors = real_eig(block, *args, **kwargs)
        vectors[:, -1] += 1e-3
        return values, vectors

    monkeypatch.setattr(spectrum_module.np.linalg, "eig", corrupted_eig)
    ham = _sector()
    with pytest.raises(NumericalError) as info:
        solve(ham, monkeypatch)
    message = str(info.value)
    residual = float(re.search(r"eigenpair residual (\S+) exceeds", message).group(1))
    assert residual > RESIDUAL_TOL
    assert _fingerprint(ham) in message


def _parity_projector(perm, parity):
    identity = np.eye(len(perm))
    return (identity + parity * identity[perm]) / 2


# one mirror parity (two of the four blocks at (6, 3)), then each joint
# mirror x complement parity block on its own
_SHIFTED_PARITIES = {
    "1.0": (1.0, None),
    "-1.0": (-1.0, None),
    "even-even": (1.0, 1.0),
    "odd-even": (-1.0, 1.0),
    "even-odd": (1.0, -1.0),
    "odd-odd": (-1.0, -1.0),
}


@entry_points
@pytest.mark.parametrize(
    "parity, complement_parity", list(_SHIFTED_PARITIES.values()), ids=list(_SHIFTED_PARITIES)
)
def test_negative_decay_rate_in_either_block_raises(parity, complement_parity, solve, monkeypatch):
    """Shift the decay rates of one parity sector only below GAMMA_FLOOR."""
    ham = _sector()
    projector = _parity_projector(mirror_permutation(ham.basis), parity)
    if complement_parity is not None:
        projector = projector @ _parity_projector(
            complement_permutation(ham.basis), complement_parity
        )
    shifted = sector_hamiltonian(ham.basis, ham.matrix + 1j * 100.0 * projector)
    with pytest.raises(NumericalError, match="negative decay rate") as info:
        solve(shifted, monkeypatch)
    gamma = float(re.search(r"negative decay rate (\S+) in", str(info.value)).group(1))
    assert gamma < GAMMA_FLOOR
    assert _fingerprint(shifted) in str(info.value)
