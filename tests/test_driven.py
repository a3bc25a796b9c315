import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

import wqed_subradiance.driven as driven_module
from wqed_subradiance import (
    BLAS_THREAD_VARS,
    ArrayConfig,
    DomainError,
    DriveConfig,
    NumericalError,
    ScatteringSpectrum,
    coherent_amplitudes,
    diagonalize,
    incoherent_spectrum,
    narrowest_linewidth,
    resonance_grid,
    steady_state,
    steady_states,
    transfer_matrix_amplitudes,
)
from oracles import (
    complex_residual,
    hermitian_vectors,
    incoherent_fraction,
    lindblad_super,
    liouvillian_pieces,
    lowering_ops_full,
    occupations,
    real_detuning,
    real_generator,
    steady_density,
    two_level_incoherent_fraction,
    two_level_population,
    waveguide_liouvillian,
)


def _drive(power, grid=None, **kwargs):
    if grid is None:
        grid = np.array([0.0])
    return DriveConfig(power=power, detuning_grid=np.asarray(grid, dtype=float), **kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ArrayConfig(n_atoms=True, phase=0.1),
        lambda: ArrayConfig.from_period(True, 0.1),
        lambda: _drive(True),
        lambda: ArrayConfig(n_atoms=3, phase=True),
        lambda: ArrayConfig.from_period(3, True),
    ],
    ids=["n_atoms", "from_period", "power", "phase", "d_over_lambda"],
)
def test_booleans_are_not_sizes_or_powers(build):
    with pytest.raises(DomainError, match="got True"):
        build()


@pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf"), "0.3"])
def test_phase_is_a_finite_real_number(phase):
    """A NaN phase surfaced as an eigensolver failure, and a string was converted."""
    with pytest.raises(DomainError, match="phase must be a finite real number"):
        ArrayConfig(n_atoms=3, phase=phase)


@pytest.mark.parametrize(
    "bounds",
    [(-5.0, np.inf, 8.0), (-np.inf, 5.0, 8.0), (np.nan, 5.0, 8.0), (-5.0, 5.0, np.nan)],
    ids=["inf-stop", "inf-start", "nan-start", "nan-span"],
)
def test_resonance_grid_needs_finite_bounds(bounds):
    """An infinite stop gave the one-point grid [start], and a NaN span dropped every window."""
    start, stop, refine_span = bounds
    config = ArrayConfig.from_period(3, 0.05)
    with pytest.raises(DomainError, match="must be finite"):
        resonance_grid(config, start, stop, coarse=5, refine_span=refine_span)


@pytest.mark.parametrize("refine_points", [1, 0])
def test_resonance_grid_needs_two_refine_points(refine_points):
    """np.linspace with one point gives a window's left edge, eps - w, not eps."""
    config = ArrayConfig.from_period(2, 0.05)
    with pytest.raises(DomainError, match="refine_points must be at least 2"):
        resonance_grid(config, -25.0, 5.0, coarse=3, refine_points=refine_points)


@pytest.mark.parametrize(
    "build",
    [
        lambda config: resonance_grid(config, -25.0, 5.0, coarse=-1),
        lambda config: resonance_grid(config, -25.0, 5.0, coarse=0),
        lambda config: resonance_grid(config, -25.0, 5.0, coarse=2.5),
        lambda config: resonance_grid(config, -25.0, 5.0, coarse=True),
        lambda config: resonance_grid(config, -25.0, 5.0, refine_points=2.5),
        lambda config: resonance_grid(config, -25.0, 5.0, refine_span=-1.0),
        lambda config: _drive(0.1, phase_on_drive="no"),
        lambda config: _drive(0.1, phase_on_drive=1),
    ],
    ids=[
        "coarse-negative", "coarse-zero", "coarse-float", "coarse-bool",
        "refine-points-float", "refine-span-negative", "phase-string", "phase-int",
    ],
)
def test_library_drive_inputs_are_checked_as_in_a_config(build):
    """Each was accepted or failed outside the domain checks: coarse = -1 with
    numpy's ValueError, a float count with a TypeError, coarse = 0 with a
    grid of windows alone, a negative span with 1e-3 windows, and a string
    phase_on_drive acted as True."""
    with pytest.raises(DomainError):
        build(ArrayConfig.from_period(2, 0.05))


def test_numpy_integers_and_booleans_are_drive_inputs():
    config = ArrayConfig.from_period(2, 0.05)
    grid = resonance_grid(config, -25.0, 5.0, coarse=np.int64(5), refine_points=np.int32(3))
    assert np.array_equal(grid, resonance_grid(config, -25.0, 5.0, coarse=5, refine_points=3))
    assert not _drive(0.1, phase_on_drive=np.bool_(False)).phase_on_drive


def test_drive_config_validation():
    with pytest.raises(DomainError):
        _drive(-1.0)
    with pytest.raises(DomainError):
        DriveConfig(power=1.0, detuning_grid=np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        DriveConfig(power=1.0, detuning_grid=np.array([[0.0]]))
    for power in (np.nan, np.inf):
        with pytest.raises(DomainError):
            _drive(power)
    with pytest.raises(DomainError):
        DriveConfig(power=1.0, detuning_grid=np.array([-1.0, np.inf]))


def test_atom_count_guard():
    config = ArrayConfig.from_period(7, 0.05)
    with pytest.raises(DomainError):
        steady_state(config, _drive(0.1), 0.0)
    with pytest.raises(DomainError):
        steady_states(config, _drive(0.1))


# detunings across the single-excitation band, on and off resonance, with 0
_POLE_GRID = np.array([-25.0, -3.0, -1.0, -0.31, -0.2, -0.05, 0.0, 0.4, 1.7, 5.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("power", [0.0, 1e-10, 1e-6, 0.3, 10.0])
def test_steady_states_match_pointwise_solves(n, power):
    config = ArrayConfig.from_period(n, 0.05)
    drive = _drive(power, _POLE_GRID)
    rhos, health = steady_states(config, drive)
    assert rhos.shape == (len(_POLE_GRID), 2**n, 2**n)
    assert health["fallback_points"] == 0
    assert 1.0 <= health["v_condition"] < 1e8
    for rho, delta in zip(rhos, _POLE_GRID):
        np.testing.assert_allclose(rho, steady_state(config, drive, delta), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "options",
    [{"phase_on_drive": False}, {"power": 0.3 * 0.37**2}, {"power": 0.3 * 2.5**2}],
)
def test_steady_states_match_pointwise_solves_drive_options(options):
    config = ArrayConfig.from_period(3, 0.13)
    drive = _drive(grid=_POLE_GRID, **{"power": 0.3, **options})
    rhos, health = steady_states(config, drive)
    assert health["fallback_points"] == 0
    for rho, delta in zip(rhos, _POLE_GRID):
        np.testing.assert_allclose(rho, steady_state(config, drive, delta), rtol=0, atol=1e-12)


_EIG = np.linalg.eig


def _corrupted_eig(matrix):
    """``np.linalg.eig`` with its eigenvectors paired with the wrong eigenvalues."""
    lam, v = _EIG(matrix)
    return lam, np.roll(v, 1, axis=1)


def test_corrupted_pole_expansion_falls_back_at_every_point(monkeypatch):
    """A wrong eigenvector matrix fails every residual check; each point is re-solved directly.

    The grid avoids delta = 0, where the expansion reduces to M0^-1 e0 for any V.
    """
    config = ArrayConfig.from_period(3, 0.05)
    grid = _POLE_GRID[_POLE_GRID != 0.0]
    drive = _drive(0.3, grid)
    monkeypatch.setattr(driven_module.np.linalg, "eig", _corrupted_eig)
    rhos, health = steady_states(config, drive)
    assert health["fallback_points"] == len(grid)
    for rho, delta in zip(rhos, grid):
        np.testing.assert_allclose(rho, steady_state(config, drive, delta), rtol=0, atol=1e-12)


def test_fallback_points_reuse_the_cells_pencil(monkeypatch):
    """Every point falls back (the corrupted eigenvectors above), and each is
    re-solved on the cell's own pencil: the generator is built and probed
    once per ``steady_states`` call, not once more per point."""
    pencil = driven_module._pencil
    calls = []
    monkeypatch.setattr(driven_module.np.linalg, "eig", _corrupted_eig)
    monkeypatch.setattr(driven_module, "_pencil", lambda *args: calls.append(args) or pencil(*args))
    grid = _POLE_GRID[_POLE_GRID != 0.0]
    _, health = steady_states(ArrayConfig.from_period(3, 0.05), _drive(0.3, grid))
    assert health["fallback_points"] == len(grid) > 1
    assert len(calls) == 1


def test_a_cell_assembles_its_generator_once(monkeypatch):
    """One ``steady_states`` call makes the Lindblad entries of one generator,
    that of h = H_eff + sqrt(P)*V with the two channels, and no separate
    piece per unit drive."""
    entries = driven_module._lindblad_entries
    calls = []
    monkeypatch.setattr(
        driven_module, "_lindblad_entries", lambda *args: calls.append(args) or entries(*args)
    )
    _, health = steady_states(ArrayConfig.from_period(3, 0.05), _drive(0.3, _POLE_GRID))
    assert health["fallback_points"] == 0
    assert len(calls) == 1


def test_residual_does_not_trust_the_real_entries(monkeypatch):
    """With the probe switched off, one G value off by 1e-6 moves the
    solved x but not the 2^N x 2^N operators the residual reads: every pole
    point fails the residual, and so does the direct re-solve of the first,
    which raises.  The value sits in a row of an off-diagonal coordinate,
    which the solve enforces; a residual formed from the same entries as the
    solve passes every point."""
    build, states = driven_module._real_entries, driven_module._states
    calls, failures = [], []

    def off_static_value(positions, values, dim):
        positions, values = build(positions, values, dim)
        calls.append(dim)
        if len(calls) == 1:
            values[np.flatnonzero(positions >= dim**3)[0]] += 1e-6
        return positions, values

    def recording_states(*args):
        rho, point_failures = states(*args)
        failures.append(point_failures)
        return rho, point_failures

    monkeypatch.setattr(driven_module, "_probe", lambda image, real_image: None)
    monkeypatch.setattr(driven_module, "_real_entries", off_static_value)
    monkeypatch.setattr(driven_module, "_states", recording_states)
    message = "steady-state generator residual exceeds 1e-9"
    with pytest.raises(NumericalError, match=message):
        steady_states(ArrayConfig.from_period(3, 0.05), _drive(0.3, _POLE_GRID))
    assert failures == [[message] * len(_POLE_GRID), [message]]


def test_singular_pencil_gives_nan_not_garbage():
    """A generator without entries: M0 is its trace row alone, and singular.
    The pole solve reads no 2^N x 2^N operators, so the pencil holds none."""
    grid = np.array([-1.0, 0.5])
    detuning = driven_module._real_detuning(np.array([0, 1j, -1j, 0]), 2)
    empty = (np.zeros(0, dtype=int), np.zeros(0))
    pencil = driven_module._Pencil(empty, detuning, 4, None)
    x, condition = driven_module._pole_solve(pencil, grid)
    assert x.shape == (4, 2) and np.isnan(x).all()
    assert condition is None


def test_five_atom_steady_states_match_pointwise_solves():
    config = ArrayConfig.from_period(5, 0.05)
    mode = min(diagonalize(config, 1), key=lambda s: s.gamma)
    refined = resonance_grid(config, -25.0, 5.0, coarse=31, refine_points=5)
    on_resonance = refined[np.argmin(np.abs(refined - mode.epsilon.real))]
    assert abs(on_resonance - mode.epsilon.real) < 1e-12
    grid = np.array([-3.0, on_resonance, 1.7])
    drive = _drive(0.01, grid)
    rhos, health = steady_states(config, drive)
    assert health["fallback_points"] == 0
    for rho, delta in zip(rhos, grid):
        np.testing.assert_allclose(rho, steady_state(config, drive, delta), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("power", [1e-10, 1e-6, 0.3, 10.0])
def test_steady_solvers_match_the_oracle_state(n, power):
    """Both solvers reproduce the kernel vector of the independently built generator."""
    config = ArrayConfig.from_period(n, 0.05)
    drive = _drive(power, _POLE_GRID)
    omega = np.sqrt(power)
    rhos, _ = steady_states(config, drive)
    for rho, delta in zip(rhos, _POLE_GRID):
        oracle = steady_density(n, config.phase, omega, delta)
        np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(steady_state(config, drive, delta), oracle, rtol=0, atol=1e-12)


def test_failed_direct_solve_takes_the_one_dimensional_kernel(monkeypatch):
    """When the direct solve fails, the state is the generator's unique kernel vector."""

    def failing_solve(*args):
        raise np.linalg.LinAlgError("singular matrix")

    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3)
    omega = np.sqrt(drive.power)
    monkeypatch.setattr(driven_module.np.linalg, "solve", failing_solve)
    for delta in (-1.0, -0.2, 0.4):
        oracle = steady_density(3, config.phase, omega, delta)
        np.testing.assert_allclose(steady_state(config, drive, delta), oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lowering_table_rebuilds_the_kronecker_operators(n):
    upper, lower = driven_module._lowering_table(n)
    assert upper.shape == lower.shape == (n, 2 ** (n - 1))
    for j, oracle in enumerate(lowering_ops_full(n)):
        op = np.zeros((2**n, 2**n), dtype=complex)
        op[lower[j], upper[j]] = 1.0
        assert np.array_equal(op, oracle)


def _dense(entries, size, dtype=float):
    """The size x size matrix of flat (positions, values) entries."""
    out = np.zeros(size * size, dtype=dtype)
    out[entries[0]] = entries[1]
    return out.reshape(size, size)


def _dense_detuning(detuning, size):
    """The size x size matrix of D given as (support, rows, scale)."""
    support, rows, scale = detuning
    out = np.zeros((size, size))
    out[rows, support] = scale
    return out


def _hermitian_basis(dim):
    """Dense columns of the orthonormal basis behind the real coordinates."""
    diag, upper, lower = driven_module._hermitian_coordinates(dim)
    pairs = np.arange(len(upper))
    q = np.zeros((dim * dim, dim * dim), dtype=complex)
    q[diag, np.arange(dim)] = 1.0
    q[upper, dim + pairs] = q[lower, dim + pairs] = np.sqrt(0.5)
    q[upper, dim + len(upper) + pairs] = 1j * np.sqrt(0.5)
    q[lower, dim + len(upper) + pairs] = -1j * np.sqrt(0.5)
    return q


# (n, phase_on_drive) with ids n for the forward drive and n-phaseless without the drive phases
_PERIODS = {
    **{str(n): (n, True) for n in (1, 2, 3, 4)},
    **{f"{n}-phaseless": (n, False) for n in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("n, phase_on_drive", list(_PERIODS.values()), ids=list(_PERIODS))
def test_real_coordinates_match_dense_change_of_basis(n, phase_on_drive):
    """The real generator and detuning piece from entries, and the pencil, equal Q^dag L Q, which is real."""
    dim = 2**n
    config = ArrayConfig.from_period(n, 0.13)
    drive = _drive(0.49, phase_on_drive=phase_on_drive)
    liouvillian, detuning_diag = liouvillian_pieces(config, drive)
    pencil = driven_module._pencil(config, drive)
    support = pencil.detuning[0]
    q = _hermitian_basis(dim)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(dim * dim), rtol=0, atol=1e-15)
    dense = q.conj().T @ liouvillian @ q
    assert np.abs(dense.imag).max() < 1e-14
    np.testing.assert_allclose(_dense(pencil.generator, dim * dim), dense.real, rtol=0, atol=1e-14)
    d_real = _dense_detuning(pencil.detuning, dim * dim)
    dense_d = q.conj().T @ np.diag(detuning_diag) @ q
    np.testing.assert_allclose(d_real, dense_d.real, rtol=0, atol=1e-14)
    assert np.abs(dense_d[:, np.setdiff1d(np.arange(dim * dim), support)]).max() < 1e-14
    # the pencil of one cell: G with the trace row in place of row 0
    m0 = driven_module._m0(pencil)
    np.testing.assert_allclose(m0[1:], dense.real[1:], rtol=0, atol=1e-14)
    assert np.array_equal(m0[0], np.repeat([1.0, 0.0], [dim, dim * dim - dim]))


@pytest.mark.parametrize(
    "n, phase_on_drive",
    [*_PERIODS.values(), (5, True), (5, False)],
    ids=[*_PERIODS, "5", "5-phaseless"],
)
def test_sparse_generators_equal_the_dense_oracle(n, phase_on_drive):
    """The cell's G and D built from entries equal the dense assembly and gather
    of ``oracles`` from the cell's h exactly (``array_equal``, so up to the
    sign of zeros)."""
    dim = 2**n
    config = ArrayConfig.from_period(n, 0.13)
    drive = _drive(0.49, phase_on_drive=phase_on_drive)
    liouvillian, detuning_diag = liouvillian_pieces(config, drive)
    pencil = driven_module._pencil(config, drive)
    assert np.array_equal(_dense(pencil.generator, dim * dim), real_generator(liouvillian, dim))
    assert np.array_equal(
        _dense_detuning(pencil.detuning, dim * dim), real_detuning(detuning_diag, dim)
    )


@pytest.mark.parametrize("n, phase_on_drive", list(_PERIODS.values()), ids=list(_PERIODS))
def test_real_residual_matches_the_complex_formula(n, phase_on_drive):
    """max |L vec rho| from the 2^N x 2^N operators equals the complex generator's,
    on generic and on solved x."""
    config = ArrayConfig.from_period(n, 0.05)
    drive = _drive(0.3, _POLE_GRID, phase_on_drive=phase_on_drive)
    l0, detuning_diag = liouvillian_pieces(config, drive)
    pencil = driven_module._pencil(config, drive)
    generic = np.random.default_rng(n).standard_normal((4**n, len(_POLE_GRID)))
    solved, _ = driven_module._pole_solve(pencil, _POLE_GRID)
    for x in (generic, solved):
        rho = driven_module._vectors(x / x[: 2**n].sum(axis=0)).reshape(-1, 2**n, 2**n)
        residual = driven_module._residual(rho, pencil, _POLE_GRID)
        oracle = complex_residual(x, l0, detuning_diag, _POLE_GRID)
        np.testing.assert_allclose(residual, oracle, rtol=1e-12, atol=1e-13)
    assert oracle.max() < driven_module.STEADY_TOL
    assert complex_residual(generic, l0, detuning_diag, _POLE_GRID).min() > 1e-3


def _static_entries(config, drive):
    """Which entries of the cell's G are static: those of G at zero power.
    The others come from the drive, whose entries share no position with them."""
    static = driven_module._pencil(config, replace(drive, power=0.0)).generator[0]
    return lambda positions: np.isin(positions, static)


def test_probe_rejects_a_perturbed_generator():
    """One wrong entry of G, static or from the drive, or of D fails the probe
    against the complex generator or detuning piece."""
    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3)
    liouvillian, detuning_diag = liouvillian_pieces(config, drive)
    pencil = driven_module._pencil(config, drive)
    size = len(detuning_diag)
    y = driven_module._probe_vector(size)
    qy = driven_module._vectors(y[:, None])[0]
    support, rows, _ = pencil.detuning
    positions = pencil.generator[0]
    static = _static_entries(config, drive)(positions)
    assert static.any() and not static.all()
    checks = [
        (liouvillian @ qy, _dense(pencil.generator, size), divmod(positions[static][5], size)),
        (liouvillian @ qy, _dense(pencil.generator, size), divmod(positions[~static][40], size)),
        (detuning_diag * qy, _dense_detuning(pencil.detuning, size), (rows[7], support[7])),
    ]
    for image, real, entry in checks:
        driven_module._probe(image, real @ y)
        real[entry] += 1e-6
        with pytest.raises(NumericalError, match="real generator fails the probe"):
            driven_module._probe(image, real @ y)


@pytest.mark.parametrize("piece", ["static", "drive", "detuning"])
def test_a_perturbed_entry_fails_every_solver(piece, monkeypatch):
    """One stored value of G, a static one or one from the drive, or of D off by
    1e-6 fails the build's own probe, through every entry point; nothing of a
    build is kept, so the next one is clean."""
    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3, _POLE_GRID)
    static = _static_entries(config, drive)
    name, entry = {
        "static": ("_real_entries", lambda positions: np.flatnonzero(static(positions))[7]),
        "drive": ("_real_entries", lambda positions: np.flatnonzero(~static(positions))[7]),
        "detuning": ("_real_detuning", lambda support: 7),
    }[piece]
    build = getattr(driven_module, name)

    def perturbed():
        calls = []

        def off_by_one_value(*args):
            *rest, values = build(*args)
            calls.append(args)
            if len(calls) == 1:
                values[entry(rest[0])] += 1e-6
            return (*rest, values)

        return off_by_one_value

    solvers = [
        lambda: steady_states(config, drive),
        lambda: steady_state(config, drive, -0.2),
        lambda: incoherent_spectrum(config, drive),
    ]
    for solve in solvers:
        with monkeypatch.context() as patch:
            patch.setattr(driven_module, name, perturbed())
            with pytest.raises(NumericalError, match="real generator fails the probe"):
                solve()
    assert steady_states(config, drive)[1]["fallback_points"] == 0


def _traced_peak(fn, *args):
    """The traced peak of one call, in bytes; numpy reports its buffers to
    tracemalloc, and the arguments, made before tracing starts, do not count."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_M0_BYTES_N5 = 8 * 4**10  # the bytes of the dense M0 of an N = 5 cell, 8 MiB


def test_pencil_peak_stays_under_one_and_a_half_times_m0():
    """M0 is scattered from entry lists, with no complex 4^N x 4^N piece and
    no dense generator besides M0, so at N = 5 the traced peak (numpy reports
    its buffers to tracemalloc) of building a cell's pencil and scattering
    its M0 stays under 1.5 times the bytes of M0 (1.10 times); the dense
    build it replaced peaked at 4.3 times."""
    config = ArrayConfig.from_period(5, 0.05)
    drive = _drive(0.3)
    driven_module._pencil(config, drive)  # first-call caches of the lattice layer
    build = lambda: driven_module._m0(driven_module._pencil(config, drive))
    assert _traced_peak(build) < 1.5 * _M0_BYTES_N5


def test_pencil_holds_no_dense_m0():
    """A cell's pencil is its generator's entry list, so at N = 5 its traced
    peak stays under 0.75 times the bytes of M0 (0.54 times, set by the real
    entries of the one generator; 0.35 times when the static and drive
    pieces were built one after the other, 1.11 times when the pencil held
    M0)."""
    config = ArrayConfig.from_period(5, 0.05)
    drive = _drive(0.3)
    driven_module._pencil(config, drive)
    assert _traced_peak(driven_module._pencil, config, drive) < 0.75 * _M0_BYTES_N5


@pytest.fixture(scope="module")
def five_atom_cell():
    """The pencil, detuning grid and pole-solved coordinates of one N = 5 cell (197 points)."""
    config = ArrayConfig.from_period(5, 0.05)
    grid = resonance_grid(config, -25.0, 5.0, coarse=61, refine_points=31)
    pencil = driven_module._pencil(config, _drive(0.1, grid))
    x, _ = driven_module._pole_solve(pencil, grid)
    return pencil, grid, x


def test_pole_solve_peak_stays_under_four_times_m0(five_atom_cell):
    """M0 lives only to be inverted and for the refinement's product, and
    each other pole-solve buffer dies at its last use (K[S] after eig, the
    complex eigenvectors once V is stacked, V once K V is formed, M0^-1
    before the second expansion), so at N = 5 the traced peak of the pencil
    and its pole solve stays under 4 times M0's bytes (3.80 times; 4.47 with
    M0 alive from the pencil on)."""
    _, grid, _ = five_atom_cell
    config, drive = ArrayConfig.from_period(5, 0.05), _drive(0.1, grid)
    solve = lambda: driven_module._pole_solve(driven_module._pencil(config, drive), grid)
    assert _traced_peak(solve) < 4 * _M0_BYTES_N5


_HWM_PROBE = """
import json

import numpy as np

import wqed_subradiance.driven as driven
from wqed_subradiance import ArrayConfig, DriveConfig, resonance_grid


def high_water_mark():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))


def solve(n, grid):
    drive = DriveConfig(power=0.1, detuning_grid=grid)
    return driven._pole_solve(driven._pencil(ArrayConfig.from_period(n, 0.05), drive), grid)


solve(3, np.zeros(1))  # LAPACK loaded and its first workspaces made
grid = resonance_grid(ArrayConfig.from_period(5, 0.05), -25.0, 5.0, coarse=61, refine_points=31)
before = high_water_mark()
solve(5, grid)
print(json.dumps({"points": len(grid), "rise": (high_water_mark() - before) / (8 * 4**10)}))
"""


def test_cell_resident_peak_has_no_m0_beside_eig():
    """The resident peak of an N = 5 cell (197 points) is set inside the pole
    solve's ``np.linalg.eig``, whose LAPACK workspace is malloc'd and so
    invisible to tracemalloc, and M0 is not alive there.  Read from VmHWM in
    a fresh process, the rise over building the pencil and solving it is
    5.94 to 5.97 times the 8 MiB of M0 (2-core x86-64 host, numpy's
    OpenBLAS, one thread), and 6.76 times with M0 alive beside ``eig``.  The
    bound of 6.35 sits between the two, 0.38 times M0 (3.2 MB) above the
    first and 0.41 times below the second, so M0 kept alive through the
    solve fails it."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    src = str(Path(driven_module.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _HWM_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["points"] == 197
    assert probe["rise"] < 6.35


@pytest.mark.parametrize(
    "n, d, power, phases, real_eigenvalues",
    [(2, 0.5, 1e-6, False, 2), (3, 0.05, 0.1, True, 0)],
)
def test_real_eigenbasis_is_c_ordered(n, d, power, phases, real_eigenvalues):
    """V is C-ordered whether or not K[S] has real eigenvalues, so its column
    sums and K V do not depend on the layout numpy would pick for a stack."""
    drive = _drive(power, phase_on_drive=phases)
    pencil = driven_module._pencil(ArrayConfig.from_period(n, d), drive)
    m0_inv = np.linalg.inv(driven_module._m0(pencil))
    lam, _, v = driven_module._real_eigenbasis(m0_inv, pencil.detuning)
    assert len(lam) == real_eigenvalues
    assert v.flags.c_contiguous


@pytest.mark.parametrize("n", [4, 5])
def test_states_peak_stays_under_three_times_the_stack(n, five_atom_cell):
    """The residual and the PSD check run in chunks of points of the one
    stack of rho, so building the states peaks under 3 times the bytes of
    that complex stack (1.47 times at N = 4 and 1.66 at N = 5; 3.9 times
    with a residual over the whole stack and one Cholesky over it)."""
    if n == 5:
        pencil, grid, x = five_atom_cell
    else:
        config = ArrayConfig.from_period(4, 0.05)
        grid = resonance_grid(config, -25.0, 5.0, coarse=301, refine_points=31)
        pencil = driven_module._pencil(config, _drive(0.1, grid))
        x, _ = driven_module._pole_solve(pencil, grid)
    stack_bytes = len(grid) * 16 * 4**n
    rho, failures = driven_module._states(x.copy(), pencil, grid)
    assert rho.nbytes == stack_bytes and not any(failures)
    assert _traced_peak(driven_module._states, x.copy(), pencil, grid) < 3 * stack_bytes


def test_states_form_each_point_once(monkeypatch):
    """With no fallback point, one ``steady_states`` call converts each grid
    point's coordinates to rho once: the residual reads the stack that the
    PSD check and the caller read.  The pencil (whose probes convert
    vectors too) is built before counting."""
    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3, np.linspace(-3.0, 1.0, 77))
    pencil = driven_module._pencil(config, drive)
    vectors, columns = driven_module._vectors, []
    monkeypatch.setattr(driven_module, "_pencil", lambda config, drive: pencil)
    monkeypatch.setattr(
        driven_module, "_vectors", lambda x: columns.append(x.shape[1]) or vectors(x)
    )
    _, health = steady_states(config, drive)
    assert health["fallback_points"] == 0
    assert sum(columns) == 77


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vectors_equal_the_complex_formula(n):
    """Q x filled from real and imaginary parts equals sqrt(1/2)*(re + 1j*im),
    conjugated on the lower triangle, exactly (up to the sign of zero), also
    where x holds zeros of either sign."""
    x = np.random.default_rng(n).standard_normal((4**n, 7))
    x[::5, 2] = 0.0
    x[1::3, 4] = -0.0
    vec = driven_module._vectors(x)
    assert vec.dtype == complex and vec.shape == (7, 4**n)
    assert np.array_equal(vec, hermitian_vectors(x))


def test_psd_check_names_only_the_non_psd_point(monkeypatch):
    """The stack passes the Cholesky factorizations; an injected non-PSD
    point among good ones makes one fail, and the eigenvalues then name that
    point alone, which is the only one re-solved.  On a grid of 77 points
    the factorizations run ``PSD_CHUNK`` points at a time, and a point in the
    third chunk is named the same way, by one eigenvalue call on that chunk."""
    config = ArrayConfig.from_period(3, 0.05)
    long_grid = np.linspace(-3.0, 1.0, 77)
    assert 2 * driven_module.PSD_CHUNK <= 70 < 3 * driven_module.PSD_CHUNK
    for grid, bad in ((_POLE_GRID, 4), (long_grid, 70)):
        with monkeypatch.context() as patch:
            _check_only_point_named(patch, config, grid, bad)


def _check_only_point_named(monkeypatch, config, grid, bad):
    """Inject a non-PSD point at grid[bad], in the last Cholesky chunk."""
    drive = _drive(0.3, grid)
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
    pole_solve, states = driven_module._pole_solve, driven_module._states
    resolve = driven_module._direct_state
    eigvalsh_calls, cholesky_calls, named, resolved = [], [], [], []
    monkeypatch.setattr(
        driven_module.np.linalg, "eigvalsh", lambda a: eigvalsh_calls.append(a.shape) or eigvalsh(a)
    )
    monkeypatch.setattr(
        driven_module.np.linalg, "cholesky", lambda a: cholesky_calls.append(a.shape) or cholesky(a)
    )
    expected, health = steady_states(config, drive)
    assert health["fallback_points"] == 0 and eigvalsh_calls == []

    def one_bad_point(pencil, grid):
        x, condition = pole_solve(pencil, grid)
        x[:, bad] = 0.0
        x[:2, bad] = [1.5, -0.5]  # diag(1.5, -0.5, 0, ...): trace one, an eigenvalue -0.5
        return x, condition

    def recording_states(*args):
        rho, failures = states(*args)
        named.append(failures)
        return rho, failures

    monkeypatch.setattr(driven_module, "_pole_solve", one_bad_point)
    # the injected point has no generator residual to fail first
    monkeypatch.setattr(driven_module, "_residual", lambda rho, pencil, grid: np.zeros(len(grid)))
    monkeypatch.setattr(driven_module, "_states", recording_states)
    monkeypatch.setattr(
        driven_module, "_direct_state", lambda *args: resolved.append(args[1]) or resolve(*args)
    )
    rhos, health = steady_states(config, drive)
    points = len(grid)
    failure = "steady state is not positive semidefinite"
    assert named[0] == [None] * bad + [failure] + [None] * (points - bad - 1)
    assert named[1:] == [[None]]  # the re-solve of that point passes
    assert resolved == [grid[bad]]
    assert health["fallback_points"] == 1
    chunk = driven_module.PSD_CHUNK
    first = bad // chunk * chunk
    assert eigvalsh_calls == [(min(chunk, points - first), 8, 8)]
    np.testing.assert_allclose(rhos, expected, rtol=0, atol=1e-12)
    chunks = [(min(chunk, points - start), 8, 8) for start in range(0, points, chunk)]
    # every chunk of the clean run and of the injected one, then the re-solve's one point
    assert cholesky_calls == chunks * 2 + [(1, 8, 8)]


def test_unpaired_eigenvalues_fall_back_at_every_point(monkeypatch):
    """Eigenvalues without an exact conjugate give no real basis; each point is re-solved."""
    eig = np.linalg.eig

    def unpaired_eig(matrix):
        lam, v = eig(matrix)
        lam[np.flatnonzero(lam.imag > 0)[0]] += 1e-9
        return lam, v

    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3, _POLE_GRID)
    monkeypatch.setattr(driven_module.np.linalg, "eig", unpaired_eig)
    rhos, health = steady_states(config, drive)
    assert health == {
        "fallback_points": len(_POLE_GRID), "v_condition": None, "pencil_dim": 64, "support_dim": 44
    }
    for rho, delta in zip(rhos, _POLE_GRID):
        np.testing.assert_allclose(rho, steady_state(config, drive, delta), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigenproblem_is_real_on_the_detuning_support(n, monkeypatch):
    """The one eigensolve per grid is real and of size 4^N - C(2N, N), and
    the health records both sizes (256 and 186 at N = 4)."""
    eig = np.linalg.eig
    seen = []

    def recording_eig(matrix):
        seen.append(matrix)
        return eig(matrix)

    config = ArrayConfig.from_period(n, 0.05)
    monkeypatch.setattr(driven_module.np.linalg, "eig", recording_eig)
    _, health = steady_states(config, _drive(0.3, _POLE_GRID))
    size = 4**n - math.comb(2 * n, n)
    assert [m.shape for m in seen] == [(size, size)]
    assert seen[0].dtype == np.float64
    assert (health["pencil_dim"], health["support_dim"]) == (4**n, size)


_THREAD_PROBE = """
import sys
import numpy as np
from wqed_subradiance import ArrayConfig, DriveConfig, steady_states

config = ArrayConfig.from_period(3, 0.05)
grid = np.concatenate([np.linspace(-25.0, 5.0, 31), [-0.31, -0.2, -0.05]])
rhos, health = steady_states(config, DriveConfig(power=0.3, detuning_grid=np.sort(grid)))
np.save(sys.argv[1], rhos)
print(health["fallback_points"])
"""


def test_driven_output_does_not_depend_on_blas_threads(tmp_path):
    src = str(Path(driven_module.__file__).parents[1])
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"rho_{threads}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        results[threads] = (np.load(out), int(proc.stdout.split()[-1]))
    np.testing.assert_allclose(results["1"][0], results["2"][0], rtol=0, atol=1e-12)
    assert results["1"][1] == results["2"][1]


_RANDOM_PROBE = """
import json
import sys

import numpy as np
from wqed_subradiance import ArrayConfig, DriveConfig, steady_state


def failing_solve(*args):
    raise np.linalg.LinAlgError("singular matrix")


config = ArrayConfig.from_period(2, 0.05)
drive = DriveConfig(power=0.3, detuning_grid=np.array([-0.2]))
direct = steady_state(config, drive, -0.2)
np.linalg.solve = failing_solve
fallback = steady_state(config, drive, -0.2)
print(json.dumps({
    "numpy.random": "numpy.random" in sys.modules,
    "same": bool(np.allclose(direct, fallback, rtol=0, atol=1e-12)),
}))
"""


def test_steady_state_and_its_fallback_leave_numpy_random_unloaded():
    """The condition probe of ``steady_state`` is a fixed vector, not a random draw."""
    src = str(Path(driven_module.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"numpy.random": False, "same": True}


@pytest.mark.parametrize("gamma", [1.0, 0.8])
@pytest.mark.parametrize("d", [0.0, 0.05, 0.13, 0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_matches_waveguide_oracle(n, d, gamma):
    """The complex entries assemble the oracle's Lindblad generator, row-major vec.

    gamma_1d is the unit: the oracle's generator at rate gamma is gamma times
    the one at rate 1, with drive amplitude and detuning divided by gamma.
    """
    config = ArrayConfig.from_period(n, d)
    amp, delta = 0.37, -0.29
    h, jumps, detuning_diag = driven_module._operators(config, _drive((amp / gamma) ** 2))
    liouvillian = _dense(driven_module._lindblad_entries(h, jumps), 4**n, complex)
    generator = gamma * (liouvillian + delta / gamma * np.diag(detuning_diag))
    dim = 2**n
    # row-major index a*dim + b holds rho_ab, column-stacked index a + b*dim
    column_stacked = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    oracle = waveguide_liouvillian(n, config.phase, amp, delta, gamma)
    np.testing.assert_allclose(
        generator, oracle[np.ix_(column_stacked, column_stacked)], rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_detuning_piece_is_the_cached_diagonal(n):
    """The dense commutator with -N is exactly diagonal and equals the returned vector,
    and so do the entries of the same commutator."""
    config = ArrayConfig.from_period(n, 0.05)
    ops = lowering_ops_full(n)
    minus_number = -sum(op.conj().T @ op for op in ops)
    dense = lindblad_super(minus_number)
    _, _, detuning_diag = driven_module._operators(config, _drive(0.3))
    assert detuning_diag.shape == (4**n,)
    assert np.array_equal(dense, np.diag(detuning_diag))
    entries = driven_module._lindblad_entries(minus_number)
    assert np.array_equal(_dense(entries, 4**n, complex), np.diag(detuning_diag))


# (n, d, power, delta, grid, kernel dimension): d = lambda0/2 (phase pi) on a
# five-point grid, and one-point grids at which a solve that accepts any
# kernel vector returns an arbitrary state
_DEGENERATE = {
    "2-2": (2, 0.5, 1.0, 0.1, np.linspace(-2.0, 2.0, 5), 2),
    "3-5": (3, 0.5, 1.0, 0.1, np.linspace(-2.0, 2.0, 5), 5),
    "2-d0-P0.01-delta0.7": (2, 0.0, 0.01, 0.7, [0.7], 2),
    "2-d0.5-P0.01-delta-0.3": (2, 0.5, 0.01, -0.3, [-0.3], 2),
    "3-d1-P0.01-delta0.7": (3, 1.0, 0.01, 0.7, [0.7], 5),
}


@pytest.mark.parametrize(
    "n, d, power, delta, grid, kernel", list(_DEGENERATE.values()), ids=list(_DEGENERATE)
)
def test_degenerate_generator_is_reported_as_not_unique(n, d, power, delta, grid, kernel):
    """At d = 0, lambda0/2 and lambda0 (phase 0 or pi) the generator kernel is degenerate."""
    config = ArrayConfig.from_period(n, d)
    drive = _drive(power, grid)
    message = f"steady state is not unique: generator kernel dimension {kernel}"
    with pytest.raises(NumericalError, match=message):
        steady_state(config, drive, delta)
    with pytest.raises(NumericalError, match=message):
        steady_states(config, drive)
    with pytest.raises(NumericalError, match=message):
        incoherent_spectrum(config, drive)


@pytest.mark.parametrize("n, d, dim", [(2, 0.5, 2), (3, 0.5, 5), (3, 0.05, 1)])
def test_kernel_spans_the_scipy_null_space(n, d, dim):
    """The numpy kernel and scipy's null_space give the same subspace."""
    config = ArrayConfig.from_period(n, d)
    generator, detuning_diag = liouvillian_pieces(config, _drive(1.0))
    generator += 0.1 * np.diag(detuning_diag)
    kernel = driven_module._kernel(generator)
    oracle = null_space(generator, rcond=driven_module.KERNEL_RCOND)
    assert kernel.shape == oracle.shape == (4**n, dim)
    np.testing.assert_allclose(
        kernel @ kernel.conj().T, oracle @ oracle.conj().T, rtol=0, atol=1e-10
    )


def test_zero_power_gives_ground_state():
    config = ArrayConfig.from_period(3, 0.05)
    rho = steady_state(config, _drive(0.0), -0.4)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_steady_state_is_physical():
    config = ArrayConfig.from_period(4, 0.05)
    rho = steady_state(config, _drive(0.5), -0.2)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_single_atom_weak_drive_linear_response():
    config = ArrayConfig.from_period(1, 0.05)
    power = 1e-4
    rho = steady_state(config, _drive(power), 0.0)
    population = occupations(rho)[0]
    omega = np.sqrt(power)
    assert population == pytest.approx(two_level_population(omega, 1.0, 0.0), abs=1e-12)
    assert population == pytest.approx(power, rel=5e-4)  # leading order omega^2/gamma^2


def test_single_atom_saturation():
    config = ArrayConfig.from_period(1, 0.05)
    power = 25.0
    rho = steady_state(config, _drive(power), 0.0)
    population = occupations(rho)[0]
    assert population == pytest.approx(two_level_population(np.sqrt(power), 1.0, 0.0), abs=1e-10)
    assert 0.45 < population < 0.5


def test_single_atom_linear_reflection_transmission():
    config = ArrayConfig.from_period(1, 0.05)
    delta = 0.7
    drive = _drive(1e-8)
    rho = steady_state(config, drive, delta)
    r, t = coherent_amplitudes(config, drive, rho, delta)
    assert r == pytest.approx(-1j / (delta + 1j), abs=1e-7)
    assert t == pytest.approx(delta / (delta + 1j), abs=1e-7)


def test_elastic_unitarity_in_linear_limit():
    config = ArrayConfig.from_period(3, 0.12)
    drive = _drive(1e-8)
    for delta in (-2.0, -0.5, 0.3, 1.7):
        rho = steady_state(config, drive, delta)
        r, t = coherent_amplitudes(config, drive, rho, delta)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("power", [1e-6, 0.01, 0.3, 5.0])
def test_single_atom_incoherent_fraction_closed_form(power):
    """I = 4*P/(delta^2+1+2*P)^2 (units of gamma_1d), weak to saturating drive."""
    config = ArrayConfig.from_period(1, 0.05)
    grid = np.array([-1.3, 0.0, 0.7])
    spectrum = incoherent_spectrum(config, _drive(power, grid))
    omega = np.sqrt(power)
    for i, delta in enumerate(grid):
        expected = two_level_incoherent_fraction(omega, 1.0, delta)
        assert spectrum.incoherent[i] == pytest.approx(expected, rel=1e-6)
        # the flux oracle reproduces the closed form on its own, also at a rate other than 1
        oracle = incoherent_fraction(1, config.phase, 1.3 * omega, delta, 1.3)
        closed_form = two_level_incoherent_fraction(1.3 * omega, 1.3, delta)
        assert oracle == pytest.approx(closed_form, rel=1e-5)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("power", [1e-6, 1e-3, 0.5])
def test_incoherent_fraction_matches_flux_oracle(n, power):
    """1 - |r|^2 - |t|^2 equals the emitted incoherent flux of a separately built generator."""
    config = ArrayConfig.from_period(n, 0.05)
    subradiant = sorted(diagonalize(config, 1), key=lambda s: s.gamma)[:2]
    grid = np.sort([-1.0, 0.0, 1.4] + [s.epsilon.real for s in subradiant])
    spectrum = incoherent_spectrum(config, _drive(power, grid))
    omega = np.sqrt(power)
    for i, delta in enumerate(grid):
        oracle = incoherent_fraction(n, config.phase, omega, delta)
        assert spectrum.incoherent[i] == pytest.approx(oracle, rel=1e-5)


def test_transfer_matrix_single_atom_formulas():
    config = ArrayConfig.from_period(1, 0.3)
    for delta in (-1.2, 0.4, 2.5):
        r, t = transfer_matrix_amplitudes(config, delta)
        assert r == pytest.approx(-1j / (delta + 1j), abs=1e-12)
        assert t == pytest.approx(delta / (delta + 1j), abs=1e-12)
    r0, t0 = transfer_matrix_amplitudes(config, 0.0)
    assert r0 == pytest.approx(-1.0, abs=1e-12)
    assert t0 == 0.0


def test_transfer_matrix_is_lossless():
    config = ArrayConfig.from_period(4, 0.05)
    for delta in np.linspace(-3, 3, 21):
        r, t = transfer_matrix_amplitudes(config, delta)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_zero_power_amplitudes_fall_back_to_transfer_matrix():
    config = ArrayConfig.from_period(2, 0.05)
    drive = _drive(0.0)
    rho = steady_state(config, drive, 0.9)
    r, t = coherent_amplitudes(config, drive, rho, 0.9)
    r_tm, t_tm = transfer_matrix_amplitudes(config, 0.9)
    assert r == pytest.approx(r_tm, abs=1e-12)
    assert abs(t) == pytest.approx(abs(t_tm), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_limit_matches_transfer_matrix_generic_grid(n):
    """Away from the ultranarrow resonances the P=1e-6 response is linear."""
    config = ArrayConfig.from_period(n, 0.05)
    grid = np.linspace(-25.0, 5.0, 121)
    drive = _drive(1e-6, grid)
    spectrum = incoherent_spectrum(config, drive)
    for i, delta in enumerate(grid):
        r_tm, t_tm = transfer_matrix_amplitudes(config, delta)
        assert abs(abs(spectrum.reflection[i]) - abs(r_tm)) < 1e-4
        assert abs(abs(spectrum.transmission[i]) - abs(t_tm)) < 1e-4


def test_five_atom_steady_state_physical():
    config = ArrayConfig.from_period(5, 0.05)
    rho = steady_state(config, _drive(0.2), -0.3)
    assert rho.shape == (32, 32)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-9
    assert occupations(rho).max() <= 0.5 + 1e-6


def test_deep_linear_limit_matches_even_on_resonance():
    config = ArrayConfig.from_period(4, 0.05)
    grid = resonance_grid(config, -1.0, 0.5, coarse=41, refine_points=15)
    drive = _drive(1e-10, grid)
    spectrum = incoherent_spectrum(config, drive)
    assert spectrum.incoherent.max() < 1e-6
    for i, delta in enumerate(grid):
        r_tm, t_tm = transfer_matrix_amplitudes(config, delta)
        assert abs(abs(spectrum.reflection[i]) - abs(r_tm)) < 1e-6
        assert abs(abs(spectrum.transmission[i]) - abs(t_tm)) < 1e-6


def test_incoherent_fraction_bounds():
    config = ArrayConfig.from_period(3, 0.05)
    drive = _drive(0.3, np.linspace(-3, 2, 41))
    spectrum = incoherent_spectrum(config, drive)
    assert spectrum.incoherent.min() >= -1e-8
    assert spectrum.incoherent.max() <= 1 + 1e-8


def test_zero_power_spectrum_is_elastic():
    config = ArrayConfig.from_period(3, 0.05)
    spectrum = incoherent_spectrum(config, _drive(0.0, np.linspace(-2, 2, 31)))
    assert np.abs(spectrum.incoherent).max() < 1e-12
    assert spectrum.narrowest_fwhm is None


def test_occupations_stay_below_half_under_waveguide_drive():
    config = ArrayConfig.from_period(4, 0.05)
    for power in (0.01, 0.1, 1.0, 10.0):
        for delta in (-0.32, -0.19, 0.0, 1.44):
            rho = steady_state(config, _drive(power), delta)
            assert occupations(rho).max() <= 0.5 + 1e-6


def _lorentzian_spectrum(width, grid):
    values = 0.8 * width**2 / (grid**2 + width**2)
    return ScatteringSpectrum(
        detunings=grid,
        reflection=np.zeros(len(grid), dtype=complex),
        transmission=np.zeros(len(grid), dtype=complex),
        incoherent=values,
        narrowest_fwhm=None,
    )


def test_linewidth_of_synthetic_lorentzian():
    grid = np.linspace(-10, 10, 4001)
    fwhm = narrowest_linewidth(_lorentzian_spectrum(0.7, grid))
    assert fwhm == pytest.approx(1.4, rel=1e-3)


def test_linewidth_flat_spectrum_none():
    grid = np.linspace(-5, 5, 101)
    spectrum = _lorentzian_spectrum(1.0, grid)
    flat = ScatteringSpectrum(
        detunings=grid,
        reflection=spectrum.reflection,
        transmission=spectrum.transmission,
        incoherent=np.full(101, 0.3),
        narrowest_fwhm=None,
    )
    assert narrowest_linewidth(flat) is None


def test_linewidth_ignores_subfloor_noise():
    grid = np.linspace(-5, 5, 101)
    tiny = _lorentzian_spectrum(1.0, grid)
    noisy = ScatteringSpectrum(
        detunings=grid,
        reflection=tiny.reflection,
        transmission=tiny.transmission,
        incoherent=1e-12 * np.cos(grid) ** 2,
        narrowest_fwhm=None,
    )
    assert narrowest_linewidth(noisy) is None


def test_low_power_linewidth_tracks_most_subradiant_mode():
    config = ArrayConfig.from_period(4, 0.05)
    grid = resonance_grid(config, -25.0, 5.0, coarse=201, refine_points=31)
    spectrum = incoherent_spectrum(config, _drive(1e-3, grid))
    gamma_min = min(s.gamma for s in diagonalize(config, 1))
    assert spectrum.narrowest_fwhm is not None
    assert abs(spectrum.narrowest_fwhm - 2 * gamma_min) / (2 * gamma_min) < 0.5


def test_power_broadening_monotone_and_threshold():
    config = ArrayConfig.from_period(4, 0.05)
    grid = resonance_grid(config, -25.0, 5.0, coarse=201, refine_points=31)
    widths = []
    for power in (0.01, 0.1, 1.0, 10.0):
        spectrum = incoherent_spectrum(config, _drive(power, grid))
        widths.append(
            spectrum.narrowest_fwhm if spectrum.narrowest_fwhm is not None else np.inf
        )
    finite = [w for w in widths if np.isfinite(w)]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(finite, finite[1:]))
    assert widths[-1] > 1.0  # no feature narrower than the single-atom rate survives


def test_incoherent_peaks_sit_on_subradiant_resonances():
    config = ArrayConfig.from_period(4, 0.05)
    grid = resonance_grid(config, -25.0, 5.0, coarse=201, refine_points=31)
    spectrum = incoherent_spectrum(config, _drive(1e-3, grid))
    y = spectrum.incoherent
    peaks = [
        grid[i]
        for i in range(1, len(grid) - 1)
        if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > 1e-9
    ]
    modes = sorted(diagonalize(config, 1), key=lambda s: s.gamma)[:2]
    for mode in modes:
        position = mode.epsilon.real
        step = np.diff(grid)[np.searchsorted(grid, position) - 1]
        assert any(abs(p - position) <= step for p in peaks)


def test_phaseless_drive_variant_runs():
    config = ArrayConfig.from_period(4, 0.05)
    grid = np.linspace(-1.0, 0.2, 25)
    spectrum = incoherent_spectrum(
        config, _drive(0.01, grid, phase_on_drive=False)
    )
    assert np.isfinite(spectrum.incoherent).all()


def test_resonance_grid_strictly_increasing_and_bounded():
    config = ArrayConfig.from_period(4, 0.05)
    grid = resonance_grid(config, -5.0, 2.0)
    assert (np.diff(grid) > 0).all()
    assert grid[0] >= -5.0 and grid[-1] <= 2.0
    with pytest.raises(DomainError):
        resonance_grid(config, 1.0, -1.0)


@pytest.mark.parametrize("coarse, refine_points", [(301, 31), (61, 31)])
def test_resonance_grid_merges_tied_mode_windows(coarse, refine_points):
    """At d = 0.25 two mode pairs share Re(eps); their windows must not leave roundoff-spaced points."""
    config = ArrayConfig.from_period(4, 0.25)
    grid = resonance_grid(config, -25.0, 5.0, coarse=coarse, refine_points=refine_points)
    assert np.diff(grid).min() > driven_module.GRID_MERGE_TOL * 30.0
    assert grid[0] == -25.0 and grid[-1] == 5.0


@pytest.mark.parametrize("n, d", [(1, 0.05), (3, 0.13), (4, 0.05), (4, 0.25), (5, 0.5)])
def test_resonance_grid_keeps_the_bits_of_np_unique(n, d):
    """The sort-and-first-of-run grid is np.unique's, bit for bit."""
    config = ArrayConfig.from_period(n, d)
    start, stop = -25.0, 5.0
    pieces = [np.linspace(start, stop, 61)] + [
        np.linspace(s.epsilon.real - w, s.epsilon.real + w, 31)
        for s in diagonalize(config, 1)
        for w in [max(8.0 * s.gamma, 1e-3)]
    ]
    unique = np.unique(np.concatenate(pieces))
    unique = unique[(unique >= start) & (unique <= stop)]
    unique = unique[np.insert(np.diff(unique) > driven_module.GRID_MERGE_TOL * 30.0, 0, True)]
    grid = resonance_grid(config, start, stop, coarse=61, refine_points=31)
    assert grid.tobytes() == unique.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expectations_match_trace_of_product(n):
    """Elementwise contractions equal tr(rho A) on a generic density matrix."""
    config = ArrayConfig.from_period(n, 0.13)
    rng = np.random.default_rng(n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    ops = lowering_ops_full(n)
    expected = [np.trace(rho @ op.conj().T @ op).real for op in ops]
    np.testing.assert_allclose(occupations(rho), expected, rtol=0, atol=1e-14)
    drive = _drive(0.7)
    amp = np.sqrt(drive.power)
    coherences = np.array([np.trace(rho @ op) for op in ops])
    phases = np.exp(1j * config.phase * np.arange(n))
    r_old = 1j / amp * np.sum(phases * coherences)
    t_old = 1.0 + 1j / amp * np.sum(np.conj(phases) * coherences)
    r, t = coherent_amplitudes(config, drive, rho, 0.4)
    assert abs(r - r_old) < 1e-14 and abs(t - t_old) < 1e-14
