"""Driven-dissipative steady states and incoherent scattering spectra.

The waveguide-coupled array is pumped coherently from the left.  In the
frame rotating at the drive frequency the generator is made of the effective
non-Hermitian Hamiltonian of ``lattice.build_hamiltonian`` (one block per
excitation number) plus detuning and drive, and of the quantum jumps into
the waveguide's two output channels C = sum_j exp(+-i*phase*j) sigma_j,
whose rates make up its anti-Hermitian part.  Coherent reflection and
transmission follow from input-output relations; whatever photon flux is
missing from them, I = 1 - |r|^2 - |t|^2, was scattered incoherently.

Conventions: rates, detunings and linewidths are in units of gamma_1d (see
``lattice``), the drive amplitude is ``sqrt(power)``, and phases are
referenced to the first atom, fixing the single-atom linear limit to
r = -i/(delta + i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import MAX_DRIVEN_ATOMS
from .errors import DomainError, NumericalError
from .lattice import ArrayConfig, build_hamiltonian, enumerate_sector, occupied_sites, site_masks
from .spectrum import diagonalize

STEADY_TOL = 1e-9
PSD_TOL = 1e-9
KERNEL_RCOND = 1e-10
PROBE_TOL = 1e-10
PEAK_FLOOR = 1e-9
INCOHERENT_SLACK = 1e-8
GRID_MERGE_TOL = 1e-12
GATHER_ROWS = 16


@dataclass(frozen=True)
class DriveConfig:
    """Coherent pump: normalized power, detuning grid, and phase option."""

    power: float
    detuning_grid: np.ndarray
    phase_on_drive: bool = True

    def __post_init__(self):
        if not 0 <= self.power < np.inf:
            raise DomainError(f"power must be finite and non-negative, got {self.power}")
        grid = np.asarray(self.detuning_grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise DomainError("detuning grid must be a non-empty 1-D array")
        if not np.isfinite(grid).all():
            raise DomainError("detuning grid must be finite")
        if len(grid) > 1 and not (np.diff(grid) > 0).all():
            raise DomainError("detuning grid must be strictly increasing")
        object.__setattr__(self, "detuning_grid", grid)


@dataclass(frozen=True)
class ScatteringSpectrum:
    """Coherent amplitudes and incoherent fraction over a detuning grid.

    ``health`` is the solver health of ``steady_states`` for the grid.
    """

    detunings: np.ndarray
    reflection: np.ndarray
    transmission: np.ndarray
    incoherent: np.ndarray
    narrowest_fwhm: float | None
    health: dict = field(default_factory=dict)


def _lowering_table(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Site lowering operators as product-state index pairs.

    Returns int arrays ``(upper, lower)`` of shape (N, 2^(N-1)): sigma_j maps
    product state ``upper[j, i]`` to ``lower[j, i]``, site 0 the most
    significant bit as in ``_liouvillian_pieces``.
    """
    bits = 1 << (n_atoms - 1 - np.arange(n_atoms))
    upper = np.nonzero(np.arange(2**n_atoms) & bits[:, None])[1].reshape(n_atoms, -1)
    return upper, upper - bits[:, None]


def _lindblad_super(h: np.ndarray, jumps=()) -> np.ndarray:
    """-i(h rho - rho h^dag) + sum_C C rho C^dag, built in place in one array.

    Row-major vec: vec(A rho B) = kron(A, B.T) vec(rho), so entry (ab, cd)
    is A[a, c] B[d, b]; each term is added by strided slices of one 4-index
    view, and no Kronecker product is formed.
    """
    dim = len(h)
    out = np.zeros((dim,) * 4, dtype=complex)
    left, right = -1j * h, 1j * h.conj()
    for k in range(dim):
        out[:, k, :, k] += left
        out[k, :, k, :] += right
    for c in jumps:
        c_conj = c.conj()[:, None, :]
        for a in range(dim):
            out[a] += c[a][None, :, None] * c_conj
    return out.reshape(dim * dim, dim * dim)


def _liouvillian_pieces(config: ArrayConfig, phase_on_drive: bool):
    """Yield the static piece, the per-unit-drive piece and the per-unit-detuning one.

    The pieces are yielded one at a time and the generator keeps none of
    them, so a caller that drops each before asking for the next holds one
    4^N x 4^N array at a time.
    The static piece is -i(H rho - rho H^dag) + sum_C C rho C^dag.
    H is the effective Hamiltonian, its sector entries scattered into the 2^N
    product basis by site bitmask (site 0 the most significant bit, as in
    ``_lowering_table``).  Its anti-Hermitian part has the rank-two kernel
    exp(i*phase*(a-b)) + exp(-i*phase*(a-b)), so the jumps go into
    the two output channels C = sum_j exp(+-i*phase*j) sigma_j.
    The detuning piece, the commutator with -N (N the number operator), is
    diagonal and is yielded as its diagonal, a vector of length 4^N.
    """
    n = config.n_atoms
    dim = 2**n
    upper, lower = _lowering_table(n)
    h_eff = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        basis = enumerate_sector(n, k)
        index = site_masks(n - 1 - occupied_sites(basis))
        h = build_hamiltonian(config, basis)
        h_eff[index[h.row], index[h.col]] = h.value
    phases = np.exp(1j * config.phase * np.arange(n))
    # sum_j w_j sigma_j for the backward and forward channels and the phaseless sum
    ops = np.zeros((3, dim, dim), dtype=complex)
    ops[:, lower, upper] = np.array([phases, phases.conj(), np.ones(n)])[:, :, None]
    backward, forward, phaseless = ops
    # reflection reads the backward channel, transmission the forward one
    yield _lindblad_super(h_eff, (backward, forward))

    # the left-incident drive is the forward mode
    drive = forward if phase_on_drive else phaseless
    yield _lindblad_super(-(drive + drive.conj().T))

    # excitation count of every product state, as the diagonal of -N
    minus_counts = -np.bincount(upper.ravel(), minlength=dim)
    yield (-1j * (minus_counts[:, None] - minus_counts[None, :])).ravel()


def _kernel(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of a matrix.

    The right singular vectors whose singular values are at most
    ``KERNEL_RCOND`` times the largest, the rule of scipy's ``null_space``,
    computed with numpy's LAPACK like every other dense kernel of a cell.
    """
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.sum(s > KERNEL_RCOND * np.amax(s, initial=0.0)))
    return vh[rank:].conj().T


def _hermitian_coordinates(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat indices of the diagonal, upper and mirrored lower entries.

    The real coordinates of a Hermitian rho are its diagonal, then
    sqrt(2)*Re and sqrt(2)*Im of its upper entries, in this order: the
    coefficients of rho in the orthonormal basis e_aa, (e_ab + e_ba)/sqrt(2),
    i(e_ab - e_ba)/sqrt(2) (a < b) of the matrices.
    """
    rows, cols = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows


def _real_generator(liouvillian: np.ndarray, dim: int) -> np.ndarray:
    """A generator in the real Hermitian coordinates, gathered by index.

    A Lindblad generator maps Hermitian rho to Hermitian rho (J conj(L) J =
    L, J the swap of entries ab and ba), so Q^dag L Q is real, Q the basis of
    ``_hermitian_coordinates``.  The columns of L Q and then the rows of
    Q^dag (L Q) are sums and differences of gathered columns and rows.  The
    rows are combined ``GATHER_ROWS`` pairs at a time, so the complex
    temporaries stay a small fraction of L.
    """
    diag, upper, lower = _hermitian_coordinates(dim)
    half = np.sqrt(0.5)

    def columns(rows):
        """The rows ``rows`` of L Q."""
        block = liouvillian[rows]
        # np.take gathers columns about twice as fast as fancy indexing, same bytes
        upper_cols = np.take(block, upper, axis=1)
        lower_cols = np.take(block, lower, axis=1)
        return np.concatenate(
            [
                np.take(block, diag, axis=1),
                half * (upper_cols + lower_cols),
                1j * half * (upper_cols - lower_cols),
            ],
            axis=1,
        )

    real = np.empty(liouvillian.shape)
    real[:dim] = columns(diag).real
    for start in range(0, len(upper), GATHER_ROWS):
        pairs = slice(start, start + GATHER_ROWS)
        upper_rows, lower_rows = columns(upper[pairs]), columns(lower[pairs])
        re, im = dim + start, dim + len(upper) + start
        real[re : re + len(upper_rows)] = half * (upper_rows + lower_rows).real
        real[im : im + len(upper_rows)] = half * (upper_rows - lower_rows).imag
    return real


def _real_detuning(detuning_diag: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The support S of the detuning piece D in real coordinates, and D[:, S].

    D is diagonal with entries i*theta (theta = n_a - n_b), so it vanishes on
    the diagonal and maps the coordinates (s, c) of an upper entry ab to
    (-theta*c, theta*s).  S holds the pairs with theta != 0: 4^N - C(2N, N)
    of the 4^N coordinates.
    """
    _, upper, _ = _hermitian_coordinates(dim)
    theta = detuning_diag[upper].imag
    pairs = np.flatnonzero(theta)
    real_rows, imag_rows = dim + pairs, dim + len(upper) + pairs
    columns = np.arange(len(pairs))
    d_support = np.zeros((dim * dim, 2 * len(pairs)))
    d_support[imag_rows, columns] = theta[pairs]
    d_support[real_rows, len(pairs) + columns] = -theta[pairs]
    return np.concatenate([real_rows, imag_rows]), d_support


def _vectors(x: np.ndarray) -> np.ndarray:
    """Q x: row i is the row-major vec of the Hermitian matrix with real coordinates x[:, i]."""
    dim = math.isqrt(len(x))
    diag, upper, lower = _hermitian_coordinates(dim)
    entries = np.sqrt(0.5) * (x[dim : dim + len(upper)] + 1j * x[dim + len(upper) :]).T
    vec = np.empty((x.shape[1], dim * dim), dtype=complex)
    vec[:, diag] = x[:dim].T
    vec[:, upper] = entries
    vec[:, lower] = entries.conj()
    return vec


def _probe_vector(size: int) -> np.ndarray:
    """The fixed real vector y = (sin 1, sin 2, ...), which has no zero entry."""
    # not numpy.random: importing it costs a scan ~6 MB of resident memory
    return np.sin(np.arange(1.0, size + 1.0))


def _probe(image: np.ndarray, real_image: np.ndarray) -> None:
    """Check a real piece G against the complex piece L it was gathered from.

    ``image`` is L (Q y) and ``real_image`` is G y, y from
    ``_probe_vector``; Q (G y) must equal L (Q y) to ``PROBE_TOL``,
    otherwise the change of basis is wrong and ``NumericalError`` is raised.
    """
    error = np.abs(image - _vectors(real_image[:, None])[0]).max()
    if not error <= PROBE_TOL:
        raise NumericalError(f"real generator fails the probe: max |L Qy - Q Gy| = {error:.3g}")


def _real_piece(piece: np.ndarray, y: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """``_real_generator`` of one complex piece, checked against it by ``_probe``."""
    real = _real_generator(piece, math.isqrt(len(piece)))
    _probe(piece @ qy, real @ y)
    return real


def _generators(config: ArrayConfig, phase_on_drive: bool):
    """The real generators of one array period, shared by every power.

    Returns G_s and G_d, the static and per-unit-drive pieces of
    ``_liouvillian_pieces`` in real coordinates (``_real_generator``), and
    the support S of the detuning piece with D[:, S] (``_real_detuning``),
    all read-only.  The pieces are built one at a time: each complex piece
    is gathered to real coordinates, probed against its gather
    (``_probe``) and dropped before the next is built.
    """
    dim = 2**config.n_atoms
    y = _probe_vector(dim * dim)
    qy = _vectors(y[:, None])[0]
    pieces = _liouvillian_pieces(config, phase_on_drive)
    g_static = _real_piece(next(pieces), y, qy)
    g_drive = _real_piece(next(pieces), y, qy)
    detuning_diag = next(pieces)
    support, d_support = _real_detuning(detuning_diag, dim)
    _probe(detuning_diag * qy, d_support @ y[support])
    generators = (g_static, g_drive, support, d_support)
    for array in generators:
        array.setflags(write=False)
    return generators


# the one cached period: {(config, phase_on_drive): its ``_generators``}
_PERIOD: dict = {}


def _period_generators(config: ArrayConfig, phase_on_drive: bool):
    """``_generators`` of one period, cached for one period per process.

    Scans evaluate driven cells grouped by period.  The cached period is
    released before the next one is built, so two periods' generators are
    never alive at once, and a build that fails leaves the cache empty.
    """
    key = (config, phase_on_drive)
    if key not in _PERIOD:
        _PERIOD.clear()
        _PERIOD[key] = _generators(config, phase_on_drive)
    return _PERIOD[key]


def _real_eigenbasis(matrix: np.ndarray):
    """Real eigenvalues, one of each conjugate pair of eigenvalues, and a real eigenbasis V.

    V holds the eigenvectors of the real eigenvalues, then the real parts
    and then the imaginary parts u, v of one eigenvector u + iv of each pair
    a + ib (b > 0).  With A = ``matrix``, A u = a u - b v and A v = b u + a v,
    so A V = V B with B a 2x2 rotation block [[a, b], [-b, a]] per pair.
    Eigenvalues are paired by exact conjugacy; when they do not all pair (or
    are not finite) V is no basis, and ``LinAlgError`` is raised.
    """
    lam, w = np.linalg.eig(matrix)
    real, upper = np.flatnonzero(lam.imag == 0), np.flatnonzero(lam.imag > 0)
    conjugates = lam[lam.imag < 0].conj()
    if not np.isfinite(lam).all() or not np.array_equal(
        np.sort_complex(lam[upper]), np.sort_complex(conjugates)
    ):
        raise np.linalg.LinAlgError("eigenvalues do not come in conjugate pairs")
    v = np.hstack([w[:, real].real, w[:, upper].real, w[:, upper].imag])
    return lam[real].real, lam[upper], v


def _pole_solve(m0: np.ndarray, d_support: np.ndarray, support: np.ndarray, grid: np.ndarray):
    """Real columns x(delta) with (M0 + delta*D) x = e0 for every delta of the grid.

    D is zero outside the columns ``support`` and given as d_support =
    D[:, support].  With K = M0^-1 D[:, S] and K[S] = V B V^-1, V and B the
    real eigenbasis and rotation blocks of ``_real_eigenbasis``, the Woodbury
    identity gives every point as P(delta) e0, where P(delta) b = z -
    delta*K V (1 + delta*B)^-1 V^-1 z[S] and z = M0^-1 b; one refinement
    step x += P(delta)(e0 - M(delta) x) against the exact pencil follows.
    M0 is factored once, as one inverse: each column of D[:, S] has one
    nonzero, so K is M0^-1 with its columns gathered and scaled, and the
    refinement's M0^-1 is a matrix product.  Every step is real.  Returns
    x and the 1-norm condition of V; x is NaN (and the condition None) when
    M0 cannot be expanded.

    Every dense kernel here is numpy's: its BLAS is a different library from
    scipy's, and under threaded BLAS each switch between the two costs
    milliseconds while the other library's threads spin down.
    """
    size = len(m0)
    e0 = np.zeros((size, 1))
    e0[0] = 1.0
    # column j of D[:, S] has its one nonzero, scale[j], in row rows[j]
    rows = np.argmax(d_support != 0, axis=0)
    scale = d_support[rows, np.arange(len(rows))]
    # a singular M0 or V, or unpaired eigenvalues, are not an error here: the
    # caller sends the NaN points to the fallback, which reports the degenerate kernel
    try:
        m0_inv = np.linalg.inv(m0)
        lam, pairs, v = _real_eigenbasis(m0_inv[np.ix_(support, rows)] * scale)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return np.full((size, len(grid)), np.nan), None
    # K lives only inside this product: held beside M0^-1 it adds ~6 MB to an N = 5 cell's peak
    kv = (m0_inv[:, rows] * scale) @ v
    poles = 1.0 + np.outer(lam, grid)
    # (1 + delta*B)^-1 on a pair's block: [[p, -q], [q, p]] / (p^2 + q^2)
    p, q = 1.0 + np.outer(pairs.real, grid), np.outer(pairs.imag, grid)
    norm = p * p + q * q
    split = [len(lam), len(lam) + len(pairs)]

    def expand(z):
        c_real, c_u, c_v = np.split(v_inv @ z[support], split)
        y = np.concatenate([c_real / poles, (p * c_u - q * c_v) / norm, (q * c_u + p * c_v) / norm])
        return z - grid * (kv @ y)

    with np.errstate(all="ignore"):
        x = expand(m0_inv[:, :1])
        x += expand(m0_inv @ (e0 - m0 @ x - grid * (d_support @ x[support])))
    condition = float(np.abs(v).sum(axis=0).max() * np.abs(v_inv).sum(axis=0).max())
    return x, condition


def _pencil(config: ArrayConfig, drive: DriveConfig):
    """The real pencil of one cell: M0, row 0 of the generator, S and D[:, S].

    M0 is the generator G_s + sqrt(P)*G_d of ``_generators`` at zero
    detuning, with the trace row in place of its row 0.
    """
    if config.n_atoms > MAX_DRIVEN_ATOMS:
        raise DomainError(
            f"master-equation solver limited to N <= {MAX_DRIVEN_ATOMS}, got {config.n_atoms}"
        )
    g_static, g_drive, support, d_support = _period_generators(config, drive.phase_on_drive)
    m0 = np.sqrt(drive.power) * g_drive
    m0 += g_static
    row0 = m0[0].copy()
    m0[0] = 0.0
    m0[0, : 2**config.n_atoms] = 1.0  # trace row: the diagonal coordinates sum to one
    return m0, row0, support, d_support


def _residual(x: np.ndarray, pencil, grid: np.ndarray) -> np.ndarray:
    """max |entry| of L(delta) vec rho at each point, rho of real coordinates x[:, i] at grid[i].

    L(delta) vec rho = Q G(delta) x, and G(delta) x is M0 x with row 0 of the
    generator in place of the trace row, plus delta*D x.
    """
    m0, row0, support, d_support = pencil
    with np.errstate(all="ignore"):
        gx = m0 @ x
        gx[0] = row0 @ x
        gx += grid * (d_support @ x[support])
    return np.abs(_vectors(gx)).max(axis=1)


def _states(x: np.ndarray, pencil, grid: np.ndarray):
    """Trace-one density matrices from the real coordinates x[:, i] at each detuning grid[i].

    Returns the stack, shape (points, 2^N, 2^N), Hermitian by construction,
    and per point why it failed, or None: a generator residual (``_residual``)
    above ``STEADY_TOL``, or an eigenvalue below ``-PSD_TOL``.
    """
    dim = math.isqrt(len(x))
    with np.errstate(all="ignore"):
        x = x / x[:dim].sum(axis=0)
    rho = _vectors(x).reshape(len(grid), dim, dim)
    ok = _residual(x, pencil, grid) <= STEADY_TOL
    failures = [None if r else "steady-state generator residual exceeds 1e-9" for r in ok]
    for i in np.flatnonzero(ok)[np.linalg.eigvalsh(rho[ok]).min(axis=1) < -PSD_TOL]:
        failures[i] = "steady state is not positive semidefinite"
    return rho, failures


def steady_state(config: ArrayConfig, drive: DriveConfig, detuning: float) -> np.ndarray:
    """Steady-state density matrix in the rotating frame at the drive frequency.

    One real direct solve of M(delta) x = e0, M(delta) the pencil of
    ``_pencil``, with the checks of ``_states``.  The fixed right-hand side
    g = (sin 1, sin 2, ...) of ``_probe_vector`` rides along in the same
    solve, and kappa = ||M||_1 ||M^-1 g||_1 / ||g||_1 estimates the
    condition of M.
    When kappa*KERNEL_RCOND reaches 1, or the solve fails, the state comes
    from the generator's kernel instead, which must be one-dimensional.
    """
    pencil = _pencil(config, drive)
    m0, _, support, d_support = pencil
    m = m0.copy()
    rows, cols = np.nonzero(d_support)
    m[rows, support[cols]] += detuning * d_support[rows, cols]
    g = _probe_vector(len(m))[:, None]
    try:
        x = np.linalg.solve(m, np.hstack([np.eye(len(m), 1), g]))
    except np.linalg.LinAlgError:
        x = np.full((len(m), 2), np.nan)  # an exactly singular M: kappa is NaN
    kappa = np.linalg.norm(m, 1) * np.abs(x[:, 1]).sum() / np.abs(g).sum()
    if not kappa * KERNEL_RCOND < 1.0:
        # the diagonal rows of a trace-preserving generator sum to zero, so
        # without its trace row M(delta) has the generator's kernel
        x = _kernel(m[1:])
        if x.shape[1] != 1:
            raise NumericalError(
                f"steady state is not unique: generator kernel dimension {x.shape[1]}"
            )
    rho, failures = _states(x[:, :1], pencil, np.array([detuning], dtype=float))
    if failures[0]:
        raise NumericalError(failures[0])
    return rho[0]


def steady_states(config: ArrayConfig, drive: DriveConfig) -> tuple[np.ndarray, dict]:
    """Steady states over the whole detuning grid from one pole expansion.

    The pencil is solved in the real Hermitian coordinates of
    ``_hermitian_coordinates``, where the generator and the detuning piece
    are real.  With the trace row in place of row 0 the linear system is the
    pencil M(delta) = M0 + delta*D, and D is zero off its support S (see
    ``_real_detuning``), so one inverse of M0, its only factorization, and
    one eigensolve of size |S| serve every point (see ``_pole_solve``).  The
    generators come from the one-period cache of ``_period_generators``.  A
    point that fails the checks of ``_states`` is re-solved by
    ``steady_state``, which factors its own M(delta).

    Returns the stack of density matrices, shape (points, 2^N, 2^N), and the
    solver health: the number of fallback points and the 1-norm condition of
    the real eigenbasis V.
    """
    grid = drive.detuning_grid
    pencil = _pencil(config, drive)
    m0, _, support, d_support = pencil
    x, condition = _pole_solve(m0, d_support, support, grid)
    rho, failures = _states(x, pencil, grid)
    failed = [i for i, failure in enumerate(failures) if failure]
    for i in failed:
        rho[i] = steady_state(config, drive, grid[i])
    return rho, {"fallback_points": len(failed), "v_condition": condition}


def occupations(config: ArrayConfig, rho: np.ndarray) -> np.ndarray:
    """Per-site excited-state populations <sigma^dag_j sigma_j>."""
    # sigma^dag_j sigma_j is diagonal, one on the states with site j excited
    upper, _ = _lowering_table(config.n_atoms)
    return np.diagonal(rho).real[upper].sum(axis=1)


def transfer_matrix_amplitudes(
    config: ArrayConfig, detuning: float
) -> tuple[complex, complex]:
    """Linear (single-photon) reflection and transmission via 2x2 transfer matrices.

    Independent of the master-equation route; the transmission phase is
    referenced to the plane of the last atom.
    """
    r_atom = -1j / (detuning + 1j)
    t_atom = 1.0 + r_atom
    if t_atom == 0:
        # exact resonance: each atom is a perfect mirror, the first one wins
        return complex(r_atom), 0j
    m_atom = np.array(
        [[t_atom**2 - r_atom**2, r_atom], [-r_atom, 1.0]], dtype=complex
    ) / t_atom
    m_free = np.diag([np.exp(1j * config.phase), np.exp(-1j * config.phase)])
    m_total = m_atom.copy()
    for _ in range(config.n_atoms - 1):
        m_total = m_atom @ m_free @ m_total
    t = 1.0 / m_total[1, 1]
    r = -m_total[1, 0] / m_total[1, 1]
    return complex(r), complex(t)


def _stacked_amplitudes(
    config: ArrayConfig, drive: DriveConfig, rhos: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reflection and transmission for a stack of steady states, one per detuning."""
    n = config.n_atoms
    phi = config.phase
    amp_in = np.sqrt(drive.power)
    if amp_in == 0.0:
        r, t = np.array([transfer_matrix_amplitudes(config, delta) for delta in grid]).T
        return r, t * np.exp(-1j * phi * (n - 1))
    # <sigma_j> = tr(rho sigma_j) = sum_ab rho_ab (sigma_j)_ba, for every rho at
    # once: weights[j] is sigma_j transposed and flattened, one at (upper, lower)
    upper, lower = _lowering_table(n)
    weights = np.zeros((n, 4**n), dtype=complex)
    np.put_along_axis(weights, upper * 2**n + lower, 1.0, axis=1)
    coherences = rhos.reshape(len(rhos), -1) @ weights.T
    phases = np.exp(1j * phi * np.arange(n))
    t = 1.0 + 1j / amp_in * (coherences @ np.conj(phases))
    r = 1j / amp_in * (coherences @ phases)
    return r, t


def coherent_amplitudes(
    config: ArrayConfig, drive: DriveConfig, rho: np.ndarray, detuning: float
) -> tuple[complex, complex]:
    """Input-output reflection and transmission from the steady state.

    At zero power the amplitudes are ill-defined through the expectation
    values and fall back to the linear transfer-matrix result (with the
    transmission phase moved to the input reference plane).
    """
    r, t = _stacked_amplitudes(config, drive, rho[None], np.array([detuning]))
    return complex(r[0]), complex(t[0])


def incoherent_spectrum(config: ArrayConfig, drive: DriveConfig) -> ScatteringSpectrum:
    """Sweep the detuning grid and collect r, t, and I = 1 - |r|^2 - |t|^2."""
    grid = drive.detuning_grid
    rhos, health = steady_states(config, drive)
    reflection, transmission = _stacked_amplitudes(config, drive, rhos, grid)
    incoherent = 1.0 - np.abs(reflection) ** 2 - np.abs(transmission) ** 2
    # with the drive phases suppressed the input field is not the physical
    # left-propagating mode and flux bookkeeping (hence I in [0, 1]) breaks
    if drive.phase_on_drive and (
        incoherent.min() < -INCOHERENT_SLACK or incoherent.max() > 1.0 + INCOHERENT_SLACK
    ):
        raise NumericalError("incoherent fraction left [0, 1] beyond the allowed slack")
    spectrum = ScatteringSpectrum(
        detunings=grid,
        reflection=reflection,
        transmission=transmission,
        incoherent=incoherent,
        narrowest_fwhm=None,
        health=health,
    )
    return replace(spectrum, narrowest_fwhm=narrowest_linewidth(spectrum))


def narrowest_linewidth(spectrum: ScatteringSpectrum) -> float | None:
    """Smallest full width at half maximum among incoherent peaks.

    Peaks are strict interior local maxima above a 1e-9 floor; each width
    comes from linearly interpolated half-height crossings.  Peaks whose
    half level is never crossed inside the grid are not measurable and are
    skipped; returns None when no measurable peak exists.  The caller is
    responsible for a grid fine enough (steps below ~FWHM/5) to resolve the
    narrowest expected feature.
    """
    x = spectrum.detunings
    y = spectrum.incoherent
    best = None
    for i in range(1, len(y) - 1):
        if not (y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > PEAK_FLOOR):
            continue
        half = y[i] / 2.0
        left = right = None
        for j in range(i, 0, -1):
            if y[j - 1] <= half:
                left = np.interp(half, [y[j - 1], y[j]], [x[j - 1], x[j]])
                break
        for j in range(i, len(y) - 1):
            if y[j + 1] <= half:
                right = np.interp(half, [y[j + 1], y[j]], [x[j + 1], x[j]])
                break
        if left is None or right is None:
            continue
        width = float(right - left)
        if best is None or width < best:
            best = width
    return best


def resonance_grid(
    config: ArrayConfig,
    start: float,
    stop: float,
    coarse: int = 401,
    refine_points: int = 41,
    refine_span: float = 8.0,
) -> np.ndarray:
    """Detuning grid refined around every single-excitation resonance.

    Windows of half-width ``refine_span`` times each mode's decay rate are
    overlaid on a uniform grid, so narrow subradiant features stay resolved
    without a globally fine mesh.  Of points closer than ``GRID_MERGE_TOL``
    times the grid span only the first is kept.
    """
    if not stop > start:
        raise DomainError("grid needs stop > start")
    pieces = [np.linspace(start, stop, coarse)]
    for state in diagonalize(config, 1):
        width = max(refine_span * state.gamma, 1e-3)
        pieces.append(np.linspace(state.epsilon.real - width, state.epsilon.real + width, refine_points))
    # sorted, first of each run of equal values: np.unique's result, without
    # the numpy.ma import np.unique makes on its first call
    grid = np.sort(np.concatenate(pieces))
    grid = grid[np.insert(grid[1:] != grid[:-1], 0, True) & (grid >= start) & (grid <= stop)]
    # modes sharing Re(eps) to roundoff would leave detunings ~1e-16 apart
    return grid[np.insert(np.diff(grid) > GRID_MERGE_TOL * (stop - start), 0, True)]
