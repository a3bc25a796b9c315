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
from typing import NamedTuple

import numpy as np

from . import MAX_DRIVEN_ATOMS
from .errors import DomainError, NumericalError
from .lattice import ArrayConfig, _integer, build_hamiltonian, enumerate_sector, occupied_sites, site_masks
from .spectrum import diagonalize

STEADY_TOL = 1e-9
PSD_TOL = 1e-9
PSD_CHUNK = 32  # points per chunk of the residual and PSD checks, so their copies stay small
KERNEL_RCOND = 1e-10
PROBE_TOL = 1e-10
PEAK_FLOOR = 1e-9
INCOHERENT_SLACK = 1e-8
GRID_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class DriveConfig:
    """Coherent pump: normalized power, detuning grid, and phase option."""

    power: float
    detuning_grid: np.ndarray
    phase_on_drive: bool = True

    def __post_init__(self):
        if isinstance(self.power, (bool, np.bool_)) or not 0 <= self.power < np.inf:
            raise DomainError(f"power must be a finite, non-negative number, got {self.power}")
        if not isinstance(self.phase_on_drive, (bool, np.bool_)):
            raise DomainError(f"phase_on_drive must be a boolean, got {self.phase_on_drive!r}")
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
    significant bit as in ``_operators``.
    """
    bits = 1 << (n_atoms - 1 - np.arange(n_atoms))
    upper = np.nonzero(np.arange(2**n_atoms) & bits[:, None])[1].reshape(n_atoms, -1)
    return upper, upper - bits[:, None]


def _operators(config: ArrayConfig, drive: DriveConfig):
    """The 2^N x 2^N operators of one cell's generator, and its detuning diagonal.

    Returns h and the two jumps C of the generator at zero detuning,
    -i(h rho - rho h^dag) + sum_C C rho C^dag, and the diagonal of the
    detuning piece, a vector of length 4^N.  h = H_eff + sqrt(P)*V: H_eff is
    the effective Hamiltonian, its sector entries scattered into the 2^N
    product basis by site bitmask (site 0 the most significant bit, as in
    ``_lowering_table``), and V is -(F + F^dag), F the forward channel (or
    the phaseless sum).  The anti-Hermitian part of H_eff has the rank-two
    kernel exp(i*phase*(a-b)) + exp(-i*phase*(a-b)), so the jumps go into
    the two output channels C = sum_j exp(+-i*phase*j) sigma_j.  The
    detuning piece, the commutator with -N (N the number operator), is
    diagonal.
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
    # reflection reads the backward channel, transmission the forward one, and
    # the left-incident drive is the forward mode
    f = forward if drive.phase_on_drive else phaseless
    # excitation count of every product state, as the diagonal of -N
    minus_counts = -np.bincount(upper.ravel(), minlength=dim)
    return (
        h_eff - np.sqrt(drive.power) * (f + f.conj().T),
        (backward, forward),
        (-1j * (minus_counts[:, None] - minus_counts[None, :])).ravel(),
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, np.unique's result without the numpy.ma
    import np.unique makes on its first call."""
    values = np.sort(values)
    return values[np.insert(values[1:] != values[:-1], 0, True)]


def _lindblad_entries(h: np.ndarray, jumps=()) -> tuple[np.ndarray, np.ndarray]:
    """-i(h rho - rho h^dag) + sum_C C rho C^dag as sorted flat positions and values.

    Row-major vec: vec(A rho B) = kron(A, B.T) vec(rho), so entry (ab, cd)
    is -i h[a, c] delta_bd + i conj(h[b, d]) delta_ac + sum_C C[a, c]
    conj(C[b, d]), each term spread from the nonzero entries of h or C.  The
    terms of a position are added to zero in this order, that of an in-place
    dense assembly, so every value is that assembly's to the bit.
    """
    dim = len(h)
    k = np.arange(dim)
    a, c = np.nonzero(h)
    terms = [
        ((a[:, None] * dim + k) * dim**2 + c[:, None] * dim + k, (-1j * h[a, c])[:, None]),
        ((k * dim + a[:, None]) * dim**2 + k * dim + c[:, None], (1j * h.conj()[a, c])[:, None]),
    ]
    for op in jumps:
        a, c = np.nonzero(op)
        terms.append(
            ((a[:, None] * dim + a) * dim**2 + c[:, None] * dim + c, op[a, c][:, None] * op.conj()[a, c])
        )
    positions = _distinct(np.concatenate([p.ravel() for p, _ in terms]))
    values = np.zeros(len(positions), dtype=complex)
    for p, v in terms:
        values[np.searchsorted(positions, p)] += v
    return positions, values


def _lindblad_image(h: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i(h rho - rho h^dag) + sum_C C rho C^dag of a Hermitian rho, or of a stack of them.

    Each product is one matrix product over the stack, taken from the right:
    h rho = (rho h^dag)^dag and C rho = (rho C^dag)^dag for Hermitian rho.
    """

    def dagger(a):
        return a.conj().swapaxes(-1, -2)

    right = rho @ dagger(h)
    image = dagger(right) - right
    image *= -1j
    for c in jumps:
        image += dagger(rho @ dagger(c)) @ dagger(c)
    return image


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


def _real_entries(positions: np.ndarray, values: np.ndarray, dim: int):
    """Q^dag L Q, L given by its entries, as flat positions and values in real coordinates.

    A Lindblad generator maps Hermitian rho to Hermitian rho (J conj(L) J =
    L, J the swap of entries ab and ba), so Q^dag L Q is real, Q the basis of
    ``_hermitian_coordinates``.  Group a holds coordinate e_aa, and group
    dim + p the complex entries ab (side 0) and ba (side 1) of upper pair p,
    so each real entry of a (row group, column group) block comes from its
    up-to-four complex entries.  They combine as in a dense change of basis:
    a pair's columns are half*(L_ab + L_ba) and 1j*half*(L_ab - L_ba), its
    rows half*Re(ab + ba) and half*Im(ab - ba), half = sqrt(1/2).  The Im
    coordinate of pair p sits ``pairs`` after its Re coordinate.
    """
    size = dim * dim
    diag, upper, lower = _hermitian_coordinates(dim)
    pairs, groups = len(upper), dim + len(upper)
    group = np.empty(size, dtype=int)
    group[diag] = np.arange(dim)
    group[upper] = group[lower] = dim + np.arange(pairs)
    side = np.zeros(size, dtype=int)
    side[lower] = 1
    row, col = np.divmod(positions, size)
    key = group[row] * groups + group[col]
    keys = _distinct(key)
    block = np.zeros((len(keys), 2, 2), dtype=complex)
    block[np.searchsorted(keys, key), side[row], side[col]] = values
    row_group, col_group = np.divmod(keys, groups)
    row_pair, col_pair = (row_group >= dim)[:, None], (col_group >= dim)[:, None]
    half = np.sqrt(0.5)
    u, l = block[..., 0], block[..., 1]
    block = np.stack([np.where(col_pair, half * (u + l), u), 1j * half * (u - l)], axis=2)
    u, l = block[:, 0], block[:, 1]
    real = np.stack([np.where(row_pair, half * (u + l).real, u.real), half * (u - l).imag], axis=1)
    im = np.arange(2)  # 0 for a Re (or diagonal) coordinate, 1 for an Im one
    keep = (real != 0) & (im[:, None] <= row_pair[:, None]) & (im <= col_pair[:, None])
    rows = row_group[:, None, None] + pairs * im[:, None]
    cols = col_group[:, None, None] + pairs * im
    return (rows * size + cols)[keep], real[keep]


def _real_detuning(detuning_diag: np.ndarray, dim: int):
    """The detuning piece D in real coordinates: its support S, and the row and
    value of the one nonzero of each column S[j].

    D is diagonal with entries i*theta (theta = n_a - n_b), so it vanishes on
    the diagonal and maps the coordinates (s, c) of an upper entry ab to
    (-theta*c, theta*s).  S holds the pairs with theta != 0, Re coordinates
    first: 4^N - C(2N, N) of the 4^N coordinates.
    """
    _, upper, _ = _hermitian_coordinates(dim)
    theta = detuning_diag[upper].imag
    pairs = np.flatnonzero(theta)
    real_rows, imag_rows = dim + pairs, dim + len(upper) + pairs
    return (
        np.concatenate([real_rows, imag_rows]),
        np.concatenate([imag_rows, real_rows]),
        np.concatenate([theta[pairs], -theta[pairs]]),
    )


def _times_d(detuning, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D x for the columns of x, D the ``(support, rows, scale)`` of ``_real_detuning``,
    as its rows ``rows`` (no two alike) and their values; every other row of D x is zero."""
    support, rows, scale = detuning
    return rows, scale[:, None] * x[support]


def _vectors(x: np.ndarray) -> np.ndarray:
    """Q x: row i is the row-major vec of the Hermitian matrix with real coordinates x[:, i].

    The real and imaginary parts are filled straight from x: the diagonal
    coordinates, sqrt(1/2)*Re and sqrt(1/2)*Im on the upper entries, and Im
    negated on the lower ones.  These are the values of sqrt(1/2)*(re +
    1j*im) and its conjugate bit for bit, up to the sign of zero, with no
    complex temporary.
    """
    dim = math.isqrt(len(x))
    diag, upper, lower = _hermitian_coordinates(dim)
    half = np.sqrt(0.5)
    vec = np.empty((x.shape[1], dim * dim), dtype=complex)
    real, imag = vec.real, vec.imag
    real[:, diag] = x[:dim].T
    imag[:, diag] = 0.0
    part = half * x[dim : dim + len(upper)].T
    real[:, upper] = part
    real[:, lower] = part
    part = half * x[dim + len(upper) :].T
    imag[:, upper] = part
    imag[:, lower] = np.negative(part, out=part)
    return vec


def _probe_vector(size: int) -> np.ndarray:
    """The fixed real vector y = (sin 1, sin 2, ...), which has no zero entry."""
    # not numpy.random: importing it costs a scan ~6 MB of resident memory
    return np.sin(np.arange(1.0, size + 1.0))


def _probe(image: np.ndarray, real_image: np.ndarray) -> None:
    """Check a real piece G against the complex piece L it stands for.

    ``image`` is L (Q y) and ``real_image`` is G y, y from
    ``_probe_vector``; Q (G y) must equal L (Q y) to ``PROBE_TOL``,
    otherwise the change of basis is wrong and ``NumericalError`` is raised.
    """
    error = np.abs(image - _vectors(real_image[:, None])[0]).max()
    if not error <= PROBE_TOL:
        raise NumericalError(f"real generator fails the probe: max |L Qy - Q Gy| = {error:.3g}")


def _real_eigenbasis(m0_inv: np.ndarray, detuning):
    """Real eigenvalues, one of each conjugate pair of eigenvalues, and a real eigenbasis V of K[S].

    K[S] = (M0^-1 D)[S, S] is gathered from ``m0_inv`` and scaled in place,
    D = ``detuning`` (``_real_detuning``), and dropped once ``eig`` returns.
    V holds the eigenvectors of the real eigenvalues, then the real parts
    and then the imaginary parts u, v of one eigenvector u + iv of each pair
    a + ib (b > 0), gathered as real arrays from the complex eigenvectors,
    which die when it returns.  V is C-ordered at every point, so its column
    sums and K V round the same way whether or not K[S] has real
    eigenvalues.  With A = K[S], A u = a u - b v and A v = b u +
    a v, so A V = V B with B a 2x2 rotation block [[a, b], [-b, a]] per pair.
    Eigenvalues are paired by exact conjugacy; when they do not all pair (or
    are not finite) V is no basis, and ``LinAlgError`` is raised.
    """
    support, rows, scale = detuning
    k = m0_inv[np.ix_(support, rows)]
    k *= scale
    lam, w = np.linalg.eig(k)
    del k
    real, upper = np.flatnonzero(lam.imag == 0), np.flatnonzero(lam.imag > 0)
    conjugates = lam[lam.imag < 0].conj()
    if not np.isfinite(lam).all() or not np.array_equal(
        np.sort_complex(lam[upper]), np.sort_complex(conjugates)
    ):
        raise np.linalg.LinAlgError("eigenvalues do not come in conjugate pairs")
    blocks = [w.real[:, real], w.real[:, upper], w.imag[:, upper]]
    v = np.concatenate(blocks, axis=1, out=np.empty(w.shape))
    return lam[real].real, lam[upper], v


class _Pencil(NamedTuple):
    """The real pencil M(delta) = M0 + delta*D of one cell, kept as its scatter.

    M0 is the generator G at zero detuning with the trace row in place of
    its row 0: ``generator`` is the flat (positions, values) of G
    (``_real_entries``), and ``detuning`` is D as ``_real_detuning`` gives
    it.  No dense M0 is kept: ``_m0`` scatters it where it is read.
    ``_residual`` checks every state against ``operators``, the h, jumps and
    detuning diagonal of ``_operators``.
    """

    generator: tuple[np.ndarray, np.ndarray]
    detuning: tuple[np.ndarray, np.ndarray, np.ndarray]
    size: int  # 4^N, the number of real coordinates
    operators: tuple


def _pencil(config: ArrayConfig, drive: DriveConfig) -> _Pencil:
    """The real pencil of one cell, G and D each probed.

    G and D are built from the operators of ``_operators`` and probed
    (``_probe``) against ``_lindblad_image`` of the matrix Q y and the
    detuning diagonal times it, so no 4^N x 4^N matrix is formed.
    """
    if config.n_atoms > MAX_DRIVEN_ATOMS:
        raise DomainError(
            f"master-equation solver limited to N <= {MAX_DRIVEN_ATOMS}, got {config.n_atoms}"
        )
    operators = h, jumps, detuning_diag = _operators(config, drive)
    dim, size = len(h), len(detuning_diag)
    y = _probe_vector(size)
    qy = _vectors(y[:, None])[0]
    positions, values = _real_entries(*_lindblad_entries(h, jumps), dim)
    rows, cols = np.divmod(positions, size)
    image = _lindblad_image(h, jumps, qy.reshape(dim, dim))
    _probe(image.ravel(), np.bincount(rows, values * y[cols], minlength=size))
    detuning = _real_detuning(detuning_diag, dim)
    rows, dy = _times_d(detuning, y[:, None])
    real_image = np.zeros(size)
    real_image[rows] = dy[:, 0]
    _probe(detuning_diag * qy, real_image)
    return _Pencil((positions, values), detuning, size, operators)


def _m0(pencil: _Pencil) -> np.ndarray:
    """M0 as one dense array, scattered from G's entries: the generator at
    zero detuning with the trace row, the diagonal coordinates summing to
    one, in place of its row 0."""
    size = pencil.size
    m0 = np.zeros(size * size)
    m0[pencil.generator[0]] = pencil.generator[1]
    m0 = m0.reshape(size, size)
    m0[0] = 0.0
    m0[0, : math.isqrt(size)] = 1.0
    return m0


def _pole_solve(pencil: _Pencil, grid: np.ndarray):
    """Real columns x(delta) with (M0 + delta*D) x = e0 for every delta of the grid.

    D = ``pencil.detuning`` is zero outside the columns S = support, and
    column S[j] has its one nonzero, scale[j], in row rows[j]
    (``_real_detuning``).  With K = M0^-1 D[:, S] and K[S] = V B V^-1, V and
    B the real eigenbasis and rotation blocks of ``_real_eigenbasis``, the
    Woodbury identity gives every point as P(delta) e0, where P(delta) b = z
    - delta*K V (1 + delta*B)^-1 V^-1 z[S] and z = M0^-1 b; one refinement
    step x += P(delta)(e0 - M(delta) x) against the exact pencil follows.
    M0 is factored once, as one inverse: K is M0^-1 with its columns
    gathered and scaled, and the refinement's M0^-1 is a matrix product.
    Every step is real.  Returns x and the 1-norm condition of V; x is NaN
    (and the condition None) when M0 cannot be expanded.

    Each buffer dies at its last use.  M0 is scattered twice (``_m0``), and
    lives only to be inverted and for the refinement's product M0 x, so it
    is not alive beside ``eig``, whose buffers set the peak.  V dies once K
    V and its norm are formed, and M0^-1 before the second expansion.  Each
    expansion makes its pole and coefficient arrays, fills one array of
    (1 + delta*B)^-1 V^-1 z[S] and forms its product with K V in place, and
    the refinement forms (e0 - M0 x) - delta*D x in one buffer.  Both
    scatters repeat the same operations, and the arithmetic and its order
    are unchanged by the rest, so x keeps its bits.

    Every dense kernel here is numpy's: its BLAS is a different library from
    scipy's, and under threaded BLAS each switch between the two costs
    milliseconds while the other library's threads spin down.
    """
    support, rows, scale = pencil.detuning
    size = pencil.size
    e0 = np.zeros((size, 1))
    e0[0] = 1.0
    # a singular M0 or V, or unpaired eigenvalues, are not an error here: the
    # caller sends the NaN points to the fallback, which reports the degenerate kernel
    try:
        m0_inv = np.linalg.inv(_m0(pencil))
        lam, pairs, v = _real_eigenbasis(m0_inv, pencil.detuning)
        # K lives only inside this product, formed before V^-1 exists beside it
        kv = (m0_inv[:, rows] * scale) @ v
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return np.full((size, len(grid)), np.nan), None
    v_norm = np.abs(v).sum(axis=0).max()
    del v
    split = [len(lam), len(lam) + len(pairs)]

    def expand(z):
        c_real, c_u, c_v = np.split(v_inv @ z[support], split)
        y = np.empty((len(support), len(grid)))
        np.divide(c_real, 1.0 + np.outer(lam, grid), out=y[: split[0]])
        # (1 + delta*B)^-1 on a pair's block: [[p, -q], [q, p]] / (p^2 + q^2)
        p, q = 1.0 + np.outer(pairs.real, grid), np.outer(pairs.imag, grid)
        norm = p * p + q * q
        np.divide(p * c_u - q * c_v, norm, out=y[split[0] : split[1]])
        np.divide(q * c_u + p * c_v, norm, out=y[split[1] :])
        del c_real, c_u, c_v, p, q, norm
        x = kv @ y
        x *= grid
        return np.subtract(z, x, out=x)

    with np.errstate(all="ignore"):
        x = expand(m0_inv[:, :1])
        r = _m0(pencil) @ x
        np.subtract(e0, r, out=r)
        # - delta*D x on D x's rows alone: subtracting the zeros of the other
        # rows would change no entry, as e0 - M0 x holds no -0.0
        _, dx = _times_d(pencil.detuning, x)
        dx *= grid
        r[rows] -= dx
        del dx
        z = m0_inv @ r
        del m0_inv, r
        x += expand(z)
    condition = float(v_norm * np.abs(v_inv).sum(axis=0).max())
    return x, condition


def _residual(rho: np.ndarray, pencil: _Pencil, grid: np.ndarray) -> np.ndarray:
    """max |entry| of L(delta) rho at each point, for a stack of rho, rho[i] at grid[i].

    Read from the 2^N x 2^N operators of the pencil, not from the real
    entries the solve used: ``_lindblad_image`` of h with the two channels,
    plus delta times the detuning diagonal times rho.
    """
    dim = rho.shape[-1]
    h, jumps, detuning_diag = pencil.operators
    with np.errstate(all="ignore"):
        image = _lindblad_image(h, jumps, rho)
        image += grid[:, None, None] * detuning_diag.reshape(dim, dim) * rho
        return np.abs(image).reshape(len(rho), -1).max(axis=1)


def _states(x: np.ndarray, pencil: _Pencil, grid: np.ndarray):
    """Trace-one density matrices from the real coordinates x[:, i] at each detuning grid[i].

    Returns the stack, shape (points, 2^N, 2^N), Hermitian by construction,
    and per point why it failed, or None: a generator residual (``_residual``)
    above ``STEADY_TOL``, or an eigenvalue below ``-PSD_TOL``.  x is
    normalized in place and the stack is built from it once.  One pass then
    checks it ``PSD_CHUNK`` points at a time: the residuals, and a Cholesky
    factorization of the points that passed, shifted by ``PSD_TOL``; only
    when that fails are the eigenvalues of the chunk's passed points
    computed, to name the failing ones.
    """
    dim = math.isqrt(len(x))
    with np.errstate(all="ignore"):
        x /= x[:dim].sum(axis=0)
    rho = _vectors(x).reshape(len(grid), dim, dim)
    failures = []
    shift = PSD_TOL * np.eye(dim)
    for start in range(0, len(grid), PSD_CHUNK):
        points = slice(start, start + PSD_CHUNK)
        ok = _residual(rho[points], pencil, grid[points]) <= STEADY_TOL
        failures += [None if r else "steady-state generator residual exceeds 1e-9" for r in ok]
        passed = start + np.flatnonzero(ok)
        shifted = rho[passed]
        shifted += shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            for i in passed[np.linalg.eigvalsh(rho[passed]).min(axis=1) < -PSD_TOL]:
                failures[i] = "steady state is not positive semidefinite"
        del shifted
    return rho, failures


def steady_state(config: ArrayConfig, drive: DriveConfig, detuning: float) -> np.ndarray:
    """Steady-state density matrix in the rotating frame at the drive frequency.

    One direct solve (``_direct_state``) on the pencil of ``_pencil``.
    """
    return _direct_state(_pencil(config, drive), detuning)


def _direct_state(pencil: _Pencil, detuning: float) -> np.ndarray:
    """The steady state at one detuning from one real direct solve of the pencil.

    Solves M(delta) x = e0, M(delta) scattered from ``pencil``, with the
    checks of ``_states``.  The fixed right-hand side g = (sin 1, sin 2, ...)
    of ``_probe_vector`` rides along in the same solve, and kappa =
    ||M||_1 ||M^-1 g||_1 / ||g||_1 estimates the condition of M.
    When kappa*KERNEL_RCOND reaches 1, or the solve fails, the state comes
    from the generator's kernel instead, which must be one-dimensional.
    """
    support, rows, scale = pencil.detuning
    m = _m0(pencil)
    m[rows, support] += detuning * scale
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
    del m
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
    one eigensolve of size |S| serve every point (see ``_pole_solve``).  A
    point that fails the checks of ``_states`` is re-solved on the same
    pencil by ``_direct_state``, which factors its own M(delta).

    Returns the stack of density matrices, shape (points, 2^N, 2^N), and the
    solver health: the number of fallback points, the 1-norm condition of
    the real eigenbasis V, and the sizes of the pencil (4^N) and of S
    (4^N - C(2N, N)).
    """
    grid = drive.detuning_grid
    pencil = _pencil(config, drive)
    x, condition = _pole_solve(pencil, grid)
    rho, failures = _states(x, pencil, grid)
    failed = [i for i, failure in enumerate(failures) if failure]
    for i in failed:
        rho[i] = _direct_state(pencil, grid[i])
    return rho, {
        "fallback_points": len(failed),
        "v_condition": condition,
        "pencil_dim": pencil.size,
        "support_dim": len(pencil.detuning[0]),
    }


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
    # once: (sigma_j)_ba is one where b = lower[j, i] and a = upper[j, i]
    upper, lower = _lowering_table(n)
    coherences = rhos[:, upper, lower].sum(axis=-1)
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
    times the grid span only the first is kept.  A window needs at least
    two points: ``np.linspace`` with one gives only its left edge.
    """
    given = (start, stop, refine_span)
    if not (all(map(math.isfinite, given)) and refine_span >= 0):
        raise DomainError(f"start, stop and refine_span must be finite, span >= 0, got {given}")
    if not stop > start:
        raise DomainError("grid needs stop > start")
    for name, value, low in (("coarse", coarse, 1), ("refine_points", refine_points, 2)):
        if not (_integer(value) and value >= low):
            raise DomainError(f"{name} must be at least {low} and an integer, got {value!r}")
    pieces = [np.linspace(start, stop, coarse)]
    for state in diagonalize(config, 1):
        width = max(refine_span * state.gamma, 1e-3)
        pieces.append(np.linspace(state.epsilon.real - width, state.epsilon.real + width, refine_points))
    grid = _distinct(np.concatenate(pieces))
    grid = grid[(grid >= start) & (grid <= stop)]
    # modes sharing Re(eps) to roundoff would leave detunings ~1e-16 apart
    return grid[np.insert(np.diff(grid) > GRID_MERGE_TOL * (stop - start), 0, True)]
