"""Independent brute-force constructions used as oracles by the tests.

The operators work in the full 2^N product space from raw Kronecker
products, with no knowledge of the package's subset-transfer logic; the
HOSVD reference works on the dense symmetric tensor, not the reduced
unfolding; the sector eigen references work on the dense sector matrix of
``build_hamiltonian``, not on its hop-table entries; the driven generator
references assemble dense 4^N x 4^N superoperators and change their basis
by index, not from the generator's entries.
"""

import itertools

import numpy as np
from scipy import sparse

from wqed_subradiance import SectorHamiltonian, build_hamiltonian, enumerate_sector
from wqed_subradiance.driven import _hermitian_coordinates, _operators
from wqed_subradiance.spectrum import _symmetry_group

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _lowering_ops_sparse(n):
    """Site lowering operators as sparse Kronecker products (site 0 most significant)."""
    return [
        sparse.kron(
            sparse.kron(sparse.identity(2**j, dtype=complex), SIGMA_MINUS),
            sparse.identity(2 ** (n - 1 - j), dtype=complex),
            format="csr",
        )
        for j in range(n)
    ]


def lowering_ops_full(n):
    """Site lowering operators in the 2^n space, as dense arrays."""
    return [op.toarray() for op in _lowering_ops_sparse(n)]


def full_space_hamiltonian(n, phi, gamma=1.0):
    """Raw operator sum -i*gamma*sum_nm exp(i*phi*|m-n|) s+_n s-_m, dense."""
    ops = _lowering_ops_sparse(n)
    h = sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for a in range(n):
        for b in range(n):
            h += -1j * gamma * np.exp(1j * phi * abs(a - b)) * (ops[a].conj().T @ ops[b])
    return h.toarray()


def subset_to_full_index(subset, n):
    idx = 0
    for site in subset:
        idx |= 1 << (n - 1 - site)
    return idx


def project_to_sector(h_full, n, subsets):
    """Restrict the full-space operator to the given ordered subsets."""
    rows = [subset_to_full_index(s, n) for s in subsets]
    return h_full[np.ix_(rows, rows)]


def embed_state(amplitudes, subsets, n):
    """Lift a sector amplitude vector into the 2^n product space."""
    vec = np.zeros(2**n, dtype=complex)
    for amp, subset in zip(amplitudes, subsets):
        vec[subset_to_full_index(subset, n)] = amp
    return vec


def correlation_full(state_vec, n):
    """<s+_m s-_n> from raw operators on a full-space state."""
    ops = lowering_ops_full(n)
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for j in range(n):
            out[m, j] = state_vec.conj() @ (ops[m].conj().T @ ops[j] @ state_vec)
    return out


def occupations(rho):
    """Per-site populations <s+_j s-_j> of a 2^n density matrix (site 0 most significant).

    s+_j s-_j is diagonal, one on the product states with site j excited.
    """
    n = len(rho).bit_length() - 1
    excited = (np.arange(len(rho)) >> (n - 1 - np.arange(n))[:, None]) & 1
    return excited @ np.diagonal(rho).real


def dense_hosvd_weights(tensor):
    """Mode weights and entropy of a symmetric tensor from its dense unfolding.

    The HOSVD weights are the singular values of the N x N^(k-1) mode-1
    unfolding (the same for every mode by symmetry), padded with zeros to N;
    the entropy is -sum(lam^2 ln lam^2).
    """
    n = tensor.shape[0]
    lam = np.linalg.svd(tensor.reshape(n, -1), compute_uv=False)
    lam = np.pad(lam, (0, n - len(lam)))
    weights = lam[lam > 0] ** 2
    return lam, float(-(weights * np.log(weights)).sum())


def core_tensor(psi, result):
    """Dense all-orthogonal HOSVD core: conj(U) contracted into every index of psi.to_dense()."""
    core = psi.to_dense()
    # each tensordot consumes axis 0 and appends the new one; k restore the order
    for _ in range(core.ndim):
        core = np.tensordot(core, result.factor.conj(), axes=([0], [0]))
    return core


def two_level_population(omega, gamma, delta):
    """Steady excited population of one driven two-level atom.

    Drive Hamiltonian -omega*(s+ + s-), total decay rate 2*gamma: the
    optical Bloch steady state gives omega^2/(delta^2+gamma^2+2*omega^2).
    """
    return omega**2 / (delta**2 + gamma**2 + 2.0 * omega**2)


def two_level_incoherent_fraction(omega, gamma, delta):
    """Incoherently scattered fraction of the input flux for one driven atom.

    Same conventions as ``two_level_population``; the emitted incoherent flux
    2*gamma*(<s+ s-> - |<s->|^2) over the input flux omega^2/gamma gives
    4*gamma^2*omega^2/(delta^2+gamma^2+2*omega^2)^2.  With omega =
    gamma*sqrt(P) this is 4*P*gamma^4/(delta^2+gamma^2+2*P*gamma^2)^2.
    """
    return 4.0 * gamma**2 * omega**2 / (delta**2 + gamma**2 + 2.0 * omega**2) ** 2


def waveguide_liouvillian(n, phi, omega, delta, gamma=1.0):
    """Lindblad generator of a waveguide array driven from the left.

    Quantum-jump form on column-stacked density matrices, vec(A X B) =
    kron(B.T, A) vec(X): the non-Hermitian ``full_space_hamiltonian``, minus
    the detuning times the excitation number, minus the drive
    omega*sum_j (exp(i*phi*j) s+_j + h.c.), plus the recycling terms of the
    two directional output channels sqrt(gamma)*sum_j exp(-+i*phi*j) s-_j.
    """
    ops = lowering_ops_full(n)
    number = sum(op.conj().T @ op for op in ops)
    raising = sum(np.exp(1j * phi * j) * op.conj().T for j, op in enumerate(ops))
    drive = omega * (raising + raising.conj().T)
    h_eff = full_space_hamiltonian(n, phi, gamma) - delta * number - drive
    eye = np.eye(2**n)
    gen = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.conj(), eye))
    for sign in (1.0, -1.0):
        channel = np.sqrt(gamma) * sum(
            np.exp(-1j * sign * phi * j) * op for j, op in enumerate(ops)
        )
        gen += np.kron(channel.conj(), channel)
    return gen


def lindblad_super(h, jumps=()):
    """-i(h rho - rho h^dag) + sum_C C rho C^dag as a dense matrix on row-major vec.

    vec(A rho B) = kron(A, B.T) vec(rho), so entry (ab, cd) is A[a, c]
    B[d, b]; each term is added in place by strided slices of one 4-index
    view, -i h first, then i conj(h), then each C.
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


def liouvillian_pieces(config, drive):
    """The dense complex generator L of the operators of ``driven._operators``
    (the cell's generator at zero detuning), and its detuning diagonal."""
    h, jumps, detuning_diag = _operators(config, drive)
    return lindblad_super(h, jumps), detuning_diag


def real_generator(liouvillian, dim):
    """Q^dag L Q of a dense piece, Q the basis of ``driven._hermitian_coordinates``.

    The columns of L Q and then the rows of Q^dag (L Q) are sums and
    differences of gathered columns and rows, scaled by sqrt(1/2).
    """
    diag, upper, lower = _hermitian_coordinates(dim)
    half = np.sqrt(0.5)

    def columns(rows):
        """The rows ``rows`` of L Q."""
        block = liouvillian[rows]
        upper_cols, lower_cols = block[:, upper], block[:, lower]
        return np.concatenate(
            [
                block[:, diag],
                half * (upper_cols + lower_cols),
                1j * half * (upper_cols - lower_cols),
            ],
            axis=1,
        )

    upper_rows, lower_rows = columns(upper), columns(lower)
    return np.concatenate(
        [
            columns(diag).real,
            half * (upper_rows + lower_rows).real,
            half * (upper_rows - lower_rows).imag,
        ]
    )


def real_detuning(detuning_diag, dim):
    """The detuning piece in real coordinates, dense: with i*theta the diagonal
    entry of upper pair p, it maps (Re_p, Im_p) to (-theta*Im_p, theta*Re_p)."""
    _, upper, _ = _hermitian_coordinates(dim)
    theta = detuning_diag[upper].imag
    re = dim + np.arange(len(upper))
    out = np.zeros((dim * dim, dim * dim))
    out[re + len(upper), re] = theta
    out[re, re + len(upper)] = -theta
    return out


def steady_density(n, phi, omega, delta, gamma=1.0):
    """Steady state of ``waveguide_liouvillian``: its kernel vector, trace one.

    The kernel vector is the last right singular vector of the generator.
    """
    dim = 2**n
    _, _, vh = np.linalg.svd(waveguide_liouvillian(n, phi, omega, delta, gamma))
    rho = vh[-1].conj().reshape(dim, dim, order="F")
    return rho / np.trace(rho)


def hermitian_vectors(x):
    """Row-major vecs of the Hermitian matrices of real coordinates x[:, i], in complex arithmetic.

    The diagonal is x[:dim], an upper entry ab is sqrt(1/2)*(re + 1j*im) of
    its coordinates (``driven._hermitian_coordinates``) and the lower entry
    ba its conjugate: the formula ``driven._vectors`` stood on before it
    filled the real and imaginary parts without complex temporaries.
    """
    dim = int(round(np.sqrt(len(x))))
    rows, cols = np.triu_indices(dim, 1)
    diag, upper, lower = np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows
    entries = np.sqrt(0.5) * (x[dim : dim + len(upper)] + 1j * x[dim + len(upper) :]).T
    vec = np.empty((x.shape[1], dim * dim), dtype=complex)
    vec[:, diag] = x[:dim].T
    vec[:, upper] = entries
    vec[:, lower] = entries.conj()
    return vec


def complex_residual(x, l0, detuning_diag, grid):
    """max |entry| of L(delta) vec rho, with the complex generator, at every point.

    rho is the trace-one Hermitian matrix of the real coordinates x[:, i]
    (``hermitian_vectors``) and L(delta) = l0 + delta*diag(detuning_diag)
    acts on its row-major vec: the residual check of the driven solver
    before it moved to real coordinates.
    """
    dim = int(round(np.sqrt(len(x))))
    vec = hermitian_vectors(x)
    vec /= x[:dim].sum(axis=0)[:, None]
    return np.abs(vec @ l0.T + detuning_diag * vec * grid[:, None]).max(axis=1)


def incoherent_fraction(n, phi, omega, delta, gamma=1.0):
    """Emitted incoherent flux over the input flux omega^2/gamma.

    The steady state is ``steady_density``; the incoherent flux is
    sum_nm Gamma_nm (<s+_n s-_m> - <s+_n><s-_m>) with Gamma_nm =
    2*gamma*cos(phi*(n-m)), the photon flux into both output channels minus
    its coherent part.
    """
    rho = steady_density(n, phi, omega, delta, gamma)
    ops = lowering_ops_full(n)
    coherences = np.array([np.trace(rho @ op) for op in ops])
    pairs = np.array([[np.trace(rho @ a.conj().T @ b) for b in ops] for a in ops])
    sites = np.arange(n)
    kernel = 2.0 * gamma * np.cos(phi * (sites[:, None] - sites[None, :]))
    flux = np.sum(kernel * (pairs - np.outer(coherences.conj(), coherences))).real
    return flux / (omega**2 / gamma)


def hole_amplitudes(amplitudes, subsets, n):
    """Hole-picture amplitudes by a per-state loop over complements.

    The amplitude on subset S moves to the complement of S among the
    lexicographically ordered (n - k)-subsets, times the parity of the
    permutation that sorts (S, complement): (-1)^sum_i (s_i - i).
    """
    k = len(subsets[0])
    holes = list(itertools.combinations(range(n), n - k))
    index = {subset: i for i, subset in enumerate(holes)}
    out = np.zeros(len(holes), dtype=complex)
    full = frozenset(range(n))
    for amp, subset in zip(amplitudes, subsets):
        comp = tuple(sorted(full - set(subset)))
        inversions = sum(site - i for i, site in enumerate(subset))
        sign = -1.0 if inversions % 2 else 1.0
        out[index[comp]] = sign * amp
    return out


def symmetry_blocks_by_gather(matrix, basis):
    """Symmetry blocks of a dense sector matrix, gathered from it by index.

    The dense reference for ``spectrum._symmetry_blocks``: over the orbit
    representatives r of ``spectrum._symmetry_group``, with stabilizer size
    |S|, block[i, j] = sum_g chi(g) H[r_i, g r_j] / sqrt(|S_i||S_j|), one
    block per character that is trivial on every kept stabilizer.  Yields
    (block, lifts) with lifts (g r, chi(g)*sqrt(|S|/|G|)).
    """
    elements, characters = _symmetry_group(basis)
    images = np.array(elements)
    reps = np.flatnonzero((images >= images[0]).all(axis=0))
    fixed = images[:, reps] == reps
    for chi in characters:
        keep = ~fixed[np.array(chi) < 0].any(axis=0)
        rows, stabilizer = reps[keep], fixed[:, keep].sum(axis=0)
        if not len(rows):
            continue
        block = matrix[np.ix_(rows, rows)]
        for g, sign in zip(elements[1:], chi[1:]):
            if sign > 0:
                block += matrix[np.ix_(rows, g[rows])]
            else:
                block -= matrix[np.ix_(rows, g[rows])]
        weight = np.sqrt(1.0 / stabilizer)
        block *= weight[:, None]
        block *= weight
        scale = np.sqrt(stabilizer / len(elements))
        yield block, [(g[rows], sign * scale) for g, sign in zip(elements, chi)]


def sector_hamiltonian(basis, matrix):
    """The ``SectorHamiltonian`` of a dense sector matrix: its nonzero
    entries, listed row-major."""
    row, col = np.nonzero(matrix)
    return SectorHamiltonian(basis=basis, row=row, col=col, value=matrix[row, col])


def dense_min_decay_rate(config, k):
    """Smallest per-excitation decay rate of sector k, from one dense
    eigensolve of the whole sector matrix (no symmetry blocks, no
    complement route)."""
    h = build_hamiltonian(config, enumerate_sector(config.n_atoms, k)).matrix
    return float(-np.linalg.eigvals(h).imag.max() / k)
