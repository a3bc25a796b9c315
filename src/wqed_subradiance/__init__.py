"""Many-body subradiance of waveguide-coupled atom arrays.

Excitation-sector spectra of the effective non-Hermitian Hamiltonian,
multilinear-SVD entanglement analysis of eigenstates, spin-spin
correlations, and driven-dissipative scattering spectra, plus a scan CLI.
"""

import os
import sys

__version__ = "0.1.0"

# Each sector eigensolve is a few hundred to ~1000 states, where a threaded
# BLAS saves little wall time but spin-waits on a second core and
# oversubscribes the process pool; scans get their parallelism from cells
# (``workers``). So pin BLAS to one thread unless the user set a thread count
# or numpy was loaded first (then the setting would come too late to apply).
# Set before the submodules load numpy; pool workers inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .correlations import CorrelationMatrix, correlation_matrix, dimerization_score
from .driven import (
    DriveConfig,
    ScatteringSpectrum,
    coherent_amplitudes,
    incoherent_spectrum,
    narrowest_linewidth,
    occupations,
    resonance_grid,
    steady_state,
    steady_states,
    transfer_matrix_amplitudes,
)
from .errors import ConfigError, DomainError, NumericalError
from .hosvd import (
    HosvdResult,
    SymmetricWavefunction,
    ansatz_overlap,
    dimerized_profiles,
    entanglement_entropy,
    fermionic_profiles,
    hole_transform,
    hosvd,
    to_symmetric_tensor,
)
from .lattice import (
    ArrayConfig,
    SectorBasis,
    SectorHamiltonian,
    build_hamiltonian,
    enumerate_sector,
)
from .scan import RunManifest, ScanSpec, run_scan, validate_config
from .spectrum import (
    EigenState,
    ScalingFit,
    SumRuleResult,
    darkness_bound,
    diagonalize,
    diagonalize_sector,
    fermionic_sum_rule,
    min_decay_rate,
    most_subradiant_state,
    scaling_fit,
    sector_decay_rates,
)

__all__ = [
    "ArrayConfig",
    "ConfigError",
    "CorrelationMatrix",
    "DomainError",
    "DriveConfig",
    "EigenState",
    "HosvdResult",
    "NumericalError",
    "RunManifest",
    "ScalingFit",
    "ScanSpec",
    "ScatteringSpectrum",
    "SectorBasis",
    "SectorHamiltonian",
    "SumRuleResult",
    "SymmetricWavefunction",
    "ansatz_overlap",
    "build_hamiltonian",
    "coherent_amplitudes",
    "correlation_matrix",
    "darkness_bound",
    "diagonalize",
    "diagonalize_sector",
    "dimerization_score",
    "dimerized_profiles",
    "entanglement_entropy",
    "enumerate_sector",
    "fermionic_profiles",
    "fermionic_sum_rule",
    "hole_transform",
    "hosvd",
    "incoherent_spectrum",
    "min_decay_rate",
    "most_subradiant_state",
    "narrowest_linewidth",
    "occupations",
    "resonance_grid",
    "run_scan",
    "scaling_fit",
    "sector_decay_rates",
    "steady_state",
    "steady_states",
    "to_symmetric_tensor",
    "transfer_matrix_amplitudes",
    "validate_config",
]
