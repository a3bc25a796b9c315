"""Many-body subradiance of waveguide-coupled atom arrays.

Excitation-sector spectra of the effective non-Hermitian Hamiltonian,
multilinear-SVD entanglement analysis of eigenstates, spin-spin
correlations, and driven-dissipative scattering spectra, plus a scan CLI.
"""

__version__ = "0.1.0"

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
