"""Many-body subradiance of waveguide-coupled atom arrays.

Excitation-sector spectra of the effective non-Hermitian Hamiltonian,
multilinear-SVD entanglement analysis of eigenstates, spin-spin
correlations, and driven-dissipative scattering spectra, plus a scan CLI.
"""

import importlib
import os
import sys
import types

__version__ = "0.1.0"

# Each sector eigensolve is a few hundred to ~1000 states, where a threaded
# BLAS saves little wall time but spin-waits on a second core and
# oversubscribes the process pool; scans get their parallelism from cells
# (``workers``). So pin BLAS to one thread unless the user set a thread count
# or numpy was loaded first (then the setting would come too late to apply).
# Set at package import, before any compute module loads numpy (on the first
# use of one of its names, or when ``run_scan`` starts); pool workers inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

# the master-equation solver's cap on N (``driven``); here so that config
# checking knows it without loading numpy
MAX_DRIVEN_ATOMS = 6

from .errors import ConfigError, DomainError, NumericalError
from .scan import RunManifest, ScanSpec, run_scan, validate_config

# every other public name by its module, which loads (and with it numpy) on
# the first use of one of its names
_LAZY = {
    "correlations": ("CorrelationMatrix", "correlation_matrix", "dimerization_score"),
    "driven": (
        "DriveConfig",
        "ScatteringSpectrum",
        "coherent_amplitudes",
        "incoherent_spectrum",
        "narrowest_linewidth",
        "resonance_grid",
        "steady_state",
        "steady_states",
        "transfer_matrix_amplitudes",
    ),
    "hosvd": (
        "HosvdResult",
        "SymmetricWavefunction",
        "ansatz_overlap",
        "dimerized_profiles",
        "fermionic_profiles",
        "hole_transform",
        "hosvd",
        "to_symmetric_tensor",
    ),
    "lattice": (
        "ArrayConfig",
        "SectorBasis",
        "SectorHamiltonian",
        "build_hamiltonian",
        "enumerate_sector",
    ),
    "spectrum": (
        "EigenState",
        "diagonalize",
        "diagonalize_sector",
        "min_decay_rate",
        "most_subradiant_state",
        "sector_decay_rates",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ = sorted(
    [
        "ConfigError",
        "DomainError",
        "NumericalError",
        "RunManifest",
        "ScanSpec",
        "run_scan",
        "validate_config",
        *_HOME,
    ]
)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package, whose name ``hosvd`` stays the function once its module loads."""

    def __setattr__(self, name, value):
        # the import system binds each submodule it loads on the package
        if name == "hosvd" and isinstance(value, types.ModuleType):
            value = value.hosvd
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
