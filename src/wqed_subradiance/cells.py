"""The grid-cell functions of the scan modes, and the compute layers they call.

``scan`` imports this module when a scan starts, before its process pool
forks, so the workers inherit numpy and the sector layers already loaded;
config checking never imports it.  The driven layer loads on the first
driven cell a process runs, so a sector scan never loads it, and each
worker of a parallel driven scan loads it once.

Every cell returns what gets written, as (status, payload[, extra]): an ok
cell's payload is its row's computed values in a table mode and the whole
file (CSV rows or a JSON dict) in a per-cell mode; ``extra`` is what the
cell adds to its manifest entry (``params`` entries, the driven ``health``).
"""

from __future__ import annotations

import math

from .correlations import correlation_matrix, dimerization_score
from .errors import DomainError, NumericalError
from .hosvd import HosvdResult, hosvd, to_symmetric_tensor
from .lattice import ArrayConfig
from .serialize import fmt_float
from .spectrum import min_decay_rate, most_subradiant_state


def _run_cell(task):
    """Run one grid cell; whatever it raises becomes its error status.

    ``task`` is (worker name, cell), the cell being ``ScanSpec.params``
    overlaid by its params, each key of the mode by the last part of its
    path (``n_atoms``, ``k``, ``detuning``); the worker is looked up then.
    A domain or numerical failure is recorded by its message; any other
    exception, a ``MemoryError`` say, by "<type name>: <message>", with its
    traceback on stderr, so one failing cell does not end the scan and a
    programming error keeps its location.
    """
    worker, cell = task
    try:
        return globals()[worker](cell)
    except (DomainError, NumericalError) as exc:
        return ("error", str(exc))
    except Exception as exc:
        import traceback  # not loaded by a scan that has no such failure

        traceback.print_exc()
        return ("error", f"{type(exc).__name__}: {exc}")


def _array(cell) -> ArrayConfig:
    return ArrayConfig.from_period(cell["n_atoms"], cell["d_over_lambda"])


def _cell_min_gamma(cell):
    if cell["k"] > cell["n_atoms"]:
        return ("skipped", None)
    return ("ok", (min_decay_rate(_array(cell), cell["k"]),))


def _subradiant_hosvd(cell) -> HosvdResult:
    return hosvd(to_symmetric_tensor(most_subradiant_state(_array(cell), cell["k"])))


def _cell_hosvd(cell):
    return ("ok", _subradiant_hosvd(cell).to_json_dict())


def _cell_entropy(cell):
    return ("ok", (_subradiant_hosvd(cell).entropy,))


def _cell_correlations(cell):
    corr = correlation_matrix(most_subradiant_state(_array(cell), cell["k"]))
    rows, n = list(corr.rows()), corr.n_atoms
    if n % 2:
        return ("ok", rows)
    # the better of the dimer registrations that have a pair; at N = 2 only offset 0
    score = max(dimerization_score(corr, offset) for offset in (0, 1) if offset < n - 1)
    return ("ok", rows, {"params": {"dimerization_score": float(fmt_float(score))}})


def _spectrum(cell):
    from .driven import DriveConfig, incoherent_spectrum, resonance_grid

    config = _array(cell)
    detuning = cell["detuning"]
    grid = resonance_grid(config, **detuning) if isinstance(detuning, dict) else detuning
    drive = DriveConfig(
        power=cell["power"], detuning_grid=grid, phase_on_drive=cell["phase_on_drive"]
    )
    return incoherent_spectrum(config, drive)


def _health(spectrum) -> dict:
    """The solver health of a driven cell, ``v_condition`` at the data files'
    12 significant digits: its last digits follow the BLAS thread count."""
    condition = spectrum.health["v_condition"]
    rounded = None if condition is None else float(fmt_float(condition))
    return {"health": {**spectrum.health, "v_condition": rounded}}


def _cell_driven_map(cell):
    spectrum = _spectrum(cell)
    fwhm = spectrum.narrowest_fwhm
    found = fwhm is not None
    return ("ok", (fwhm if found else math.nan, found), _health(spectrum))


def _cell_driven_spectrum(cell):
    spectrum = _spectrum(cell)
    r, t = spectrum.reflection, spectrum.transmission
    columns = (spectrum.detunings, r.real, r.imag, t.real, t.imag, spectrum.incoherent)
    return ("ok", list(zip(*(c.tolist() for c in columns))), _health(spectrum))
