"""Parameter sweeps behind the command-line interface.

A scan is described by a YAML file (key-value sections); every mode expands
into independent grid cells whose results are assembled in grid order, so
output files are byte-identical for any worker count.  Data files carry no
timestamps; run metadata lives in a separate manifest.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from . import BLAS_THREAD_VARS, __version__
from .correlations import correlation_matrix, dimerization_score
from .driven import MAX_DRIVEN_ATOMS, DriveConfig, incoherent_spectrum, resonance_grid
from .errors import ConfigError, DomainError, NumericalError
from .hosvd import HosvdResult, hosvd, to_symmetric_tensor
from .lattice import ArrayConfig
from .serialize import fmt_float, write_csv, write_json
from .spectrum import min_decay_rate, most_subradiant_state

_DRIVEN_MODES = ("driven-map", "driven-spectrum")
# keyword types of the refined detuning grid, passed on to ``resonance_grid``
_RESONANCE_GRID_KEYS = {
    "start": float, "stop": float, "coarse": int, "refine_points": int, "refine_span": float,
}
# the keys a config may hold, at the top level and in each section
_TOP_KEYS = ("mode", "array", "grid", "drive", "output", "workers")
_SECTION_KEYS = {
    "array": ("n_atoms",),
    "grid": ("d_over_lambda", "k", "n_atoms"),
    "drive": ("power", "detuning", "phase_on_drive"),
    "output": ("directory",),
}


@dataclass
class ScanSpec:
    mode: str
    d_values: list[float]
    n_values: list[int]
    k_values: list[int]
    powers: list[float]
    detuning: list[float] | dict | None  # grid points, or resonance_grid keywords
    phase_on_drive: bool
    out_dir: Path
    workers: int = 1
    raw_config: dict = field(default_factory=dict)


@dataclass
class CellStatus:
    index: int
    params: dict
    status: str  # ok | skipped | error
    error: str | None = None
    health: dict | None = None


@dataclass
class RunManifest:
    """Run metadata; the field order is the key order of ``run_manifest.json``."""

    mode: str
    version: str
    workers: int
    blas_threads: dict[str, str | None]  # each BLAS thread variable as the scan saw it
    wall_time_s: float
    config: dict
    outputs: list[str]
    cells: list[CellStatus]
    success: bool


# ---------------------------------------------------------------- validation


def _expect(mapping, key, kind, location, default=None, required=False):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError("missing required key", location=f"{location}.{key}")
        return default
    value = mapping[key]
    # bool is an int subtype: `true` is no number for an int or float key
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"expected {kind.__name__}, got bool", location=f"{location}.{key}")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(
            f"expected {kind.__name__}, got {type(value).__name__}",
            location=f"{location}.{key}",
        )
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}", location=f"{location}.{key}")
    return value


def _reject_unknown(mapping, allowed, location):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key; allowed: {', '.join(allowed)}", location=f"{location}.{key}"
            )


def _section(data: dict, name: str) -> dict:
    """The mapping ``data[name]`` (empty if absent), holding only its known keys."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError("expected a mapping", location=name)
    _reject_unknown(section, _SECTION_KEYS[name], name)
    return section


def _number_list(mapping, key, location, integer=False, required=False, distinct=True):
    """The numbers of a list, a {start, stop, count} range or a single value.

    With ``distinct`` a value that repeats an earlier one is an error: a grid
    cell would be solved and written twice.
    """
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError("missing required grid", location=f"{location}.{key}")
        return []
    value = mapping[key]
    if isinstance(value, dict):
        _reject_unknown(value, ("start", "stop", "count"), f"{location}.{key}")
        start = _expect(value, "start", float, f"{location}.{key}", required=True)
        stop = _expect(value, "stop", float, f"{location}.{key}", required=True)
        count = _expect(value, "count", int, f"{location}.{key}", required=True)
        if count < 1:
            raise ConfigError("count must be >= 1", location=f"{location}.{key}.count")
        values = np.linspace(start, stop, count).tolist()
    elif isinstance(value, list):
        values = value
    else:
        values = [value]
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError("expected a finite number", location=f"{location}.{key}[{i}]")
        if integer and v != int(v):
            raise ConfigError(f"expected an integer, got {v}", location=f"{location}.{key}[{i}]")
        number = int(v) if integer else float(v)
        if distinct and number in out:
            raise ConfigError(f"repeats the value {number}", location=f"{location}.{key}[{i}]")
        out.append(number)
    if not out:
        raise ConfigError("grid must not be empty", location=f"{location}.{key}")
    return out


def _detuning_grid(drive: dict) -> list[float] | dict:
    """Detuning points of a list or {start, stop, count}, else resonance_grid keywords."""
    value, location = drive.get("detuning"), "drive.detuning"
    if not isinstance(value, (dict, list)):
        raise ConfigError(
            "missing detuning grid (list or {start, stop, count} or "
            "{start, stop, coarse, refine_points, refine_span})",
            location=location,
        )
    if isinstance(value, list) or "count" in value:
        grid = _number_list(drive, "detuning", "drive", distinct=False)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("detuning grid must be strictly increasing", location=location)
        return grid
    _reject_unknown(value, tuple(_RESONANCE_GRID_KEYS), location)
    keywords = {
        key: _expect(value, key, kind, location, required=key in ("start", "stop"))
        for key, kind in _RESONANCE_GRID_KEYS.items()
    }
    keywords = {key: v for key, v in keywords.items() if v is not None}
    if not keywords["stop"] > keywords["start"]:
        raise ConfigError("stop must exceed start", location=f"{location}.stop")
    for key in ("coarse", "refine_points"):
        if keywords.get(key, 1) < 1:
            raise ConfigError(f"{key} must be >= 1", location=f"{location}.{key}")
    return keywords


def parse_config_dict(data: dict, source: str = "config") -> ScanSpec:
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", location=source)
    _reject_unknown(data, _TOP_KEYS, source)
    mode = _expect(data, "mode", str, source, required=True)
    if mode not in MODES:
        raise ConfigError(
            f"unknown mode {mode!r}; allowed modes: {', '.join(MODES)}", location="mode"
        )
    array = _section(data, "array")
    if mode == "size-map" and "n_atoms" in array:
        raise ConfigError("size-map takes its sizes from grid.n_atoms", location="array.n_atoms")
    n_atoms = _expect(array, "n_atoms", int, "array", required=(mode != "size-map"))

    grid = _section(data, "grid")
    if mode != "size-map" and "n_atoms" in grid:
        raise ConfigError(
            f"only size-map sweeps N; mode {mode} reads array.n_atoms", location="grid.n_atoms"
        )
    d_values = _number_list(grid, "d_over_lambda", "grid", required=True)
    for i, d in enumerate(d_values):
        if d < 0:
            raise ConfigError("d/lambda0 must be >= 0", location=f"grid.d_over_lambda[{i}]")
    single_d_modes = ("decay-vs-k", "size-map", "hosvd-analyze", "correlations", "driven-spectrum")
    if mode in single_d_modes and len(d_values) != 1:
        raise ConfigError(
            f"mode {mode} needs exactly one d_over_lambda value", location="grid.d_over_lambda"
        )

    k_values = _number_list(grid, "k", "grid", integer=True, required=mode not in _DRIVEN_MODES)
    if mode in _DRIVEN_MODES and k_values:
        raise ConfigError(f"mode {mode} sweeps drive.power and reads no k", location="grid.k")
    if mode == "size-map":
        n_values = _number_list(grid, "n_atoms", "grid", integer=True, required=True)
    else:
        n_values = [n_atoms]
    if min(n_values) < 1:
        where = "grid.n_atoms" if mode == "size-map" else "array.n_atoms"
        raise ConfigError("n_atoms must be >= 1", location=where)
    for i, k in enumerate(k_values):
        if k < 1:
            raise ConfigError("k must be >= 1", location=f"grid.k[{i}]")
        if n_atoms is not None and k > n_atoms:
            raise ConfigError(
                f"k={k} exceeds n_atoms={n_atoms}", location=f"grid.k[{i}]"
            )

    drive = _section(data, "drive")
    powers = _number_list(drive, "power", "drive", required=(mode in _DRIVEN_MODES))
    for i, p in enumerate(powers):
        if p < 0:
            raise ConfigError("power must be >= 0", location=f"drive.power[{i}]")
    phase_on_drive = _expect(drive, "phase_on_drive", bool, "drive", default=True)
    detuning = None
    if mode in _DRIVEN_MODES:
        detuning = _detuning_grid(drive)
        if n_atoms > MAX_DRIVEN_ATOMS:
            raise ConfigError(
                f"driven modes need n_atoms <= {MAX_DRIVEN_ATOMS}", location="array.n_atoms"
            )
    elif drive:
        raise ConfigError(
            f"mode {mode} reads no drive section", location=f"drive.{next(iter(drive))}"
        )

    output = _section(data, "output")
    out_dir = Path(_expect(output, "directory", str, "output", default="out"))
    workers = _expect(data, "workers", int, source, default=1)
    if workers < 1:
        raise ConfigError("workers must be >= 1", location="workers")

    return ScanSpec(
        mode=mode,
        d_values=d_values,
        n_values=n_values,
        k_values=k_values,
        powers=powers,
        detuning=detuning,
        phase_on_drive=phase_on_drive,
        out_dir=out_dir,
        workers=workers,
        raw_config=data,
    )


def validate_config(path) -> ScanSpec:
    """Parse and invariant-check a scan configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("file does not exist", location=str(path))
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ConfigError(f"parse error: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"parse error: {exc}", location=str(path)) from exc
    return parse_config_dict(data, source=str(path))


# ------------------------------------------------------------------ workers
# module-level functions with picklable arguments so process pools can run them


def _run_cell(task):
    """Run one grid cell; a domain or numerical failure becomes its error status.

    ``task`` is (worker name, worker arguments); the worker is looked up when
    the cell runs and returns (status, payload) or (status, payload, health).
    """
    worker, args = task
    try:
        return globals()[worker](args)
    except (DomainError, NumericalError) as exc:
        return ("error", str(exc))


def _cell_min_gamma(args):
    d, n, k = args
    if k > n:
        return ("skipped", None)
    return ("ok", min_decay_rate(ArrayConfig.from_period(n, d), k))


def _subradiant_state(args):
    """The most subradiant state of a sector cell."""
    d, n, k = args
    return most_subradiant_state(ArrayConfig.from_period(n, d), k)


def _subradiant_hosvd(args) -> HosvdResult:
    return hosvd(to_symmetric_tensor(_subradiant_state(args)))


def _cell_hosvd(args):
    return ("ok", _subradiant_hosvd(args).to_json_dict())


def _cell_entropy(args):
    return ("ok", _subradiant_hosvd(args).entropy)


def _cell_correlations(args):
    corr = correlation_matrix(_subradiant_state(args))
    n = corr.n_atoms
    scores = None
    if n % 2 == 0:  # each dimer registration that has a pair; at N = 2 only offset 0
        scores = [dimerization_score(corr, offset) for offset in (0, 1) if offset < n - 1]
    return ("ok", (list(corr.rows()), scores))


def _cell_driven(args):
    d, n, power, detuning, phase_on_drive, want_spectrum = args
    config = ArrayConfig.from_period(n, d)
    grid = resonance_grid(config, **detuning) if isinstance(detuning, dict) else detuning
    drive = DriveConfig(power=power, detuning_grid=grid, phase_on_drive=phase_on_drive)
    spectrum = incoherent_spectrum(config, drive)
    if want_spectrum:
        rows = [
            (
                float(delta),
                spectrum.reflection[i].real,
                spectrum.reflection[i].imag,
                spectrum.transmission[i].real,
                spectrum.transmission[i].imag,
                float(spectrum.incoherent[i]),
            )
            for i, delta in enumerate(spectrum.detunings)
        ]
        return ("ok", rows, spectrum.health)
    return ("ok", spectrum.narrowest_fwhm, spectrum.health)


def _map_cells(fn, cells, workers):
    if workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells, chunksize=1))


# -------------------------------------------------------------------- modes


@dataclass(frozen=True)
class _Mode:
    """What a scan mode computes per grid cell and how it writes results.

    ``worker`` names a module-level cell function, looked up by
    :func:`_run_cell` when each cell runs.  A mode either gathers one row per
    ok cell into a single table (``stem``, ``header``, ``row``) or writes one
    file per ok cell (``write``, which may add entries to the cell's params).
    """

    worker: str
    stem: str | None = None
    header: list[str] | None = None
    row: Callable[[dict, Any], tuple] | None = None
    write: Callable[[ScanSpec, dict, Any], Path] | None = None


def _write_table(spec: ScanSpec, stem: str, header: list[str], rows) -> Path:
    path = spec.out_dir / f"{stem}.csv"
    write_csv(path, header, rows)
    return path


def _write_hosvd(spec: ScanSpec, params: dict, payload: dict) -> Path:
    path = spec.out_dir / f"hosvd_k{params['k']}.json"
    write_json(path, payload)
    return path


def _write_correlations(spec: ScanSpec, params: dict, payload) -> Path:
    rows, scores = payload
    if scores is not None:
        params["dimerization_score"] = float(fmt_float(max(scores)))
    return _write_table(spec, f"correlations_k{params['k']}", ["m", "n", "re", "im"], rows)


def _write_spectrum(spec: ScanSpec, params: dict, rows) -> Path:
    header = ["detuning", "re_r", "im_r", "re_t", "im_t", "incoherent"]
    return _write_table(spec, f"spectrum_p{params['index']:02d}", header, rows)


def _decay_row(params: dict, min_gamma: float) -> tuple:
    return (params["d_over_lambda"], params["k"], params["n_atoms"], min_gamma)


def _fwhm_row(params: dict, fwhm: float | None) -> tuple:
    found = fwhm is not None
    return (params["power"], params["d_over_lambda"], fwhm if found else math.nan, found)


_DECAY_HEADER = ["d_over_lambda", "k", "n_atoms", "min_gamma"]
_MODE_TABLE = {
    "decay-map": _Mode("_cell_min_gamma", "decay_map", _DECAY_HEADER, _decay_row),
    "decay-vs-k": _Mode("_cell_min_gamma", "decay_vs_k", _DECAY_HEADER, _decay_row),
    "size-map": _Mode("_cell_min_gamma", "size_map", _DECAY_HEADER, _decay_row),
    "hosvd-analyze": _Mode("_cell_hosvd", write=_write_hosvd),
    "entropy-map": _Mode(
        "_cell_entropy",
        "entropy_map",
        ["d_over_lambda", "k", "entropy"],
        lambda params, entropy: (params["d_over_lambda"], params["k"], entropy),
    ),
    "correlations": _Mode("_cell_correlations", write=_write_correlations),
    "driven-map": _Mode(
        "_cell_driven", "driven_map", ["power", "d_over_lambda", "narrowest_fwhm", "found"], _fwhm_row
    ),
    "driven-spectrum": _Mode("_cell_driven", write=_write_spectrum),
}
MODES = tuple(_MODE_TABLE)


def _cells(spec: ScanSpec) -> list[tuple[dict, tuple]]:
    """(params, worker arguments) of every grid cell, in output order.

    Sector modes sweep (d, N, k); driven modes sweep (power, d), and
    driven-spectrum numbers its cells, one spectrum file each.
    """
    if spec.mode in _DRIVEN_MODES:
        spectrum = spec.mode == "driven-spectrum"
        drive = (spec.detuning, spec.phase_on_drive, spectrum)
        return [
            (
                {"power": p, "d_over_lambda": d, **({"index": i} if spectrum else {})},
                (d, spec.n_values[0], p, *drive),
            )
            for i, (p, d) in enumerate(itertools.product(spec.powers, spec.d_values))
        ]
    return [
        ({"d_over_lambda": d, "n_atoms": n, "k": k}, (d, n, k))
        for d, n, k in itertools.product(spec.d_values, spec.n_values, spec.k_values)
    ]


def _evaluation_order(spec: ScanSpec, cells) -> list[int]:
    """The order in which the cells of ``_cells`` are solved.

    Driven cells are grouped by period, in the order the d values first
    appear and in output order within a period, since a process caches the
    generators of one period only (``driven._generators``).  Sector cells
    are solved in output order.
    """
    if spec.mode not in _DRIVEN_MODES:
        return list(range(len(cells)))
    period = {d: i for i, d in enumerate(spec.d_values)}
    return sorted(range(len(cells)), key=lambda i: period[cells[i][0]["d_over_lambda"]])


def run_scan(spec: ScanSpec) -> RunManifest:
    """Execute a validated scan; write data files and a run manifest.

    An output directory that cannot be created raises ``ConfigError`` at
    ``output.directory``, before any cell runs.
    """
    start = time.perf_counter()
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory: {exc}", location="output.directory") from exc
    mode = _MODE_TABLE[spec.mode]
    cells = _cells(spec)
    order = _evaluation_order(spec, cells)
    done = _map_cells(_run_cell, [(mode.worker, cells[i][1]) for i in order], spec.workers)
    results = [result for _, result in sorted(zip(order, done))]
    outputs, rows, statuses = [], [], []
    for i, ((params, _), (status, payload, *health)) in enumerate(zip(cells, results)):
        if status == "ok":
            if mode.write:
                outputs.append(mode.write(spec, params, payload))
            else:
                rows.append(mode.row(params, payload))
        statuses.append(
            CellStatus(
                index=i,
                params=params,
                status=status,
                error=payload if status == "error" else None,
                health=health[0] if health else None,
            )
        )
    if mode.row:
        outputs.append(_write_table(spec, mode.stem, mode.header, rows))
    manifest = RunManifest(
        mode=spec.mode,
        version=__version__,
        workers=spec.workers,
        blas_threads={var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        wall_time_s=time.perf_counter() - start,
        config=spec.raw_config,
        outputs=[str(p) for p in outputs],
        cells=statuses,
        success=all(c.status != "error" for c in statuses),
    )
    record = asdict(manifest)
    record["cells"] = [{k: v for k, v in cell.items() if v is not None} for cell in record["cells"]]
    write_json(spec.out_dir / "run_manifest.json", record)
    return manifest
