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
from typing import Any, Callable, NamedTuple

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


class _Key(NamedTuple):
    """How a config key is checked, whatever the mode."""

    kind: type
    grid: bool = False  # a list, {start, stop, count} range or single value of distinct numbers
    low: float | None = None  # lower bound of a number
    default: Any = None  # None: required by each mode that reads it


# every config key by its path; drive.detuning is a grid or the keywords under
# it, passed on to ``resonance_grid`` (see ``_detuning_grid``)
_KEYS = {
    "mode": _Key(str),
    "workers": _Key(int, low=1, default=1),
    "array.n_atoms": _Key(int, low=1),
    "grid.d_over_lambda": _Key(float, grid=True, low=0),
    "grid.k": _Key(int, grid=True, low=1),
    "grid.n_atoms": _Key(int, grid=True, low=1),
    "drive.power": _Key(float, grid=True, low=0),
    "drive.detuning": _Key(dict),
    "drive.detuning.start": _Key(float),
    "drive.detuning.stop": _Key(float),
    "drive.detuning.coarse": _Key(int, low=1),
    "drive.detuning.refine_points": _Key(int, low=1),
    "drive.detuning.refine_span": _Key(float, low=0),
    "drive.phase_on_drive": _Key(bool, default=True),
    "output.directory": _Key(str, default="out"),
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


def _reject_unknown(mapping, allowed, location):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key; allowed: {', '.join(allowed)}", location=f"{location}.{key}"
            )


def _names(prefix: str) -> tuple[str, ...]:
    """The names of the config keys right under ``prefix`` ("" for the top level)."""
    names = (path[len(prefix):].split(".")[0] for path in _KEYS if path.startswith(prefix))
    return tuple(dict.fromkeys(names))


def _required(mapping, key, location):
    if mapping.get(key) is None:
        raise ConfigError("missing required key", location=f"{location}.{key}")
    return mapping[key]


def _number(value, kind, low, location):
    """``value`` as a finite number of type ``kind`` (int or float), at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", location=location)
    if kind is int and value != int(value):
        raise ConfigError(f"expected an integer, got {value}", location=location)
    if low is not None and value < low:
        raise ConfigError(f"must be >= {low}", location=location)
    return kind(value)


def _grid(value, kind, low, location, distinct=True) -> list:
    """The numbers of a list, a {start, stop, count} range or a single value.

    With ``distinct`` a value that repeats an earlier one is an error: a grid
    cell would be solved and written twice.
    """
    if isinstance(value, dict):
        _reject_unknown(value, ("start", "stop", "count"), location)
        start, stop = (
            _number(_required(value, key, location), float, None, f"{location}.{key}")
            for key in ("start", "stop")
        )
        count = _number(_required(value, "count", location), int, 1, f"{location}.count")
        value = np.linspace(start, stop, count).tolist()
    out = []
    for i, v in enumerate(value if isinstance(value, list) else [value]):
        number = _number(v, kind, low, f"{location}[{i}]")
        if distinct and number in out:
            raise ConfigError(f"repeats the value {number}", location=f"{location}[{i}]")
        out.append(number)
    if not out:
        raise ConfigError("grid must not be empty", location=location)
    return out


def _detuning_grid(value) -> list[float] | dict:
    """Detuning points of a list or {start, stop, count}, else resonance_grid keywords."""
    location = "drive.detuning"
    if isinstance(value, list) or isinstance(value, dict) and "count" in value:
        grid = _grid(value, float, None, location, distinct=False)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("detuning grid must be strictly increasing", location=location)
        return grid
    if not isinstance(value, dict):
        raise ConfigError("expected a list or a mapping", location=location)
    _reject_unknown(value, _names(f"{location}."), location)
    for key in ("start", "stop"):
        _required(value, key, location)
    keywords = {key: _checked(f"{location}.{key}", v) for key, v in value.items() if v is not None}
    if not keywords["stop"] > keywords["start"]:
        raise ConfigError("stop must exceed start", location=f"{location}.stop")
    return keywords


def _checked(path: str, value):
    """``value`` of the config key at ``path``, checked against its ``_KEYS`` entry."""
    key = _KEYS[path]
    if path == "drive.detuning":
        return _detuning_grid(value)
    if key.grid:
        return _grid(value, key.kind, key.low, path)
    if key.kind in (int, float):
        return _number(value, key.kind, key.low, path)
    if not isinstance(value, key.kind):
        raise ConfigError(
            f"expected {key.kind.__name__}, got {type(value).__name__}", location=path
        )
    return value


def parse_config_dict(data: dict, source: str = "config") -> ScanSpec:
    """Check a config against ``_KEYS`` and the ``_MODE_TABLE`` entry of its mode.

    The checks run in a fixed order, so a config with several faults reports
    the first: unknown keys; each key's own type, repeats and lower bound;
    keys the mode does not read; missing keys; rules across keys.
    """
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", location=source)
    _reject_unknown(data, _names(""), source)
    config = {}  # each key present, by its path ("grid.k"), in config order
    for name, value in data.items():
        if name in _KEYS:
            config[name] = value
        elif not isinstance(value, dict):
            raise ConfigError("expected a mapping", location=name)
        else:
            _reject_unknown(value, _names(f"{name}."), name)
            config.update((f"{name}.{key}", v) for key, v in value.items())
    values = {path: _checked(path, v) for path, v in config.items() if v is not None}
    name = values.get("mode")
    if name not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {name!r}", location="mode")
    mode = _MODE_TABLE[name]

    unread = [path for path in config if path not in _EVERY_MODE_READS + mode.reads]
    if unread:  # a size key in the wrong section first, then in config order
        path = min(unread, key=lambda path: not path.endswith(".n_atoms"))
        raise ConfigError(f"mode {name} reads only {', '.join(mode.reads)} here", location=path)
    for path in mode.reads:
        if path not in values and _KEYS[path].default is None:
            raise ConfigError("missing required key", location=path)
    values = {path: key.default for path, key in _KEYS.items() if key.default is not None} | values

    d_values = values["grid.d_over_lambda"]
    if mode.single_d and len(d_values) != 1:
        raise ConfigError(
            f"mode {name} needs exactly one d_over_lambda value", location="grid.d_over_lambda"
        )
    n_key = "grid.n_atoms" if "grid.n_atoms" in values else "array.n_atoms"
    n_values = values.get("grid.n_atoms") or [values["array.n_atoms"]]
    if max(n_values) > mode.max_atoms:
        raise ConfigError(f"mode {name} needs n_atoms <= {mode.max_atoms}", location=n_key)
    for i, k in enumerate(values.get("grid.k", [])):
        # a size-map cell with k > N is skipped instead
        if k > values.get("array.n_atoms", math.inf):
            raise ConfigError(f"k={k} exceeds n_atoms={n_values[0]}", location=f"grid.k[{i}]")

    return ScanSpec(
        mode=name,
        d_values=d_values,
        n_values=n_values,
        k_values=values.get("grid.k", []),
        powers=values.get("drive.power", []),
        detuning=values.get("drive.detuning"),
        phase_on_drive=values["drive.phase_on_drive"],
        out_dir=Path(values["output.directory"]),
        workers=values["workers"],
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

    ``task`` is (worker name, cell), the cell being the scan's settings
    (``n_atoms``, ``detuning``, ``phase_on_drive``) overlaid by its params; the
    worker is looked up when the cell runs and returns (status, payload) or
    (status, payload, health).
    """
    worker, cell = task
    try:
        return globals()[worker](cell)
    except (DomainError, NumericalError) as exc:
        return ("error", str(exc))


def _array(cell) -> ArrayConfig:
    return ArrayConfig.from_period(cell["n_atoms"], cell["d_over_lambda"])


def _cell_min_gamma(cell):
    if cell["k"] > cell["n_atoms"]:
        return ("skipped", None)
    return ("ok", min_decay_rate(_array(cell), cell["k"]))


def _subradiant_hosvd(cell) -> HosvdResult:
    return hosvd(to_symmetric_tensor(most_subradiant_state(_array(cell), cell["k"])))


def _cell_hosvd(cell):
    return ("ok", _subradiant_hosvd(cell).to_json_dict())


def _cell_entropy(cell):
    return ("ok", _subradiant_hosvd(cell).entropy)


def _cell_correlations(cell):
    corr = correlation_matrix(most_subradiant_state(_array(cell), cell["k"]))
    n = corr.n_atoms
    scores = None
    if n % 2 == 0:  # each dimer registration that has a pair; at N = 2 only offset 0
        scores = [dimerization_score(corr, offset) for offset in (0, 1) if offset < n - 1]
    return ("ok", (list(corr.rows()), scores))


def _cell_driven(cell):
    config = _array(cell)
    detuning = cell["detuning"]
    grid = resonance_grid(config, **detuning) if isinstance(detuning, dict) else detuning
    drive = DriveConfig(
        power=cell["power"], detuning_grid=grid, phase_on_drive=cell["phase_on_drive"]
    )
    spectrum = incoherent_spectrum(config, drive)
    return ("ok", spectrum, spectrum.health)


def _map_cells(fn, cells, workers):
    if workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    # Linux forks every worker at the first submit: start no idle ones
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(fn, cells, chunksize=1))


# -------------------------------------------------------------------- modes
# the keys every mode reads, and the three key sets a mode reads besides them
_EVERY_MODE_READS = ("mode", "output.directory", "workers")
_SECTOR_KEYS = ("array.n_atoms", "grid.d_over_lambda", "grid.k")
_SIZE_MAP_KEYS = ("grid.n_atoms", "grid.d_over_lambda", "grid.k")
_DRIVEN_KEYS = (
    "array.n_atoms", "grid.d_over_lambda", "drive.power", "drive.detuning", "drive.phase_on_drive"
)


@dataclass(frozen=True)
class _Mode:
    """What a scan mode reads, computes per grid cell and writes.

    A config may hold only the keys in ``reads`` and ``_EVERY_MODE_READS``.
    The cells cross the grids named in ``sweep``, outermost first, and
    ``numbered`` adds each cell's index to its params.  ``worker`` names a
    module-level cell function, looked up by :func:`_run_cell` when each cell
    runs.  A mode either gathers one row per ok cell into a single table
    (``stem``, ``header``, ``row``) or writes one file per ok cell (``write``,
    which may add entries to the cell's params).
    """

    worker: str
    stem: str | None = None
    header: list[str] | None = None
    row: Callable[[dict, Any], tuple] | None = None
    write: Callable[[ScanSpec, dict, Any], Path] | None = None
    reads: tuple[str, ...] = _SECTOR_KEYS
    single_d: bool = False  # exactly one d_over_lambda value
    max_atoms: float = math.inf  # the cap on N
    sweep: tuple[str, ...] = ("d_over_lambda", "n_atoms", "k")
    numbered: bool = False


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


def _write_spectrum(spec: ScanSpec, params: dict, spectrum) -> Path:
    header = ["detuning", "re_r", "im_r", "re_t", "im_t", "incoherent"]
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
    return _write_table(spec, f"spectrum_p{params['index']:02d}", header, rows)


def _decay_row(params: dict, min_gamma: float) -> tuple:
    return (params["d_over_lambda"], params["k"], params["n_atoms"], min_gamma)


def _fwhm_row(params: dict, spectrum) -> tuple:
    fwhm = spectrum.narrowest_fwhm
    found = fwhm is not None
    return (params["power"], params["d_over_lambda"], fwhm if found else math.nan, found)


_DECAY_HEADER = ["d_over_lambda", "k", "n_atoms", "min_gamma"]
# what both driven modes share: their keys, the solver's N cap and the (power, d) sweep
_DRIVEN = dict(reads=_DRIVEN_KEYS, max_atoms=MAX_DRIVEN_ATOMS, sweep=("power", "d_over_lambda"))
_MODE_TABLE = {
    "decay-map": _Mode("_cell_min_gamma", "decay_map", _DECAY_HEADER, _decay_row),
    "decay-vs-k": _Mode("_cell_min_gamma", "decay_vs_k", _DECAY_HEADER, _decay_row, single_d=True),
    "size-map": _Mode(
        "_cell_min_gamma", "size_map", _DECAY_HEADER, _decay_row, reads=_SIZE_MAP_KEYS,
        single_d=True,
    ),
    "hosvd-analyze": _Mode("_cell_hosvd", write=_write_hosvd, single_d=True),
    "entropy-map": _Mode(
        "_cell_entropy",
        "entropy_map",
        ["d_over_lambda", "k", "entropy"],
        lambda params, entropy: (params["d_over_lambda"], params["k"], entropy),
    ),
    "correlations": _Mode("_cell_correlations", write=_write_correlations, single_d=True),
    "driven-map": _Mode(
        "_cell_driven", "driven_map", ["power", "d_over_lambda", "narrowest_fwhm", "found"],
        _fwhm_row, **_DRIVEN,
    ),
    "driven-spectrum": _Mode(
        "_cell_driven", write=_write_spectrum, single_d=True, numbered=True, **_DRIVEN
    ),
}
MODES = tuple(_MODE_TABLE)


def _cells(spec: ScanSpec, mode: _Mode) -> list[dict]:
    """The params of every grid cell, in output order."""
    grids = {
        "power": spec.powers, "d_over_lambda": spec.d_values, "n_atoms": spec.n_values,
        "k": spec.k_values,
    }
    return [
        {**dict(zip(mode.sweep, values)), **({"index": i} if mode.numbered else {})}
        for i, values in enumerate(itertools.product(*(grids[key] for key in mode.sweep)))
    ]


def _evaluation_order(spec: ScanSpec, cells: list[dict]) -> list[int]:
    """The order in which the cells of ``_cells`` are solved.

    Cells are grouped by period, in the order the d values first appear and
    in output order within a period, since a process caches the generators
    of one driven period only (``driven._generators``).  A sector sweep has
    d outermost, so its cells are solved in output order.
    """
    period = {d: i for i, d in enumerate(spec.d_values)}
    return sorted(range(len(cells)), key=lambda i: period[cells[i]["d_over_lambda"]])


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
    cells = _cells(spec, mode)
    order = _evaluation_order(spec, cells)
    settings = {
        "n_atoms": spec.n_values[0], "detuning": spec.detuning,
        "phase_on_drive": spec.phase_on_drive,
    }
    tasks = [(mode.worker, {**settings, **cells[i]}) for i in order]
    done = _map_cells(_run_cell, tasks, spec.workers)
    results = [result for _, result in sorted(zip(order, done))]
    outputs, rows, statuses = [], [], []
    for i, (params, (status, payload, *health)) in enumerate(zip(cells, results)):
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
