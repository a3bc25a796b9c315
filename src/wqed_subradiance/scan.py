"""Parameter sweeps behind the command-line interface.

A scan is described by a YAML file (key-value sections); every mode expands
into independent grid cells whose results are assembled in grid order, so
output files are byte-identical for any worker count.  Data files carry no
timestamps; run metadata lives in a separate manifest.

This module checks configs and runs scans without numpy: the grid-cell
functions and the compute layers live in ``cells``, which ``run_scan``
imports when a scan starts.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import yaml

from . import BLAS_THREAD_VARS, MAX_DRIVEN_ATOMS, __version__
from .errors import ConfigError
from .serialize import write_csv, write_json


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
    "drive.detuning.refine_points": _Key(int, low=2),
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
        # the operations of np.linspace, its branch for a step that underflows
        # to zero included, so the points are bitwise numpy's
        span, div = stop - start, max(count - 1, 1)
        step = span / div
        value = [start + (i / div * span if step == 0 else i * step) for i in range(count)]
        if count > 1:
            value[-1] = stop
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
        # a size-map cell with k > N is skipped instead, while another N fits k
        if k > max(n_values):
            raise ConfigError(f"k={k} exceeds n_atoms={max(n_values)}", location=f"grid.k[{i}]")

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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text (byte {exc.start})", location=str(path)) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror}", location=str(path)) from exc
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ConfigError(f"parse error: {exc.problem}", location=where) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"parse error: {exc}", location=str(path)) from exc
    return parse_config_dict(data, source=str(path))


def _map_cells(fn, cells, workers):
    """Yield ``fn`` of every cell, in order, on ``workers`` processes.

    A worker that dies (SIGKILL from the OOM killer, say) breaks the pool:
    each cell whose own result is lost reads ("error", "not run:
    BrokenProcessPool: ..."), and every cell that finished before keeps its
    result.  When the caller stops early, the cells not yet started are
    cancelled.
    """
    if workers <= 1 or len(cells) <= 1:
        yield from map(fn, cells)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Linux forks every worker at the first submit: start no idle ones
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = [pool.submit(fn, cell) for cell in cells]
        try:
            for future in futures:
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    yield ("error", f"not run: {type(exc).__name__}: {exc}")
        finally:
            for future in futures:
                future.cancel()


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
    cell function of ``cells``, looked up by ``cells._run_cell`` when each
    cell runs.  A table mode gathers one row per ok cell into the one file
    ``stem``; a ``per_cell`` mode writes each ok cell's payload to its own
    file, ``stem`` filled from the cell's params.  A file is CSV under
    ``header``, JSON without one.
    """

    worker: str
    stem: str
    header: list[str] | None = None
    per_cell: bool = False
    reads: tuple[str, ...] = _SECTOR_KEYS
    single_d: bool = False  # exactly one d_over_lambda value
    max_atoms: float = math.inf  # the cap on N
    sweep: tuple[str, ...] = ("d_over_lambda", "n_atoms", "k")
    numbered: bool = False


_DECAY_HEADER = ["d_over_lambda", "k", "n_atoms", "min_gamma"]
# what both driven modes share: their keys, the solver's N cap and the (power, d) sweep
_DRIVEN = dict(reads=_DRIVEN_KEYS, max_atoms=MAX_DRIVEN_ATOMS, sweep=("power", "d_over_lambda"))
_MODE_TABLE = {
    "decay-map": _Mode("_cell_min_gamma", "decay_map", _DECAY_HEADER),
    "decay-vs-k": _Mode("_cell_min_gamma", "decay_vs_k", _DECAY_HEADER, single_d=True),
    "size-map": _Mode(
        "_cell_min_gamma", "size_map", _DECAY_HEADER, reads=_SIZE_MAP_KEYS, single_d=True
    ),
    "hosvd-analyze": _Mode("_cell_hosvd", "hosvd_k{k}", per_cell=True, single_d=True),
    "entropy-map": _Mode("_cell_entropy", "entropy_map", ["d_over_lambda", "k", "entropy"]),
    "correlations": _Mode(
        "_cell_correlations", "correlations_k{k}", ["m", "n", "re", "im"], per_cell=True,
        single_d=True,
    ),
    "driven-map": _Mode(
        "_cell_driven_map", "driven_map", ["power", "d_over_lambda", "narrowest_fwhm", "found"],
        **_DRIVEN,
    ),
    "driven-spectrum": _Mode(
        "_cell_driven_spectrum", "spectrum_p{index:02d}",
        ["detuning", "re_r", "im_r", "re_t", "im_t", "incoherent"], per_cell=True,
        single_d=True, numbered=True, **_DRIVEN,
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


def _write(spec: ScanSpec, name: str, header: list[str] | None, data) -> Path:
    """Write ``data`` to the output directory: CSV rows under ``header``, else JSON.

    A file that cannot be written raises ``ConfigError`` at ``output.directory``.
    """
    path = spec.out_dir / f"{name}.{'csv' if header else 'json'}"
    try:
        if header:
            write_csv(path, header, data)
        else:
            write_json(path, data)
    except OSError as exc:
        message = f"cannot write {path}: {exc.strerror}"
        raise ConfigError(message, location="output.directory") from exc
    return path


def run_scan(spec: ScanSpec) -> RunManifest:
    """Execute a validated scan; write data files and a run manifest.

    A per-cell file is written as its cell's result is read, in output
    order; a table mode's one table is written after the last cell.  An
    output directory that cannot be created raises ``ConfigError`` at
    ``output.directory`` before any cell runs, and a file that cannot be
    written raises it when that file is due.  A ``KeyboardInterrupt`` while
    the cells run is raised again once the finished cells' files and the
    manifest are written; the cells it stopped read ("error", "not run:
    KeyboardInterrupt").
    """
    start = time.perf_counter()
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory: {exc}", location="output.directory") from exc
    mode = _MODE_TABLE[spec.mode]
    cells = _cells(spec, mode)
    settings = {
        "n_atoms": spec.n_values[0], "detuning": spec.detuning,
        "phase_on_drive": spec.phase_on_drive,
    }
    tasks = [(mode.worker, {**settings, **cell}) for cell in cells]
    # loads numpy and the compute layers here, so forked workers inherit them
    from .cells import _run_cell

    outputs, rows, statuses, interrupt = [], [], [], None
    with contextlib.closing(_map_cells(_run_cell, tasks, spec.workers)) as results:
        for i, params in enumerate(cells):
            result = ("error", "not run: KeyboardInterrupt")
            if interrupt is None:
                try:
                    result = next(results)
                except KeyboardInterrupt as exc:
                    interrupt = exc
            status, payload, *extra = result
            extra = dict(*extra)  # what the cell adds to its manifest entry
            if status == "ok" and mode.per_cell:
                outputs.append(_write(spec, mode.stem.format(**params), mode.header, payload))
            elif status == "ok":  # the leading columns are the params the header names
                rows.append(tuple(params[key] for key in mode.header[: -len(payload)]) + payload)
            error = payload if status == "error" else None
            params = params | extra.get("params", {})
            statuses.append(CellStatus(i, params, status, error, extra.get("health")))
    if not mode.per_cell:
        outputs.append(_write(spec, mode.stem, mode.header, rows))
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
    _write(spec, "run_manifest", None, record)
    if interrupt is not None:
        raise interrupt
    return manifest
