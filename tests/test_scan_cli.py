import ast
import concurrent.futures
import contextlib
import io
import itertools
import json
import math
import os
import re
import signal
import string
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wqed_subradiance.cells as cells_module
import wqed_subradiance.driven as driven_module
import wqed_subradiance.scan as scan_module
import wqed_subradiance.spectrum as spectrum_module
from wqed_subradiance import (
    BLAS_THREAD_VARS,
    ArrayConfig,
    ConfigError,
    NumericalError,
    ansatz_overlap,
    hosvd,
    min_decay_rate,
    most_subradiant_state,
    resonance_grid,
    run_scan,
    to_symmetric_tensor,
    transfer_matrix_amplitudes,
    validate_config,
)
from wqed_subradiance.cli import main
from wqed_subradiance.serialize import fmt_float


class _Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr as written, interleaved
    exception: SystemExit | None  # None at exit 0


def _invoke(args) -> _Result:
    """Run the CLI in-process on ``args``; ``main`` must leave through
    ``SystemExit`` on every path."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(args)
        except SystemExit as exc:
            return _Result(exc.code, output.getvalue(), exc if exc.code else None)
    raise AssertionError("main returned without SystemExit")


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def decay_vs_k_config(tmp_path, out="out", workers=1):
    return write_config(
        tmp_path / "cfg.yaml",
        {
            "mode": "decay-vs-k",
            "array": {"n_atoms": 10},
            "grid": {"d_over_lambda": [0.05], "k": list(range(1, 11))},
            "output": {"directory": str(tmp_path / out)},
            "workers": workers,
        },
    )


def test_validate_well_formed(tmp_path):
    spec = validate_config(decay_vs_k_config(tmp_path))
    assert spec.mode == "decay-vs-k"
    assert spec.params["k"] == list(range(1, 11))
    assert spec.params["d_over_lambda"] == [0.05]


def test_validate_unknown_mode_names_allowed(tmp_path):
    path = write_config(
        tmp_path / "bad.yaml",
        {"mode": "frobnicate", "array": {"n_atoms": 4}, "grid": {"d_over_lambda": [0.1], "k": [1]}},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert "decay-map" in str(err.value) and "driven-spectrum" in str(err.value)


def test_validate_k_exceeding_n(tmp_path):
    path = write_config(
        tmp_path / "bad.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.1], "k": [1, 5]}},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert "grid.k[1]" in str(err.value)


def test_size_map_k_above_every_n_atoms_exit_two(tmp_path):
    """A k that no N of the grid fits would only write skipped cells."""
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "size-map", "grid": {"d_over_lambda": [0.05], "n_atoms": [2, 3], "k": [1, 5]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.location == "grid.k[1]"
    result = _invoke(["size-map", "--config", cfg])
    assert result.exit_code == 2
    assert "grid.k[1]" in result.output
    assert not (tmp_path / "out").exists()


def test_validate_empty_grid(tmp_path):
    path = write_config(
        tmp_path / "bad.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.1], "k": []}},
    )
    with pytest.raises(ConfigError):
        validate_config(path)


def test_validate_top_level_list(tmp_path):
    with pytest.raises(ConfigError, match="top level must be a mapping") as err:
        scan_module.parse_config_dict([{"mode": "decay-map"}])
    assert err.value.location == "config"
    path = write_config(tmp_path / "cfg.yaml", [{"mode": "decay-map"}])
    with pytest.raises(ConfigError, match="top level must be a mapping") as err:
        validate_config(path)
    assert err.value.location == path


def test_validate_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        validate_config(tmp_path / "absent.yaml")


def _unreadable_config(tmp_path, kind):
    """A config path that holds no UTF-8 text: a binary file or a directory."""
    path = tmp_path / "cfg.yaml"
    if kind == "binary":
        path.write_bytes(b"mode: decay-map\n\xff\xfe\x00\x81")
    else:
        path.mkdir()
    return path


@pytest.mark.parametrize("kind, message", [("binary", "not UTF-8"), ("directory", "cannot read")])
def test_validate_unreadable_file_reports_the_path(tmp_path, kind, message):
    path = _unreadable_config(tmp_path, kind)
    with pytest.raises(ConfigError, match=message) as err:
        validate_config(path)
    assert err.value.location == str(path)


@pytest.mark.parametrize("kind, message", [("binary", "not UTF-8"), ("directory", "cannot read")])
def test_cli_unreadable_config_exit_two_and_writes_nothing(tmp_path, kind, message):
    path = _unreadable_config(tmp_path, kind)
    result = _invoke(["size-map", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert message in result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_validate_yaml_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert "broken.yaml" in str(err.value)


def test_validate_driven_needs_small_array(tmp_path):
    path = write_config(
        tmp_path / "bad.yaml",
        {"mode": "driven-spectrum", "array": {"n_atoms": 7},
         "grid": {"d_over_lambda": [0.05]},
         "drive": {"power": [0.1], "detuning": {"start": -1, "stop": 1, "count": 5}}},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert "n_atoms" in str(err.value)


def test_validate_linspace_grid(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "entropy-map", "array": {"n_atoms": 6},
         "grid": {"d_over_lambda": {"start": 0.05, "stop": 0.25, "count": 3}, "k": [1, 2]},
         "output": {"directory": str(tmp_path / "o")}},
    )
    spec = validate_config(path)
    assert spec.params["d_over_lambda"] == pytest.approx([0.05, 0.15, 0.25])


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(allow_nan=False, allow_infinity=False),
    stop=st.floats(allow_nan=False, allow_infinity=False),
    count=st.integers(1, 40),
)
@example(start=0.0, stop=5e-324, count=4)  # a step that underflows to zero
@example(start=-0.0, stop=1.0, count=1)
@example(start=0.05, stop=0.25, count=3)
def test_range_grid_is_numpys_linspace_bitwise(start, stop, count):
    value = {"start": start, "stop": stop, "count": count}
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, count).tolist()
    if not all(map(math.isfinite, expected)):
        with pytest.raises(ConfigError):
            scan_module._grid(value, float, None, "grid", distinct=False)
        return
    got = scan_module._grid(value, float, None, "grid", distinct=False)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


# non-integral values of the integer grids, and the location each must be reported at
_NON_INTEGRAL = {
    "k": ("decay-map", {"k": [1, 2.5]}, "grid.k[1]"),
    "n-atoms": ("size-map", {"n_atoms": [4.7], "k": [1]}, "grid.n_atoms[0]"),
    "k-linspace": ("decay-map", {"k": {"start": 1, "stop": 2, "count": 3}}, "grid.k[1]"),
}


def _integer_grid_config(tmp_path, mode, grid):
    payload = {"mode": mode, "grid": {"d_over_lambda": [0.05], **grid},
               "output": {"directory": str(tmp_path / "out")}}
    if mode != "size-map":
        payload["array"] = {"n_atoms": 6}
    return write_config(tmp_path / "cfg.yaml", payload)


@pytest.mark.parametrize(
    "mode, grid, location", list(_NON_INTEGRAL.values()), ids=list(_NON_INTEGRAL)
)
def test_validate_rejects_non_integral_grid_values(tmp_path, mode, grid, location):
    with pytest.raises(ConfigError) as err:
        validate_config(_integer_grid_config(tmp_path, mode, grid))
    assert err.value.location == location
    assert "integer" in str(err.value)


@pytest.mark.parametrize(
    "mode, grid, location", list(_NON_INTEGRAL.values())[:2], ids=list(_NON_INTEGRAL)[:2]
)
def test_cli_non_integral_grid_value_exit_two(tmp_path, mode, grid, location):
    result = _invoke([mode, "--config", _integer_grid_config(tmp_path, mode, grid)])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_validate_integral_linspace_and_float_grid_values(tmp_path):
    grid = {"k": {"start": 1, "stop": 5, "count": 5}, "n_atoms": [6.0, 8]}
    spec = validate_config(_integer_grid_config(tmp_path, "size-map", grid))
    assert spec.params["k"] == [1, 2, 3, 4, 5]
    assert spec.params["n_atoms"] == [6, 8]
    assert all(type(v) is int for v in spec.params["k"] + spec.params["n_atoms"])


def _unread_n_atoms_config(tmp_path, mode):
    """Both an array.n_atoms and a grid.n_atoms; each mode reads only one."""
    return write_config(
        tmp_path / "cfg.yaml",
        {"mode": mode, "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1], "n_atoms": [4, 8]},
         "output": {"directory": str(tmp_path / "out")}},
    )


# the size key each mode does not read, and so must reject
_UNREAD_N_ATOMS = {
    "decay-map": "grid.n_atoms",
    "entropy-map": "grid.n_atoms",
    "driven-spectrum": "grid.n_atoms",
    "size-map": "array.n_atoms",
}


@pytest.mark.parametrize("mode, location", list(_UNREAD_N_ATOMS.items()))
def test_validate_rejects_n_atoms_the_mode_does_not_read(tmp_path, mode, location):
    with pytest.raises(ConfigError) as err:
        validate_config(_unread_n_atoms_config(tmp_path, mode))
    assert err.value.location == location


@pytest.mark.parametrize(
    "mode, location", [("decay-map", "grid.n_atoms"), ("size-map", "array.n_atoms")]
)
def test_cli_unread_n_atoms_exit_two(tmp_path, mode, location):
    result = _invoke([mode, "--config", _unread_n_atoms_config(tmp_path, mode)])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


_SECTOR = {"array": {"n_atoms": 4}, "grid": {"d_over_lambda": [0.05], "k": [1]}}
_DRIVEN = {"array": {"n_atoms": 2}, "grid": {"d_over_lambda": [0.05]},
           "drive": {"power": [0.1], "detuning": [-1.0, 1.0]}}

# a key the mode does not read or lacks, a value of the wrong type, or an array
# of no atoms, and the location each must be reported at: a drive section in a
# sector mode is named at its first key (the dump sorts keys, so "detuning"
# comes before "power")
_UNREAD_OR_EMPTY = {
    "decay-map-drive": ("decay-map", {**_SECTOR, "drive": {"power": [0.1]}}, "drive.power"),
    "entropy-map-drive": (
        "entropy-map", {**_SECTOR, "drive": _DRIVEN["drive"]}, "drive.detuning"
    ),
    "driven-map-k": (
        "driven-map", {**_DRIVEN, "grid": {"d_over_lambda": [0.05], "k": [1]}}, "grid.k"
    ),
    "driven-map-zero-atoms": ("driven-map", {**_DRIVEN, "array": {"n_atoms": 0}}, "array.n_atoms"),
    "driven-map-negative-atoms": (
        "driven-map", {**_DRIVEN, "array": {"n_atoms": -3}}, "array.n_atoms"
    ),
    "decay-map-without-k": ("decay-map", {**_SECTOR, "grid": {"d_over_lambda": [0.05]}}, "grid.k"),
    "array-not-a-mapping": ("decay-map", {**_SECTOR, "array": 5}, "array"),
    "mode-not-a-string": ("decay-map", {**_SECTOR, "mode": 5}, "mode"),
    "phase-on-drive-not-a-boolean": (
        "driven-map", {**_DRIVEN, "drive": {**_DRIVEN["drive"], "phase_on_drive": 1}},
        "drive.phase_on_drive",
    ),
}


def _unread_or_empty_config(tmp_path, mode, payload):
    return write_config(
        tmp_path / "cfg.yaml",
        {"mode": mode, **payload, "output": {"directory": str(tmp_path / "out")}},
    )


@pytest.mark.parametrize(
    "mode, payload, location", list(_UNREAD_OR_EMPTY.values()), ids=list(_UNREAD_OR_EMPTY)
)
def test_validate_rejects_keys_the_mode_does_not_read_and_empty_arrays(
    tmp_path, mode, payload, location
):
    with pytest.raises(ConfigError) as err:
        validate_config(_unread_or_empty_config(tmp_path, mode, payload))
    assert err.value.location == location


@pytest.mark.parametrize(
    "mode, payload, location", list(_UNREAD_OR_EMPTY.values()), ids=list(_UNREAD_OR_EMPTY)
)
def test_cli_unread_key_or_empty_array_exit_two(tmp_path, mode, payload, location):
    cfg = _unread_or_empty_config(tmp_path, mode, payload)
    result = _invoke([mode, "--config", cfg])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


# a grid value that repeats an earlier one, and the location it must be reported at
_REPEATED = {
    "k": ("correlations", {**_SECTOR, "grid": {"d_over_lambda": [0.05], "k": [2, 2]}}, "grid.k[1]"),
    "d": (
        "decay-map", {**_SECTOR, "grid": {"d_over_lambda": [0.05, 0.1, 0.05], "k": [1]}},
        "grid.d_over_lambda[2]",
    ),
    "d-linspace": (
        "entropy-map",
        {**_SECTOR, "grid": {"d_over_lambda": {"start": 0.1, "stop": 0.1, "count": 2}, "k": [1]}},
        "grid.d_over_lambda[1]",
    ),
    "n-atoms": (
        "size-map", {"grid": {"d_over_lambda": [0.05], "k": [1], "n_atoms": [4, 6, 4.0]}},
        "grid.n_atoms[2]",
    ),
    "power": ("driven-map", {**_DRIVEN, "drive": {**_DRIVEN["drive"], "power": [0.1, 0.1]}},
              "drive.power[1]"),
}


@pytest.mark.parametrize(
    "mode, payload, location", list(_REPEATED.values()), ids=list(_REPEATED)
)
def test_validate_rejects_repeated_grid_values(tmp_path, mode, payload, location):
    with pytest.raises(ConfigError) as err:
        validate_config(_unread_or_empty_config(tmp_path, mode, payload))
    assert err.value.location == location
    assert "repeats" in str(err.value)


def test_cli_repeated_k_exit_two_and_writes_nothing(tmp_path):
    mode, payload, location = _REPEATED["k"]
    cfg = _unread_or_empty_config(tmp_path, mode, payload)
    result = _invoke([mode, "--config", cfg])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert not (tmp_path / "out").exists()


def _two_periods(mode):
    """A valid config of ``mode`` but for two d values."""
    base = _DRIVEN if mode.startswith("driven") else _SECTOR
    grid = {**base["grid"], "d_over_lambda": [0.05, 0.1]}
    if mode == "size-map":
        return {"grid": {**grid, "n_atoms": [4]}}
    return {**base, "grid": grid}


# a value below its lower bound, several d values where the mode takes one, or
# an array beyond the driven solver's cap, and the location each must be reported at
_OUT_OF_BOUNDS = {
    **{
        f"{mode}-two-d": (mode, _two_periods(mode), "grid.d_over_lambda")
        for mode in ("decay-vs-k", "size-map", "hosvd-analyze", "correlations", "driven-spectrum")
    },
    "negative-d": (
        "decay-map", {**_SECTOR, "grid": {"d_over_lambda": [0.05, -0.1], "k": [1]}},
        "grid.d_over_lambda[1]",
    ),
    "negative-power": (
        "driven-map", {**_DRIVEN, "drive": {**_DRIVEN["drive"], "power": [-1]}}, "drive.power[0]"
    ),
    "zero-k": ("decay-map", {**_SECTOR, "grid": {"d_over_lambda": [0.05], "k": [0]}}, "grid.k[0]"),
    "driven-map-seven-atoms": ("driven-map", {**_DRIVEN, "array": {"n_atoms": 7}}, "array.n_atoms"),
    "driven-spectrum-seven-atoms": (
        "driven-spectrum", {**_DRIVEN, "array": {"n_atoms": 7}}, "array.n_atoms"
    ),
    "size-map-zero-atoms": (
        "size-map", {"grid": {"d_over_lambda": [0.05], "k": [1], "n_atoms": [4, 0]}},
        "grid.n_atoms[1]",
    ),
}


@pytest.mark.parametrize(
    "mode, payload, location", list(_OUT_OF_BOUNDS.values()), ids=list(_OUT_OF_BOUNDS)
)
def test_validate_rejects_values_out_of_bounds(tmp_path, mode, payload, location):
    with pytest.raises(ConfigError) as err:
        validate_config(_unread_or_empty_config(tmp_path, mode, payload))
    assert err.value.location == location


@pytest.mark.parametrize("case", ["negative-power", "size-map-two-d", "driven-map-seven-atoms"])
def test_cli_value_out_of_bounds_exit_two(tmp_path, case):
    mode, payload, location = _OUT_OF_BOUNDS[case]
    cfg = _unread_or_empty_config(tmp_path, mode, payload)
    result = _invoke([mode, "--config", cfg])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def driven_config(tmp_path, detuning, mode="driven-map"):
    return write_config(
        tmp_path / "cfg.yaml",
        {"mode": mode, "array": {"n_atoms": 2}, "grid": {"d_over_lambda": [0.05]},
         "drive": {"power": [0.1], "detuning": detuning},
         "output": {"directory": str(tmp_path / "out")}},
    )


# malformed drive.detuning grids and the location each must be reported at
_BAD_DETUNING = {
    "missing-start": ({"stop": 1, "count": 5}, "drive.detuning.start"),
    "unknown-key": ({"start": -1, "stop": 1, "coarsee": 5}, "drive.detuning.coarsee"),
    "non-number": ([-1, "a", 1], "drive.detuning[1]"),
    "non-increasing": ([-1, 1, 1], "drive.detuning"),
    "refined-stop-not-above-start": ({"start": 1, "stop": 1}, "drive.detuning.stop"),
    "coarse-below-one": ({"start": -1, "stop": 1, "coarse": -3}, "drive.detuning.coarse"),
    "negative-refine-span": (
        {"start": -1, "stop": 1, "refine_span": -8}, "drive.detuning.refine_span"
    ),
    "infinite-stop": ({"start": -1, "stop": float("inf")}, "drive.detuning.stop"),
    "infinite-count-stop": ({"start": -1, "stop": float("inf"), "count": 5}, "drive.detuning.stop"),
    "nan-point": ([-1, float("nan"), 1], "drive.detuning[1]"),
    "scalar": (3, "drive.detuning"),
}


@pytest.mark.parametrize(
    "detuning, location", list(_BAD_DETUNING.values()), ids=list(_BAD_DETUNING)
)
def test_validate_rejects_malformed_detuning_grid(tmp_path, detuning, location):
    with pytest.raises(ConfigError) as err:
        validate_config(driven_config(tmp_path, detuning))
    assert err.value.location == location


@pytest.mark.parametrize(
    "section, key, location",
    [
        ("detuning", "start", "drive.detuning.start"),
        ("detuning", "refine_span", "drive.detuning.refine_span"),
    ],
)
def test_validate_rejects_boolean_for_float_key(tmp_path, section, key, location):
    payload = yaml.safe_load(Path(driven_config(tmp_path, {"start": -1.0, "stop": 1.0})).read_text())
    target = payload["drive"]["detuning"] if section == "detuning" else payload[section]
    target[key] = True
    with pytest.raises(ConfigError) as err:
        validate_config(write_config(tmp_path / "bool.yaml", payload))
    assert err.value.location == location


# non-finite numbers at every level, and the location each must be reported at
_NON_FINITE = {
    "power-nan": ("drive", "power", [float("nan")], "drive.power[0]"),
    "d-nan-inf": ("grid", "d_over_lambda", [float("nan"), float("inf")], "grid.d_over_lambda[0]"),
    "d-inf": ("grid", "d_over_lambda", [0.05, float("-inf")], "grid.d_over_lambda[1]"),
    "k-inf": ("grid", "k", [float("inf")], "grid.k[0]"),
}


def _non_finite_config(tmp_path, section, key, value):
    payload = yaml.safe_load(Path(driven_config(tmp_path, {"start": -1.0, "stop": 1.0})).read_text())
    payload[section][key] = value
    return write_config(tmp_path / "non_finite.yaml", payload)


@pytest.mark.parametrize(
    "section, key, value, location", list(_NON_FINITE.values()), ids=list(_NON_FINITE)
)
def test_validate_rejects_non_finite_numbers(tmp_path, section, key, value, location):
    with pytest.raises(ConfigError) as err:
        validate_config(_non_finite_config(tmp_path, section, key, value))
    assert err.value.location == location
    assert "finite" in str(err.value)


@pytest.mark.parametrize(
    "section, key, value, location", list(_NON_FINITE.values())[:2], ids=list(_NON_FINITE)[:2]
)
def test_cli_non_finite_number_exit_two_without_traceback(tmp_path, section, key, value, location):
    cfg = _non_finite_config(tmp_path, section, key, value)
    result = _invoke(["driven-map", "--config", cfg])
    assert result.exit_code == 2
    assert f"error: {location}" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key",
    [(None, "workrs"), ("array", "gama_1d"), ("grid", "kk"), ("drive", "phase_on_driv"),
     ("output", "formt"), (None, "seed"), ("drive", "amplitude_scale"), ("array", "gamma_1d"),
     ("output", "format")],
)
def test_validate_rejects_unknown_keys(tmp_path, section, key):
    payload = yaml.safe_load(Path(driven_config(tmp_path, [-1.0, 1.0])).read_text())
    (payload if section is None else payload[section])[key] = 8
    path = write_config(tmp_path / "unknown.yaml", payload)
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    assert err.value.location == (f"{path}.{key}" if section is None else f"{section}.{key}")
    assert "unknown key" in str(err.value)


_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((_REPO / "configs").glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    assert validate_config(path).mode == path.stem.replace("_", "-")


def test_readme_config_sketch_validates(tmp_path):
    readme = (_REPO / "README.md").read_text()
    blocks = readme.split("Config sketch:", 1)[1].split("```yaml\n")[1:3]
    modes = []
    for i, block in enumerate(blocks):
        path = tmp_path / f"sketch{i}.yaml"
        path.write_text(block.split("```", 1)[0])
        modes.append(validate_config(path).mode)
    assert modes == ["entropy-map", "driven-map"]


def test_readme_library_tour_runs():
    """The README's library tour runs as written, so it names only public paths."""
    readme = (_REPO / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", tour], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_mode_table_matches_the_modes():
    readme = (_REPO / "README.md").read_text()
    every = ", ".join(f"`{key}`" for key in scan_module._EVERY_MODE_READS[:-1])
    assert f"Every mode reads {every} and `{scan_module._EVERY_MODE_READS[-1]}`." in " ".join(
        readme.split()
    )
    header = "| mode | keys read | single d | N cap |\n|---|---|---|---|\n"
    table = {}
    for line in readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines():
        mode, keys, single_d, cap = (cell.strip() for cell in line.strip("|").split("|"))
        table[mode.strip("`")] = (
            [key.strip(" `") for key in keys.split(",")],
            {"yes": True, "no": False}[single_d],
            math.inf if cap == "none" else int(cap),
        )
    assert table == {
        name: (list(mode.reads), mode.single_d, mode.max_atoms)
        for name, mode in scan_module._MODE_TABLE.items()
    }


@pytest.mark.parametrize("name", list(scan_module._MODE_TABLE))
def test_every_mode_names_each_key_it_reads_once(name):
    """A cell reads each key by the last part of its path: two keys sharing
    it (array.n_atoms and grid.n_atoms, say) would leave one of them out of
    ``ScanSpec.params`` with no error.  The sweep crosses those names, and
    the file stem is filled from the sweep and the cell index: a stem with
    placeholders names one file per cell, and ``{index}`` numbers the cells."""
    mode = scan_module._MODE_TABLE[name]
    names = [path.rsplit(".", 1)[-1] for path in mode.reads]
    assert len(set(names)) == len(names)
    assert set(mode.sweep) <= set(names)
    fields = {field for _, field, _, _ in string.Formatter().parse(mode.stem) if field}
    assert fields == mode.fields
    assert fields <= set(mode.sweep) | {"index"}


@pytest.mark.parametrize(
    "detuning",
    [
        {"stop": 1, "count": 5},
        [-1, "a", 1],
        {"start": -1, "stop": 1, "coarse": -3},
        {"start": -1, "stop": 1, "coarsee": 5},
        {"start": -1, "stop": float("inf")},
        {"start": -1, "stop": 1, "refine_span": -8},
    ],
    ids=[
        "missing-start", "non-number", "negative-coarse", "misspelled-key", "infinite-stop",
        "negative-refine-span",
    ],
)
def test_cli_malformed_detuning_exit_two_without_traceback(tmp_path, detuning):
    result = _invoke(["driven-map", "--config", driven_config(tmp_path, detuning)])
    assert result.exit_code == 2
    assert "error: drive.detuning" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_cli_single_refine_point_exit_two(tmp_path):
    """One refine point would be each window's left edge, off resonance."""
    detuning = {"start": -25, "stop": 5, "coarse": 3, "refine_points": 1}
    result = _invoke(["driven-map", "--config", driven_config(tmp_path, detuning)])
    assert result.exit_code == 2
    assert "error: drive.detuning.refine_points: must be >= 2" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_refined_detuning_grid_defaults_to_resonance_grid(tmp_path):
    spec = validate_config(driven_config(tmp_path, {"start": -3, "stop": 1}, "driven-spectrum"))
    assert spec.params["detuning"] == {"start": -3.0, "stop": 1.0}
    assert run_scan(spec).success
    lines = (tmp_path / "out" / "spectrum_p00.csv").read_text().strip().split("\n")[1:]
    expected = resonance_grid(ArrayConfig.from_period(2, 0.05), -3.0, 1.0)
    assert [line.split(",")[0] for line in lines] == [fmt_float(x) for x in expected]


def test_refined_detuning_grid_accepts_zero_span(tmp_path):
    detuning = {"start": -3, "stop": 1, "refine_span": 0}
    spec = validate_config(driven_config(tmp_path, detuning))
    assert spec.params["detuning"]["refine_span"] == 0.0


def test_decay_vs_k_scan_matches_figure_cross_section(tmp_path):
    spec = validate_config(decay_vs_k_config(tmp_path))
    manifest = run_scan(spec)
    assert manifest.success
    csv_path = tmp_path / "out" / "decay_vs_k.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "d_over_lambda,k,n_atoms,min_gamma"
    assert len(lines) == 11
    config = ArrayConfig.from_period(10, 0.05)
    third = lines[3].split(",")
    assert int(third[1]) == 3
    assert float(third[3]) == pytest.approx(min_decay_rate(config, 3), rel=1e-10)


def test_repeated_runs_are_byte_identical(tmp_path):
    spec_a = validate_config(decay_vs_k_config(tmp_path, out="a"))
    spec_b = validate_config(decay_vs_k_config(tmp_path, out="b"))
    run_scan(spec_a)
    run_scan(spec_b)
    data_a = (tmp_path / "a" / "decay_vs_k.csv").read_bytes()
    data_b = (tmp_path / "b" / "decay_vs_k.csv").read_bytes()
    assert data_a == data_b


def test_parallel_run_matches_serial(tmp_path):
    spec_serial = validate_config(decay_vs_k_config(tmp_path, out="serial", workers=1))
    spec_parallel = validate_config(decay_vs_k_config(tmp_path, out="par", workers=3))
    run_scan(spec_serial)
    run_scan(spec_parallel)
    assert (tmp_path / "serial" / "decay_vs_k.csv").read_bytes() == (
        tmp_path / "par" / "decay_vs_k.csv"
    ).read_bytes()


def test_pool_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    """Four workers asked for, two cells: the pool is sized to two, the manifest says four."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cell):
            future = concurrent.futures.Future()
            future.set_result(fn(cell))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1, 2]},
         "output": {"directory": str(tmp_path / "out")}, "workers": 4},
    )
    assert run_scan(validate_config(path)).success
    assert sizes == [2]
    assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())["workers"] == 4


def test_size_map_skips_invalid_cells(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "size-map",
         "grid": {"d_over_lambda": [0.05], "n_atoms": [2, 4], "k": [1, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    skipped = [c for c in manifest.cells if c.status == "skipped"]
    assert len(skipped) == 1 and skipped[0].params["k"] == 3
    lines = (tmp_path / "out" / "size_map.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + three valid cells


def test_hosvd_analyze_writes_json(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "hosvd-analyze", "array": {"n_atoms": 6},
         "grid": {"d_over_lambda": [0.05], "k": [2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    payload = json.loads((tmp_path / "out" / "hosvd_k2.json").read_text())
    assert set(payload) == {"lambda", "entropy", "U"}
    assert len(payload["lambda"]) == 6
    assert len(payload["U"]) == 36
    total = sum(v**2 for v in payload["lambda"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_entropy_map_schema(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "entropy-map", "array": {"n_atoms": 6},
         "grid": {"d_over_lambda": [0.05, 0.15], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    lines = (tmp_path / "out" / "entropy_map.csv").read_text().strip().split("\n")
    assert lines[0] == "d_over_lambda,k,entropy"
    assert len(lines) == 7


def test_entropy_map_beyond_dense_tensor_limit(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "entropy-map", "array": {"n_atoms": 13},
         "grid": {"d_over_lambda": [0.05, 0.25], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert [cell.status for cell in manifest.cells] == ["ok"] * 6
    assert manifest.success


def test_correlations_mode_schema(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "correlations", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [2]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    lines = (tmp_path / "out" / "correlations_k2.csv").read_text().strip().split("\n")
    assert lines[0] == "m,n,re,im"
    assert len(lines) == 17
    assert "dimerization_score" in manifest.cells[0].params


def test_correlations_at_odd_n_write_rows_without_a_dimerization_score(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "correlations", "array": {"n_atoms": 3},
         "grid": {"d_over_lambda": [0.05], "k": [1]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    lines = (tmp_path / "out" / "correlations_k1.csv").read_text().strip().split("\n")
    assert lines[0] == "m,n,re,im"
    assert len(lines) == 10
    assert manifest.cells[0].params == {"d_over_lambda": 0.05, "n_atoms": 3, "k": 1}


def test_cli_correlations_of_two_atoms_scores_the_one_dimer(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "correlations", "array": {"n_atoms": 2},
         "grid": {"d_over_lambda": [0.05], "k": [1]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["correlations", "--config", cfg])
    assert result.exit_code == 0, result.output
    cells = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["ok"]
    assert "dimerization_score" in cells[0]["params"]


def test_driven_spectrum_files_and_schema(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "driven-spectrum", "array": {"n_atoms": 2},
         "grid": {"d_over_lambda": [0.05]},
         "drive": {"power": [0.01, 0.1],
                   "detuning": {"start": -2.0, "stop": 1.0, "count": 21}},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert manifest.success
    for idx in (0, 1):
        lines = (tmp_path / "out" / f"spectrum_p{idx:02d}.csv").read_text().strip().split("\n")
        assert lines[0] == "detuning,re_r,im_r,re_t,im_t,incoherent"
        assert len(lines) == 22


def test_driven_spectrum_at_zero_power_is_the_transfer_matrix(tmp_path):
    """At P = 0 a cell writes the linear transfer-matrix r and t, and I = 0."""
    config = ArrayConfig.from_period(3, 0.13)
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "driven-spectrum", "array": {"n_atoms": 3},
         "grid": {"d_over_lambda": [0.13]},
         "drive": {"power": [0.0], "detuning": {"start": -3.0, "stop": 2.0, "count": 26}},
         "output": {"directory": str(tmp_path / "out")}},
    )
    manifest = run_scan(validate_config(path))
    assert [cell.status for cell in manifest.cells] == ["ok"]
    lines = (tmp_path / "out" / "spectrum_p00.csv").read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert len(rows) == 26
    # phases are referenced to the first atom, the transfer matrix's t to the last
    to_first_atom = np.exp(-1j * config.phase * (config.n_atoms - 1))
    for delta, re_r, im_r, re_t, im_t, incoherent in rows:
        r, t = transfer_matrix_amplitudes(config, delta)
        assert abs(complex(re_r, im_r) - r) <= 1e-12
        assert abs(complex(re_t, im_t) - t * to_first_atom) <= 1e-12
        assert abs(incoherent) <= driven_module.INCOHERENT_SLACK


def test_driven_map_parallel_determinism(tmp_path):
    def cfg(out, workers):
        return write_config(
            tmp_path / f"cfg_{out}.yaml",
            {"mode": "driven-map", "array": {"n_atoms": 2},
             "grid": {"d_over_lambda": [0.05, 0.1]},
             "drive": {"power": [0.05, 0.5],
                       "detuning": {"start": -2.0, "stop": 1.0, "count": 41}},
             "output": {"directory": str(tmp_path / out)},
             "workers": workers},
        )

    run_scan(validate_config(cfg("w1", 1)))
    run_scan(validate_config(cfg("w2", 2)))
    bytes_1 = (tmp_path / "w1" / "driven_map.csv").read_bytes()
    bytes_2 = (tmp_path / "w2" / "driven_map.csv").read_bytes()
    assert bytes_1 == bytes_2
    header = bytes_1.decode().split("\n")[0]
    assert header == "power,d_over_lambda,narrowest_fwhm,found"


def test_driven_manifest_reports_solver_health(tmp_path):
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "driven-map", "array": {"n_atoms": 2},
         "grid": {"d_over_lambda": [0.05, 0.1]},
         "drive": {"power": [0.05], "detuning": {"start": -2.0, "stop": 1.0, "count": 11}},
         "output": {"directory": str(tmp_path / "out")}},
    )
    run_scan(validate_config(path))
    cells = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["cells"]
    assert len(cells) == 2
    for cell in cells:
        assert list(cell["health"]) == [
            "fallback_points", "v_condition", "pencil_dim", "support_dim"
        ]
        assert cell["health"]["fallback_points"] == 0
        assert (cell["health"]["pencil_dim"], cell["health"]["support_dim"]) == (16, 10)
        assert 1.0 <= cell["health"]["v_condition"] < 1e8
        assert float(fmt_float(cell["health"]["v_condition"])) == cell["health"]["v_condition"]


@pytest.mark.parametrize(
    "condition, written",
    [(16314.307670549988, 16314.3076705), (553.5797898133652, 553.579789813), (None, None)],
)
def test_driven_health_is_written_at_the_data_files_precision(condition, written):
    """The manifest writes v_condition with the 12 significant digits of the
    data files, not the last digits that follow the BLAS thread count, and a
    pencil that could not be expanded keeps its None."""
    health = {"fallback_points": 0, "v_condition": condition, "pencil_dim": 1024}
    spectrum = driven_module.ScatteringSpectrum(*[None] * 5, health=health)
    assert cells_module._health(spectrum) == {"health": {**health, "v_condition": written}}


# three periods listed out of order, two powers
_BY_PERIOD = {
    "array": {"n_atoms": 2},
    "grid": {"d_over_lambda": [0.25, 0.05, 0.1]},
    "drive": {
        "power": [0.5, 0.05],
        "detuning": {"start": -6.0, "stop": 2.0, "coarse": 41, "refine_points": 11},
    },
}


def _driven_run(tmp_path, name, mode="driven-map", workers=1, d_over_lambda=None, power=None):
    """Run the ``_BY_PERIOD`` scan, or a part of its grid, into ``tmp_path / name``."""
    grid = {"d_over_lambda": d_over_lambda or _BY_PERIOD["grid"]["d_over_lambda"]}
    drive = {**_BY_PERIOD["drive"], "power": power or _BY_PERIOD["drive"]["power"]}
    path = write_config(
        tmp_path / f"{name}.yaml",
        {"mode": mode, **_BY_PERIOD, "grid": grid, "drive": drive,
         "output": {"directory": str(tmp_path / name)}, "workers": workers},
    )
    assert run_scan(validate_config(path)).success
    return tmp_path / name


def test_driven_outputs_keep_config_order_when_cells_run_by_period(tmp_path):
    """Rows, spectrum file numbers and manifest cells follow (power, d), whatever the
    order in which the cells are solved."""
    powers, periods = _BY_PERIOD["drive"]["power"], _BY_PERIOD["grid"]["d_over_lambda"]
    cells = list(itertools.product(powers, periods))
    csv = [(_driven_run(tmp_path, f"w{w}", workers=w) / "driven_map.csv").read_bytes() for w in (1, 2)]
    assert csv[0] == csv[1]
    manifest = json.loads((tmp_path / "w2" / "run_manifest.json").read_text())
    assert [(c["index"], c["params"]) for c in manifest["cells"]] == [
        (i, {"power": p, "d_over_lambda": d}) for i, (p, d) in enumerate(cells)
    ]
    rows = csv[0].decode().splitlines()[1:]
    assert len({row.split(",")[2] for row in rows}) == len(cells)  # every cell its own FWHM
    for (p, d), row in zip(cells, rows, strict=True):
        single = _driven_run(tmp_path, f"{p}-{d}", power=[p], d_over_lambda=[d])
        assert (single / "driven_map.csv").read_text().splitlines()[1] == row

    # driven-spectrum takes one d: its files and cells are numbered in power order
    spectra = _driven_run(tmp_path, "spectra", "driven-spectrum", d_over_lambda=[0.25])
    manifest = json.loads((spectra / "run_manifest.json").read_text())
    assert [(c["index"], c["params"]) for c in manifest["cells"]] == [
        (i, {"power": p, "d_over_lambda": 0.25, "index": i}) for i, p in enumerate(powers)
    ]
    names = [f"spectrum_p{i:02d}.csv" for i in range(len(powers))]
    assert manifest["outputs"] == [str(spectra / name) for name in names]
    for i, p in enumerate(powers):
        single = _driven_run(tmp_path, f"p{i}", "driven-spectrum", d_over_lambda=[0.25], power=[p])
        assert (spectra / names[i]).read_bytes() == (single / "spectrum_p00.csv").read_bytes()


def test_driven_map_builds_each_cell_in_output_order(tmp_path, monkeypatch):
    """Three periods at two powers: six cells, each building its own pencil
    once, solved in the (power, d) output order; no period is cached."""
    builds = []
    build = driven_module._pencil
    monkeypatch.setattr(
        driven_module,
        "_pencil",
        lambda config, drive: builds.append(config) or build(config, drive),
    )
    _driven_run(tmp_path, "out")
    powers, periods = _BY_PERIOD["drive"]["power"], _BY_PERIOD["grid"]["d_over_lambda"]
    assert builds == [ArrayConfig.from_period(2, d) for _ in powers for d in periods]


def test_driven_cell_without_fallback_factors_m0_once(tmp_path, monkeypatch):
    """Each cell makes one dense factorization of its 4^N x 4^N matrix M0:
    one ``inv`` or ``solve`` call of that size per cell."""
    factored = []
    linalg = driven_module.np.linalg
    for name in ("inv", "solve"):
        dense = getattr(linalg, name)

        def counted(a, *args, _name=name, _dense=dense):
            if a.shape == (16, 16):
                factored.append(_name)
            return _dense(a, *args)

        monkeypatch.setattr(linalg, name, counted)
    out = _driven_run(tmp_path, "out")
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    assert [c["health"]["fallback_points"] for c in cells] == [0] * 6
    assert factored == ["inv"] * 6


def test_five_atom_driven_map_cell_keeps_its_values(tmp_path, monkeypatch):
    """One N = 5 cell, a size no benchmark workload runs: its narrowest FWHM and
    max I as the complex-arithmetic solver gave them."""
    spectra = []
    solve = driven_module.incoherent_spectrum
    monkeypatch.setattr(
        driven_module,
        "incoherent_spectrum",
        lambda config, drive: spectra.append(solve(config, drive)) or spectra[-1],
    )
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "driven-map", "array": {"n_atoms": 5},
         "grid": {"d_over_lambda": [0.05]},
         "drive": {"power": [1.0], "detuning": {"start": -25.0, "stop": 5.0, "coarse": 61}},
         "output": {"directory": str(tmp_path / "out")}},
    )
    assert run_scan(validate_config(path)).success
    (spectrum,) = spectra
    assert spectrum.health["fallback_points"] == 0
    assert spectrum.narrowest_fwhm == pytest.approx(2.5838426432391888, rel=1e-9)
    assert spectrum.incoherent.max() == pytest.approx(0.781158588784444, rel=1e-9)
    row = (tmp_path / "out" / "driven_map.csv").read_text().splitlines()[1].split(",")
    assert row[2] == fmt_float(spectrum.narrowest_fwhm)


def test_manifest_contents(tmp_path):
    spec = validate_config(decay_vs_k_config(tmp_path))
    manifest = run_scan(spec)
    data = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert data["mode"] == "decay-vs-k"
    assert data["success"] is True
    assert len(data["cells"]) == 10
    assert all(c["status"] == "ok" for c in data["cells"])
    assert data["outputs"] == [str(tmp_path / "out" / "decay_vs_k.csv")]
    assert list(data) == [
        "mode", "version", "workers", "blas_threads", "wall_time_s", "config",
        "outputs", "cells", "success",
    ]
    assert list(data["blas_threads"]) == list(BLAS_THREAD_VARS)
    assert data["workers"] == 1
    assert all(list(c) == ["index", "params", "status"] for c in data["cells"])


def test_sector_scans_assemble_each_sector_once_through_the_public_path(tmp_path, monkeypatch):
    """Every sector solved reads one ``build_hamiltonian``, and no cell solves
    it through ``diagonalize_sector``: decay cells keep only the smallest
    gamma, and entropy cells lift only the most subradiant pairs."""
    built, solved = [], []
    real_build, real_solve = spectrum_module.build_hamiltonian, spectrum_module.diagonalize_sector
    monkeypatch.setattr(
        spectrum_module,
        "build_hamiltonian",
        lambda config, basis: built.append(basis.n_excitations) or real_build(config, basis),
    )
    monkeypatch.setattr(
        spectrum_module,
        "diagonalize_sector",
        lambda h: solved.append(h.basis.n_excitations) or real_solve(h),
    )
    spectrum_module._min_gamma.cache_clear()
    sectors = [1, 2, 3] * 2  # (d, k) in grid order
    try:
        for mode in ("decay-map", "entropy-map"):
            built.clear()
            solved.clear()
            path = write_config(
                tmp_path / f"{mode}.yaml",
                {"mode": mode, "array": {"n_atoms": 6},
                 "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2, 3]},
                 "output": {"directory": str(tmp_path / mode)}},
            )
            assert run_scan(validate_config(path)).success
            assert built == sectors, mode
            assert solved == [], mode
    finally:
        spectrum_module._min_gamma.cache_clear()


def test_cli_success_exit_zero(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1, 2]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["decay-vs-k", "--config", cfg])
    assert result.exit_code == 0, result.output


def test_cli_rejects_the_removed_format_flag(tmp_path):
    cfg = decay_vs_k_config(tmp_path)
    result = _invoke(["decay-vs-k", "--config", cfg, "--format", "json"])
    assert result.exit_code == 2
    assert "--format" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["config", "flag"])
def test_cli_uncreatable_output_directory_exit_two(tmp_path, via):
    """A regular file in place of the output directory, or of one of its parents."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if via == "config" else tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", {"mode": "decay-vs-k", **_SECTOR, "output": {"directory": str(out)}}
    )
    flags = ["--out", str(taken / "sub")] if via == "flag" else []
    result = _invoke(["decay-vs-k", "--config", cfg, *flags])
    assert result.exit_code == 2
    assert "error: output.directory: " in result.output
    assert "Traceback" not in result.output
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "taken"]


@pytest.mark.parametrize(
    "mode, name",
    [("decay-vs-k", "decay_vs_k.csv"), ("hosvd-analyze", "hosvd_k1.json")],
    ids=["table", "per-cell"],
)
def test_cli_unwritable_data_file_exit_two(tmp_path, mode, name):
    """A directory in place of a data file: one error line naming the file, exit 2."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(
        tmp_path / "cfg.yaml", {"mode": mode, **_SECTOR, "output": {"directory": str(out)}}
    )
    result = _invoke([mode, "--config", cfg])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        f"error: output.directory: cannot write {out / name}: Is a directory"
    ]
    assert (out / name).is_dir()


def test_cli_mode_mismatch_exit_two(tmp_path):
    cfg = decay_vs_k_config(tmp_path)
    result = _invoke(["decay-map", "--config", cfg])
    assert result.exit_code == 2


def test_cli_invalid_config_exit_two(tmp_path):
    cfg = write_config(
        tmp_path / "bad.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [9]}},
    )
    result = _invoke(["decay-vs-k", "--config", cfg])
    assert result.exit_code == 2
    assert "grid.k" in result.output


def test_cli_missing_config_exit_two(tmp_path):
    result = _invoke(["decay-map", "--config", str(tmp_path / "nope.yaml")])
    assert result.exit_code == 2


def test_cli_numerical_failure_exit_three(tmp_path, monkeypatch):
    monkeypatch.setattr(cells_module, "_cell_min_gamma", lambda args: ("error", "synthetic failure"))
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["decay-vs-k", "--config", cfg])
    assert result.exit_code == 3
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["success"] is False
    assert manifest["cells"][0]["error"] == "synthetic failure"


def test_cell_failure_raised_by_worker_is_recorded(tmp_path, monkeypatch):
    def fail(args):
        raise NumericalError("synthetic residual 1e-3")

    monkeypatch.setattr(cells_module, "_cell_min_gamma", fail)
    manifest = run_scan(validate_config(decay_vs_k_config(tmp_path)))
    assert not manifest.success
    cells = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["cells"]
    assert [list(c) for c in cells] == [["index", "params", "status", "error"]] * 10
    assert {c["error"] for c in cells} == {"synthetic residual 1e-3"}


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_raising_memory_error_is_that_cells_error(tmp_path, monkeypatch, workers):
    """Any exception of one cell becomes that cell's error status: the scan
    goes on, writes the other rows and the manifest, and the CLI exits 3."""
    compute = cells_module._cell_min_gamma

    def out_of_memory_at_k2(cell):
        if cell["k"] == 2 and cell["d_over_lambda"] == 0.1:
            raise MemoryError("synthetic allocation failure")
        return compute(cell)

    monkeypatch.setattr(cells_module, "_cell_min_gamma", out_of_memory_at_k2)
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-map", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["decay-map", "--config", cfg, "--workers", str(workers)])
    assert result.exit_code == 3
    assert "1 of 6 cells failed" in result.output
    cells = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["cells"]
    failed = [c for c in cells if c["status"] == "error"]
    assert [c["params"] for c in failed] == [{"d_over_lambda": 0.1, "n_atoms": 4, "k": 2}]
    assert failed[0]["error"] == "MemoryError: synthetic allocation failure"
    assert [c["status"] for c in cells].count("ok") == 5
    rows = (tmp_path / "out" / "decay_map.csv").read_text().splitlines()[1:]
    assert [(float(d), int(k)) for d, k, *_ in (row.split(",") for row in rows)] == [
        (0.05, 1), (0.05, 2), (0.05, 3), (0.1, 1), (0.1, 3)
    ]


def test_killed_worker_leaves_its_cell_and_the_unfinished_ones_not_run(tmp_path, monkeypatch):
    """A worker killed by SIGKILL, as the OOM killer does, breaks the pool:
    every cell without a result becomes an error "not run: BrokenProcessPool:
    ...", and the finished rows and the manifest are written; the CLI exits 3."""
    compute = cells_module._cell_min_gamma

    def killed_at_k2(cell):
        if cell["k"] == 2 and cell["d_over_lambda"] == 0.1:
            os.kill(os.getpid(), signal.SIGKILL)
        return compute(cell)

    monkeypatch.setattr(cells_module, "_cell_min_gamma", killed_at_k2)
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-map", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["decay-map", "--config", cfg, "--workers", "2"])
    assert result.exit_code == 3
    assert "cells failed; see run_manifest.json" in result.output
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["success"] is False
    cells = manifest["cells"]
    assert len(cells) == 6
    killed = cells[4]
    assert killed["params"] == {"d_over_lambda": 0.1, "n_atoms": 4, "k": 2}
    assert killed["status"] == "error"
    assert killed["error"].startswith("not run: BrokenProcessPool: ")
    assert {c["status"] for c in cells} == {"ok", "error"}
    assert all(c["error"] == killed["error"] for c in cells if c["status"] == "error")
    rows = (tmp_path / "out" / "decay_map.csv").read_text().splitlines()[1:]
    ok = [(c["params"]["d_over_lambda"], c["params"]["k"]) for c in cells if c["status"] == "ok"]
    assert [(float(d), int(k)) for d, k, *_ in (row.split(",") for row in rows)] == ok


def test_killed_worker_keeps_the_cells_that_finished(tmp_path, monkeypatch):
    """The first cell sleeps, then its worker is SIGKILLed; the other worker
    has finished cells 1-5 by then, and they keep their status and rows:
    only the killed cell reads "not run: BrokenProcessPool: ...", and the
    CLI exits 3."""
    compute = cells_module._cell_min_gamma

    def killed_first(cell):
        if cell["k"] == 1 and cell["d_over_lambda"] == 0.05:
            time.sleep(1.0)
            os.kill(os.getpid(), signal.SIGKILL)
        return compute(cell)

    monkeypatch.setattr(cells_module, "_cell_min_gamma", killed_first)
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-map", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    result = _invoke(["decay-map", "--config", cfg, "--workers", "2"])
    assert result.exit_code == 3
    assert "1 of 6 cells failed" in result.output
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["success"] is False
    cells = manifest["cells"]
    assert [c["status"] for c in cells] == ["error"] + ["ok"] * 5
    assert cells[0]["error"].startswith("not run: BrokenProcessPool: ")
    rows = (tmp_path / "out" / "decay_map.csv").read_text().splitlines()[1:]
    assert [(float(d), int(k)) for d, k, *_ in (row.split(",") for row in rows)] == [
        (0.05, 2), (0.05, 3), (0.1, 1), (0.1, 2), (0.1, 3)
    ]


def test_interrupted_scan_writes_the_finished_cells(tmp_path, monkeypatch):
    """Ctrl-C during a cell: the scan writes the rows of the cells before it
    and the manifest (``success: false``, the stopped cells "not run"), then
    raises the ``KeyboardInterrupt`` again."""
    compute = cells_module._cell_min_gamma

    def interrupted_at_third(cell):
        if cell["k"] == 3 and cell["d_over_lambda"] == 0.05:
            raise KeyboardInterrupt
        return compute(cell)

    monkeypatch.setattr(cells_module, "_cell_min_gamma", interrupted_at_third)
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-map", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2, 3]},
         "output": {"directory": str(tmp_path / "out")}},
    )
    with pytest.raises(KeyboardInterrupt):
        run_scan(validate_config(cfg))
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["success"] is False
    cells = manifest["cells"]
    assert [c["status"] for c in cells] == ["ok", "ok"] + ["error"] * 4
    assert {c["error"] for c in cells[2:]} == {"not run: KeyboardInterrupt"}
    rows = (tmp_path / "out" / "decay_map.csv").read_text().splitlines()[1:]
    config = ArrayConfig.from_period(4, 0.05)
    assert [row.split(",") for row in rows] == [
        [fmt_float(0.05), str(k), "4", fmt_float(min_decay_rate(config, k))] for k in (1, 2)
    ]


@pytest.mark.parametrize("workers", ["0", "two"])
def test_cli_workers_below_one_exit_two(tmp_path, workers):
    result = _invoke(["decay-vs-k", "--config", decay_vs_k_config(tmp_path), "--workers", workers])
    assert result.exit_code == 2
    assert "--workers" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_version_exit_zero():
    result = _invoke(["--version"])
    assert result.exit_code == 0
    assert result.output == "wqed-scan, version 0.1.0\n"


def test_cli_out_and_workers_override(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1, 2]},
         "output": {"directory": str(tmp_path / "ignored")}},
    )
    override = tmp_path / "elsewhere"
    result = _invoke(["decay-vs-k", "--config", cfg, "--out", str(override), "--workers", "2"])
    assert result.exit_code == 0, result.output
    assert (override / "decay_vs_k.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_float_formatting_twelve_digits(tmp_path):
    spec = validate_config(decay_vs_k_config(tmp_path))
    run_scan(spec)
    line = (tmp_path / "out" / "decay_vs_k.csv").read_text().split("\n")[1]
    value = line.split(",")[3]
    mantissa = value.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 12
    assert value == value.lower()


def _sector_params(d, n, k):
    return {"d_over_lambda": d, "n_atoms": n, "k": k}


_DRIVE = {"power": [0.05, 0.5], "detuning": {"start": -2.0, "stop": 1.0, "count": 11}}

# mode -> (config, output file names, per-cell (params, status)), all in grid order
_MODE_CASES = {
    "decay-map": (
        {"array": {"n_atoms": 3}, "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2]}},
        ["decay_map.csv"],
        [(_sector_params(d, 3, k), "ok") for d in (0.05, 0.1) for k in (1, 2)],
    ),
    "decay-vs-k": (
        {"array": {"n_atoms": 3}, "grid": {"d_over_lambda": [0.05], "k": [1, 2, 3]}},
        ["decay_vs_k.csv"],
        [(_sector_params(0.05, 3, k), "ok") for k in (1, 2, 3)],
    ),
    "size-map": (
        {"grid": {"d_over_lambda": [0.05], "n_atoms": [2, 3], "k": [1, 3]}},
        ["size_map.csv"],
        [
            (_sector_params(0.05, 2, 1), "ok"),
            (_sector_params(0.05, 2, 3), "skipped"),
            (_sector_params(0.05, 3, 1), "ok"),
            (_sector_params(0.05, 3, 3), "ok"),
        ],
    ),
    "hosvd-analyze": (
        {"array": {"n_atoms": 4}, "grid": {"d_over_lambda": [0.05], "k": [1, 2]}},
        ["hosvd_k1.json", "hosvd_k2.json"],
        [(_sector_params(0.05, 4, k), "ok") for k in (1, 2)],
    ),
    "entropy-map": (
        {"array": {"n_atoms": 3}, "grid": {"d_over_lambda": [0.05, 0.1], "k": [1, 2]}},
        ["entropy_map.csv"],
        [(_sector_params(d, 3, k), "ok") for d in (0.05, 0.1) for k in (1, 2)],
    ),
    "correlations": (
        {"array": {"n_atoms": 4}, "grid": {"d_over_lambda": [0.05], "k": [1, 2]}},
        ["correlations_k1.csv", "correlations_k2.csv"],
        [
            ({**_sector_params(0.05, 4, 1), "dimerization_score": 0.850239711875}, "ok"),
            ({**_sector_params(0.05, 4, 2), "dimerization_score": 0.993580466399}, "ok"),
        ],
    ),
    "driven-map": (
        {"array": {"n_atoms": 2}, "grid": {"d_over_lambda": [0.05, 0.1]}, "drive": _DRIVE},
        ["driven_map.csv"],
        [({"power": p, "d_over_lambda": d}, "ok") for p in (0.05, 0.5) for d in (0.05, 0.1)],
    ),
    "driven-spectrum": (
        {"array": {"n_atoms": 2}, "grid": {"d_over_lambda": [0.05]}, "drive": _DRIVE},
        ["spectrum_p00.csv", "spectrum_p01.csv"],
        [({"power": p, "d_over_lambda": 0.05, "index": i}, "ok") for i, p in enumerate((0.05, 0.5))],
    ),
}


@pytest.mark.parametrize("mode", scan_module.MODES)
def test_every_mode_writes_expected_files_and_cell_params(tmp_path, mode):
    """At one worker and at two, every data file has the same bytes."""
    payload, files, cells = _MODE_CASES[mode]
    written = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        path = write_config(
            tmp_path / "cfg.yaml",
            {"mode": mode, **payload, "output": {"directory": str(out)}, "workers": workers},
        )
        manifest = run_scan(validate_config(path))
        assert manifest.success
        data = json.loads((out / "run_manifest.json").read_text())
        assert data["outputs"] == [str(out / name) for name in files]
        assert sorted(p.name for p in out.iterdir()) == sorted(files + ["run_manifest.json"])
        assert [c["index"] for c in data["cells"]] == list(range(len(cells)))
        assert [c["status"] for c in data["cells"]] == [status for _, status in cells]
        # exact keys and key order; floats to within the 12-digit output rounding
        assert [list(c["params"]) for c in data["cells"]] == [list(p) for p, _ in cells]
        assert [c["params"] for c in data["cells"]] == [
            pytest.approx(p, abs=1e-9) for p, _ in cells
        ]
        written[workers] = {name: (out / name).read_bytes() for name in files}
    assert written[1] == written[2]


def test_per_cell_files_are_written_as_their_cells_finish(tmp_path, monkeypatch):
    """At one worker, the second correlations cell runs with the first
    cell's file already on disk."""
    out = tmp_path / "out"
    compute = cells_module._cell_correlations
    first_file_seen = []

    def recorded(cell):
        first_file_seen.append((out / "correlations_k1.csv").exists())
        return compute(cell)

    monkeypatch.setattr(cells_module, "_cell_correlations", recorded)
    payload, files, _ = _MODE_CASES["correlations"]
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "correlations", **payload, "output": {"directory": str(out)}, "workers": 1},
    )
    assert run_scan(validate_config(path)).success
    assert first_file_seen == [False, True]
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["run_manifest.json"])


_IMPORT_PROBE = """
import json
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import wqed_subradiance.cli
import wqed_subradiance.cells

loaded = scipy_modules()
from wqed_subradiance import (
    ArrayConfig, ansatz_overlap, hosvd, most_subradiant_state, to_symmetric_tensor,
)

state = most_subradiant_state(ArrayConfig.from_period(6, 0.05), 3)
result = hosvd(to_symmetric_tensor(state))
overlaps = {name: ansatz_overlap(result, name) for name in ("fermionic", "dimerized")}
print(json.dumps({"scipy": loaded, "overlap_scipy": scipy_modules(), "overlaps": overlaps}))
"""


def test_cli_import_loads_no_scipy_and_overlaps_still_work():
    """Neither the CLI's imports nor both ansatz overlaps load any scipy module."""
    src = str(Path(scan_module.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["scipy"] == []
    assert probe["overlap_scipy"] == []
    state = most_subradiant_state(ArrayConfig.from_period(6, 0.05), 3)
    result = hosvd(to_symmetric_tensor(state))
    for name, overlaps in probe["overlaps"].items():
        assert overlaps == pytest.approx(ansatz_overlap(result, name), rel=0, abs=1e-12)


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, deferred ones included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_its_declared_runtime_dependencies():
    """Outside the standard library, ``src/`` imports numpy and yaml alone,
    the import names of ``pyproject.toml``'s runtime dependencies numpy and
    PyYAML; a module that needs more must declare it (as an extra)."""
    package = Path(scan_module.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    roots = set().union(*map(_imported_roots, modules))
    third_party = roots - set(sys.stdlib_module_names) - {"wqed_subradiance"}
    assert third_party == {"numpy", "yaml"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~\[; ]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    assert declared == {"numpy", "PyYAML"}


def test_numbers_are_read_only_by_the_one_rule():
    """``lattice._number`` is the one check of a number the library takes:
    no other module imports ``numbers``, and ``lattice`` reads it only there."""
    package = Path(scan_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"
        ]
        reads = {id(node) for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "numbers"}
        if path.name != "lattice.py":
            assert not imports and not reads, path.name
            continue
        assert [(type(node), node.names[0].asname) for node in imports] == [(ast.Import, None)]
        (rule,) = [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_number"
        ]
        inside = {id(node) for node in ast.walk(rule) if isinstance(node, ast.Name) and node.id == "numbers"}
        assert reads and reads == inside


_COLD_START_PROBE = """
import json
import sys

import wqed_subradiance

loaded = {"import": "numpy" in sys.modules}
for path in sys.argv[2:]:
    wqed_subradiance.validate_config(path)
loaded["validate"] = "numpy" in sys.modules
from wqed_subradiance.cli import main

try:
    main(["decay-map", "--config", sys.argv[1]])
except SystemExit as exc:
    loaded["exit"] = exc.code
loaded["cli_error"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def _run_probe(source, *args):
    proc = subprocess.run(
        [sys.executable, "-c", source, *map(str, args)],
        env=_env_without_blas_vars(), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_validation_and_cli_config_error_load_no_numpy(tmp_path):
    """Config checking and the CLI's error path run without numpy."""
    configs = sorted(Path(scan_module.__file__).parents[2].glob("configs/*.yaml"))
    assert len(configs) == 5
    typo = write_config(
        tmp_path / "typo.yaml",
        {"mode": "decay-map", "array": {"n_atom": 4}, "grid": {"d_over_lambda": [0.05], "k": [1]}},
    )
    probe = _run_probe(_COLD_START_PROBE, typo, *configs)
    assert probe == {"import": False, "validate": False, "exit": 2, "cli_error": False}
    assert not (tmp_path / "out").exists()


_LOADED_PROBE = """
import json
import sys

from wqed_subradiance.cli import main

try:
    main([sys.argv[1], "--config", sys.argv[2]])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "loaded": [m for m in sys.argv[3:] if m in sys.modules]}))
"""


def test_driven_map_scan_loads_no_numpy_ma(tmp_path):
    """np.unique loads numpy.ma on its first call, over a megabyte of resident
    memory and tens of milliseconds; a driven scan must not need it."""
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "driven-map", **_BY_PERIOD, "output": {"directory": str(tmp_path / "out")}},
    )
    assert _run_probe(_LOADED_PROBE, "driven-map", path, "numpy.ma") == {"exit": 0, "loaded": []}


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("size-map", {"grid": {"n_atoms": [4, 5], "d_over_lambda": [0.05], "k": [1, 2]}}),
        ("entropy-map", {"array": {"n_atoms": 4}, "grid": {"d_over_lambda": [0.05], "k": [1, 2]}}),
        ("driven-map", _BY_PERIOD),
    ],
)
def test_only_driven_scans_load_the_driven_layer(tmp_path, mode, payload):
    """A sector scan never imports ``driven``; a driven scan loads it on its
    first cell.  No scan loads click."""
    out = tmp_path / "out"
    path = write_config(
        tmp_path / "cfg.yaml", {"mode": mode, **payload, "output": {"directory": str(out)}}
    )
    driven = "wqed_subradiance.driven"
    loaded = [driven] if mode == "driven-map" else []
    probe = _run_probe(_LOADED_PROBE, mode, path, driven, "click")
    assert probe == {"exit": 0, "loaded": loaded}
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    rows = (out / f"{mode.replace('-', '_')}.csv").read_text().splitlines()
    assert len(rows) == 1 + len(cells) and all(c["status"] == "ok" for c in cells)


_LAYERS = ["numpy"] + [
    f"wqed_subradiance.{name}" for name in ("cells", "correlations", "hosvd", "lattice", "spectrum")
]
_POOL_PROBE = """
import concurrent.futures
import json
import sys

from wqed_subradiance import run_scan, validate_config

layers = json.loads(sys.argv[2])
seen = [[m for m in layers if m in sys.modules]]


class RecordingPool:
    def __init__(self, max_workers):
        seen.append([m for m in layers if m in sys.modules])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, cell):
        future = concurrent.futures.Future()
        future.set_result(fn(cell))
        return future


concurrent.futures.ProcessPoolExecutor = RecordingPool
assert run_scan(validate_config(sys.argv[1])).success
print(json.dumps(seen))
"""


def test_compute_layers_load_before_the_pool_starts(tmp_path):
    """A sector scan loads numpy and the sector layers once, in the parent, so
    forked workers inherit them instead of each importing its own."""
    path = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "decay-vs-k", "array": {"n_atoms": 4},
         "grid": {"d_over_lambda": [0.05], "k": [1, 2]},
         "output": {"directory": str(tmp_path / "out")}, "workers": 2},
    )
    assert _run_probe(_POOL_PROBE, path, json.dumps(_LAYERS)) == [[], _LAYERS]


def test_every_public_name_resolves_and_is_listed():
    import wqed_subradiance
    import wqed_subradiance.hosvd as hosvd_name

    for name in wqed_subradiance.__all__:
        value = getattr(wqed_subradiance, name)
        home = getattr(value, "__module__", "wqed_subradiance")
        assert home.startswith("wqed_subradiance"), name
    assert set(wqed_subradiance.__all__) <= set(dir(wqed_subradiance))
    # the function keeps the name its module shares, also once the module loaded
    assert hosvd_name is hosvd is sys.modules["wqed_subradiance.hosvd"].hosvd
    with pytest.raises(AttributeError):
        wqed_subradiance.no_such_name


def _env_without_blas_vars(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(scan_module.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **extra}


_BLAS_PROBE = """
import itertools
import json
import os
import sys

seen = []


def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))


sys.addaudithook(hook)
if sys.argv[1:] == ["numpy-first"]:
    import numpy
import wqed_subradiance

after = [os.environ.get(var) for var in wqed_subradiance.BLAS_THREAD_VARS]
wqed_subradiance.ArrayConfig  # the first compute name loads numpy
print(json.dumps({"at_numpy_import": seen[0], "after": after}))
"""


@pytest.mark.parametrize(
    "extra, numpy_first, at_numpy_import, after",
    [
        ({}, False, "1", ["1", "1", "1"]),
        ({"OMP_NUM_THREADS": "2"}, False, None, [None, "2", None]),
        ({}, True, None, [None, None, None]),
    ],
    ids=["unset", "user-omp", "numpy-first"],
)
def test_package_pins_blas_threads_only_by_default(extra, numpy_first, at_numpy_import, after):
    """Importing the package pins BLAS to one thread before numpy loads (on the
    first compute name), unless the user set any thread variable or numpy was
    already loaded."""
    assert BLAS_THREAD_VARS == ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE] + (["numpy-first"] if numpy_first else []),
        env=_env_without_blas_vars(**extra), capture_output=True, text=True, timeout=120,
        check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"at_numpy_import": at_numpy_import, "after": after}


def test_cli_output_same_with_default_and_pinned_blas(tmp_path):
    """(10,4) at d = 0 and 0.5 has degenerate cells whose entropy depended on
    the BLAS thread count; the default must give the pinned bytes. On a
    one-core host both runs are single-threaded anyway."""
    config = write_config(
        tmp_path / "cfg.yaml",
        {"mode": "entropy-map", "array": {"n_atoms": 10},
         "grid": {"d_over_lambda": [0.0, 0.5], "k": [4]}},
    )
    runs = {}
    for name, extra in (("default", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "wqed_subradiance.cli", "entropy-map", "--config", config,
             "--out", str(out)],
            env=_env_without_blas_vars(**extra), capture_output=True, text=True, timeout=120,
            check=True,
        )
        manifest = json.loads((out / "run_manifest.json").read_text())
        runs[name] = ((out / "entropy_map.csv").read_bytes(), manifest["blas_threads"])
    assert runs["default"][0] == runs["pinned"][0]
    assert runs["default"][1] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert runs["pinned"][1] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
    }


_WRAP_PROBE = """
import child

child.instrument(child.Tracer())
print("instrumented")
"""


def _perfbench_env():
    env = dict(os.environ)
    paths = [str(_REPO / "src"), str(_REPO / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def test_benchmark_wrap_targets_exist():
    """The benchmark's traced replay wraps program functions by name; each must exist."""
    proc = subprocess.run(
        [sys.executable, "-c", _WRAP_PROBE],
        env=_perfbench_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["instrumented"]


_DRIVEN_HOOK_PROBE = """
import json

import child

tracer = child.Tracer()
child.instrument(tracer)
config = child.lattice.ArrayConfig.from_period(2, 0.13)
drive = child.driven.DriveConfig(power=0.1, detuning_grid=[0.0])
rho = child.driven.steady_state(config, drive, 0.0)
child.driven.coherent_amplitudes(config, drive, rho, 0.0)
print(json.dumps(dict(tracer.counts)))
"""


def test_benchmark_driven_hooks_read_the_configs_they_wrap():
    """No workload reaches the steady-state and coherent-amplitude hooks, so call each once."""
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVEN_HOOK_PROBE],
        env=_perfbench_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["driven.points"] == 1
    assert counts["driven.liouvillian_dim"] == 16
    assert 0.0 <= counts["driven.incoherent_min"] <= 1.0


_REPLAY_PROBE = """
import json, sys

import child

scans = json.loads(sys.argv[1])
result = child.replay(scans, sys.argv[2])
print(json.dumps({"failed": result["failed_cells"], "counts": result["counts"]}))
"""


def test_benchmark_replay_runs_the_state_analysis_hooks(tmp_path):
    """The traced replay's HOSVD and correlation hooks read each state they wrap."""
    payloads = {
        "entropy": {
            "mode": "entropy-map",
            "array": {"n_atoms": 4},
            "grid": {"d_over_lambda": [0.05, 0.13], "k": [1, 2, 3]},
        },
        "correlations": {
            "mode": "correlations",
            "array": {"n_atoms": 4},
            "grid": {"d_over_lambda": 0.05, "k": [1, 2]},
        },
    }
    scans = [
        {"config": write_config(tmp_path / f"{name}.yaml", payload), "out": str(tmp_path / name)}
        for name, payload in payloads.items()
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY_PROBE, json.dumps(scans), str(tmp_path / "trace.json")],
        env=_perfbench_env(), capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["failed"] == 0
    assert probe["counts"]["hosvd.calls"] == 6
    assert probe["counts"]["correlations.calls"] == 2
