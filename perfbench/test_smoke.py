"""Smoke test of the benchmark itself, at tiny sizes (N=6 sectors, N=3 driven).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload in both modes, checks that every metric declared in
BENCHMARK.json is printed with its unit, and that the correctness gate fires
on corrupted outputs.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_prints_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for m in declared:
        assert printed.get(m["name"]) == m["unit"]
    assert printed["failed_frac"] == "ratio" and printed["wrong_cells"] == "count"


def _scan_outputs(tmp_path, name):
    """Run each scan of a tiny workload through the CLI into tmp_path."""
    wl = workloads.build(name, seed=5, nproc=1, size="smoke")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for scan in wl.scans:
        directory = tmp_path / "cli" / scan.stem
        config = workloads.write_config(scan, tmp_path / f"{scan.stem}.yaml", directory, 1)
        cmd = [sys.executable, "-m", "wqed_subradiance.cli", scan.mode, "--config", str(config)]
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        out.append((scan, directory))
    return out


def _wrong(scan, directory, reference=None):
    verdict = gate.Verdict()
    against = {"reference": reference} if reference else {}
    gate.check_scan(verdict, scan.mode, scan.config, directory, against=against)
    return verdict.wrong_cells


def _edit_csv(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gate_fires_on_corrupted_output(tmp_path, name):
    for scan, directory in _scan_outputs(tmp_path, name):
        reference = tmp_path / "reference" / scan.stem
        shutil.copytree(directory, reference)
        assert _wrong(scan, directory, reference) == 0
        path = sorted(directory.glob("*.csv"))[0]
        original = path.read_text()
        column = {"driven-map": 2, "correlations": 2}.get(scan.mode, -1)
        # an invariant breaks: negative rate, entropy above ln N, occupation > 1,
        # negative linewidth
        _edit_csv(path, 1, column, "-1.0")
        assert _wrong(scan, directory) >= 1
        # a value drifts from the reference while every invariant still holds
        value = float(original.splitlines()[1].split(",")[column])
        _edit_csv(path, 1, column, repr(value * 1.001 + 1e-3 if value >= 0 else value))
        assert _wrong(scan, directory, reference) >= 1
        # a grid cell goes missing
        path.write_text("\n".join(original.splitlines()[:-1]) + "\n")
        assert _wrong(scan, directory) >= 1


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "decay-sweep", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
