"""Seeded scan configurations for the four benchmark workloads.

Seed 0 reproduces the grid shapes of the shipped ``configs/*.yaml`` (same
ranges, ``{start, stop, count}`` grids), at the grid counts one benchmark run
can afford.  Any other seed draws the d values (same count and range) and the
detuning endpoints; nothing else changes, so every seed does the same amount
of work.  The program only ever sees the config files written from here.

``size="smoke"`` shrinks every workload (N=6 sectors, N=3 driven) so the
smoke test can walk every code path in seconds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("decay-sweep", "large-sector", "state-analysis", "driven-sweep")

D_RANGE = (0.01, 0.49)
DRIVEN_D_RANGE = (0.03, 0.25)
DETUNING = (-25.0, 5.0)
DETUNING_JITTER = (2.0, 1.0)

SIZES = {
    "full": {
        "n": 10,
        "k": [1, 2, 3, 4, 5],
        "decay_count": 25,
        # each d of the entropy grid costs one ~3 GB (10,5) HOSVD; three
        # points keep a run short and put d=0.25 (a degenerate cell) in seed 0
        "entropy_count": 3,
        "large_n": [11, 12],
        "large_k": [5, 6],
        "driven_n": 4,
        "driven_d": [0.03, 0.05, 0.1, 0.25],
        "powers": [0.01, 0.1, 1.0, 10.0],
        "coarse": 61,
        "refine_points": 31,
    },
    "smoke": {
        "n": 6,
        "k": [1, 2, 3],
        "decay_count": 5,
        "entropy_count": 3,
        "large_n": [6, 7],
        "large_k": [3],
        "driven_n": 3,
        "driven_d": [0.05, 0.25],
        "powers": [0.1, 1.0],
        "coarse": 21,
        "refine_points": 5,
    },
}


@dataclass(frozen=True)
class Scan:
    """One CLI invocation: ``wqed-scan <mode> --config <stem>.yaml``."""

    mode: str
    config: dict

    @property
    def stem(self) -> str:
        return self.mode.replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    scans: tuple[Scan, ...]
    workers: int
    pin_blas: bool  # run the CLI with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1


def _d_grid(rng: random.Random, seed: int, count: int, lo: float, hi: float):
    if seed == 0:
        return {"start": lo, "stop": hi, "count": count}
    return sorted(rng.uniform(lo, hi) for _ in range(count))


def _d_list(rng: random.Random, seed: int, values: list, lo: float, hi: float) -> list:
    if seed == 0:
        return list(values)
    return sorted(rng.uniform(lo, hi) for _ in values)


def build(name: str, seed: int, nproc: int, size: str = "full") -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    z = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    if name == "decay-sweep":
        grid = {"d_over_lambda": _d_grid(rng, seed, z["decay_count"], *D_RANGE), "k": z["k"]}
        scans = (Scan("decay-map", {"array": {"n_atoms": z["n"]}, "grid": grid}),)
        return Workload(name, scans, workers=nproc, pin_blas=True)
    if name == "large-sector":
        grid = {
            "n_atoms": z["large_n"],
            "d_over_lambda": _d_list(rng, seed, [0.05], *D_RANGE),
            "k": z["large_k"],
        }
        return Workload(name, (Scan("size-map", {"grid": grid}),), workers=1, pin_blas=False)
    if name == "state-analysis":
        array = {"n_atoms": z["n"]}
        entropy = {"d_over_lambda": _d_grid(rng, seed, z["entropy_count"], *D_RANGE), "k": z["k"]}
        corr = {"d_over_lambda": _d_list(rng, seed, [0.05], *D_RANGE), "k": z["k"]}
        scans = (
            Scan("entropy-map", {"array": array, "grid": entropy}),
            Scan("correlations", {"array": array, "grid": corr}),
        )
        return Workload(name, scans, workers=1, pin_blas=False)
    start, stop = DETUNING
    if seed != 0:
        start += rng.uniform(-1.0, 1.0) * DETUNING_JITTER[0]
        stop += rng.uniform(-1.0, 1.0) * DETUNING_JITTER[1]
    drive = {
        "power": z["powers"],
        "detuning": {
            "start": start,
            "stop": stop,
            "coarse": z["coarse"],
            "refine_points": z["refine_points"],
            "refine_span": 8.0,
        },
    }
    grid = {"d_over_lambda": _d_list(rng, seed, z["driven_d"], *DRIVEN_D_RANGE)}
    config = {"array": {"n_atoms": z["driven_n"]}, "grid": grid, "drive": drive}
    return Workload(name, (Scan("driven-map", config),), workers=1, pin_blas=False)


def write_config(scan: Scan, path: Path, out_dir: Path, workers: int) -> Path:
    """Write the scan's config (JSON is valid YAML) with output and workers set."""
    payload = {"mode": scan.mode, **scan.config}
    payload["output"] = {"directory": str(out_dir)}
    payload["workers"] = workers
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def linspace(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [float(start)]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [float(stop)]


def d_values(config: dict) -> list[float]:
    grid = config["grid"]["d_over_lambda"]
    if isinstance(grid, dict):
        return linspace(grid["start"], grid["stop"], grid["count"])
    return [float(v) for v in grid]
