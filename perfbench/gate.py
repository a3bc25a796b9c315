"""Correctness gate: expected cells, physical invariants and comparisons.

Every output cell the config asks for must be present; a cell counts as
wrong when it is missing, breaks an invariant (gamma >= 0, entropy in
[0, ln N], correlation trace k and occupations in [0, 1], linewidth > 0), or
disagrees with a reference, the traced replay, or the full-space oracle.
Cells whose lowest manifold is degenerate (two smallest rates closer than
``DEGENERATE_GAP``) pick their state by roundoff, so there only
manifold-invariant outputs (the decay rate) are compared.

Standard library only: it runs in the benchmark's parent process.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import d_values

DEGENERATE_GAP = 1e-8
GAMMA_RTOL, GAMMA_ATOL = 1e-8, 1e-12
STATE_ATOL = 1e-6
FWHM_RTOL = 1e-6
INVARIANT_SLACK = 1e-9
INCOHERENT_SLACK = 1e-8

SECTOR_MODES = ("decay-map", "size-map", "entropy-map", "correlations")
# outputs that depend on which state of a degenerate manifold was picked
STATE_MODES = ("entropy-map", "correlations")


@dataclass(frozen=True)
class Cell:
    n: int
    k: int
    params: tuple[float, ...]  # grid coordinates, in the order the CLI writes them


def expected_cells(mode: str, config: dict) -> list[Cell]:
    """The cells a config asks for, in the order the CLI writes them."""
    ds = d_values(config)
    grid = config["grid"]
    if mode == "driven-map":
        n = config["array"]["n_atoms"]
        return [Cell(n, 0, (p, d)) for p in config["drive"]["power"] for d in ds]
    ns = grid["n_atoms"] if mode == "size-map" else [config["array"]["n_atoms"]]
    return [Cell(n, k, (d, n, k)) for d in ds for n in ns for k in grid["k"] if k <= n]


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))[1:]


def load(mode: str, config: dict, out_dir: Path) -> list[tuple[tuple, tuple]]:
    """(grid coordinates, values) per output cell; cells missing on disk are absent."""
    if mode == "correlations":
        d = d_values(config)[0]
        n = config["array"]["n_atoms"]
        found = []
        for k in config["grid"]["k"]:
            path = out_dir / f"correlations_k{k}.csv"
            if path.exists():
                flat = [float(x) for row in _rows(path) for x in row[2:]]
                found.append(((d, n, k), tuple(flat)))
        return found
    path = out_dir / f"{mode.replace('-', '_')}.csv"
    if not path.exists():
        return []
    found = []
    for row in _rows(path):
        if mode in ("decay-map", "size-map"):
            d, k, n, gamma = row
            found.append(((float(d), int(n), int(k)), (float(gamma),)))
        elif mode == "entropy-map":
            d, k, entropy = row
            found.append(((float(d), config["array"]["n_atoms"], int(k)), (float(entropy),)))
        else:
            p, d, fwhm, found_flag = row
            found.append(((float(p), float(d)), (float(fwhm), float(found_flag))))
    return found


def _lookup(rows: list, params: tuple):
    """Values of the row at these coordinates (written with 12 digits)."""
    for coords, values in rows:
        if all(math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-14) for a, b in zip(coords, params)):
            return values
    return None


def invariant_problems(mode: str, cell: Cell, value: tuple[float, ...]) -> list[str]:
    """Physical invariants that hold at every seed."""
    if mode in ("decay-map", "size-map"):
        gamma = value[0]
        return [] if math.isfinite(gamma) and gamma >= 0 else [f"gamma {gamma} < 0"]
    if mode == "entropy-map":
        s = value[0]
        top = math.log(cell.n) + INVARIANT_SLACK
        return [] if -INVARIANT_SLACK <= s <= top else [f"entropy {s} outside [0, ln N]"]
    if mode == "correlations":
        n = cell.n
        if len(value) != 2 * n * n:
            return [f"{len(value) // 2} correlation entries, want {n * n}"]
        diag = [value[2 * (m * n + m)] for m in range(n)]
        problems = []
        if abs(sum(diag) - cell.k) > INVARIANT_SLACK * n:
            problems.append(f"trace {sum(diag)} != k={cell.k}")
        if min(diag) < -INVARIANT_SLACK or max(diag) > 1 + INVARIANT_SLACK:
            problems.append("occupation outside [0, 1]")
        return problems
    fwhm, found = value
    if found == 1.0:
        return [] if math.isfinite(fwhm) and fwhm > 0 else [f"linewidth {fwhm} <= 0"]
    return [] if found == 0.0 and math.isnan(fwhm) else [f"found={found} with linewidth {fwhm}"]


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def agreement_problems(mode: str, value, other, degenerate: bool) -> list[str]:
    """Differences between two runs of the same cell beyond tolerance."""
    if mode in ("decay-map", "size-map"):
        ok = _close(value[0], other[0], GAMMA_RTOL, GAMMA_ATOL)
        return [] if ok else [f"gamma {value[0]!r} vs {other[0]!r}"]
    if mode in STATE_MODES:
        if degenerate:
            return []
        if len(value) != len(other):
            return ["shape differs"]
        worst = max(abs(a - b) for a, b in zip(value, other))
        return [] if worst <= STATE_ATOL else [f"max deviation {worst:.3e}"]
    if value[1] != other[1]:
        return [f"found {value[1]} vs {other[1]}"]
    ok = _close(value[0], other[0], FWHM_RTOL, 0.0)
    return [] if ok else [f"linewidth {value[0]!r} vs {other[0]!r}"]


@dataclass
class Verdict:
    """Cells checked and, per failing cell, the reasons."""

    cells: int = 0
    wrong: dict[str, list[str]] = field(default_factory=dict)

    def flag(self, label: str, problems: list[str]) -> None:
        for problem in problems:
            self.wrong.setdefault(label, []).append(problem)

    @property
    def wrong_cells(self) -> int:
        return len(self.wrong)


def check_scan(
    verdict: Verdict,
    mode: str,
    config: dict,
    out_dir: Path,
    *,
    against: dict[str, Path] | None = None,
    gaps: dict[tuple, float] | None = None,
    oracle: dict[tuple, float] | None = None,
) -> None:
    """Check one scan's outputs; ``against`` maps labels to directories to compare with."""
    got = load(mode, config, out_dir)
    others = {label: load(mode, config, path) for label, path in (against or {}).items()}
    gaps = gaps or {}
    oracle = oracle or {}
    for cell in expected_cells(mode, config):
        verdict.cells += 1
        label = f"{mode}{list(cell.params)}"
        value = _lookup(got, cell.params)
        if value is None:
            verdict.flag(label, ["missing from output"])
            continue
        verdict.flag(label, invariant_problems(mode, cell, value))
        degenerate = gaps.get(cell.params, math.inf) < DEGENERATE_GAP
        for name, rows in others.items():
            other = _lookup(rows, cell.params)
            if other is None:
                verdict.flag(label, [f"missing from {name}"])
                continue
            problems = agreement_problems(mode, value, other, degenerate)
            verdict.flag(label, [f"{name}: {p}" for p in problems])
        if cell.params in oracle:
            want = oracle[cell.params]
            if not _close(value[0], want, GAMMA_RTOL, GAMMA_ATOL):
                verdict.flag(label, [f"oracle: gamma {value[0]!r} vs {want!r}"])
