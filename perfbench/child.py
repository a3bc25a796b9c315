"""Work the benchmark runs inside the program's own interpreter.

Usage: ``python3 perfbench/child.py REQUEST.json RESPONSE.json`` with
``PYTHONPATH`` pointing at the program's ``src``.  The request may ask for:

- ``replay``: run the same scans serially in this process, through the public
  ``validate_config``/``run_scan`` path, with each module's public functions
  wrapped from outside so every call records a span (name, start, end,
  parent).  Spans stay in memory and go to ``trace_out`` at the end.
- ``gaps``: the gap between the two smallest rates of
  ``sector_decay_rates`` for each (d, N, k), to detect degenerate cells.
- ``oracle``: the minimum decay rate of (d, N, k) cells from the raw
  Kronecker operators of ``tests/oracles.py``, restricted to the sector.

It always reports the numpy, scipy and BLAS versions.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import wqed_subradiance as wq

# the package re-exports a function named ``hosvd``, so fetch modules by path
correlations, driven, hosvd, lattice, serialize, spectrum = (
    importlib.import_module(f"wqed_subradiance.{name}")
    for name in ("correlations", "driven", "hosvd", "lattice", "serialize", "spectrum")
)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


class Tracer:
    """Spans and counters recorded around calls into the program's modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None])
            self.stack.append(index)
            token = before(args) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            if after:
                after(token, args, result, end - start)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)


def instrument(tracer: Tracer) -> None:
    """Replace each traced public function in every module that bound it."""
    counts = tracer.counts
    first_seen: set = set()

    def on_build(_, args, result, seconds):
        n, k, dim = args[0].n_atoms, args[1].n_excitations, args[1].dim
        counts["lattice.build_calls"] += 1
        counts["lattice.hops"] += dim * k * (n - k)

    def on_eig(_, args, result, seconds):
        dim = args[0].basis.dim
        counts["spectrum.eig_calls"] += 1
        counts["spectrum.eig_dim3"] += dim**3
        counts["spectrum.eig_max_dim"] = max(counts["spectrum.eig_max_dim"], dim)

    def rss_mb(_=None):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def on_hosvd(rss_before, args, result, seconds):
        n, k = args[0].n_atoms, args[0].k
        counts["hosvd.calls"] += 1
        # complex128 dense N^k tensor plus the N^(k-1)-square SVD factor
        counts["hosvd.bytes_computed"] += 16 * (n**k + n ** (2 * (k - 1)))
        counts["hosvd.rss_step_mb"] += rss_mb() - rss_before

    def on_corr(*_):
        counts["correlations.calls"] += 1

    def on_steady(_, args, result, seconds):
        config, drive = args[0], args[1]
        counts["driven.points"] += 1
        counts["driven.liouvillian_dim"] = max(
            counts["driven.liouvillian_dim"], 4**config.n_atoms
        )
        if (config, drive.phase_on_drive) not in first_seen:
            first_seen.add((config, drive.phase_on_drive))
            counts["driven.first_point_s"] += seconds

    def on_coherent(_, args, result, seconds):
        if args[1].phase_on_drive:
            r, t = result
            incoherent = 1.0 - abs(r) ** 2 - abs(t) ** 2
            counts["driven.incoherent_min"] = min(counts.get("driven.incoherent_min", 1.0), incoherent)
            counts["driven.incoherent_max"] = max(counts.get("driven.incoherent_max", 0.0), incoherent)

    def on_write(_, args, result, seconds):
        counts["serialize.bytes"] += Path(args[0]).stat().st_size

    targets = [
        (lattice, "enumerate_sector", "lattice.enumerate", None, None),
        (lattice, "build_hamiltonian", "lattice.build", None, on_build),
        (spectrum, "diagonalize_sector", "spectrum.eig", None, on_eig),
        (hosvd, "to_symmetric_tensor", "hosvd.tensor", None, None),
        (hosvd, "hosvd", "hosvd.hosvd", rss_mb, on_hosvd),
        (correlations, "correlation_matrix", "correlations.corr", None, on_corr),
        (driven, "resonance_grid", "driven.grid", None, None),
        (driven, "steady_state", "driven.steady", None, on_steady),
        (driven, "coherent_amplitudes", "driven.coherent", None, on_coherent),
        (driven, "narrowest_linewidth", "driven.linewidth", None, None),
        (serialize, "write_csv", "serialize.write", None, on_write),
        (serialize, "write_json", "serialize.write", None, on_write),
    ]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wqed_subradiance"]
    for home, attr, span, before, after in targets:
        original = getattr(home, attr)
        wrapped = tracer.wrap(span, original, before, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    to_dense = hosvd.SymmetricWavefunction.to_dense
    hosvd.SymmetricWavefunction.to_dense = tracer.wrap("hosvd.tensor", to_dense)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call (calibrated here)."""

    def noop():
        return None

    traced = Tracer().wrap("calibrate", noop)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def replay(scans: list[dict], trace_out: str) -> dict:
    tracer = Tracer()
    instrument(tracer)
    serial = 0.0
    failed = 0
    for scan in scans:
        spec = wq.validate_config(scan["config"])
        spec.out_dir = Path(scan["out"])
        spec.workers = 1
        start = time.perf_counter()
        manifest = wq.run_scan(spec)
        serial += time.perf_counter() - start
        failed += sum(c.status == "error" for c in manifest.cells)
    self_times = tracer.self_times()
    Path(trace_out).write_text(
        json.dumps({"spans": tracer.spans, "self_s": self_times}, indent=1) + "\n"
    )
    return {
        "serial_s": serial,
        "failed_cells": failed,
        "self_s": self_times,
        "counts": dict(tracer.counts),
        "spans": len(tracer.spans),
        "span_cost_s": span_cost(),
    }


def gaps(cells: list) -> list[float]:
    out = []
    for d, n, k in cells:
        rates = wq.sector_decay_rates(wq.ArrayConfig.from_period(int(n), d), int(k))
        out.append(float(rates[1] - rates[0]) if len(rates) > 1 else math.inf)
    return out


def oracle_min_gamma(cells: list, tests_dir: str) -> list[float]:
    sys.path.insert(0, tests_dir)
    import oracles

    out = []
    ops_by_n = {}
    for d, n, k in cells:
        n, k = int(n), int(k)
        if n not in ops_by_n:
            ops_by_n[n] = oracles.lowering_ops_full(n)
        ops = ops_by_n[n]
        rows = [oracles.subset_to_full_index(s, n) for s in itertools.combinations(range(n), k)]
        phi = 2.0 * math.pi * d
        # restrict each sigma+_a sigma-_b to the sector before multiplying
        raising = [op.conj().T[rows, :] for op in ops]
        lowering = [op[:, rows] for op in ops]
        h = sum(
            -1j * np.exp(1j * phi * abs(a - b)) * (raising[a] @ lowering[b])
            for a in range(n)
            for b in range(n)
        )
        values = np.linalg.eigvals(h)
        out.append(max(0.0, float((-values.imag / k).min())))
    return out


def main(request_path: str, response_path: str) -> None:
    request = json.loads(Path(request_path).read_text())
    response = {"env": environment()}
    if request.get("replay"):
        response["replay"] = replay(request["replay"], request["trace_out"])
    if request.get("gaps"):
        response["gaps"] = gaps(request["gaps"])
    if request.get("oracle"):
        response["oracle"] = oracle_min_gamma(request["oracle"], request["tests"])
    Path(response_path).write_text(json.dumps(response) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
