"""Layered benchmark of the ``wqed-scan`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` runs the workload end
to end through the CLI, closed-loop (one CLI run at a time), repeating for
``--seconds``, and prints the end-to-end metrics.  ``--trace 1`` runs the CLI
once and then a traced replay of the same cells (serial, one process, BLAS
pinned to one thread) and prints the per-layer metrics.  Both check the
outputs (see ``gate.py``) and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 5
ORACLE_SAMPLES = 3
ORACLE_MAX_N = 10  # the 2^N oracle operators cost 16*4^N bytes each
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# never 0 on a good run, so reported beside the metrics and through the
# result line's "correct"/"failed" fields rather than as bounded metrics
GATE_METRICS = {"failed_frac": "ratio", "wrong_cells": "count"}
PER_LAYER = {
    "lattice.enumerate_s": "s",
    "lattice.build_s": "s",
    "lattice.build_calls": "count",
    "lattice.hops": "count",
    "lattice.ns_per_hop": "ns",
    "spectrum.eig_s": "s",
    "spectrum.eig_calls": "count",
    "spectrum.eig_dim3": "count",
    "spectrum.eig_max_dim": "count",
    "spectrum.degenerate_cells": "count",
    "hosvd.tensor_s": "s",
    "hosvd.hosvd_s": "s",
    "hosvd.calls": "count",
    "hosvd.bytes_computed": "B",
    "hosvd.rss_step_mb": "MB",
    "correlations.corr_s": "s",
    "correlations.calls": "count",
    "driven.grid_s": "s",
    "driven.steady_s": "s",
    "driven.points": "count",
    "driven.ms_per_point": "ms",
    "driven.first_point_s": "s",
    "driven.coherent_s": "s",
    "driven.linewidth_s": "s",
    "driven.liouvillian_dim": "count",
    "serialize.write_s": "s",
    "serialize.bytes": "B",
    "scan.serial_s": "s",
    "scan.parallel_efficiency": "ratio",
    "scan.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# derived from array sizes; they repeat exactly for a given config
COMPUTED = (
    "lattice.hops",
    "spectrum.eig_dim3",
    "hosvd.bytes_computed",
    "driven.points",
    "driven.liouvillian_dim",
)


class Deadline(Exception):
    """A child process outlived the run's time budget and was killed."""


class Bench:
    """One benchmark run: a workload, its generated configs and scratch space."""

    def __init__(self, workload: workloads.Workload, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = ROOT / ".bench_work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.scans = []
        for scan in workload.scans:
            out = self.work / "cli" / scan.stem
            config = workloads.write_config(
                scan, self.work / f"{scan.stem}.yaml", out, workload.workers
            )
            self.scans.append((scan, config, out))
        self.reference = HERE / "reference" / workload.name
        self.use_reference = seed == 0 and size == "full" and self.reference.is_dir()

    def env(self, pin_blas: bool) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if pin_blas:
            env.update({var: "1" for var in BLAS_VARS})
        return env

    def spawn(self, cmd: list, env: dict) -> str:
        """Run a child to completion within the deadline; return its stdout."""
        proc = subprocess.Popen(
            [str(c) for c in cmd], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:  # timeout, interrupt or SIGTERM: leave nothing running
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise Deadline(f"{cmd[1]} exceeded the {RUN_DEADLINE_S:.0f} s run budget") from exc
            raise
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise RuntimeError(f"{' '.join(map(str, cmd[:3]))} exited with {proc.returncode}")
        return out

    def child(self, tag: str, request: dict) -> dict:
        request = {"tests": str(ROOT / "tests"), **request}
        req, resp = self.work / f"{tag}.request.json", self.work / f"{tag}.response.json"
        req.write_text(json.dumps(request))
        self.spawn([sys.executable, HERE / "child.py", req, resp], self.env(pin_blas=True))
        return json.loads(resp.read_text())

    def setup_seconds(self) -> float:
        code = "import sys, wqed_subradiance as w\nfor p in sys.argv[1:]: w.validate_config(p)"
        cmd = [sys.executable, "-c", code] + [config for _, config, _ in self.scans]
        env = self.env(self.workload.pin_blas)
        start = time.perf_counter()
        self.spawn(cmd, env)
        return time.perf_counter() - start

    def cli_once(self) -> dict:
        """One closed-loop pass over the workload's scans through the CLI."""
        total = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0}
        env = self.env(self.workload.pin_blas)
        for scan, config, out in self.scans:
            shutil.rmtree(out, ignore_errors=True)
            cmd = [
                sys.executable, HERE / "tree.py", self.work / f"{scan.stem}.cli",
                sys.executable, "-m", "wqed_subradiance.cli", scan.mode, "--config", config,
            ]
            usage = json.loads(self.spawn(cmd, env).splitlines()[-1])
            total["wall_s"] += usage["wall_s"]
            total["cpu_s"] += usage["cpu_s"]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], usage["peak_rss_mb"])
            cells = len(gate.expected_cells(scan.mode, scan.config))
            errors = 0
            manifest = out / "run_manifest.json"
            if manifest.exists():
                errors = sum(c["status"] == "error" for c in json.loads(manifest.read_text())["cells"])
            if usage["code"] != 0 and errors == 0:
                errors = cells
            total["attempted"] += cells
            total["failed"] += errors
        return total

    def cells(self, modes) -> list:
        return [
            cell
            for scan, _, _ in self.scans
            if scan.mode in modes
            for cell in gate.expected_cells(scan.mode, scan.config)
        ]

    def oracle_cells(self) -> list:
        cells = [c for c in self.cells(("decay-map", "size-map")) if c.n <= ORACLE_MAX_N]
        rng = random.Random(f"oracle:{self.seed}")
        return rng.sample(cells, min(ORACLE_SAMPLES, len(cells)))

    def check(self, verdict: gate.Verdict, against: dict, gaps: dict, oracle: dict) -> None:
        for scan, _, out in self.scans:
            dirs = {label: path / scan.stem for label, path in against.items()}
            gate.check_scan(verdict, scan.mode, scan.config, out, against=dirs, gaps=gaps, oracle=oracle)


def _keyed(cells: list, values: list) -> dict:
    return {cell.params: value for cell, value in zip(cells, values)}


def environment(bench: Bench, probe_env: dict) -> dict:
    found = {var: os.environ.get(var) for var in BLAS_VARS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        **probe_env,
        "blas_env_found": found,
        "imposed": {
            "workers": bench.workload.workers,
            "blas_threads": "1" if bench.workload.pin_blas else "as found",
            "replay": {"workers": 1, "blas_threads": "1"},
        },
    }


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict
    verdict: gate.Verdict
    passes: list  # per CLI pass: wall_s, cpu_s, peak_rss_mb, attempted, failed
    attempted: int
    failed: int
    env: dict
    samples: dict


def timed_run(bench: Bench, seconds: float) -> Outcome:
    state = bench.cells(gate.STATE_MODES) if bench.use_reference else []
    oracle_cells = bench.oracle_cells()
    probe = bench.child("probe", {
        "gaps": [list(c.params) for c in state],
        "oracle": [list(c.params) for c in oracle_cells],
    })
    gaps = _keyed(state, probe.get("gaps", []))
    oracle = _keyed(oracle_cells, probe.get("oracle", []))
    setup = [bench.setup_seconds() for _ in range(SETUP_REPEATS)]
    against = {"reference": bench.reference} if bench.use_reference else {}
    verdict = gate.Verdict()
    passes = []
    start = time.monotonic()
    # start another pass only if at least half of it fits in the budget
    while not passes or time.monotonic() - start + passes[-1]["wall_s"] / 2 < seconds:
        passes.append(bench.cli_once())
        bench.check(verdict, against, gaps, oracle)
    metrics = {name: statistics.median(p[name] for p in passes) for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setup)
    return Outcome(
        metrics, verdict, passes,
        attempted=sum(p["attempted"] for p in passes),
        failed=sum(p["failed"] for p in passes),
        env=probe["env"],
        samples={"setup_s": setup},
    )


def traced_run(bench: Bench) -> Outcome:
    cli = bench.cli_once()
    sector = bench.cells(gate.SECTOR_MODES)
    oracle_cells = bench.oracle_cells()
    replay_dir = bench.work / "replay"
    resp = bench.child("replay", {
        "replay": [{"config": str(c), "out": str(replay_dir / s.stem)} for s, c, _ in bench.scans],
        "trace_out": str(bench.work / "trace.json"),
        "gaps": [list(c.params) for c in sector],
        "oracle": [list(c.params) for c in oracle_cells],
    })
    replay = resp["replay"]
    gaps = _keyed(sector, resp.get("gaps", []))
    oracle = _keyed(oracle_cells, resp.get("oracle", []))
    against = {"replay": replay_dir}
    if bench.use_reference:
        against["reference"] = bench.reference
    verdict = gate.Verdict()
    bench.check(verdict, against, gaps, oracle)
    counts = replay["counts"]
    low, high = counts.get("driven.incoherent_min", 0.0), counts.get("driven.incoherent_max", 0.0)
    if low < -gate.INCOHERENT_SLACK or high > 1.0 + gate.INCOHERENT_SLACK:
        verdict.flag("driven-map incoherent fraction", [f"I range [{low}, {high}] leaves [0, 1]"])

    own = replay["self_s"]  # span name + "_s" is the layer's time metric
    spans_s = sum(own.values())
    serial = replay["serial_s"]
    workers = bench.workload.workers
    hops = counts.get("lattice.hops", 0.0)
    points = counts.get("driven.points", 0.0)
    metrics = {name: counts.get(name, 0.0) for name in PER_LAYER}
    metrics.update({f"{span}_s": seconds for span, seconds in own.items()})
    metrics.update({
        "lattice.ns_per_hop": 1e9 * metrics["lattice.build_s"] / hops if hops else 0.0,
        "spectrum.degenerate_cells": sum(g < gate.DEGENERATE_GAP for g in gaps.values()),
        "driven.ms_per_point": 1e3 * metrics["driven.steady_s"] / points if points else 0.0,
        "scan.serial_s": serial,
        "scan.parallel_efficiency": serial / (cli["wall_s"] * workers),
        # on workers > 1 the layer time is shared out over the workers
        "scan.overhead_s": cli["wall_s"] - spans_s / workers,
        "trace.coverage": spans_s / serial,
        "trace.overhead_s": replay["spans"] * replay["span_cost_s"],
    })
    return Outcome(
        metrics, verdict, [cli],
        attempted=2 * cli["attempted"],  # the CLI pass and the replay
        failed=cli["failed"] + replay["failed_cells"],
        env=resp["env"],
        samples={"replay_self_s": own, "replay_spans": replay["spans"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'smoke' shrinks every workload to seconds (for the smoke test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in ("src/wqed_subradiance/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    bench = Bench(workloads.build(args.workload, args.seed, nproc, args.size), args.seed, args.size)
    try:
        outcome = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    units = PER_LAYER if args.trace else END_TO_END
    verdict = outcome.verdict
    env = environment(bench, outcome.env)
    gate_metrics = {
        "failed_frac": outcome.failed / outcome.attempted,
        "wrong_cells": verdict.wrong_cells,
    }
    record = {
        "workload": bench.workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": outcome.metrics,
        "gate": gate_metrics,
        "wrong": verdict.wrong,
        "passes": outcome.passes,
        "samples": outcome.samples,
    }
    (bench.work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    walls = sorted(p["wall_s"] for p in outcome.passes)
    print(f"workload {bench.workload.name} seed {args.seed}: {len(walls)} CLI pass(es) "
          f"(wall min {walls[0]:.4f} s, max {walls[-1]:.4f} s), {verdict.cells} cell checks, "
          f"workers {bench.workload.workers}, BLAS threads {env['imposed']['blas_threads']}")
    for name, unit in {**units, **GATE_METRICS}.items():
        value = outcome.metrics.get(name, gate_metrics.get(name))
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {value:.6g} {unit}{label}")
    for label, problems in list(verdict.wrong.items())[:20]:
        print(f"WRONG {label}: {'; '.join(problems)}")
    result = {
        "correct": verdict.wrong_cells == 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
