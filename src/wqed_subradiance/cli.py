"""Command-line entry point: one subcommand per scan mode.

Exit codes: 0 on success, 2 on configuration/usage errors, 3 when any grid
cell fails (its error is in ``run_manifest.json``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .scan import MODES, _number, run_scan, validate_config


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqed-scan",
        description="Sweep decay rates, entanglement diagnostics, and scattering spectra "
        "of waveguide-coupled atom arrays.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s, version {__version__}",
        help="Show the version and exit.",
    )
    commands = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    for mode in MODES:
        command = commands.add_parser(
            mode, help=f"Run a '{mode}' sweep from a config file.", add_help=False,
            allow_abbrev=False,
        )
        command.add_argument("--help", action="help", help="Show this message and exit.")
        command.add_argument("--config", required=True, help="YAML scan configuration.")
        command.add_argument("--out", help="Output directory (overrides config).")
        command.add_argument("--workers", type=int, help="Worker count (overrides config).")
    return parser


def _execute(mode: str, config_path: str, out_dir, workers) -> int:
    """Run one scan and report it; returns the exit code."""
    try:
        if workers is not None:  # the rule of the config key, before any file is read
            workers = _number(workers, int, 1, "--workers")
        spec = validate_config(config_path)
        if spec.mode != mode:
            raise ConfigError(
                f"config declares mode {spec.mode!r} but subcommand is {mode!r}",
                location="mode",
            )
        if out_dir is not None:
            spec.out_dir = Path(out_dir)
        if workers is not None:
            spec.workers = workers
        manifest = run_scan(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [c for c in manifest.cells if c.status == "error"]
    if failed:
        print(
            f"{len(failed)} of {len(manifest.cells)} cells failed; see run_manifest.json",
            file=sys.stderr,
        )
        return 3
    print(f"wrote {len(manifest.outputs)} file(s) to {spec.out_dir}")
    return 0


def main(argv=None):
    """Run the subcommand of ``argv`` (default ``sys.argv[1:]``).

    Leaves through ``SystemExit`` with the exit code on every path, usage
    errors (2) and ``--help``/``--version`` (0) included.
    """
    args = _parser().parse_args(argv)
    sys.exit(_execute(args.mode, args.config, args.out, args.workers))


if __name__ == "__main__":
    main()
