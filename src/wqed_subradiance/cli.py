"""Command-line entry point: one subcommand per scan mode.

Exit codes: 0 on success, 2 on configuration/usage errors, 3 when any grid
cell fails numerically.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, NumericalError
from .scan import MODES, run_scan, validate_config


@click.group()
@click.version_option(version=__version__, prog_name="wqed-scan")
def main():
    """Sweep decay rates, entanglement diagnostics, and scattering spectra
    of waveguide-coupled atom arrays."""


def _execute(mode: str, config_path: str, out_dir, workers):
    try:
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
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    failed = [c for c in manifest.cells if c.status == "error"]
    if failed:
        click.echo(
            f"{len(failed)} of {len(manifest.cells)} cells failed; see run_manifest.json",
            err=True,
        )
        sys.exit(3)
    click.echo(f"wrote {len(manifest.outputs)} file(s) to {spec.out_dir}")


def _register(mode: str):
    @main.command(name=mode, help=f"Run a '{mode}' sweep from a config file.")
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False), help="YAML scan configuration.")
    @click.option("--out", "out_dir", default=None,
                  type=click.Path(file_okay=False), help="Output directory (overrides config).")
    @click.option("--workers", default=None, type=click.IntRange(min=1),
                  help="Worker count (overrides config).")
    def command(config_path, out_dir, workers, _mode=mode):
        _execute(_mode, config_path, out_dir, workers)


for _mode in MODES:
    _register(_mode)


if __name__ == "__main__":
    main()
