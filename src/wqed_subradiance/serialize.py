"""Deterministic CSV/JSON writers shared by the scan modes.

Floats are rendered with 12 significant digits in lowercase scientific
notation so repeated runs produce byte-identical data files.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt_float(value: float) -> str:
    return f"{float(value):.11e}"


def _render(cell) -> str:
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, (int,)):
        return str(cell)
    if isinstance(cell, str):
        return cell
    return fmt_float(cell)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_render(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")

