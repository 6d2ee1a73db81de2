"""The ``save_report`` fixture of the paper-claim checks (``bench_claims.py``).

Each claim writes one table to ``benchmarks/_results/<claim>.txt``, the file
its row in ``EXPERIMENTS.md`` cites.
"""

from __future__ import annotations

import pathlib
from typing import Any

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


def format_table(headers: list[str], rows: list[list[Any]]) -> str:
    """A fixed-width text table, one column per header."""
    cells = [headers, *([str(cell) for cell in row] for row in rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def line(row: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

    return "\n".join(
        [line(headers), line(["-" * w for w in widths]), *map(line, cells[1:])]
    )


@pytest.fixture(scope="session")
def save_report():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, headers: list[str], rows: list[list[Any]], note: str = "") -> None:
        text = format_table(headers, rows) + (f"\n\n{note}" if note else "")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n[{name}]\n{text}")  # shown under `pytest -s`

    return _save
