"""The committed cost trajectory and its guard.

``benchmarks/history.jsonl`` holds one row per change: the calls into
``src/repro`` per vote and per tick from ``benchmarks/hotpath.py --count``
(seed 1, 2 000 votes after 1 000, 500 ticks after 300), and this guard's own
shorter counts.  The guard recounts with the same counter and fails when
either count rises above the newest row for the running Python minor
version.  A change that raises a count on purpose adds a row and says why.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
HISTORY = ROOT / "benchmarks" / "history.jsonl"
#: the guard's windows: votes after hotpath's 1 000 warm-up, ticks after 300
GUARD_OPS = {"voter": 300, "bikeshare": 50}
FIELDS = {"voter": "guard_calls_per_vote", "bikeshare": "guard_calls_per_tick"}


def history() -> list[dict]:
    return [json.loads(line) for line in HISTORY.read_text().splitlines() if line.strip()]


def load_hotpath():
    """``benchmarks/hotpath.py`` as a module, without its ``sys.path`` edits
    outliving the import."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "hotpath", ROOT / "benchmarks" / "hotpath.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_history_rows_are_complete():
    keys = {
        "commit", "parent", "python", "calls_per_vote", "calls_per_tick",
        "guard_calls_per_vote", "guard_calls_per_tick", "tps",
    }
    rows = history()
    assert rows and all(set(row) == keys for row in rows)
    for row in rows:
        assert row["tps"] is None or len(row["tps"]) == 5


def test_calls_per_op_do_not_rise_above_the_newest_row(tmp_path):
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    rows = [row for row in history() if row["python"] == python]
    if not rows:
        pytest.skip(f"benchmarks/history.jsonl has no row for Python {python}")
    newest = rows[-1]
    hotpath = load_hotpath()
    for app, ops in GUARD_OPS.items():
        gc.collect()  # no finalizer left by an earlier test runs mid-count
        counts, _elapsed, _collections = hotpath.drive(
            app, ops, 1, str(tmp_path / app), count=True
        )
        ours = sum(
            n for code, n in counts.python.items()
            if code.co_filename.startswith(hotpath.SRC)
        )
        per_op = round(ours / ops, 1)
        assert per_op <= newest[FIELDS[app]], (
            f"{app}: {per_op} calls into src/repro per op, above "
            f"{newest[FIELDS[app]]} in the newest row (parent {newest['parent']})"
        )
