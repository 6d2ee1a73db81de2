"""EXPERIMENTS.md's claim table stays honest.

Every row names a check that exists (the file defines that test, inside the
named class if there is one) and a table under ``benchmarks/_results/`` that
the claims module writes; every file kept there is cited by a row.
"""

from __future__ import annotations

import fnmatch
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "_results"
HEADER = "| claim | paper § | check | table |"


def claim_rows() -> list[list[str]]:
    lines = (ROOT / "EXPERIMENTS.md").read_text().splitlines()
    assert HEADER in lines, "EXPERIMENTS.md has no claim table"
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def kept_results() -> set[str]:
    """The files under ``_results/`` that .gitignore does not exclude."""
    ignored = [
        line.rstrip("/")
        for line in (ROOT / ".gitignore").read_text().splitlines()
        if line.startswith("benchmarks/_results/")
    ]
    return {
        path.name
        for path in RESULTS.iterdir()
        if not any(fnmatch.fnmatch(f"benchmarks/_results/{path.name}", p) for p in ignored)
    }


def test_every_claim_names_an_existing_check_and_table():
    claims = (ROOT / "benchmarks" / "bench_claims.py").read_text()
    rows = claim_rows()
    assert rows
    for claim, _section, check, table in rows:
        checks = re.findall(r"`([^`]+::[^`]+)`", check)
        assert checks, f"{claim}: no check named"
        for node in checks:
            path, *classes, function = node.split("::")
            source = (ROOT / path).read_text()
            for name in classes:
                assert re.search(rf"^class {name}\b", source, re.M), f"{claim}: {node}"
            assert re.search(rf"^\s*def {function}\(", source, re.M), f"{claim}: {node}"
        (name,) = re.findall(r"`([^`]+\.txt)`", table)
        assert (RESULTS / name).is_file(), f"{claim}: no {name}"
        assert f'"{name[:-4]}"' in claims, f"{claim}: bench_claims.py never writes {name}"


def test_every_kept_result_is_cited():
    cited = {re.findall(r"`([^`]+)`", table)[0] for *_, table in claim_rows()}
    assert kept_results() - cited == set()
