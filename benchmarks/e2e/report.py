"""Reading ``BENCHMARK.json``, summarising run sets, comparing two of them.

A run set is what ``run.py --repeat N --out F`` writes: ``{"comparable",
"seconds", "runs": [...]}``, one entry per (workload, seed, mode).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"
HISTORY_PATH = HERE / "_out" / "history.jsonl"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def append_history(document: dict) -> None:
    HISTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY_PATH.open("a") as history:
        history.write(json.dumps({"at": time.time(), **document}) + "\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def collect(document: dict, trace: int) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run of that mode."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def summary(document: dict, spec: dict) -> str:
    lines = [f"\ncomparable: {str(document['comparable']).lower()}"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        values = collect(document, trace)
        if not values:
            continue
        lines.append(f"\n{section}: median [q1 .. q3] over runs, spread = (q3-q1)/median")
        for metric in spec[section]:
            for workload in (w["name"] for w in spec["workloads"]):
                got = values.get((workload, metric["name"]))
                if not got:
                    continue
                q1, median, q3 = quartiles(got)
                line = (
                    f"  {metric['name']:<34}{workload:<20}{median:>13.4f} "
                    f"{metric['unit']:<6}"
                )
                if len(got) > 1:
                    line += f" [{q1:.4f} .. {q3:.4f}] spread {100 * spread(got):5.1f}%"
                    if "bound" in metric:
                        line += f" of bound {100 * metric['bound']:.0f}%"
                lines.append(line + f"  runs={len(got)}")
    return "\n".join(lines)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``same`` / ``worse`` / ``better``, or ``unresolved`` when noise hides it."""
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    before, after = statistics.median(a), statistics.median(b)
    if not before:
        return "same" if not after else "unresolved"
    change = (after - before) / before
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    if not (a["comparable"] and b["comparable"]):
        print("note: a run set is stamped comparable: false (--quick or other --seconds)")
    values_a, values_b = collect(a, 0), collect(b, 0)
    worse = 0
    print(f"{'metric':<20}{'workload':<20}{'A median [q1..q3]':>34}{'B median [q1..q3]':>34}  verdict")
    for metric in spec["end_to_end"]:
        for workload in (w["name"] for w in spec["workloads"]):
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            cells = []
            for values in (values_a[key], values_b[key]):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4f} [{q1:.4f}..{q3:.4f}]")
            result = verdict(values_a[key], values_b[key], metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{metric['name']:<20}{workload:<20}{cells[0]:>34}{cells[1]:>34}  {result}")
    return 1 if worse else 0
