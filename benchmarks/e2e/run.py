"""One end-to-end benchmark: five workloads, from the socket to the log.

    python3 benchmarks/e2e/run.py                      all workloads, both modes
    python3 benchmarks/e2e/run.py --workload voter-net --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --repeat 5 --out a.json
    python3 benchmarks/e2e/run.py --quick                ~25 s smoke run, untraced
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --selftest

With ``--workload`` the workload runs in this (fresh) process and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Without it,
every workload runs in a subprocess of its own, untraced and then traced.

The names, units and bounds come from ``BENCHMARK.json``; a workload that
reports a name the file does not list, or omits an end-to-end metric, fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402 - needs the path set above

QUICK_SECONDS = 1.5  # --quick: a smoke run, untraced unless --trace is given
#: the suite reports a workload that runs past this as failed, not as hung
HARD_TIMEOUT_S = 60


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload here; print its metrics and the result line."""
    import proc
    import workloads

    spec = report.load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    rundir = proc.RunDir(proc.split_cpus())

    def on_timeout(_signum, _frame):
        raise TimeoutError(f"{name} ran past its hard timeout")

    signal.signal(signal.SIGALRM, on_timeout)
    signal.signal(signal.SIGTERM, on_timeout)
    signal.alarm(int(HARD_TIMEOUT_S * max(1.0, seconds / 10)))
    try:
        # an fsync waits for every dirty page its journal commit covers, other
        # files' too; without these two, what one run leaves behind (unsynced
        # logs, discards for the deleted temp dir) slows the fsyncs of the next
        os.sync()
        config = workloads.Config(seed, seconds, trace, rundir)
        outcome = workloads.WORKLOADS[name](config)
    finally:
        signal.alarm(0)
        rundir.close()
        os.sync()

    known = {metric["name"]: metric["unit"] for metric in wanted}
    strangers = sorted(set(outcome.metrics) - set(known))
    if strangers:
        raise SystemExit(f"{name} reported metrics BENCHMARK.json lacks: {strangers}")
    missing = sorted(set(known) - set(outcome.metrics))
    if missing and not trace:
        raise SystemExit(f"{name} did not report: {missing}")

    for note in outcome.notes:
        print(note)
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    metrics = {}
    for metric in wanted:
        key = metric["name"]
        # a per-layer metric of a layer this workload does not enter is 0
        value = outcome.metrics.get(key, 0.0)
        count = outcome.samples.get(key, 0)
        print(f"  {key:<34}{value:>14.4f} {metric['unit']:<6} n={count}")
        metrics[key] = {"value": value, "unit": metric["unit"]}
    for problem in outcome.problems:
        print(f"  WRONG: {problem}")
    failed = outcome.failed + len(outcome.problems)
    print(f"  fail_ratio {failed / max(1, outcome.attempted):.6f} "
          f"({failed} of {outcome.attempted})")
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a subprocess of its own session; returns its result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    started = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=HARD_TIMEOUT_S * max(1.0, seconds / 10))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGTERM)  # lets it reap its SUTs
        try:
            stdout, stderr = child.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            stdout, stderr = child.communicate()
        stderr += f"\n{name}: hard timeout"
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGTERM)
        child.wait()
        raise
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            pass
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("\n".join(lines))
    if stderr.strip():
        print(stderr.strip())
    result.update(
        workload=name, seed=seed, trace=int(trace),
        wall_s=round(time.perf_counter() - started, 3),
    )
    return result


def run_suite(args: argparse.Namespace) -> int:
    spec = report.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False] if args.quick else [False, True]
    seconds = QUICK_SECONDS if args.quick else args.seconds
    runs = []
    for repeat in range(args.repeat):
        for name in names:
            for trace in modes:
                runs.append(run_child(name, args.seed + repeat, seconds, trace))
    document = {
        "comparable": not args.quick and seconds == spec["run_seconds"],
        "seconds": seconds,
        "runs": runs,
    }
    report.append_history(document)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(report.summary(document, spec))
    bad = [f"{r['workload']} (trace={r['trace']})" for r in runs if not r["correct"]]
    if bad:
        print("FAILED: " + ", ".join(bad))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.selftest:
        import selftest

        return selftest.main()
    if args.compare:
        return report.compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(report.load_spec()["run_seconds"])
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
