"""Process hygiene and per-process accounting, read from /proc.

A ``Sut`` is one child started in its own session, so "the SUT" is exactly
the processes of that group: the server plus whatever it forked.  CPU and
peak memory are summed over the group, and ``kill`` asserts the group is
empty afterwards.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_TICK = os.sysconf("SC_CLK_TCK")
HERE = pathlib.Path(__file__).resolve().parent


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields are counted after its ')'
    return text[text.rindex(")") + 2 :].split()


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def peak_rss_mb(pid: int) -> float:
    try:
        for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Sut:
    """One ``sut.py`` child and everything it forks."""

    def __init__(self, engine: str, directory: str, trace_dir: str | None = None,
                 cpus: list[int] | None = None):
        command = [
            sys.executable, str(HERE / "sut.py"), "--engine", engine, "--dir", directory
        ]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        if cpus:
            command += ["--cpus", ",".join(map(str, cpus))]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        self._reaped = False
        line = self.process.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"SUT did not come up (said {line!r})")
        self.port = int(line.split()[1])

    def pids(self) -> list[int]:
        return group_pids(self.pgid)

    def cpu_by_pid(self) -> dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids()}

    def cpu_seconds(self) -> float:
        return sum(self.cpu_by_pid().values())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop_gracefully(self, timeout: float = 10.0) -> None:
        """SIGTERM, so server and workers write their spans; then ``kill``."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the group, reap, and check that nothing survived."""
        if self._reaped:  # the pgid may belong to someone else by now
            return
        self._reaped = True
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
        deadline = time.monotonic() + 5.0
        while self.pids():
            if time.monotonic() > deadline:
                raise RuntimeError(f"SUT processes survived SIGKILL: {self.pids()}")
            time.sleep(0.01)


def split_cpus() -> list[int]:
    """Pin this process to its first CPU; return the others, for the SUT.

    The generator and the SUT then never compete for a core, which is what
    keeps run-to-run spread small on a 2-core box: unpinned, three busy
    processes migrate over two cores and throughput moves 10 % between runs.
    With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1:]


class RunDir:
    """The one temp dir of a run; also owns the SUTs so exit can reap them."""

    def __init__(self, sut_cpus: list[int]) -> None:
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="e2e-", dir=_scratch_root()))
        self.sut_cpus = sut_cpus
        self._suts: list[Sut] = []
        self._count = 0

    def subdir(self, label: str) -> str:
        self._count += 1
        path = self.path / f"{self._count:02d}-{label}"
        path.mkdir()
        return str(path)

    def spawn(self, engine: str, directory: str, trace_dir: str | None = None) -> Sut:
        sut = Sut(engine, directory, trace_dir, self.sut_cpus)
        self._suts.append(sut)
        return sut

    def close(self) -> None:
        for sut in self._suts:
            sut.kill()
        shutil.rmtree(self.path, ignore_errors=True)


def _scratch_root() -> str:
    """Temp dirs live inside the checkout: the benchmark writes nowhere else."""
    root = HERE / "_out" / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return str(root)
