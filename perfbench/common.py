"""Paths, statistics, process probes and result printing shared by the
benchmark's workloads."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
CONFIG_PATH = HERE / "workloads.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark could not run; it exits non-zero with no result."""


def benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``: the workloads, and every metric with its unit."""
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def units(kind: str) -> dict[str, str]:
    """The unit of every ``end_to_end`` or ``per_layer`` metric, in the
    order ``BENCHMARK.json`` lists them."""
    return {metric["name"]: metric["unit"] for metric in benchmark()[kind]}


def load_config(workload: str) -> dict[str, Any]:
    """The workload's recorded configuration from ``workloads.json``."""
    with open(CONFIG_PATH, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if workload not in config:
        raise BenchError(f"unknown workload {workload!r}; have {sorted(config)}")
    return config[workload]


def use_source_tree() -> None:
    """Import the program from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment for processes running the program: the
    ``REPRO_*`` knobs are removed so every run gets the same defaults,
    and string hashing is fixed so dict layouts do not vary by launch."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_plan(turn: int) -> tuple[int | None, int | None]:
    """``(client_cpu, program_cpu)`` for the *turn*-th launch, pass or
    build of a run: the load generator and the program each get a CPU of
    their own when there are at least two, so the scheduler cannot move
    them onto one CPU. Odd turns swap the two CPUs: the host slows each
    virtual CPU on its own (the speeds of two passes run at the same
    time on the two CPUs do not correlate), so a run that alternates
    averages over both instead of measuring whichever one it got."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    first, second = cpus[0], cpus[1]
    return (first, second) if turn % 2 == 0 else (second, first)


def pin(cpu: int | None) -> None:
    """Pin this process (and the threads it starts later) to *cpu*."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def pinned(cpu: int | None) -> Iterator[None]:
    """Pin this process to *cpu* for the block, then restore its CPUs,
    so the next :func:`cpu_plan` in the process sees them all again."""
    allowed = os.sched_getaffinity(0)
    pin(cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class WorkDir:
    """A temporary directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), linear between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_kb(pid: int, field: str) -> float:
    """A ``/proc/<pid>/status`` field in kB (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by process *pid*."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs
    since boot (``steal`` in ``/proc/stat``); 0 where not reported."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def emit(line: str) -> None:
    """One human-readable report line (before the result line)."""
    print(line, flush=True)


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, float],
    units: dict[str, str],
) -> None:
    """The final, machine-readable JSON result line."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(payload), flush=True)
