"""Measurement helpers: repetition loop, statistics, memory, environment."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one timed repetition produced.

    Attributes:
        seconds: wall time of the timed part.
        problems: output-check failures; empty when every check passed.
        units: operations this repetition attempted (1, or the number
            of requests for a serving repetition).
        shed_units: requests the service shed, expired or dead-lettered
            by design under overload.  They lower ``goodput`` but are not
            failed operations: only a raised error or a failed check is.
        cpu: the CPU the repetition was pinned to, if any.
    """

    seconds: float
    problems: list[str] = field(default_factory=list)
    units: int = 1
    shed_units: int = 0
    cpu: int | None = None


@dataclass
class Sample:
    """Every repetition of one run, in order."""

    outcomes: list[Outcome] = field(default_factory=list)
    errors: int = 0

    @property
    def attempted(self) -> int:
        return sum(o.units for o in self.outcomes) + self.errors

    @property
    def failed(self) -> int:
        """Operations that raised or whose repetition failed a check."""
        return self.errors + sum(o.units for o in self.outcomes if o.problems)

    @property
    def goodput(self) -> float:
        """Share of attempted operations that failed nothing and were not shed."""
        shed = sum(o.shed_units for o in self.outcomes if not o.problems)
        return (self.attempted - self.failed - shed) / self.attempted

    @property
    def correct(self) -> bool:
        return self.errors == 0 and not any(o.problems for o in self.outcomes)

    def median_seconds(self) -> float:
        """Median repetition time; with pinned repetitions, the mean over
        CPUs of each CPU's median, so the CPU mix cannot tip the result."""
        by_cpu: dict[int | None, list[float]] = {}
        for outcome in self.outcomes:
            by_cpu.setdefault(outcome.cpu, []).append(outcome.seconds)
        return statistics.fmean(median(times) for times in by_cpu.values())


@contextmanager
def cpu_turn(index: int, rotate: bool) -> Iterator[int | None]:
    """Pin the process to CPU ``index`` (mod the allowed CPUs) for a block.

    On a shared host one CPU can run markedly slower than another for
    minutes at a time.  A single-process workload left to the scheduler
    stays on one CPU, so its timings come out bimodal from run to run;
    alternating the CPU between repetitions puts every CPU into each
    run's median.  Workloads with worker processes are left unpinned,
    since their workers inherit the mask.
    """
    if not rotate:
        yield None
        return
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[index % len(allowed)]
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def repeat(
    rep: Callable[[int], Outcome], seconds: float, rotate: bool, min_reps: int = 3
) -> Sample:
    """Run ``rep`` until ``seconds`` have passed and ``min_reps`` ran.

    A repetition that raises is a failed operation: its traceback goes
    to stderr and it stays in the count, never silently dropped.
    """
    sample = Sample()
    began = time.monotonic()
    index = 0
    while index < min_reps or time.monotonic() - began < seconds:
        try:
            with cpu_turn(index, rotate) as cpu:
                outcome = rep(index)
            outcome.cpu = cpu
        except Exception:  # a failed operation, reported and counted
            traceback.print_exc(file=sys.stderr)
            sample.errors += 1
        else:
            for problem in outcome.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            sample.outcomes.append(outcome)
        index += 1
        if sample.errors >= min_reps and not sample.outcomes:
            break
    return sample


class PeakMemory:
    """Peak resident memory of a region, worker children included.

    The parent's high-water mark is reset through ``clear_refs`` at the
    start; forked workers share the parent's pages, so the result is the
    larger of the parent's peak and the largest reaped child's peak
    rather than their sum.
    """

    def __enter__(self) -> "PeakMemory":
        # Hand set-up's freed heap back to the OS first, so the starting
        # point does not depend on how set-up fragmented it.
        gc.collect()
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (OSError, AttributeError):
            pass  # not glibc; the peak then includes more set-up garbage
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass  # the peak then includes set-up; still a valid bound
        self.children_before = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        self.mb = 0.0
        return self

    def __exit__(self, *exc: object) -> None:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            with open("/proc/self/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        own_kb = int(line.split()[1])
        except OSError:
            pass
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if children_kb <= self.children_before:
            children_kb = 0
        self.mb = max(own_kb, children_kb) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git``; a plain source tree has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict[str, object]:
    """The machine and software a result was measured on."""
    import numpy

    from repro.procpool import pick_start_method

    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": pick_start_method(),
        "git_commit": _git_commit(root),
    }
