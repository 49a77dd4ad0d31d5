"""Shared process-pool plumbing for the parallel execution layer.

Used by the supervised pool (:mod:`repro.supervise`) behind the one
fan-out site, the sharded collection pipeline
(:mod:`repro.pipeline.parallel`).  The start method is ``fork`` where
available (Linux) — a worker inherits the parent's imports, so there is
no per-process re-import cost — falling back to the platform default
elsewhere.

:func:`reaped` is the teardown the supervisor runs under: a parent that
dies mid-fan-out (a test failure, a ``KeyboardInterrupt``) must never
strand live child processes, so every child is registered at spawn time
and terminated + joined on *every* exit path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.process
from collections.abc import Iterator
from contextlib import contextmanager


def pick_start_method() -> str:
    """``fork`` when the platform offers it, else the platform default."""
    available = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in available else available[0]


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every repro pool should use."""
    return multiprocessing.get_context(pick_start_method())


@contextmanager
def reaped() -> Iterator[list[multiprocessing.process.BaseProcess]]:
    """Guarantee no spawned child outlives the block.

    Yields a registry list; append every child process to it right after
    ``start()``.  On exit — normal or exceptional — any registered child
    still alive is terminated (SIGTERM), escalated to ``kill()`` if it
    ignores that, and joined, so an interrupted parallel run never
    strands live workers.
    """
    registry: list[multiprocessing.process.BaseProcess] = []
    try:
        yield registry
    finally:
        for proc in registry:
            if proc.is_alive():
                proc.terminate()
        for proc in registry:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)

