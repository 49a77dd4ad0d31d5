"""Supervised process pool: worker death is a scheduled event, not an error.

The plain executor behind the first parallel layer had no fault story:
one worker segfault aborted the whole sharded collect, and a hung worker
stalled it forever.  This module replaces it with a MapReduce-style
supervisor:

* **One process per task attempt.**  Each task runs in its own child
  with a private result pipe, so a dying worker can corrupt nothing
  shared — the classic failure mode of queue-based pools, where one
  killed worker poisons the queue for everyone.
* **Crash detection** via exit codes: a child that dies without
  reporting a result is a failed attempt, whatever killed it.
* **Heartbeat + per-task deadline** for hung workers: the supervisor
  polls at ``heartbeat_interval`` and terminates any attempt that
  outlives ``task_timeout``.
* **Bounded deterministic retries**: a failed task is re-dispatched to a
  fresh worker up to ``max_retries`` times.  Tasks are pure functions of
  their inputs, so a retry recomputes the identical value and the merged
  output stays byte-identical to a serial run under *any* fault
  schedule.
* **Poison-task quarantine**: a task that exhausts its retries is
  dead-lettered into a :class:`ComputeDeadLetter` (with every attempt's
  failure reason) and the run completes *degraded* — explicitly, via
  :class:`RunHealth` — never hanging and never silently dropping work.

Tasks return ``bytes`` — the caller owns the wire format (the sharded
collect ships :mod:`repro.pipeline.wire` frames), so no result is
pickled.  A task that returns anything else is a task error, retried and
dead-lettered like any other.  Results come back position-ordered
(``results[i]`` belongs to ``tasks[i]``; ``None`` marks a quarantined
task), so the caller's ordered merge is preserved regardless of
completion order.

Clock reads are confined to liveness detection (deadlines and poll
pacing) and go through the observability clock seam
(:data:`repro.obs.clock.MONOTONIC`); they influence only *when* a retry
is scheduled, never any computed value, so replayability of results is
unaffected.  The supervisor also narrates itself into the ambient
telemetry (:func:`repro.obs.current`): dispatch/complete/fail counters,
heartbeat ticks, and retry/quarantine events — write-only, so tracing a
run cannot change it.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, TypeVar

from repro.errors import ConfigError
from repro.faults.compute import InjectedComputeError, WorkerFault, WorkerFaultPlan
from repro.health import rows_to_lines
from repro.obs import current as telemetry_current
from repro.obs.clock import MONOTONIC
from repro.procpool import pool_context, reaped

T = TypeVar("T")

#: Result-pipe frame tags.  Every worker report is one ``send_bytes``
#: frame whose first byte says how to read the rest: ``B`` — the task's
#: result bytes; ``E`` — a UTF-8 task traceback.  An unknown tag is
#: treated as a corrupt report, i.e. a crashed attempt.
_TAG_BYTES = b"B"
_TAG_ERROR = b"E"


@dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """Retry, deadline, and pacing policy for one supervised run.

    Attributes:
        max_retries: re-dispatches after a task's first failed attempt;
            a task failing ``max_retries + 1`` attempts total is
            quarantined.
        task_timeout: per-attempt deadline in seconds; ``None`` disables
            deadline detection (crash detection still applies).
        heartbeat_interval: supervisor poll period in seconds — the
            upper bound on how long a crash or expired deadline goes
            unnoticed.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    heartbeat_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0.0:
            raise ConfigError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}"
            )
        if self.heartbeat_interval <= 0.0:
            raise ConfigError(
                "heartbeat_interval must be > 0, got "
                f"{self.heartbeat_interval}"
            )


def ensure_supervisable(
    policy: SupervisorPolicy, plan: WorkerFaultPlan
) -> None:
    """Check that ``policy`` can provably absorb every fault in ``plan``.

    The compute-layer analog of
    :func:`repro.twitter.resilient.ensure_compatible`: an injected hang
    is only recoverable by a deadline, a slow task must fit inside that
    deadline, and rate-injected faults must stop before retries run out.
    Poison tasks are exempt — quarantine is their *intended* outcome.

    Raises:
        ConfigError: when the plan can inject a fault the policy cannot
            recover from.
    """
    if plan.hang_rate > 0.0:
        if policy.task_timeout is None:
            raise ConfigError(
                "plan injects hangs but policy.task_timeout is None; a "
                "hung worker would stall the run forever — set a deadline"
            )
        if plan.hang_seconds <= policy.task_timeout:
            raise ConfigError(
                f"hang_seconds={plan.hang_seconds} does not exceed "
                f"task_timeout={policy.task_timeout}; the injected hang "
                "would just be a slow task"
            )
    if (
        plan.slow_rate > 0.0
        and policy.task_timeout is not None
        and plan.slow_seconds >= policy.task_timeout
    ):
        raise ConfigError(
            f"slow_seconds={plan.slow_seconds} exceeds "
            f"task_timeout={policy.task_timeout}; slow tasks would be "
            "killed as hangs and retried forever"
        )
    rate_faults_active = any(
        getattr(plan, name) > 0.0
        for name in ("crash_rate", "hang_rate", "exception_rate", "slow_rate")
    )
    if rate_faults_active and plan.max_faulted_attempts > policy.max_retries:
        raise ConfigError(
            f"max_faulted_attempts={plan.max_faulted_attempts} exceeds "
            f"max_retries={policy.max_retries}; a rate-injected fault "
            "could exhaust every retry and quarantine a healthy task"
        )


@dataclass(frozen=True, slots=True)
class ComputeDeadLetter:
    """One quarantined task, preserved with its full failure history.

    The compute-layer sibling of
    :class:`repro.twitter.resilient.DeadLetter`: instead of an
    undecodable frame it records a task that killed every worker it was
    dispatched to.

    Attributes:
        task_index: position of the task in the submitted sequence.
        label: caller-supplied task name (e.g. ``"shard 3"``).
        attempts: total attempts made (initial dispatch + retries).
        failures: per-attempt failure descriptions — exit codes,
            deadline expiries, or tracebacks.
    """

    task_index: int
    label: str
    attempts: int
    failures: tuple[str, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "task_index": self.task_index,
            "label": self.label,
            "attempts": self.attempts,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ComputeDeadLetter":
        return cls(
            task_index=int(data["task_index"]),
            label=str(data["label"]),
            attempts=int(data["attempts"]),
            failures=tuple(str(item) for item in data["failures"]),
        )


@dataclass(slots=True)
class RunHealth:
    """What one supervised compute run survived.

    The compute-layer sibling of
    :class:`repro.twitter.resilient.ReliabilityReport`; both implement
    the :class:`repro.health.HealthReport` protocol and are surfaced
    together under a run's output.

    Attributes:
        tasks: tasks submitted.
        completed: tasks that produced a result.
        retries: re-dispatches after failed attempts.
        worker_crashes: attempts that died without reporting (non-zero
            or silent exit).
        worker_timeouts: attempts terminated for outliving the deadline.
        task_errors: attempts whose task raised an exception.
        quarantined: tasks dead-lettered after exhausting retries.
        dead_letters: the quarantined tasks' records.
    """

    tasks: int = 0
    completed: int = 0
    retries: int = 0
    worker_crashes: int = 0
    worker_timeouts: int = 0
    task_errors: int = 0
    quarantined: int = 0
    dead_letters: list[ComputeDeadLetter] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any task was quarantined (results have a gap)."""
        return self.quarantined > 0

    @property
    def failed_attempts(self) -> int:
        return self.worker_crashes + self.worker_timeouts + self.task_errors

    def as_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("Tasks supervised", f"{self.tasks:,}"),
            ("Tasks completed", f"{self.completed:,}"),
            ("Worker crashes survived", f"{self.worker_crashes:,}"),
            ("Worker deadline kills", f"{self.worker_timeouts:,}"),
            ("Task exceptions survived", f"{self.task_errors:,}"),
            ("Retries dispatched", f"{self.retries:,}"),
            ("Tasks quarantined", f"{self.quarantined:,}"),
        ]
        for letter in self.dead_letters:
            rows.append(
                (
                    f"Dead-lettered: {letter.label}",
                    f"{letter.attempts} attempts; last: "
                    f"{letter.failures[-1].splitlines()[-1]}",
                )
            )
        return rows

    def summary_lines(self) -> list[str]:
        return rows_to_lines(self.as_rows())

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name != "dead_letters"
        }
        data["dead_letters"] = [
            letter.to_dict() for letter in self.dead_letters
        ]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunHealth":
        health = cls(
            **{
                spec.name: int(data[spec.name])
                for spec in fields(cls)
                if spec.name != "dead_letters"
            }
        )
        health.dead_letters = [
            ComputeDeadLetter.from_dict(item) for item in data["dead_letters"]
        ]
        return health


def _worker_main(
    func: Callable[[Any], bytes],
    task: Any,
    task_index: int,
    attempt: int,
    fault_plan: WorkerFaultPlan | None,
    conn: Connection,
) -> None:
    """Run one task attempt in a child process and report through the pipe.

    Applies the injected fault for this (task, attempt) first, so a
    crash/hang models a worker dying *before* it can report anything.
    Exactly one message is sent on success or task exception; a crashed
    or hung worker sends nothing and is detected by the supervisor.
    """
    fault = (
        fault_plan.fault_for(task_index, attempt)
        if fault_plan is not None
        else None
    )
    if fault is WorkerFault.CRASH:
        conn.close()
        os._exit(fault_plan.crash_exit_code)  # type: ignore[union-attr]
    if fault is WorkerFault.HANG:
        # A hung worker holds its pipe open and never reports; if the
        # supervisor's deadline does not kill it first, it eventually
        # dies without a result (observed as a crash).
        time.sleep(fault_plan.hang_seconds)  # type: ignore[union-attr]
        conn.close()
        os._exit(fault_plan.crash_exit_code)  # type: ignore[union-attr]
    if fault is WorkerFault.SLOW:
        time.sleep(fault_plan.slow_seconds)  # type: ignore[union-attr]
    try:
        if fault is WorkerFault.EXCEPTION:
            raise InjectedComputeError(
                f"injected exception storm (task {task_index}, "
                f"attempt {attempt})"
            )
        result = func(task)
        if not isinstance(result, bytes):
            raise TypeError(
                "supervised task must return bytes, got "
                f"{type(result).__name__}"
            )
    except Exception:  # reprolint: disable=RPL004 — traceback is forwarded to the supervisor, which retries or dead-letters it; nothing is swallowed
        conn.send_bytes(_TAG_ERROR + traceback.format_exc().encode("utf-8"))
    else:
        conn.send_bytes(_TAG_BYTES + result)
    finally:
        conn.close()


@dataclass(slots=True)
class _Attempt:
    """One in-flight task attempt."""

    task_index: int
    attempt: int
    process: Any
    conn: Connection
    deadline: float | None


def run_supervised(
    func: Callable[[T], bytes],
    tasks: Sequence[T],
    *,
    workers: int = 1,
    policy: SupervisorPolicy | None = None,
    fault_plan: WorkerFaultPlan | None = None,
    labels: Sequence[str] | None = None,
) -> tuple[list[bytes | None], RunHealth]:
    """Run ``func`` over ``tasks`` in supervised worker processes.

    Args:
        func: pure task function returning ``bytes``; must be picklable
            on spawn platforms.  Any other return value is a task error.
        tasks: task payloads; ``results[i]`` corresponds to ``tasks[i]``.
        workers: maximum concurrent worker processes.
        policy: retry/deadline/pacing policy (defaults apply).
        fault_plan: when given, each (task, attempt) consults the plan
            inside the worker and injects the scheduled fault; the plan
            is validated against the policy first.
        labels: human-readable task names for health reporting.

    Returns:
        ``(results, health)`` — results position-ordered with ``None``
        for quarantined tasks, and the run's :class:`RunHealth`.

    Raises:
        ConfigError: on invalid arguments or an unabsorbable fault plan.
    """
    policy = policy or SupervisorPolicy()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if fault_plan is not None:
        ensure_supervisable(policy, fault_plan)
    task_list = list(tasks)
    if labels is not None and len(labels) != len(task_list):
        raise ConfigError(
            f"got {len(labels)} labels for {len(task_list)} tasks"
        )
    label_list = (
        list(labels)
        if labels is not None
        else [f"task {index}" for index in range(len(task_list))]
    )
    health = RunHealth(tasks=len(task_list))
    results: list[bytes | None] = [None] * len(task_list)
    pending: deque[tuple[int, int]] = deque(
        (index, 0) for index in range(len(task_list))
    )
    failures: dict[int, list[str]] = {
        index: [] for index in range(len(task_list))
    }
    running: dict[int, _Attempt] = {}
    ctx = pool_context()
    max_attempts = policy.max_retries + 1

    telemetry = telemetry_current()

    def fail_attempt(attempt: _Attempt, description: str) -> None:
        failures[attempt.task_index].append(description)
        if attempt.attempt + 1 < max_attempts:
            health.retries += 1
            telemetry.inc("supervisor.retries")
            telemetry.event(
                "supervisor.retry",
                task=label_list[attempt.task_index],
                attempt=attempt.attempt + 1,
            )
            pending.append((attempt.task_index, attempt.attempt + 1))
        else:
            health.quarantined += 1
            telemetry.inc("supervisor.quarantined")
            telemetry.event(
                "supervisor.quarantine",
                task=label_list[attempt.task_index],
                attempts=attempt.attempt + 1,
            )
            health.dead_letters.append(
                ComputeDeadLetter(
                    task_index=attempt.task_index,
                    label=label_list[attempt.task_index],
                    attempts=attempt.attempt + 1,
                    failures=tuple(failures[attempt.task_index]),
                )
            )

    with reaped() as registry:
        while pending or running:
            while pending and len(running) < workers:
                task_index, attempt_no = pending.popleft()
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        func,
                        task_list[task_index],
                        task_index,
                        attempt_no,
                        fault_plan,
                        send_conn,
                    ),
                    daemon=True,
                )
                process.start()
                registry.append(process)
                # Close the parent's copy of the write end so a worker
                # death surfaces as EOF instead of a blocked read.
                send_conn.close()
                telemetry.inc("supervisor.dispatched")
                # Liveness deadline through the observability clock
                # seam; affects retry timing only, never computed
                # values.
                deadline = (
                    MONOTONIC.now() + policy.task_timeout
                    if policy.task_timeout is not None
                    else None
                )
                running[task_index] = _Attempt(
                    task_index=task_index,
                    attempt=attempt_no,
                    process=process,
                    conn=recv_conn,
                    deadline=deadline,
                )
            connection_wait(
                [attempt.conn for attempt in running.values()],
                timeout=policy.heartbeat_interval,
            )
            telemetry.inc("supervisor.heartbeats")
            now = MONOTONIC.now()
            for attempt in list(running.values()):
                if attempt.conn.poll():
                    kind: str
                    payload: Any
                    try:
                        frame = attempt.conn.recv_bytes()
                    except (EOFError, OSError):
                        kind, payload = "crash", None
                    else:
                        tag, body = frame[:1], frame[1:]
                        if tag == _TAG_BYTES:
                            kind, payload = "ok", body
                        elif tag == _TAG_ERROR:
                            kind, payload = "error", body.decode("utf-8")
                        else:  # pragma: no cover - corrupt frame
                            kind, payload = "crash", None
                    attempt.conn.close()
                    attempt.process.join()
                    del running[attempt.task_index]
                    if kind == "ok":
                        results[attempt.task_index] = payload
                        health.completed += 1
                        telemetry.inc("supervisor.completed")
                    elif kind == "error":
                        health.task_errors += 1
                        telemetry.inc("supervisor.failed", kind="task_error")
                        fail_attempt(
                            attempt,
                            f"attempt {attempt.attempt + 1}: task raised:\n"
                            f"{payload}",
                        )
                    else:
                        health.worker_crashes += 1
                        telemetry.inc("supervisor.failed", kind="crash")
                        fail_attempt(
                            attempt,
                            f"attempt {attempt.attempt + 1}: worker died "
                            "without reporting (exit code "
                            f"{attempt.process.exitcode})",
                        )
                elif not attempt.process.is_alive():
                    attempt.process.join()
                    attempt.conn.close()
                    del running[attempt.task_index]
                    health.worker_crashes += 1
                    telemetry.inc("supervisor.failed", kind="crash")
                    fail_attempt(
                        attempt,
                        f"attempt {attempt.attempt + 1}: worker died with "
                        f"exit code {attempt.process.exitcode}",
                    )
                elif attempt.deadline is not None and now >= attempt.deadline:
                    attempt.process.terminate()
                    attempt.process.join(timeout=5.0)
                    if attempt.process.is_alive():  # pragma: no cover
                        attempt.process.kill()
                        attempt.process.join()
                    attempt.conn.close()
                    del running[attempt.task_index]
                    health.worker_timeouts += 1
                    telemetry.inc("supervisor.failed", kind="timeout")
                    fail_attempt(
                        attempt,
                        f"attempt {attempt.attempt + 1}: exceeded the "
                        f"{policy.task_timeout}s task deadline",
                    )
    return results, health
