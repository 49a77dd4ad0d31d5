"""Tests for the supervised process pool: retries, deadlines, quarantine."""

import multiprocessing

import pytest

from repro.errors import ConfigError
from repro.faults.compute import (
    InjectedComputeError,
    WorkerFault,
    WorkerFaultPlan,
)
from repro.procpool import pool_context, reaped
from repro.supervise import (
    ComputeDeadLetter,
    RunHealth,
    SupervisorPolicy,
    ensure_supervisable,
    run_supervised,
)


def square(x: int) -> bytes:
    return str(x * x).encode()


def boom(x: int) -> bytes:
    raise ValueError(f"bad task {x}")


def not_bytes(x: int) -> int:
    return x * x


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_retries == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"heartbeat_interval": 0.0},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorPolicy(**kwargs)

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_supervised(square, [1], workers=0)

    def test_labels_must_match_tasks(self):
        with pytest.raises(ConfigError):
            run_supervised(square, [1, 2], labels=["only one"])


class TestEnsureSupervisable:
    def test_hangs_require_a_deadline(self):
        with pytest.raises(ConfigError):
            ensure_supervisable(
                SupervisorPolicy(), WorkerFaultPlan(hang_rate=0.5)
            )

    def test_hang_must_exceed_deadline(self):
        with pytest.raises(ConfigError):
            ensure_supervisable(
                SupervisorPolicy(task_timeout=60.0),
                WorkerFaultPlan(hang_rate=0.5, hang_seconds=30.0),
            )

    def test_slow_must_fit_inside_deadline(self):
        with pytest.raises(ConfigError):
            ensure_supervisable(
                SupervisorPolicy(task_timeout=0.5),
                WorkerFaultPlan(slow_rate=0.5, slow_seconds=1.0),
            )

    def test_rate_faults_must_stop_before_retries_run_out(self):
        with pytest.raises(ConfigError):
            ensure_supervisable(
                SupervisorPolicy(max_retries=1),
                WorkerFaultPlan(crash_rate=0.5, max_faulted_attempts=2),
            )

    def test_poison_tasks_are_exempt(self):
        ensure_supervisable(
            SupervisorPolicy(max_retries=0), WorkerFaultPlan(poison_tasks=(3,))
        )

    def test_compatible_plan_accepted(self):
        ensure_supervisable(
            SupervisorPolicy(max_retries=2, task_timeout=1.0),
            WorkerFaultPlan(
                hang_rate=0.2, hang_seconds=30.0, slow_rate=0.2,
                slow_seconds=0.01,
            ),
        )


class TestCleanRuns:
    def test_results_are_position_ordered(self):
        results, health = run_supervised(square, [3, 1, 4, 1, 5], workers=2)
        assert results == [b"9", b"1", b"16", b"1", b"25"]
        assert health.completed == 5
        assert not health.degraded
        assert health.failed_attempts == 0

    def test_empty_task_list(self):
        results, health = run_supervised(square, [], workers=2)
        assert results == []
        assert health.tasks == 0

    def test_no_lingering_children(self):
        run_supervised(square, list(range(8)), workers=4)
        assert multiprocessing.active_children() == []


class TestFaultRecovery:
    def test_crashes_are_retried(self):
        plan = WorkerFaultPlan(seed=1, crash_rate=1.0, max_faulted_attempts=1)
        results, health = run_supervised(
            square, [2, 3], workers=2,
            policy=SupervisorPolicy(max_retries=1), fault_plan=plan,
        )
        assert results == [b"4", b"9"]
        assert health.worker_crashes == 2
        assert health.retries == 2
        assert not health.degraded

    def test_task_exceptions_are_retried_with_traceback(self):
        plan = WorkerFaultPlan(
            seed=1, exception_rate=1.0, max_faulted_attempts=1
        )
        results, health = run_supervised(
            square, [2], workers=1,
            policy=SupervisorPolicy(max_retries=1), fault_plan=plan,
        )
        assert results == [b"4"]
        assert health.task_errors == 1

    def test_hung_worker_is_killed_at_the_deadline(self):
        plan = WorkerFaultPlan(
            seed=1, hang_rate=1.0, hang_seconds=30.0, max_faulted_attempts=1
        )
        results, health = run_supervised(
            square, [6], workers=1,
            policy=SupervisorPolicy(max_retries=1, task_timeout=0.3),
            fault_plan=plan,
        )
        assert results == [b"36"]
        assert health.worker_timeouts == 1

    def test_slow_task_is_not_mistaken_for_death(self):
        plan = WorkerFaultPlan(
            seed=1, slow_rate=1.0, slow_seconds=0.05, max_faulted_attempts=1
        )
        results, health = run_supervised(
            square, [7], workers=1,
            policy=SupervisorPolicy(task_timeout=5.0), fault_plan=plan,
        )
        assert results == [b"49"]
        assert health.failed_attempts == 0

    def test_real_task_bug_exhausts_retries_and_quarantines(self):
        results, health = run_supervised(
            boom, [1], workers=1, policy=SupervisorPolicy(max_retries=1),
        )
        assert results == [None]
        assert health.degraded
        letter = health.dead_letters[0]
        assert letter.attempts == 2
        assert "bad task 1" in letter.failures[-1]

    def test_non_bytes_result_is_a_task_error(self):
        results, health = run_supervised(
            not_bytes, [3], workers=1, policy=SupervisorPolicy(max_retries=1),
        )
        assert results == [None]
        assert health.task_errors == 2
        assert health.retries == 1
        assert health.quarantined == 1
        letter = health.dead_letters[0]
        assert all("Traceback" in failure for failure in letter.failures)
        assert "must return bytes, got int" in letter.failures[-1]


class TestQuarantine:
    def test_poison_task_is_dead_lettered_with_label(self):
        plan = WorkerFaultPlan(seed=1, poison_tasks=(2,))
        results, health = run_supervised(
            square, [1, 2, 3, 4], workers=2,
            policy=SupervisorPolicy(max_retries=1), fault_plan=plan,
            labels=[f"shard {i}" for i in range(4)],
        )
        assert results == [b"1", b"4", None, b"16"]
        assert health.quarantined == 1
        assert health.dead_letters[0].label == "shard 2"
        assert health.dead_letters[0].attempts == 2
        assert all("exit code 23" in f for f in health.dead_letters[0].failures)

    def test_quarantine_never_hangs_the_run(self):
        plan = WorkerFaultPlan(seed=1, poison_tasks=(0,))
        results, health = run_supervised(
            square, [1], workers=1,
            policy=SupervisorPolicy(max_retries=0), fault_plan=plan,
        )
        assert results == [None]
        assert health.completed == 0
        assert multiprocessing.active_children() == []


class TestRunHealth:
    def make_health(self) -> RunHealth:
        return RunHealth(
            tasks=4, completed=3, retries=2, worker_crashes=1,
            worker_timeouts=1, task_errors=0, quarantined=1,
            dead_letters=[
                ComputeDeadLetter(
                    task_index=2, label="shard 2", attempts=2,
                    failures=("attempt 1: x", "attempt 2: y"),
                )
            ],
        )

    def test_round_trips_through_dict(self):
        health = self.make_health()
        assert RunHealth.from_dict(health.to_dict()) == health

    def test_summary_lines_name_the_quarantined_task(self):
        lines = self.make_health().summary_lines()
        assert any("shard 2" in line for line in lines)

    def test_satisfies_health_protocol(self):
        from repro.health import HealthReport

        assert isinstance(self.make_health(), HealthReport)

    def test_injected_error_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedComputeError, ReproError)


class TestWorkerFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = WorkerFaultPlan.chaos(seed=9)
        first = [plan.fault_for(t, a) for t in range(50) for a in range(3)]
        second = [plan.fault_for(t, a) for t in range(50) for a in range(3)]
        assert first == second

    def test_faults_stop_after_max_faulted_attempts(self):
        plan = WorkerFaultPlan(seed=9, crash_rate=1.0, max_faulted_attempts=2)
        assert plan.fault_for(0, 0) is WorkerFault.CRASH
        assert plan.fault_for(0, 1) is WorkerFault.CRASH
        assert plan.fault_for(0, 2) is None

    def test_poison_tasks_crash_on_every_attempt(self):
        plan = WorkerFaultPlan(seed=9, poison_tasks=(5,))
        assert all(
            plan.fault_for(5, a) is WorkerFault.CRASH for a in range(10)
        )

    @pytest.mark.parametrize("kwargs", [
        {"crash_rate": 1.5},
        {"hang_rate": -0.1},
        {"crash_exit_code": 0},
        {"crash_exit_code": 256},
        {"hang_seconds": 0.0},
        {"slow_seconds": -1.0},
        {"max_faulted_attempts": -1},
        {"poison_tasks": (-1,)},
    ])
    def test_invalid_plan_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WorkerFaultPlan(**kwargs)

    def test_describe_names_active_faults(self):
        text = WorkerFaultPlan(crash_rate=0.3, poison_tasks=(1,)).describe()
        assert "crash_rate=0.3" in text
        assert "poison_tasks=(1,)" in text
        assert "no faults" in WorkerFaultPlan.none().describe()

    def test_any_faults(self):
        assert not WorkerFaultPlan.none().any_faults
        assert WorkerFaultPlan.chaos().any_faults
        assert WorkerFaultPlan(poison_tasks=(0,)).any_faults


class TestReaped:
    def test_children_are_terminated_on_exception(self):
        ctx = pool_context()
        with pytest.raises(RuntimeError):
            with reaped() as registry:
                for __ in range(3):
                    proc = ctx.Process(target=_sleep_forever, daemon=True)
                    proc.start()
                    registry.append(proc)
                raise RuntimeError("parent dies mid-fan-out")
        assert multiprocessing.active_children() == []

    def test_failed_supervised_run_leaves_no_children(self):
        """A caller that raises on quarantine must not strand workers."""
        from repro.errors import ClusteringError

        def run_and_raise():
            __, health = run_supervised(
                square, [1, 2, 3], workers=3,
                policy=SupervisorPolicy(max_retries=0),
                fault_plan=WorkerFaultPlan(seed=1, poison_tasks=(1,)),
            )
            if health.degraded:
                raise ClusteringError("quarantined")

        with pytest.raises(ClusteringError):
            run_and_raise()
        assert multiprocessing.active_children() == []


def _sleep_forever() -> None:  # pragma: no cover - killed by reaped()
    import time

    time.sleep(600)
