"""Sharded parallel execution of the collection pipeline.

The collect → augment → US-filter loop is embarrassingly parallel: every
tweet is processed independently and the provenance counters are plain
sums.  This module shards a firehose across worker processes and merges
the results so that the outcome is *indistinguishable* from a serial run:

* **Deterministic sharding** — tweets are routed to shard
  ``tweet_id % workers``, so shard membership depends only on the data,
  never on timing or scheduler interleaving.
* **Per-worker state** — each worker builds its own funnel stages
  (:func:`repro.pipeline.batch.build_stages`); nothing is shared, so
  there is no cross-process cache coherence to reason about.
* **Ordered merge** — each retained record carries its position in the
  original stream; the merged corpus is sorted by that position, making
  it byte-identical to the serial corpus.
* **Counter merge** — per-shard :class:`PipelineReport` objects are
  combined with :meth:`PipelineReport.merge`; every counter is a sum over
  disjoint shards, so totals equal the serial run exactly.
* **Slim IPC** — under the ``fork`` start method workers inherit the
  shard lists by copy-on-write and are dispatched a bare shard *index*;
  results come back as raw JSON-line frames
  (:mod:`repro.pipeline.wire`), the bytes every supervised task returns,
  so no tweet object graph is pickled in either direction.

*Transport*-level fault injection / resilient consumption happens in the
parent *before* sharding (a reconnecting stream is inherently a single
consumer); see :meth:`CollectionPipeline.run`.  *Compute*-level faults —
workers crashing, hanging, or erroring mid-shard — are absorbed by the
supervised pool (:mod:`repro.supervise`) this module fans out through:
failed shards are retried deterministically, and a shard that exhausts
its retries is quarantined, leaving a run that completes *degraded* with
the gap named in ``report.compute`` rather than aborting or hanging.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.errors import ConfigError
from repro.faults.compute import WorkerFaultPlan
from repro.pipeline.batch import build_stages, process_stream
from repro.pipeline.runner import PipelineReport
from repro.pipeline.wire import decode_shard_result, encode_shard_result
from repro.procpool import pick_start_method
from repro.supervise import SupervisorPolicy, run_supervised
from repro.twitter.models import Tweet

#: One shard is a list of (original stream position, tweet).
Shard = list[tuple[int, Tweet]]


def shard_by_id(source: Iterable[Tweet], workers: int) -> list[Shard]:
    """Partition a tweet stream into ``workers`` deterministic shards.

    Routing is round-robin on ``tweet_id % workers`` — stable across runs
    and machines — and each tweet keeps its position in the original
    stream so the merge can restore exact serial order.

    Raises:
        ConfigError: if ``workers`` is not a positive integer.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    shards: list[Shard] = [[] for __ in range(workers)]
    for position, tweet in enumerate(source):
        shards[tweet.tweet_id % workers].append((position, tweet))
    return shards


def process_shard(
    shard: Shard, config: CollectionConfig
) -> tuple[list[tuple[int, CollectedTweet]], PipelineReport]:
    """Run collect → augment → US-filter over one shard.

    Executed inside a worker process: builds its own stages, drives the
    shared batched engine (:func:`repro.pipeline.batch.process_stream`),
    and returns position-tagged surviving records plus the shard's
    provenance counters.
    """
    report = PipelineReport()
    out = process_stream(shard, build_stages(config), report)
    return out, report


def _run_shard(
    index: int, shard: Shard, config: CollectionConfig, trace_enabled: bool
) -> tuple[
    list[tuple[int, CollectedTweet]],
    PipelineReport,
    "obs.TelemetrySnapshot | None",
]:
    """Process one shard inside a worker, with optional tracing.

    When the parent ran with tracing enabled, the worker builds its own
    telemetry buffer (the per-worker-buffer model: nothing shared while
    work is in flight), wraps the shard in a span, and freezes a
    snapshot for the parent to absorb in shard order.
    """
    if not trace_enabled:
        records, report = process_shard(shard, config)
        return records, report, None
    telemetry = obs.Telemetry(worker=f"shard-{index}")
    with obs.activate(telemetry):
        with telemetry.span("shard", index=index, tweets=len(shard)):
            records, report = process_shard(shard, config)
    telemetry.observe(
        "shard.wall_seconds", telemetry.tracer.spans[-1].duration, shard=index
    )
    telemetry.inc("shard.tweets_in", len(shard), shard=index)
    telemetry.inc("shard.records_out", len(records), shard=index)
    return records, report, telemetry.snapshot()


#: Parent-side stash the fork-inherited workers read their shards from;
#: set only while one ``run_sharded`` fan-out is dispatching.  Under the
#: ``fork`` start method every child inherits this by copy-on-write, so
#: the dispatch payload shrinks to a bare shard index and no tweet is
#: ever pickled toward a worker.
_FORK_STATE: tuple[list[Shard], CollectionConfig, bool] | None = None


def _shard_task_fork(index: int) -> bytes:
    """Fork-mode worker entry point: look the shard up, return a frame.

    The result is wire-encoded in the worker
    (:func:`repro.pipeline.wire.encode_shard_result`), so the record
    graph crosses the result pipe as raw JSON lines, not pickle.
    """
    state = _FORK_STATE
    if state is None:  # pragma: no cover - dispatch bug guard
        raise RuntimeError("fork shard state is not set in this process")
    shards, config, trace_enabled = state
    return encode_shard_result(
        *_run_shard(index, shards[index], config, trace_enabled)
    )


def _shard_task(
    payload: tuple[int, Shard, CollectionConfig, bool],
) -> bytes:
    """Spawn-compatible worker entry point carrying the shard itself."""
    index, shard, config, trace_enabled = payload
    return encode_shard_result(*_run_shard(index, shard, config, trace_enabled))


def run_sharded(
    source: Iterable[Tweet],
    config: CollectionConfig,
    workers: int,
    *,
    policy: SupervisorPolicy | None = None,
    worker_faults: WorkerFaultPlan | None = None,
) -> tuple[list[CollectedTweet], PipelineReport]:
    """Shard ``source`` across supervised workers and merge the results.

    Returns records in original stream order and the merged report; both
    are identical to what the serial loop produces, for any worker count
    and any recoverable fault schedule.  ``workers=1`` with no policy and
    no fault plan processes the single shard in-process (no pool), which
    keeps the sharded path testable without multiprocessing overhead;
    otherwise shards run under :func:`repro.supervise.run_supervised` and
    ``report.compute`` records what the pool survived.

    A shard quarantined after exhausting its retries (a poison shard) is
    an explicit, named gap: its records are absent, the merged counters
    cover the surviving shards only, and ``report.compute.dead_letters``
    identifies the shard — the run never aborts and never hides the loss.

    Raises:
        ConfigError: if ``workers`` is not a positive integer or the
            fault plan is not absorbable by the policy.
    """
    telemetry = obs.current()
    shards = shard_by_id(source, workers)
    report = PipelineReport()
    results: list[tuple[list[tuple[int, CollectedTweet]], PipelineReport]]
    if workers == 1 and policy is None and worker_faults is None:
        with telemetry.span("shard", index=0, tweets=len(shards[0])):
            results = [process_shard(shards[0], config)]
    else:
        global _FORK_STATE
        labels = [f"shard {index}" for index in range(len(shards))]
        fork = pick_start_method() == "fork"
        outcomes: list[bytes | None]
        if fork:
            # Slim dispatch: workers inherit the shards via fork and
            # receive only their index over the pipe.
            _FORK_STATE = (shards, config, telemetry.enabled)
            try:
                outcomes, health = run_supervised(
                    _shard_task_fork,
                    list(range(len(shards))),
                    workers=workers,
                    policy=policy,
                    fault_plan=worker_faults,
                    labels=labels,
                )
            finally:
                _FORK_STATE = None
        else:  # pragma: no cover - non-fork platforms only
            outcomes, health = run_supervised(
                _shard_task,
                [
                    (index, shard, config, telemetry.enabled)
                    for index, shard in enumerate(shards)
                ],
                workers=workers,
                policy=policy,
                fault_plan=worker_faults,
                labels=labels,
            )
        # Absorb worker buffers in shard-index order (outcomes align
        # with payloads), so the merged telemetry is deterministic no
        # matter how the scheduler interleaved the workers.
        results = []
        for outcome in outcomes:
            if outcome is None:
                continue
            shard_records, shard_report, snapshot = decode_shard_result(outcome)
            telemetry.absorb(snapshot)
            results.append((shard_records, shard_report))
        report.compute = health
    tagged: list[tuple[int, CollectedTweet]] = []
    for shard_records, shard_report in results:
        report = report.merge(shard_report)
        tagged.extend(shard_records)
    tagged.sort(key=lambda item: item[0])
    return [record for __, record in tagged], report
