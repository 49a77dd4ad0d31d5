"""The benchmark workloads.

Each workload builds its inputs from a seed in :meth:`setup`, runs one
timed operation per :meth:`run_once` and checks that operation's outputs,
and in :meth:`traced` runs the operation once more with its layers timed
from outside: program spans and counters are read back from a
``trace.jsonl`` export, and the benchmark's own spans wrap the calls it
makes into each layer.  Nothing here instruments ``src/``.

``mutate`` is a test seam: a callable applied to an output file after
the program wrote it and before the check reads it, so the self-tests
can prove that a corrupted output is counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from collections.abc import Callable
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path
from typing import Any, Iterator

from measure import Outcome, median, p99, sha256_file
from spans import SpanRecorder

from repro.config import CollectionConfig
from repro.dataset.io import write_jsonl, write_tweets_jsonl
from repro.obs import Telemetry, activate
from repro.obs.export import TRACE_FILENAME, read_trace, write_trace
from repro.pipeline.runner import CollectionPipeline
from repro.serve import ArtifactCache
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld
from repro.twitter.models import Tweet

Mutate = Callable[[Path], None]

_REPORT_STAGES = ("table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def synth_firehose(scale: float, seed: int, limit: int | None = None) -> list[Tweet]:
    """The first ``limit`` tweets of a synthetic world's firehose.

    A fixed count keeps the work of one operation the same across seeds;
    world sizes at one scale differ by several percent between seeds.
    """
    return list(SyntheticWorld(paper2016_scenario(scale=scale, seed=seed)).firehose())[:limit]


def fresh_caches() -> None:
    """Empty the tokenizer's process-wide memos.

    ``tokenize`` and ``scan_words_hashtags`` keep ``lru_cache`` memos that
    outlive a call.  Set-up and earlier passes tokenize the same texts, so
    without this every timed pass after the first would hit a cache that
    a fresh ``repro`` process finds empty.  Called in the parent before
    each timed pass, so forked workers start empty too.
    """
    from repro.nlp.tokenize import scan_words_hashtags, tokenize

    tokenize.cache_clear()
    scan_words_hashtags.cache_clear()


def counters(records: list[dict[str, object]]) -> dict[str, float]:
    """Trace counter values summed over their labels."""
    totals: dict[str, float] = {}
    for record in records:
        if record.get("kind") == "counter":
            name = str(record["name"])
            totals[name] = totals.get(name, 0.0) + float(record["value"])  # type: ignore[arg-type]
    return totals


def traced_records(telemetry: Telemetry, path: Path) -> list[dict[str, object]]:
    """Export ``telemetry`` the way the CLI does and read it back."""
    write_trace(telemetry, path)
    return read_trace(path)


def funnel_layers(
    tweets: list[Tweet], rec: SpanRecorder, *, query_set: bool = False
) -> dict[str, float]:
    """Time the funnel's layers one by one, with fresh instances.

    The keyword filter runs over every tweet, the geocoder over the
    tweets the filter keeps, and the organ matcher over the US-located
    ones: the order and inputs of the batched funnel.  ``query_set``
    also times the sensor's per-tweet ``matches_query_set`` path.  Each
    layer starts with empty tokenizer memos, so it pays its own
    tokenization.
    """
    from repro.geo.geocoder import Geocoder
    from repro.nlp.keywords import build_query_set, matches_query_set, track_phrases
    from repro.nlp.matcher import OrganMatcher
    from repro.pipeline.augment import augment_location
    from repro.pipeline.usfilter import is_us_located
    from repro.twitter.stream import TrackFilter

    config = CollectionConfig()
    fresh_caches()
    with rec.span("nlp.track_filter"):
        track = TrackFilter(
            track_phrases(build_query_set(config.context_terms, config.subject_terms))
        )
        kept = [tweet for tweet in tweets if track.matches(tweet.text)]
    fresh_caches()
    with rec.span("geo.geocode"):
        geocoder = Geocoder()
        located = [augment_location(tweet, geocoder, config) for tweet in kept]
    us = [t for t, match in zip(kept, located) if is_us_located(match, config)]
    fresh_caches()
    with rec.span("nlp.matcher"):
        matcher = OrganMatcher()
        for tweet in us:
            matcher.mentions(tweet.text)
    metrics = {
        "nlp.track_filter_s": rec.durations("nlp.track_filter")[-1],
        "geo.geocode_s": rec.durations("geo.geocode")[-1],
        "nlp.matcher_s": rec.durations("nlp.matcher")[-1],
        "geo.distinct_locations": float(len({t.user.location for t in kept})),
    }
    if query_set:
        fresh_caches()
        with rec.span("nlp.query_set"):
            queries = build_query_set(config.context_terms, config.subject_terms)
            for tweet in tweets:
                matches_query_set(tweet.text, queries)
        metrics["nlp.query_set_s"] = rec.durations("nlp.query_set")[-1]
    return metrics


@contextmanager
def patched(module: Any, **replacements: Any) -> Iterator[None]:
    """Temporarily replace module globals (the traced run's call wraps)."""
    originals = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(module, name, value)


class Workload:
    """Shared shape: seed, scratch directory, reference of first output."""

    name = ""
    default_scale = 0.02
    workers = 1  # processes the timed operation runs in

    def __init__(
        self, seed: int, work: Path, scale: float | None = None,
        mutate: Mutate | None = None,
    ):
        self.seed = seed
        self.work = work
        self.scale = scale if scale is not None else self.default_scale
        self.mutate = mutate
        self.fingerprint = ""  # digest of the set-up inputs
        self.items = 0  # input items one timed operation consumes
        self._first: object = None

    def _stable(self, value: object, what: str) -> list[str]:
        """Compare ``value`` with the first repetition's."""
        if self._first is None:
            self._first = value
            return []
        if value != self._first:
            return [f"{self.name}: {what} differs from the first repetition"]
        return []

    def _mutated(self, path: Path) -> Path:
        if self.mutate is not None:
            self.mutate(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, index: int) -> Outcome:
        raise NotImplementedError

    def traced(self, rec: SpanRecorder, untraced_s: float) -> tuple[Outcome, dict[str, float]]:
        raise NotImplementedError


class PaperRun(Workload):
    name = "paper-run"
    default_scale = 0.02

    def params(self) -> Any:
        from repro.pipeline.journal import RunParams

        return RunParams(scale=self.scale, seed=self.seed, workers=1)

    def setup(self) -> None:
        """Reference firehose and corpus, built in memory without the journal.

        Only their digests and the tweet count are kept, so the timed
        runs' peak memory covers what ``run_stages`` allocates and not a
        firehose the benchmark holds.
        """
        tweets = synth_firehose(self.scale, self.seed)
        self.items = len(tweets)
        ref = self.work / "reference"
        ref.mkdir()
        write_tweets_jsonl(tweets, ref / "firehose.jsonl", manifest=False)
        corpus, __ = CollectionPipeline().run(tweets)
        write_jsonl(corpus.records, ref / "corpus.jsonl", manifest=False)
        self.reference = {
            name: sha256_file(ref / name) for name in ("firehose.jsonl", "corpus.jsonl")
        }
        shutil.rmtree(ref)
        self.fingerprint = json.dumps(self.reference, sort_keys=True)

    def check(self, run_dir: Path) -> list[str]:
        from repro.errors import PipelineError
        from repro.pipeline.journal import STAGE_ARTIFACTS, STAGES, RunJournal

        problems: list[str] = []
        journal = RunJournal.load(run_dir)
        if journal.completed_stages() != STAGES:
            problems.append(f"paper-run: journal completed {journal.completed_stages()}")
        for stage in journal.completed_stages():
            try:
                journal.verify_artifacts(stage)
            except PipelineError as exc:
                problems.append(f"paper-run: {exc}")
        hashes = {
            name: sha256_file(self._mutated(run_dir / name))
            for __, names in STAGE_ARTIFACTS
            for name in names
        }
        for name, digest in self.reference.items():
            if hashes[name] != digest:
                problems.append(f"paper-run: {name} differs from the in-memory reference")
        return problems + self._stable(hashes, "artifact sha256")

    def run_once(self, index: int) -> Outcome:
        from repro.pipeline.journal import run_stages

        run_dir = self.work / f"run{index}"
        fresh_caches()
        start = time.monotonic()
        run_stages(run_dir, self.params())
        seconds = time.monotonic() - start
        try:
            return Outcome(seconds, self.check(run_dir))
        finally:
            shutil.rmtree(run_dir)

    def traced(self, rec: SpanRecorder, untraced_s: float) -> tuple[Outcome, dict[str, float]]:
        import repro.pipeline.journal as journal

        run_dir = self.work / "traced"
        write_firehose = journal.write_tweets_jsonl
        read_firehose = journal.read_tweets_jsonl

        def timed_write(tweets: Any, path: Any, **kwargs: Any) -> int:
            with rec.span("dataset.firehose_write"):
                return write_firehose(rec.busy_iter("synth.firehose", tweets), path, **kwargs)

        def timed_read(path: Any, **kwargs: Any) -> Any:
            return rec.busy_iter("dataset.firehose_read", read_firehose(path, **kwargs))

        with patched(
            journal,
            write_tweets_jsonl=timed_write,
            read_tweets_jsonl=timed_read,
            write_jsonl=rec.timed("dataset.corpus_write", journal.write_jsonl),
        ):
            fresh_caches()
            with rec.span(self.name):
                journal.run_stages(run_dir, self.params(), trace=True)
        wall = rec.durations(self.name)[0]
        records = read_trace(run_dir / TRACE_FILENAME)
        rec.adopt(records)
        rec.build()
        own = rec.self_times()
        layers = {
            # Outside its wrapped writer, the firehose stage builds the
            # synthetic world; inside, the generator's busy time is synth.
            "synth.firehose_s": own["stage.firehose"] + own["synth.firehose"],
            "dataset.firehose_write_s": own["dataset.firehose_write"],
            "dataset.firehose_read_s": own["dataset.firehose_read"],
            "pipeline.collect_s": own["pipeline.serial"],
            "dataset.corpus_write_s": own["dataset.corpus_write"],
            "core.attention_s": own["stage.attention"],
            **{f"report.{stage}_s": own[f"stage.{stage}"] for stage in _REPORT_STAGES},
        }
        count = counters(records)
        metrics = {
            **layers,
            "run.unaccounted_s": wall - sum(layers.values()),
            "dataset.firehose_bytes": float((run_dir / "firehose.jsonl").stat().st_size),
            "pipeline.tweets_seen": count["pipeline.tweets_seen"],
            "pipeline.collected": count["pipeline.collected"],
            "pipeline.retained": count["pipeline.retained"],
            "pipeline.retained_ratio": count["pipeline.retained"] / count["pipeline.tweets_seen"],
            "storage.fsyncs": count.get("storage.fsyncs", 0.0),
            "storage.replaces": count.get("storage.replaces", 0.0),
        }
        outcome = Outcome(wall, self.check(run_dir))
        shutil.rmtree(run_dir)
        tweets = synth_firehose(self.scale, self.seed)
        metrics.update(funnel_layers(tweets, rec, query_set=True))
        problems, sensor = sensor_layers(
            tweets, count["pipeline.retained"], rec, self.work / "sensor.trace.jsonl"
        )
        outcome.problems += problems
        metrics.update(sensor)
        return outcome, metrics


class CollectFanout(Workload):
    name = "collect-fanout"
    default_scale = 0.03
    tweets_limit = 30_000
    workers = 2

    def setup(self) -> None:
        """In-memory firehose plus the serial corpus it must reproduce."""
        self.tweets = synth_firehose(self.scale, self.seed, self.tweets_limit)
        self.items = len(self.tweets)
        corpus, report = CollectionPipeline().run(self.tweets)
        self.serial_digest = self._corpus_digest(corpus, "serial.jsonl", mutate=False)
        self.serial_retained = report.retained
        self.fingerprint = self.serial_digest

    def _corpus_digest(self, corpus: Any, name: str, mutate: bool = True) -> str:
        path = self.work / name
        write_jsonl(corpus.records, path, manifest=False)
        try:
            return sha256_file(self._mutated(path) if mutate else path)
        finally:
            path.unlink()

    def check(self, corpus: Any, report: Any) -> list[str]:
        problems = []
        if self._corpus_digest(corpus, "sharded.jsonl") != self.serial_digest:
            problems.append("collect-fanout: sharded corpus differs from the serial corpus")
        if report.retained != self.serial_retained:
            problems.append("collect-fanout: retained count differs from the serial run")
        if report.compute is not None and report.compute.dead_letters:
            problems.append("collect-fanout: a shard was quarantined")
        return problems

    def run_once(self, index: int) -> Outcome:
        fresh_caches()
        start = time.monotonic()
        corpus, report = CollectionPipeline().run(self.tweets, workers=self.workers)
        seconds = time.monotonic() - start
        return Outcome(seconds, self.check(corpus, report))

    def traced(self, rec: SpanRecorder, untraced_s: float) -> tuple[Outcome, dict[str, float]]:
        from repro.pipeline.parallel import process_shard, shard_by_id
        from repro.pipeline.wire import decode_shard_result, encode_shard_result

        telemetry = Telemetry()
        fresh_caches()
        with activate(telemetry):
            with rec.span(self.name):
                corpus, report = CollectionPipeline().run(self.tweets, workers=self.workers)
        wall = rec.durations(self.name)[0]
        outcome = Outcome(wall, self.check(corpus, report))
        records = traced_records(telemetry, self.work / "fanout.trace.jsonl")
        rec.adopt(records)
        rec.build()
        shard_s = rec.durations("shard")
        fanout_self = rec.self_times()["pipeline.sharded"]
        count = counters(records)
        metrics = {
            "pipeline.fanout_self_s": fanout_self,
            "pipeline.shard_s_max": max(shard_s),
            "pipeline.shard_skew": max(shard_s) / min(shard_s),
            "run.unaccounted_s": wall - fanout_self - max(shard_s),
            "pipeline.tweets_seen": count["pipeline.tweets_seen"],
            "pipeline.collected": count["pipeline.collected"],
            "pipeline.retained": count["pipeline.retained"],
            "pipeline.retained_ratio": count["pipeline.retained"] / count["pipeline.tweets_seen"],
            "supervisor.dispatched": count.get("supervisor.dispatched", 0.0),
            "supervisor.retries": count.get("supervisor.retries", 0.0),
            "supervisor.failed": count.get("supervisor.failed", 0.0),
        }
        with rec.span("pipeline.shard_split"):
            shards = shard_by_id(self.tweets, self.workers)
        wire_bytes = 0
        for shard in shards:
            shard_records, shard_report = process_shard(shard, CollectionConfig())
            with rec.span("wire.encode"):
                frame = encode_shard_result(shard_records, shard_report, None)
            with rec.span("wire.decode"):
                decode_shard_result(frame)
            wire_bytes += len(frame)
        metrics["pipeline.shard_split_s"] = rec.durations("pipeline.shard_split")[0]
        metrics["wire.encode_s"] = sum(rec.durations("wire.encode"))
        metrics["wire.decode_s"] = sum(rec.durations("wire.decode"))
        serial = []
        for __ in range(3):
            fresh_caches()
            start = time.monotonic()
            CollectionPipeline().run(self.tweets)
            serial.append(time.monotonic() - start)
        metrics["wire.bytes"] = float(wire_bytes)
        metrics["pipeline.serial_ref_s"] = median(serial)
        metrics["pipeline.fanout_speedup"] = median(serial) / untraced_s
        metrics.update(funnel_layers(self.tweets, rec))
        return outcome, metrics


class TimedArtifactCache(ArtifactCache):
    """An artifact cache that wraps each builder it runs in a span."""

    def __init__(self, rec: SpanRecorder):
        super().__init__()
        self.rec = rec

    def get(self, key: tuple[object, ...], builder: Callable[[], Any]) -> Any:
        return super().get(key, self.rec.timed(f"serve.build.{key[1]}", builder))


class ServeBurst(Workload):
    name = "serve-burst"
    default_scale = 0.03
    corpus_limit = 3_500
    #: Simulated seconds of offered load, and the storm window inside it.
    duration_s = 30.0
    storm = (10.0, 12.0)
    storm_factor = 8.0
    health_every = 8

    def requests_schedule(self) -> list[dict[str, object]]:
        """Open-loop arrivals on the simulated clock.

        Steady at the admission refill rate, 8x inside the storm window;
        every 8th request is a health probe, the rest mix the three
        query kinds over random states and clusters.
        """
        from repro.geo.gazetteer import ALL_REGION_CODES
        from repro.serve.admission import AdmissionPolicy
        from repro.serve.service import ServicePolicy

        rate = AdmissionPolicy().refill_per_second
        clusters = ServicePolicy().cluster_k
        rng = random.Random(self.seed)
        schedule: list[dict[str, object]] = []
        arrival = 0.0
        while arrival < self.duration_s:
            index = len(schedule)
            params: dict[str, object] = {}
            if index % self.health_every == 0:
                kind = "health"
            else:
                kind = rng.choice(("state_signature", "relative_risk", "cluster_profile"))
                if kind == "cluster_profile":
                    params["cluster"] = rng.randrange(clusters)
                else:
                    params["state"] = rng.choice(ALL_REGION_CODES)
            schedule.append(
                {"id": f"q{index}", "kind": kind, "arrival": round(arrival, 6), "params": params}
            )
            storming = self.storm[0] <= arrival < self.storm[1]
            arrival += 1.0 / (rate * (self.storm_factor if storming else 1.0))
        return schedule

    def setup(self) -> None:
        """A run directory holding a manifested corpus, and a request file."""
        from repro.serve import read_requests_jsonl

        self.run_dir = self.work / "run"
        self.run_dir.mkdir()
        corpus, __ = CollectionPipeline().run(synth_firehose(self.scale, self.seed))
        write_jsonl(corpus.records[: self.corpus_limit], self.run_dir / "corpus.jsonl")
        request_file = self.work / "requests.jsonl"
        with open(request_file, "w", encoding="utf-8") as handle:
            for request in self.requests_schedule():
                handle.write(json.dumps(request, sort_keys=True) + "\n")
        self.requests, malformed = read_requests_jsonl(request_file)
        if malformed:
            raise ValueError(f"generated request file has malformed lines: {malformed}")
        self.arrival = {r.request_id: r.arrival for r in self.requests}
        self.items = len(self.requests)
        self.fingerprint = sha256_file(self.run_dir / "corpus.jsonl") + sha256_file(request_file)
        self.latencies: list[float] = []

    def check(self, result: Any, output: Path) -> list[str]:
        problems = []
        report = result.report
        if not report.accounted:
            problems.append("serve-burst: OverloadReport.accounted does not hold")
        with open(self._mutated(output), encoding="utf-8") as handle:
            ids = [json.loads(line)["request_id"] for line in handle]
        if len(ids) != report.submitted or set(ids) != set(self.arrival):
            problems.append(
                f"serve-burst: response file has {len(ids)} lines for "
                f"{report.submitted} submitted requests"
            )
        return problems + self._stable(sha256_file(output), "response file sha256")

    def _outcome(self, seconds: float, result: Any, output: Path) -> Outcome:
        from repro.serve.service import Outcome as ServeOutcome

        report = result.report
        self.latencies = [
            (r.finished_at - self.arrival[r.request_id]) * 1000.0
            for r in result.responses
            if r.outcome is ServeOutcome.COMPLETED
        ]
        return Outcome(
            seconds,
            self.check(result, output),
            units=report.submitted,
            shed_units=report.shed + report.expired + report.dead_lettered,
        )

    def run_once(self, index: int) -> Outcome:
        from repro.serve import QueryService, write_responses_jsonl

        output = self.work / "responses.jsonl"
        fresh_caches()
        start = time.monotonic()
        service = QueryService(self.run_dir)
        result = service.serve(self.requests)
        write_responses_jsonl(result.responses, output)
        seconds = time.monotonic() - start
        return self._outcome(seconds, result, output)

    def traced(self, rec: SpanRecorder, untraced_s: float) -> tuple[Outcome, dict[str, float]]:
        from repro.serve import QueryService, write_responses_jsonl

        output = self.work / "responses.jsonl"
        telemetry = Telemetry()
        fresh_caches()
        with activate(telemetry):
            with rec.span(self.name):
                with rec.span("serve.init"):
                    service = QueryService(self.run_dir, cache=TimedArtifactCache(rec))
                with rec.span("serve.loop"):
                    result = service.serve(self.requests)
                with rec.span("serve.write"):
                    write_responses_jsonl(result.responses, output)
        wall = rec.durations(self.name)[0]
        outcome = self._outcome(wall, result, output)
        records = traced_records(telemetry, self.work / "serve.trace.jsonl")
        rec.adopt(records)
        rec.build()
        own = rec.self_times()
        layers = {
            "serve.init_s": own["serve.init"],
            "serve.loop_s": own["serve.loop"],
            "serve.write_s": own["serve.write"],
            **{
                f"serve.build_s.{name}": own.get(f"serve.build.{name}", 0.0)
                for name in ("corpus", "coarse", "regions", "risks", "clustering")
            },
        }
        count = counters(records)
        report = result.report
        metrics = {
            **layers,
            "run.unaccounted_s": wall - sum(layers.values()),
            "serve.completed": count.get("serve.completed", 0.0),
            "serve.shed": count.get("serve.shed", 0.0),
            "serve.expired": count.get("serve.expired", 0.0),
            "serve.degraded_ratio": count.get("serve.degraded", 0.0)
            / max(count.get("serve.completed", 0.0), 1.0),
            "serve.max_brownout_level": float(report.max_brownout_level),
            "serve.artifact_loads": float(report.artifact_loads),
            "serve.p99_sim_ms": p99(self.latencies),
        }
        return outcome, metrics


def snapshot_digest(snapshots: list[Any]) -> str:
    """Canonical sha256 of a snapshot sequence."""
    digest = hashlib.sha256()
    for snap in snapshots:
        digest.update(
            json.dumps(
                [
                    snap.window_start.isoformat(),
                    snap.window_end.isoformat(),
                    snap.n_tweets,
                    snap.n_users,
                    sorted((o.value, n) for o, n in snap.users_by_organ.items()),
                    sorted((s, [o.value for o in os]) for s, os in snap.highlights.items()),
                ]
            ).encode("utf-8")
        )
    return digest.hexdigest()


def sensor_layers(
    tweets: list[Tweet], batch_retained: float, rec: SpanRecorder, trace: Path
) -> tuple[list[str], dict[str, float]]:
    """The per-tweet sensor path of ``repro monitor``, timed by layer.

    ``sensor.tweets_per_s`` is the median of three plain passes through
    ``RollingAwarenessSensor.run``; a further pass drives ``observe`` and
    ``snapshot`` the way ``run`` does, with each call timed.  Every pass
    starts with a fresh sensor and empty tokenizer memos.  All passes
    must emit the same snapshot sequence, and whenever no tweet was stale
    the sensor must retain what the batch funnel retained.
    """
    from repro.sensor.rolling import RollingAwarenessSensor

    window, emit_every = timedelta(days=60), 250
    digests: set[str] = set()
    run_s: list[float] = []
    for __ in range(3):
        sensor = RollingAwarenessSensor(window=window)
        fresh_caches()
        start = time.monotonic()
        reference = list(sensor.run(tweets, emit_every=emit_every))
        run_s.append(time.monotonic() - start)
        digests.add(snapshot_digest(reference))

    sensor = RollingAwarenessSensor(window=window)
    fresh_caches()
    snapshots: list[Any] = []
    observe_s = snapshot_s = 0.0
    first_observe = last_observe = first_snap = last_snap = 0.0
    clock = time.monotonic

    def take_snapshot() -> None:
        nonlocal snapshot_s, first_snap, last_snap
        begin = clock()
        snapshot = sensor.snapshot()
        last_snap = clock()
        first_snap = first_snap or begin
        snapshot_s += last_snap - begin
        if snapshot is not None:
            snapshots.append(snapshot)

    telemetry = Telemetry()
    with activate(telemetry):
        since_emit = 0
        for tweet in tweets:
            begin = clock()
            kept = sensor.observe(tweet)
            last_observe = clock()
            first_observe = first_observe or begin
            observe_s += last_observe - begin
            if kept:
                since_emit += 1
                if since_emit >= emit_every:
                    since_emit = 0
                    take_snapshot()
        take_snapshot()
    rec.add_aggregate("sensor.observe", first_observe, last_observe, observe_s)
    rec.add_aggregate("sensor.snapshot", first_snap, last_snap, snapshot_s)

    problems = []
    digests.add(snapshot_digest(snapshots))
    if len(digests) != 1:
        problems.append("sensor: snapshot sequence differs between passes")
    if sensor.stale_dropped == 0 and sensor.retained != batch_retained:
        problems.append(
            f"sensor: retained {sensor.retained}, batch funnel retained {batch_retained}"
        )
    stale = counters(traced_records(telemetry, trace)).get("sensor.stale_dropped", 0.0)
    return problems, {
        "sensor.tweets_per_s": len(tweets) / median(run_s),
        "sensor.observe_s": observe_s,
        "sensor.snapshot_s": snapshot_s,
        "sensor.snapshots": float(len(snapshots)),
        "sensor.retained": float(sensor.retained),
        "sensor.stale_dropped": stale,
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperRun, CollectFanout, ServeBurst)
}
