"""Tests for the sharded parallel pipeline."""

import json

import pytest

from repro.config import CollectionConfig
from repro.errors import ConfigError, PipelineError
from repro.pipeline.parallel import process_shard, run_sharded, shard_by_id
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.twitter.models import Tweet, UserProfile
from repro.twitter.resilient import ReliabilityReport


def tweet(text: str, location: str, tweet_id: int, user_id: int = 1) -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        user=UserProfile(user_id=user_id, screen_name=f"u{user_id}",
                         location=location),
        text=text,
    )


def corpus_bytes(corpus) -> bytes:
    return "\n".join(
        json.dumps(record.to_dict(), ensure_ascii=False)
        for record in corpus.records
    ).encode("utf-8")


class TestSharding:
    def test_round_robin_by_tweet_id(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i) for i in range(10)]
        shards = shard_by_id(tweets, 3)
        for shard_index, shard in enumerate(shards):
            assert all(t.tweet_id % 3 == shard_index for __, t in shard)
        assert sum(len(shard) for shard in shards) == 10

    def test_positions_preserve_stream_order(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i * 7) for i in range(9)]
        shards = shard_by_id(tweets, 4)
        flattened = sorted(
            (position for shard in shards for position, __ in shard)
        )
        assert flattened == list(range(9))

    def test_deterministic(self):
        tweets = [tweet("kidney donor", "Wichita, KS", i) for i in range(20)]
        assert shard_by_id(tweets, 4) == shard_by_id(tweets, 4)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            shard_by_id([], 0)


class TestReportMerge:
    def test_counters_sum(self):
        a = PipelineReport(collected=3, retained=2, non_us=1, us_located=2)
        b = PipelineReport(collected=5, retained=1, unresolved=4, us_located=1)
        merged = a.merge(b)
        assert merged.collected == 8
        assert merged.retained == 3
        assert merged.non_us == 1
        assert merged.unresolved == 4
        assert merged.us_located == 3

    def test_merge_is_commutative(self):
        a = PipelineReport(collected=3, retained=2)
        b = PipelineReport(collected=5, no_mentions=1)
        assert a.merge(b) == b.merge(a)

    def test_identity_merge(self):
        a = PipelineReport(collected=3, retained=2)
        assert a.merge(PipelineReport()) == a

    def test_single_reliability_carried(self):
        reliability = ReliabilityReport()
        a = PipelineReport(reliability=reliability)
        b = PipelineReport()
        assert a.merge(b).reliability is reliability
        assert b.merge(a).reliability is reliability

    def test_two_reliability_reports_rejected(self):
        a = PipelineReport(reliability=ReliabilityReport())
        b = PipelineReport(reliability=ReliabilityReport())
        with pytest.raises(PipelineError):
            a.merge(b)

    def test_single_compute_health_carried(self):
        from repro.supervise import RunHealth

        health = RunHealth(tasks=2, completed=2)
        a = PipelineReport(compute=health)
        b = PipelineReport()
        assert a.merge(b).compute is health
        assert b.merge(a).compute is health

    def test_two_compute_reports_rejected(self):
        from repro.supervise import RunHealth

        a = PipelineReport(compute=RunHealth())
        b = PipelineReport(compute=RunHealth())
        with pytest.raises(PipelineError):
            a.merge(b)

    def test_report_round_trips_with_both_health_layers(self):
        from repro.supervise import RunHealth

        report = PipelineReport(
            collected=10, retained=4,
            reliability=ReliabilityReport(delivered=10, connects=2),
            compute=RunHealth(tasks=2, completed=2),
        )
        assert PipelineReport.from_dict(report.to_dict()) == report


class TestProcessShard:
    def test_counts_and_records(self):
        config = CollectionConfig()
        shard = [
            (0, tweet("kidney donor", "Wichita, KS", 0)),
            (1, tweet("nice sunset", "Wichita, KS", 2)),
            (2, tweet("kidney donor", "London", 4)),
        ]
        records, report = process_shard(shard, config)
        assert report.stream_dropped == 1
        assert report.collected == 2
        assert report.non_us == 1
        assert report.retained == 1
        assert [position for position, __ in records] == [0]


class TestRunSharded:
    def make_source(self, n: int = 40):
        locations = ["Wichita, KS", "London", "the moon", "Boston, MA"]
        texts = ["kidney donor", "nice sunset", "liver transplant"]
        return [
            tweet(texts[i % 3], locations[i % 4], i, user_id=i % 5)
            for i in range(n)
        ]

    def test_matches_serial_for_worker_counts(self):
        source = self.make_source()
        serial_corpus, serial_report = CollectionPipeline().run(source)
        for workers in (1, 2, 4):
            corpus, report = CollectionPipeline().run(source, workers=workers)
            assert corpus_bytes(corpus) == corpus_bytes(serial_corpus)
            if workers > 1:
                # Supervised runs additionally document pool health.
                assert report.compute is not None
                assert not report.compute.degraded
                report.compute = None
            assert report == serial_report

    def test_empty_result_raises(self):
        with pytest.raises(PipelineError):
            CollectionPipeline().run(
                [tweet("nice sunset", "Wichita, KS", 1)], workers=2
            )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            CollectionPipeline().run(self.make_source(), workers=0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_run_sharded_returns_stream_order(self, workers):
        source = self.make_source()
        records, report = run_sharded(source, CollectionConfig(), workers)
        ids = [record.tweet.tweet_id for record in records]
        assert ids
        assert ids == sorted(ids)
        # Every direct call runs supervised, workers=1 included.
        assert report.compute is not None
        assert report.compute.tasks == workers
