"""Tests for the batched funnel engine.

The engine is held in lockstep with a per-tweet reference funnel built
from the naive oracles (``tests/oracles.py``) — same records, same nine
provenance counters — over a real synthetic firehose, so any drift in
the keyword filter, geocoding, US filter or mention extraction fails
loudly.
"""

from __future__ import annotations

import pytest

from repro.config import CollectionConfig
from repro.nlp.matcher import OrganMatcher
from repro.organs import Organ
from repro.pipeline.batch import (
    BATCH_SIZE,
    build_stages,
    iter_batches,
    process_stream,
)
from repro.pipeline.runner import PipelineReport
from repro.twitter.models import Tweet, UserProfile
from tests.oracles import reference_funnel


class TestIterBatches:
    def test_exact_multiple(self):
        batches = list(iter_batches(enumerate(range(6)), size=3))
        assert [len(b) for b in batches] == [3, 3]

    def test_ragged_tail(self):
        batches = list(iter_batches(enumerate(range(7)), size=3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_empty_source(self):
        assert list(iter_batches(iter(()), size=3)) == []

    def test_preserves_order_and_positions(self):
        batches = list(iter_batches(enumerate("abcde"), size=2))
        flat = [item for batch in batches for item in batch]
        assert flat == [(0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e")]

    def test_default_size(self):
        batches = list(iter_batches(enumerate(range(BATCH_SIZE + 1))))
        assert [len(b) for b in batches] == [BATCH_SIZE, 1]


class TestBatchFunnelLockstep:
    @pytest.fixture(scope="class")
    def firehose(self, small_world):
        return list(small_world.firehose())

    def test_records_and_report_identical(self, firehose):
        config = CollectionConfig()
        expected_records, expected_report = reference_funnel(firehose, config)

        report = PipelineReport()
        records = process_stream(
            enumerate(firehose),
            build_stages(config),
            report,
        )

        assert records == expected_records
        assert report == expected_report
        assert report.retained == len(records) > 0

    def test_batch_size_does_not_change_results(self, firehose):
        config = CollectionConfig()
        sample = firehose[:3_000]

        def run_with_batch_size(size):
            report = PipelineReport()
            records = process_stream(
                enumerate(sample),
                build_stages(config),
                report,
                batch_size=size,
            )
            return records, report

        baseline = run_with_batch_size(2048)
        assert run_with_batch_size(7) == baseline
        assert run_with_batch_size(len(sample) + 10) == baseline

    def test_positions_ascending(self, firehose):
        config = CollectionConfig()
        report = PipelineReport()
        records = process_stream(
            enumerate(firehose[:5_000]),
            build_stages(config),
            report,
        )
        positions = [position for position, __ in records]
        assert positions == sorted(positions)

    def test_counters_account_for_every_tweet(self, firehose):
        config = CollectionConfig()
        report = PipelineReport()
        sample = firehose[:5_000]
        process_stream(
            enumerate(sample),
            build_stages(config),
            report,
        )
        assert report.stream_dropped + report.collected == len(sample)
        assert (
            report.unresolved
            + report.located_gps
            + report.located_profile
            == report.collected
        )
        assert (
            report.non_us + report.us_located
            == report.located_gps + report.located_profile
        )
        assert report.no_mentions + report.retained == report.us_located


class TestUsYield:
    def test_us_yield_counts_us_located_without_mentions(self):
        """Regression: us_yield divided `retained`/`collected`, excluding
        US-located tweets whose keyword match had no extractable organ
        mention — but the paper's 134,986/975,021 footnote counts every
        tweet identified as from a USA user."""

        def tweet(text, location, tweet_id):
            user = UserProfile(user_id=1, screen_name="u1", location=location)
            return Tweet(tweet_id=tweet_id, user=user, text=text)

        # A matcher that knows fewer aliases than the track vocabulary:
        # "kidney donor" is collected but yields no extractable mention.
        stages = build_stages(CollectionConfig())
        stages.matcher = OrganMatcher(aliases={"liver": Organ.LIVER})
        source = [
            tweet("liver donor", "Wichita, KS", 1),
            tweet("kidney donor", "Topeka, KS", 2),
            tweet("liver donor", "London", 3),
        ]
        report = PipelineReport()
        records = process_stream(enumerate(source), stages, report)
        assert [position for position, __ in records] == [0]
        assert report.no_mentions == 1
        assert report.us_located == 2
        assert report.retained == 1
        assert report.us_yield == pytest.approx(2 / 3)
        assert report.retention == pytest.approx(1 / 3)
