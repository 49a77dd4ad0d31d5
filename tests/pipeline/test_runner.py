"""Tests for the composed pipeline."""

import pytest

from repro.errors import PipelineError
from repro.pipeline.runner import CollectionPipeline
from repro.twitter.models import Place, Tweet, UserProfile


def tweet(text: str, location: str = "", tweet_id: int = 0,
          user_id: int = 1, place: Place | None = None) -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        user=UserProfile(user_id=user_id, screen_name=f"u{user_id}",
                         location=location),
        text=text,
        place=place,
    )


class TestPipelineComposition:
    def test_happy_path(self):
        source = [tweet("be a kidney donor", "Wichita, KS", 1)]
        corpus, report = CollectionPipeline().run(source)
        assert len(corpus) == 1
        assert report.retained == 1
        assert corpus.records[0].state == "KS"

    def test_off_topic_dropped_at_stream(self):
        source = [
            tweet("nice sunset", "Wichita, KS", 1),
            tweet("kidney donor", "Wichita, KS", 2),
        ]
        corpus, report = CollectionPipeline().run(source)
        assert report.stream_dropped == 1
        assert report.collected == 1
        assert len(corpus) == 1

    def test_foreign_dropped_at_us_filter(self):
        source = [
            tweet("kidney donor", "London", 1),
            tweet("kidney donor", "Wichita, KS", 2),
        ]
        corpus, report = CollectionPipeline().run(source)
        assert report.non_us == 1
        assert report.retained == 1

    def test_unresolved_counted(self):
        source = [
            tweet("kidney donor", "the moon", 1),
            tweet("kidney donor", "Wichita, KS", 2),
        ]
        __, report = CollectionPipeline().run(source)
        assert report.unresolved == 1

    def test_gps_counted_separately(self):
        source = [
            tweet("kidney donor", place=Place("Topeka, KS", "US"), tweet_id=1),
            tweet("kidney donor", "Wichita, KS", 2),
        ]
        __, report = CollectionPipeline().run(source)
        assert report.located_gps == 1
        assert report.located_profile == 1

    def test_counters_are_exhaustive(self):
        """Every collected tweet lands in exactly one outcome counter."""
        source = [
            tweet("kidney donor", "Wichita, KS", 1),
            tweet("liver transplant", "London", 2),
            tweet("heart donor", "the moon", 3),
            tweet("sunset pics", "Wichita, KS", 4),
        ]
        __, report = CollectionPipeline().run(source)
        assert (
            report.unresolved + report.non_us + report.no_mentions
            + report.retained
            == report.collected
        )

    def test_empty_result_raises(self):
        with pytest.raises(PipelineError):
            CollectionPipeline().run([tweet("sunset", "Wichita, KS")])

    def test_mentions_extracted_on_records(self):
        source = [tweet("heart and lung transplant", "Boston, MA", 1)]
        corpus, __ = CollectionPipeline().run(source)
        from repro.organs import Organ

        mentions = corpus.records[0].mentions
        assert mentions == {Organ.HEART: 1, Organ.LUNG: 1}

    def test_us_yield_property(self):
        source = [
            tweet("kidney donor", "Wichita, KS", 1),
            tweet("kidney donor", "London", 2),
        ]
        __, report = CollectionPipeline().run(source)
        assert report.us_yield == pytest.approx(0.5)

    def test_us_located_identity(self):
        source = [
            tweet("kidney donor", "Wichita, KS", 1),
            tweet("liver transplant", "London", 2),
            tweet("heart donor", "the moon", 3),
        ]
        __, report = CollectionPipeline().run(source)
        assert report.us_located == report.retained + report.no_mentions

    def test_report_renders_rows(self):
        source = [tweet("kidney donor", "Wichita, KS", 1)]
        __, report = CollectionPipeline().run(source)
        labels = [label for label, __ in report.as_rows()]
        assert "US yield" in labels
        assert "Retention" in labels
        assert "Located in a US state" in labels


class TestPipelineOnSyntheticWorld:
    def test_us_yield_matches_calibration(self, report):
        """The session fixture runs the paper2016 scenario; Table I's
        footnote implies a ~13.8% US yield."""
        assert 0.10 < report.us_yield < 0.18

    def test_no_unlocated_records(self, corpus):
        assert all(record.state is not None for record in corpus)

    def test_every_record_has_mentions(self, corpus):
        assert all(record.mentions for record in corpus)
