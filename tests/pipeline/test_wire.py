"""Tests for the slim IPC wire format."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from repro.errors import SerializationError
from repro.geo.geocoder import GeoMatch
from repro.obs.telemetry import Telemetry
from repro.organs import Organ
from repro.dataset.records import CollectedTweet
from repro.pipeline.runner import PipelineReport
from repro.pipeline.wire import (
    WIRE_VERSION,
    decode_shard_result,
    encode_records,
    encode_shard_result,
)
from repro.twitter.models import Tweet, UserProfile


def make_records(n: int = 3) -> list[tuple[int, CollectedTweet]]:
    records = []
    for i in range(n):
        records.append(
            (
                i * 7,
                CollectedTweet(
                    tweet=Tweet(
                        tweet_id=1000 + i,
                        user=UserProfile(
                            user_id=i + 1,
                            screen_name=f"user{i}",
                            location="Columbus, Ohio",
                        ),
                        text=f"be an organ donor #{i} 🙏",
                        created_at=datetime(
                            2015, 6, 1, 12, i, tzinfo=timezone.utc
                        ),
                    ),
                    location=GeoMatch("US", "OH", 0.9, "profile"),
                    mentions={Organ.KIDNEY: 2, Organ.HEART: 1},
                ),
            )
        )
    return records


def make_report() -> PipelineReport:
    return PipelineReport(
        stream_dropped=40, collected=10, located_gps=2, located_profile=5,
        unresolved=3, non_us=1, us_located=6, no_mentions=3, retained=3,
    )


def frame_with_record_lines(lines: bytes, count: int) -> bytes:
    """A valid untraced frame header followed by raw record lines."""
    frame = encode_shard_result([], PipelineReport(), None)
    header = frame[: frame.index(b"\n")].replace(
        b'"records":0', f'"records":{count}'.encode(), 1
    )
    return header + b"\n" + lines


class TestRecordLines:
    def test_round_trip(self):
        records = make_records()
        lines = encode_records(records)
        assert len(lines.splitlines()) == len(records)
        out_records, __, __ = decode_shard_result(
            frame_with_record_lines(lines, len(records))
        )
        assert out_records == records

    def test_empty(self):
        assert encode_records([]) == b""
        assert decode_shard_result(frame_with_record_lines(b"", 0))[0] == []

    def test_malformed_line_raises(self):
        with pytest.raises(SerializationError, match="malformed collected"):
            decode_shard_result(
                frame_with_record_lines(b'[0, {"not a record": true}]\n', 1)
            )
        with pytest.raises(SerializationError, match="malformed record line"):
            decode_shard_result(frame_with_record_lines(b"{truncated\n", 1))


class TestShardFrame:
    def test_round_trip_without_snapshot(self):
        records, report = make_records(), make_report()
        frame = encode_shard_result(records, report, None)
        out_records, out_report, out_snapshot = decode_shard_result(frame)
        assert out_records == records
        assert out_report == report
        assert out_snapshot is None

    def test_round_trip_with_snapshot(self):
        telemetry = Telemetry()
        telemetry.inc("pipeline.collected", 5)
        snapshot = telemetry.snapshot()
        frame = encode_shard_result(make_records(1), make_report(), snapshot)
        __, __, out_snapshot = decode_shard_result(frame)
        assert out_snapshot is not None
        absorbed = Telemetry()
        absorbed.absorb(out_snapshot)

    def test_empty_shard(self):
        frame = encode_shard_result([], PipelineReport(), None)
        records, report, snapshot = decode_shard_result(frame)
        assert records == []
        assert report == PipelineReport()
        assert snapshot is None

    def test_wrong_version_rejected(self):
        frame = encode_shard_result([], PipelineReport(), None)
        bumped = frame.replace(
            f'"v":{WIRE_VERSION}'.encode(),
            f'"v":{WIRE_VERSION + 1}'.encode(),
            1,
        )
        with pytest.raises(SerializationError, match="version"):
            decode_shard_result(bumped)

    def test_missing_header_rejected(self):
        with pytest.raises(SerializationError, match="header"):
            decode_shard_result(b"no newline anywhere")

    def test_truncated_records_rejected(self):
        frame = encode_shard_result(make_records(3), make_report(), None)
        # Cut inside the record section: header promises 3 records.
        header_end = frame.index(b"\n")
        first_record_end = frame.index(b"\n", header_end + 1)
        with pytest.raises(SerializationError, match="truncated"):
            decode_shard_result(frame[: first_record_end + 1])

    def test_short_snapshot_tail_rejected(self):
        telemetry = Telemetry()
        telemetry.inc("x", 1)
        frame = encode_shard_result([], make_report(), telemetry.snapshot())
        with pytest.raises(SerializationError, match="tail"):
            decode_shard_result(frame[:-4])

    def test_corrupt_record_line_rejected(self):
        frame = encode_shard_result(make_records(1), make_report(), None)
        header_end = frame.index(b"\n")
        corrupted = (
            frame[: header_end + 1]
            + b"{garbage}\n"
            + frame[frame.index(b"\n", header_end + 1) + 1 :]
        )
        with pytest.raises(SerializationError):
            decode_shard_result(corrupted)
