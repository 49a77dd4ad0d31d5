"""The collect → geocode → US-filter → match funnel, defined once.

This module is the only place the §III-A decision is made.  Every
execution mode drives it: the serial runner and the sharded workers
over whole streams, the incremental collector over checkpoint-sized
chunks, and the rolling sensor over one-tweet batches.  Each caller
builds its stage objects with :func:`build_stages` and hands tweets to
:func:`process_batch` / :func:`process_stream`, so no two modes can
disagree about which tweets survive.

The per-tweet cost of a naive loop is dominated by Python-level
overhead, not by the work itself, so the engine:

* consumes tweets in chunks of :data:`BATCH_SIZE`, paying stream
  overhead per batch rather than per tweet;
* hoists the stage callables (track match, geocode, US filter, mention
  extraction) into locals once per batch; and
* accumulates provenance counters in local integers and flushes them
  into the shared :class:`~repro.pipeline.runner.PipelineReport` once
  per batch — the merged totals are identical because every counter is
  a plain sum.

The reference is a per-tweet funnel built from the naive oracles in
``tests/oracles.py``; ``tests/pipeline/test_batch.py`` holds records
and every counter in lockstep with it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.geo.geocoder import Geocoder
from repro.nlp.keywords import build_query_set, track_phrases
from repro.nlp.matcher import OrganMatcher
from repro.pipeline.augment import augment_location
from repro.pipeline.usfilter import is_us_located
from repro.twitter.models import Tweet
from repro.twitter.stream import TrackFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pipeline.runner import PipelineReport

#: Tweets processed per batch.  Large enough to amortize per-batch
#: setup to noise, small enough that a batch of position-tagged records
#: stays cache-friendly.
BATCH_SIZE = 2048


@dataclass(slots=True)
class FunnelStages:
    """The stage objects one funnel run needs.

    The geocoder and matcher keep per-instance memos, so every process
    (and every long-lived collector or sensor) builds its own set.

    Attributes:
        config: collection configuration (vocabularies, confidence).
        track: keyword filter over the config's query set Q.
        geocoder: location resolver for the augment step.
        matcher: organ-mention extractor.
    """

    config: CollectionConfig
    track: TrackFilter
    geocoder: Geocoder
    matcher: OrganMatcher


def build_stages(config: CollectionConfig) -> FunnelStages:
    """Build the funnel's stages for ``config``."""
    queries = build_query_set(config.context_terms, config.subject_terms)
    return FunnelStages(
        config=config,
        track=TrackFilter(track_phrases(queries)),
        geocoder=Geocoder(),
        matcher=OrganMatcher(),
    )


def iter_batches(
    source: Iterable[tuple[int, Tweet]], size: int = BATCH_SIZE
) -> Iterator[list[tuple[int, Tweet]]]:
    """Chunk a position-tagged tweet stream into lists of ``size``."""
    iterator = iter(source)
    while True:
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch


def process_batch(
    batch: list[tuple[int, Tweet]],
    stages: FunnelStages,
    report: "PipelineReport",
) -> list[tuple[int, CollectedTweet]]:
    """Run the full funnel over one batch; flush counters once at the end.

    Per tweet: keyword filter, :func:`augment_location`,
    :func:`is_us_located`, mention extraction.  Returns the surviving
    records tagged with their positions and adds this batch's counters
    to ``report``.
    """
    config = stages.config
    geocoder = stages.geocoder
    track_matches = stages.track.matches
    geocode_tweet = augment_location
    us_located_match = is_us_located
    extract_mentions = stages.matcher.mentions
    out: list[tuple[int, CollectedTweet]] = []
    append = out.append
    stream_dropped = 0
    collected = 0
    located_gps = 0
    located_profile = 0
    unresolved = 0
    non_us = 0
    us_located = 0
    no_mentions = 0
    retained = 0
    for position, tweet in batch:
        text = tweet.text
        if not track_matches(text):
            stream_dropped += 1
            continue
        collected += 1
        match = geocode_tweet(tweet, geocoder, config)
        if match.country is None:
            unresolved += 1
            continue
        if match.source == "gps":
            located_gps += 1
        else:
            located_profile += 1
        if not us_located_match(match, config):
            non_us += 1
            continue
        us_located += 1
        mentions = extract_mentions(text)
        if not mentions:
            no_mentions += 1
            continue
        retained += 1
        append(
            (
                position,
                CollectedTweet(
                    tweet=tweet, location=match, mentions=dict(mentions)
                ),
            )
        )
    report.stream_dropped += stream_dropped
    report.collected += collected
    report.located_gps += located_gps
    report.located_profile += located_profile
    report.unresolved += unresolved
    report.non_us += non_us
    report.us_located += us_located
    report.no_mentions += no_mentions
    report.retained += retained
    return out


def process_stream(
    source: Iterable[tuple[int, Tweet]],
    stages: FunnelStages,
    report: "PipelineReport",
    batch_size: int = BATCH_SIZE,
) -> list[tuple[int, CollectedTweet]]:
    """Drive the batched engine over a whole position-tagged stream.

    ``batch_size`` only affects counter-flush granularity, never results
    — the lockstep suite runs pathological sizes to prove it.
    """
    records: list[tuple[int, CollectedTweet]] = []
    for batch in iter_batches(source, batch_size):
        records.extend(process_batch(batch, stages, report))
    return records
