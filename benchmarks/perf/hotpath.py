"""Microbenchmarks for the single-core hot-path engine.

Times each layer of the hot path in isolation, always against the naive
reference implementation kept as its oracle in ``tests/oracles.py``:

* ``tokenize``  — the full :class:`Token`-allocating tokenizer versus
  the allocation-free :func:`repro.nlp.tokenize.scan_words_hashtags`
  sweep the matching layers actually use;
* ``track_filter`` — :class:`NaiveTrackFilter` (per-term scan) versus :meth:`TrackFilter.matches` (compiled
  :class:`~repro.nlp.automaton.TermVocabulary`);
* ``matcher`` — :class:`NaiveOrganMatcher` versus the
  Aho–Corasick :meth:`OrganMatcher.mentions`;
* ``geocode`` — the geocoder's cold resolution cost versus the warm
  bounded-memo path over a heavy-tailed location sample.

Every comparison also *checks parity* — the fast path must produce
exactly the naive result on every sampled text — and the parity boolean
lands in the artifact, where schema validation requires it to be true.
Texts come from the same synthetic firehose the pipeline benchmarks use,
deduplicated for the cold-path timings so per-text memos cannot flatter
the numbers, with the raw stream timed separately to show what the
memos are worth on realistic (repetitive) traffic.
"""

from __future__ import annotations

import time
from typing import Any

from repro.config import CollectionConfig
from repro.geo.geocoder import Geocoder
from repro.nlp.keywords import build_query_set, track_phrases
from repro.nlp.matcher import OrganMatcher
from repro.nlp.tokenize import scan_words_hashtags, tokenize, TokenKind
from repro.twitter.stream import TrackFilter
from tests.oracles import NaiveOrganMatcher, NaiveTrackFilter


def _fresh_caches() -> None:
    tokenize.cache_clear()
    scan_words_hashtags.cache_clear()


def _track_phrases() -> tuple[str, ...]:
    config = CollectionConfig()
    return track_phrases(
        build_query_set(config.context_terms, config.subject_terms)
    )


def bench_tokenize(texts: list[str]) -> dict[str, Any]:
    """Full tokenizer vs the words/hashtags fast scan, with parity."""
    parity = True
    for text in texts[:2_000]:
        tokens = tokenize(text)
        expected = (
            tuple(t.text for t in tokens if t.kind is TokenKind.WORD),
            tuple(t.text for t in tokens if t.kind is TokenKind.HASHTAG),
        )
        if scan_words_hashtags(text) != expected:
            parity = False
            break

    _fresh_caches()
    start = time.perf_counter()
    for text in texts:
        tokenize(text)
    tokenize_seconds = time.perf_counter() - start

    _fresh_caches()
    start = time.perf_counter()
    for text in texts:
        scan_words_hashtags(text)
    scan_seconds = time.perf_counter() - start

    return {
        "texts": len(texts),
        "tokenize_seconds": round(tokenize_seconds, 4),
        "scan_seconds": round(scan_seconds, 4),
        "speedup": round(tokenize_seconds / scan_seconds, 3),
        "parity": parity,
    }


def bench_track_filter(
    texts: list[str], stream: list[str]
) -> dict[str, Any]:
    """Per-term keyword scan vs the compiled automaton vocabulary."""
    oracle = TrackFilter(_track_phrases())
    oracle_naive = NaiveTrackFilter(_track_phrases())
    parity = all(
        oracle.matches(text) == oracle_naive.matches(text) for text in texts
    )

    _fresh_caches()
    naive = NaiveTrackFilter(_track_phrases())
    start = time.perf_counter()
    for text in texts:
        naive.matches(text)
    naive_seconds = time.perf_counter() - start

    _fresh_caches()
    fast = TrackFilter(_track_phrases())
    start = time.perf_counter()
    for text in texts:
        fast.matches(text)
    fast_seconds = time.perf_counter() - start

    # The same filter over the raw (repetitive) stream: what the
    # per-text memo is worth on realistic traffic.
    start = time.perf_counter()
    for text in stream:
        fast.matches(text)
    stream_seconds = time.perf_counter() - start

    return {
        "texts": len(texts),
        "stream": len(stream),
        "naive_seconds": round(naive_seconds, 4),
        "automaton_seconds": round(fast_seconds, 4),
        "speedup": round(naive_seconds / fast_seconds, 3),
        "stream_seconds": round(stream_seconds, 4),
        "stream_tweets_per_s": round(len(stream) / stream_seconds, 1),
        "parity": parity,
    }


def bench_matcher(texts: list[str]) -> dict[str, Any]:
    """Naive per-alias mention scan vs the Aho–Corasick path."""
    oracle = OrganMatcher()
    oracle_naive = NaiveOrganMatcher()
    parity = all(
        oracle.mentions(text) == oracle_naive.mentions(text)
        for text in texts
    )

    _fresh_caches()
    naive = NaiveOrganMatcher()
    start = time.perf_counter()
    for text in texts:
        naive.mentions(text)
    naive_seconds = time.perf_counter() - start

    _fresh_caches()
    fast = OrganMatcher()
    start = time.perf_counter()
    for text in texts:
        fast.mentions(text)
    fast_seconds = time.perf_counter() - start

    return {
        "texts": len(texts),
        "naive_seconds": round(naive_seconds, 4),
        "automaton_seconds": round(fast_seconds, 4),
        "speedup": round(naive_seconds / fast_seconds, 3),
        "parity": parity,
    }


def bench_geocode(locations: list[str]) -> dict[str, Any]:
    """Cold resolution vs the warm bounded memo over real-shape traffic."""
    geocoder = Geocoder()
    start = time.perf_counter()
    for location in locations:
        geocoder.geocode(location)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for location in locations:
        geocoder.geocode(location)
    warm_seconds = time.perf_counter() - start

    return {
        "locations": len(locations),
        "distinct": len(set(locations)),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 3),
    }


def bench_hot_path(source: list[Any]) -> dict[str, Any]:
    """Run every hot-path microbench over one synthetic firehose."""
    stream = [tweet.text for tweet in source]
    seen: set[str] = set()
    texts: list[str] = []
    for text in stream:
        if text not in seen:
            seen.add(text)
            texts.append(text)
    locations = [
        tweet.user.location
        for tweet in source
        if tweet.user.location is not None
    ]
    return {
        "stream_tweets": len(stream),
        "distinct_texts": len(texts),
        "tokenize": bench_tokenize(texts),
        "track_filter": bench_track_filter(texts, stream),
        "matcher": bench_matcher(texts),
        "geocode": bench_geocode(locations),
    }
