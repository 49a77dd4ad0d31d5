"""Naive reference implementations the production fast paths must equal.

* :class:`NaiveTrackFilter` — Twitter ``track`` matching by a per-term
  :func:`repro.nlp.tokenize.present_terms` scan; the oracle for
  :meth:`repro.twitter.stream.TrackFilter.matches`.
* :class:`NaiveOrganMatcher` — organ-mention extraction by a per-alias
  scan over :func:`repro.nlp.tokenize.tokenize` tokens; the oracle for
  :meth:`repro.nlp.matcher.OrganMatcher.mentions`.
* :func:`reference_funnel` — the §III-A funnel one tweet at a time,
  built from the two oracles plus :func:`augment_location` and
  :func:`is_us_located`; the oracle for :mod:`repro.pipeline.batch`.

None of this runs in production; the property suites and the batch
lockstep test compare against it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.geo.geocoder import Geocoder
from repro.nlp.keywords import build_query_set, track_phrases
from repro.nlp.tokenize import (
    Token,
    TokenKind,
    present_terms,
    split_compound,
    tokenize,
)
from repro.organs import ALIASES, Organ
from repro.pipeline.augment import augment_location
from repro.pipeline.runner import PipelineReport
from repro.pipeline.usfilter import is_us_located
from repro.twitter.models import Tweet


class NaiveTrackFilter:
    """Track phrases matched by testing every vocabulary term per tweet."""

    def __init__(self, phrases: Iterable[str]):
        parsed = [frozenset(phrase.lower().split()) for phrase in phrases]
        self._phrase_sets = tuple(parsed)
        self._vocabulary = tuple(sorted(set().union(*parsed)))

    def matches(self, text: str) -> bool:
        present = present_terms(text, self._vocabulary)
        if not present:
            return False
        return any(terms <= present for terms in self._phrase_sets)


class NaiveOrganMatcher:
    """Organ mentions counted by matching every alias against each token."""

    def __init__(self, aliases: dict[str, Organ] | None = None):
        self._aliases = dict(ALIASES if aliases is None else aliases)
        self._substring_terms = tuple(
            term for term in self._aliases if len(term) >= 4
        )

    def mentions(self, text: str) -> Counter[Organ]:
        counts: Counter[Organ] = Counter()
        for token in tokenize(text):
            for organ in self._match_token(token):
                counts[organ] += 1
        return counts

    def _match_token(self, token: Token) -> frozenset[Organ]:
        if token.kind is TokenKind.WORD:
            organ = self._aliases.get(token.text)
            if organ is not None:
                return frozenset((organ,))
            parts = split_compound(token.text)
            if parts:
                return frozenset(
                    self._aliases[part] for part in parts if part in self._aliases
                )
            return frozenset()
        if token.kind is TokenKind.HASHTAG:
            organ = self._aliases.get(token.text)
            if organ is not None:
                return frozenset((organ,))
            return frozenset(
                self._aliases[term]
                for term in self._substring_terms
                if term in token.text
            )
        return frozenset()


def reference_funnel(
    source: Iterable[Tweet], config: CollectionConfig
) -> tuple[list[tuple[int, CollectedTweet]], PipelineReport]:
    """Keyword → geocode → US filter → mentions, one tweet at a time.

    Returns position-tagged surviving records and the nine funnel
    counters, in the shape :func:`repro.pipeline.batch.process_stream`
    produces them.
    """
    track = NaiveTrackFilter(
        track_phrases(build_query_set(config.context_terms, config.subject_terms))
    )
    geocoder = Geocoder()
    matcher = NaiveOrganMatcher()
    report = PipelineReport()
    tagged: list[tuple[int, CollectedTweet]] = []
    for position, tweet in enumerate(source):
        if not track.matches(tweet.text):
            report.stream_dropped += 1
            continue
        report.collected += 1
        match = augment_location(tweet, geocoder, config)
        if not match.resolved:
            report.unresolved += 1
            continue
        if match.source == "gps":
            report.located_gps += 1
        else:
            report.located_profile += 1
        if not is_us_located(match, config):
            report.non_us += 1
            continue
        report.us_located += 1
        mentions = matcher.mentions(tweet.text)
        if not mentions:
            report.no_mentions += 1
            continue
        report.retained += 1
        tagged.append(
            (
                position,
                CollectedTweet(tweet=tweet, location=match, mentions=dict(mentions)),
            )
        )
    return tagged, report
