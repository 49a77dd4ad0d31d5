"""Property tests: the automaton hot path ≡ the naive reference scans.

Three equivalences, each locked over randomized inputs:

* :meth:`TermVocabulary.present` ≡ :func:`present_terms` for randomized
  vocabularies with deliberately overlapping terms (``organ`` inside
  ``organdonor``) against texts that glue those terms into hashtags;
* :meth:`TrackFilter.matches` ≡ :class:`tests.oracles.NaiveTrackFilter`
  on the production track phrases;
* :meth:`OrganMatcher.mentions` ≡ :class:`tests.oracles.NaiveOrganMatcher`.

The randomized-vocabulary suite runs under three fixed seeds so a
regression reproduces deterministically from the failing test id alone.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CollectionConfig
from repro.nlp.automaton import TermVocabulary
from repro.nlp.keywords import build_query_set, track_phrases
from repro.nlp.matcher import OrganMatcher
from repro.nlp.tokenize import present_terms
from repro.twitter.stream import TrackFilter
from tests.oracles import NaiveOrganMatcher, NaiveTrackFilter

_MATCHER = OrganMatcher()
_MATCHER_NAIVE = NaiveOrganMatcher()
_CONFIG = CollectionConfig()
_PHRASES = track_phrases(
    build_query_set(_CONFIG.context_terms, _CONFIG.subject_terms)
)
_TRACK = TrackFilter(_PHRASES)
_TRACK_NAIVE = NaiveTrackFilter(_PHRASES)

tweet_text = st.text(
    alphabet=string.ascii_letters + string.digits + " #@.,'!-:/🙏❤🌍",
    max_size=200,
)

#: Overlapping stems: every prefix relation the automaton's failure
#: links must handle (term inside term, term as prefix, term as suffix).
_STEMS = (
    "organ", "organdonor", "organdonation", "donor", "donate",
    "donatelife", "kidney", "kidneydonor", "heart", "hearttransplant",
    "art", "ran", "transplant",
)


def _random_vocabulary(rng: random.Random) -> list[str]:
    size = rng.randint(2, 9)
    return rng.sample(_STEMS, size)


def _random_text(rng: random.Random, vocabulary: list[str]) -> str:
    """Text mixing plain terms, glued hashtags, compounds, and noise."""
    pieces = []
    for __ in range(rng.randint(1, 12)):
        roll = rng.random()
        term = rng.choice(vocabulary)
        if roll < 0.3:
            pieces.append(term)
        elif roll < 0.5:
            # Glued hashtag: two terms fused — the substring case.
            pieces.append(f"#{term}{rng.choice(vocabulary)}")
        elif roll < 0.6:
            pieces.append(f"#{term}")
        elif roll < 0.7:
            pieces.append(f"{term}-{rng.choice(vocabulary)}")
        elif roll < 0.8:
            # Term embedded in a longer plain word: must NOT match.
            pieces.append(f"{term}ized")
        else:
            pieces.append(
                "".join(
                    rng.choices(string.ascii_lowercase, k=rng.randint(1, 8))
                )
            )
    return " ".join(pieces)


class TestVocabularyEquivalence:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_vocabularies_match_naive(self, seed):
        rng = random.Random(seed)
        for __ in range(150):
            vocabulary = _random_vocabulary(rng)
            compiled = TermVocabulary(vocabulary)
            for __ in range(10):
                text = _random_text(rng, vocabulary)
                assert set(compiled.present(text)) == present_terms(
                    text, vocabulary
                ), f"divergence on vocabulary={vocabulary!r} text={text!r}"

    @given(tweet_text)
    @settings(max_examples=200)
    def test_arbitrary_text_matches_naive(self, text):
        vocabulary = ("organ", "organdonor", "donor", "kidney", "be")
        compiled = TermVocabulary(vocabulary)
        assert set(compiled.present(text)) == present_terms(text, vocabulary)

    def test_overlapping_terms_in_glued_hashtag(self):
        vocabulary = ("organ", "organdonor", "donor")
        compiled = TermVocabulary(vocabulary)
        assert compiled.present("#organdonor") == frozenset(vocabulary)


class TestTrackFilterEquivalence:
    @given(tweet_text)
    @settings(max_examples=200)
    def test_matches_equals_naive(self, text):
        assert _TRACK.matches(text) == _TRACK_NAIVE.matches(text)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_texts_over_production_phrases(self, seed):
        rng = random.Random(seed)
        vocabulary = list(_STEMS)
        for __ in range(300):
            text = _random_text(rng, vocabulary)
            assert _TRACK.matches(text) == _TRACK_NAIVE.matches(text), (
                f"divergence on text={text!r}"
            )


class TestMatcherEquivalence:
    @given(tweet_text)
    @settings(max_examples=200)
    def test_mentions_equals_naive(self, text):
        assert _MATCHER.mentions(text) == _MATCHER_NAIVE.mentions(text)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_organ_texts(self, seed):
        rng = random.Random(seed)
        vocabulary = ["kidney", "liver", "heart", "lung", "pancreas", "cornea"]
        for __ in range(300):
            text = _random_text(rng, vocabulary)
            assert _MATCHER.mentions(text) == _MATCHER_NAIVE.mentions(text), (
                f"divergence on text={text!r}"
            )
