"""Kill-at-every-syscall crash matrix for the incremental collector.

The strongest durability statement the storage layer can make: simulate
a power loss at *every single* mutating syscall index of a checkpointed
collection — mid-record, mid-fsync, mid-checkpoint-replace, between a
rename and its directory fsync — and after resuming on a healthy disk
the corpus is byte-identical to the never-crashed run, every time.
"""

import warnings

import pytest

from repro.faults.storage import SimulatedCrash, StorageFaultPlan
from repro.pipeline.incremental import IncrementalCollector
from repro.storage.fs import FaultyFS
from repro.storage.scrub import scrub_file
from repro.twitter.models import Tweet, UserProfile

CHECKPOINT_EVERY = 4


def make_tweets(n: int) -> list[Tweet]:
    return [
        Tweet(
            tweet_id=i,
            user=UserProfile(
                user_id=i % 5, screen_name="u", location="Wichita, KS"
            ),
            text=f"kidney donor update {i}",
        )
        for i in range(n)
    ]


TWEETS = make_tweets(14)


def run_to_completion(directory, fs=None) -> bytes:
    collector = IncrementalCollector(directory / "corpus.jsonl", fs=fs)
    collector.run(TWEETS, checkpoint_every=CHECKPOINT_EVERY)
    return (directory / "corpus.jsonl").read_bytes()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> bytes:
    return run_to_completion(tmp_path_factory.mktemp("baseline"))


@pytest.fixture(scope="module")
def syscall_count(tmp_path_factory) -> int:
    probe = FaultyFS(StorageFaultPlan.none())
    run_to_completion(tmp_path_factory.mktemp("probe"), fs=probe)
    # The matrix must cover a real run: sink writes, periodic fsyncs,
    # checkpoint replaces, directory fsyncs, manifest writes.
    assert probe.syscalls > 40
    return probe.syscalls


def test_kill_at_every_syscall_recovers_byte_identical(
    baseline, syscall_count, tmp_path
):
    for kill_at in range(syscall_count):
        directory = tmp_path / f"kill{kill_at:03d}"
        directory.mkdir()
        corpus_path = directory / "corpus.jsonl"
        fs = FaultyFS(StorageFaultPlan(crash_at=kill_at))
        with pytest.raises(SimulatedCrash):
            IncrementalCollector(corpus_path, fs=fs).run(
                TWEETS, checkpoint_every=CHECKPOINT_EVERY
            )
        # The process restarts on a healthy disk and replays the slice.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = IncrementalCollector(corpus_path)
            resumed.run(TWEETS, checkpoint_every=CHECKPOINT_EVERY)
        assert corpus_path.read_bytes() == baseline, (
            f"corpus diverged after crash at syscall #{kill_at}"
        )
        assert resumed.checkpoint.retained == len(TWEETS)
        assert scrub_file(corpus_path, quarantine=False).status == "clean"


def test_double_crash_still_recovers(baseline, syscall_count, tmp_path):
    """Crash during the run, then crash again during the *resume*."""
    first, second = syscall_count // 3, syscall_count // 2
    corpus_path = tmp_path / "corpus.jsonl"
    with pytest.raises(SimulatedCrash):
        IncrementalCollector(
            corpus_path, fs=FaultyFS(StorageFaultPlan(crash_at=first))
        ).run(TWEETS, checkpoint_every=CHECKPOINT_EVERY)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SimulatedCrash):
            IncrementalCollector(
                corpus_path, fs=FaultyFS(StorageFaultPlan(crash_at=second))
            ).run(TWEETS, checkpoint_every=CHECKPOINT_EVERY)
        final = IncrementalCollector(corpus_path)
        final.run(TWEETS, checkpoint_every=CHECKPOINT_EVERY)
    assert corpus_path.read_bytes() == baseline
