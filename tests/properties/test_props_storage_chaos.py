"""Storage chaos-equivalence properties.

The durability guarantee: the persisted corpus is *byte-identical* to a
fault-free run under every injected disk-fault class — transient EIO,
ENOSPC, torn writes, crash windows around the rename, lying fsyncs —
for any worker count and across seeds.  Faults either are absorbed
invisibly (EIO retry, harmless lie) or fail/crash leaving the previous
corpus untouched, after which a clean retry converges to the exact
baseline bytes.  And bitrot, the fault that strikes *after* every write
"succeeded", is detected 100% by the manifest scrub with nothing
silently dropped.
"""

import json
import warnings

import pytest

from repro.errors import StorageError
from repro.faults.storage import SimulatedCrash, StorageFaultPlan, flip_bits
from repro.dataset.io import write_jsonl
from repro.pipeline.incremental import IncrementalCollector
from repro.pipeline.runner import CollectionPipeline
from repro.storage.fs import FaultyFS
from repro.storage.scrub import quarantine_path, scrub_file
from repro.twitter.models import Tweet, UserProfile

SEEDS = (1, 7, 42)
WORKER_COUNTS = (1, 2, 4)

#: The five storage fault classes of the taxonomy.  Rate faults must be
#: invisible; point faults must fail/crash without damaging the old
#: corpus, and converge on a clean retry.
RATE_FAULTS = {
    "eio": {"eio_rate": 0.4, "max_eio_per_path": 2},
    "fsync_lie": {"fsync_lie_rate": 0.5},
}
#: Point faults aim at a syscall *kind*; the index is taken from a
#: recorded clean-run trace.
POINT_FAULTS = {
    "enospc": ("write", "enospc_at", StorageError),
    "torn_write": ("write", "torn_write_at", SimulatedCrash),
    "crash_before_replace": ("replace", "crash_at", SimulatedCrash),
    "crash_replace_window": ("fsync_dir", "crash_at", SimulatedCrash),
}


def make_tweets(n: int) -> list[Tweet]:
    return [
        Tweet(
            tweet_id=i,
            user=UserProfile(
                user_id=i % 7, screen_name="u", location="Wichita, KS"
            ),
            text=f"kidney donor update {i}",
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module", params=WORKER_COUNTS)
def records(request):
    """Pipeline output for each worker count (parallel-equivalent)."""
    corpus, __ = CollectionPipeline().run(
        make_tweets(90), workers=request.param
    )
    return corpus.records


def trace_of_clean_write(records, tmp_path) -> list[str]:
    fs = FaultyFS(StorageFaultPlan.none())
    write_jsonl(records, tmp_path / "trace.jsonl", fs=fs)
    return fs.trace


class TestWriteChaosEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fault", sorted(RATE_FAULTS))
    def test_rate_faults_are_invisible(self, records, tmp_path, fault, seed):
        baseline = tmp_path / "baseline.jsonl"
        write_jsonl(records, baseline)
        target = tmp_path / "corpus.jsonl"
        fs = FaultyFS(StorageFaultPlan(seed=seed, **RATE_FAULTS[fault]))
        write_jsonl(records, target, fs=fs)
        assert target.read_bytes() == baseline.read_bytes()
        assert scrub_file(target, quarantine=False).status == "clean"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fault", sorted(POINT_FAULTS))
    def test_point_faults_never_damage_the_old_corpus(
        self, records, tmp_path, fault, seed
    ):
        operation, field, failure = POINT_FAULTS[fault]
        baseline = tmp_path / "baseline.jsonl"
        write_jsonl(records, baseline)
        baseline_bytes = baseline.read_bytes()

        # The old corpus the faulted rewrite must not destroy.
        target = tmp_path / "corpus.jsonl"
        write_jsonl(records[: len(records) // 2], target)
        old_bytes = target.read_bytes()
        assert old_bytes != baseline_bytes

        trace = trace_of_clean_write(records, tmp_path)
        index = trace.index(operation)  # first occurrence: the data file's
        fs = FaultyFS(StorageFaultPlan(seed=seed, **{field: index}))
        with pytest.raises(failure):
            write_jsonl(records, target, fs=fs)
        assert target.read_bytes() == old_bytes  # intact, not torn

        # A clean retry (the process restarting) converges exactly.
        write_jsonl(records, target)
        assert target.read_bytes() == baseline_bytes
        assert scrub_file(target, quarantine=False).status == "clean"


class TestIncrementalFsyncLieRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lost_acknowledged_writes_are_reprocessed(self, tmp_path, seed):
        tweets = make_tweets(18)
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        baseline = IncrementalCollector(baseline_dir / "corpus.jsonl")
        baseline.run(tweets, checkpoint_every=5)
        baseline_bytes = (baseline_dir / "corpus.jsonl").read_bytes()

        # Every fsync lies, then the power fails near the end of the
        # run: acknowledged corpus bytes evaporate while the checkpoint
        # may claim them.
        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        corpus_path = chaos_dir / "corpus.jsonl"
        probe = FaultyFS(StorageFaultPlan.none())
        IncrementalCollector(corpus_path, fs=probe).run(
            tweets, checkpoint_every=5
        )
        for path in sorted(chaos_dir.iterdir()):
            path.unlink()
        plan = StorageFaultPlan(
            seed=seed, fsync_lie_rate=1.0, crash_at=probe.syscalls - 1
        )
        with pytest.raises(SimulatedCrash):
            IncrementalCollector(corpus_path, fs=FaultyFS(plan)).run(
                tweets, checkpoint_every=5
            )

        # Resume on a healthy disk: the rewound checkpoint re-processes
        # the lost tweets and converges to the byte-identical corpus.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = IncrementalCollector(corpus_path)
            resumed.run(tweets, checkpoint_every=5)
        assert corpus_path.read_bytes() == baseline_bytes
        assert scrub_file(corpus_path, quarantine=False).status == "clean"


class TestBitrotScrub:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("flips", (1, 4, 9))
    def test_scrub_detects_every_flip_and_drops_nothing(
        self, tmp_path, seed, flips
    ):
        path = tmp_path / "corpus.jsonl"
        corpus, __ = CollectionPipeline().run(make_tweets(60))
        write_jsonl(corpus.records, path)
        pristine_lines = path.read_bytes().split(b"\n")[:-1]

        offsets = flip_bits(str(path), seed=seed, flips=flips)
        assert offsets  # the corpus is large enough to host the flips
        damaged_lines = path.read_bytes().split(b"\n")[:-1]
        expected_bad = tuple(
            i + 1
            for i, (a, b) in enumerate(zip(pristine_lines, damaged_lines))
            if a != b
        )

        result = scrub_file(path)
        assert result.status == "quarantined"
        # 100% detection: exactly the rotten lines, no false positives.
        assert result.corrupt_lines == expected_bad
        # Nothing silently dropped: survivors + dead-letter == original.
        survivors = path.read_bytes().split(b"\n")[:-1]
        dead = [
            json.loads(line)
            for line in quarantine_path(path)
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert len(survivors) + len(dead) == len(pristine_lines)
        assert [entry["line"] for entry in dead] == list(expected_bad)
        assert survivors == [
            line
            for i, line in enumerate(damaged_lines)
            if i + 1 not in expected_bad
        ]
        # After quarantine the file verifies clean again.
        assert scrub_file(path).status == "clean"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scrub_repairs_from_journaled_replica(self, tmp_path, seed):
        path = tmp_path / "corpus.jsonl"
        replica_dir = tmp_path / "journal"
        replica_dir.mkdir()
        corpus, __ = CollectionPipeline().run(make_tweets(40))
        write_jsonl(corpus.records, path)
        (replica_dir / path.name).write_bytes(path.read_bytes())

        flip_bits(str(path), seed=seed, flips=3)
        result = scrub_file(path, repair_from=replica_dir)
        assert result.status == "repaired"
        assert scrub_file(path).status == "clean"
        assert not quarantine_path(path).exists()
