"""Stage-checkpointed, kill-resumable end-to-end analysis runs.

:mod:`repro.pipeline.incremental` makes *collection* resumable at record
granularity; this module makes the *whole analysis run* resumable at
stage granularity.  A run directory accumulates one artifact file per
stage (firehose → collect → attention matrix → Table I → Figs. 2–7) plus
a ``journal.json`` recording, for every completed stage, the SHA-256 of
each artifact it wrote — under a fingerprint of the run parameters.

The recovery contract:

* The journal is only updated *after* a stage's artifacts are fully
  written, and the update itself is atomic (temp file + ``os.replace``).
  A kill at any instant — mid-artifact, mid-journal-write — therefore
  leaves a journal describing only stages whose artifacts are complete.
* ``resume`` re-runs the first stage the journal does not record as
  complete (a torn artifact belongs to exactly such a stage) and every
  stage after it; completed stages are verified by re-hashing their
  artifacts and skipped.
* Every stage reads its inputs from *artifacts on disk*, never from
  in-memory state of earlier stages, so an interrupted-and-resumed run
  produces byte-identical artifacts to an uninterrupted one.
* Resuming under different parameters is refused (fingerprint mismatch):
  mixing stages computed under different configurations would produce
  artifacts no single configuration can explain.

``fault_hook`` is called between an artifact write and its journal
record — the torn window — so the kill-and-resume integration test can
SIGKILL the process at the worst possible instant.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro.config import (
    AnalysisConfig,
    RelativeRiskConfig,
    UserClusteringConfig,
)
from repro.core.attention import AttentionMatrix
from repro.dataset.corpus import TweetCorpus
from repro.dataset.io import (
    read_jsonl,
    read_tweets_jsonl,
    write_jsonl,
    write_tweets_jsonl,
)
from repro.errors import ConfigError, PipelineError
from repro.faults.compute import WorkerFaultPlan
from repro.obs import NULL_TELEMETRY, Telemetry, activate
from repro.obs.export import TRACE_FILENAME, write_trace
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.storage.atomic import atomic_write_text
from repro.storage.fs import LOCAL_FS, FileSystem
from repro.storage.manifest import write_text_with_manifest
from repro.supervise import SupervisorPolicy


@dataclass(frozen=True, slots=True)
class RunParams:
    """Everything that determines a run's artifacts, fingerprinted.

    Attributes:
        scale: synthetic-world scale factor.
        seed: synthetic-world seed.
        workers: worker processes for the sharded collect.
        k: user-clustering k (Fig. 7).
        alpha: relative-risk significance level (Fig. 5).
        chaos: inject transport faults (resilient-stream chaos mode).
        chaos_seed: transport fault-plan seed.
        worker_chaos: inject compute faults into the supervised pool.
        worker_chaos_seed: compute fault-plan seed.

    Raises:
        ConfigError: on a value a stage would reject, so a run that
            cannot finish is refused before it starts.
    """

    scale: float = 0.01
    seed: int = 0
    workers: int = 1
    k: int = 12
    alpha: float = 0.05
    chaos: bool = False
    chaos_seed: int = 0
    worker_chaos: bool = False
    worker_chaos_seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # The configs the analysis stages build; each validates itself.
        RelativeRiskConfig(alpha=self.alpha)
        UserClusteringConfig(k=self.k)

    def to_dict(self) -> dict[str, object]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunParams":
        kwargs: dict[str, object] = {}
        for spec in fields(cls):
            value = data[spec.name]
            if spec.name in ("scale", "alpha"):
                kwargs[spec.name] = float(value)  # type: ignore[arg-type]
            elif spec.name in ("chaos", "worker_chaos"):
                kwargs[spec.name] = bool(value)
            else:
                kwargs[spec.name] = int(value)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of the parameters."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Stage execution order.  Each stage writes exactly the artifact files
#: named here, inside the run directory.
STAGE_ARTIFACTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("firehose", ("firehose.jsonl",)),
    ("collect", ("corpus.jsonl", "report.json")),
    ("attention", ("attention.json",)),
    ("table1", ("table1.txt",)),
    ("fig2", ("fig2.txt",)),
    ("fig3", ("fig3.txt",)),
    ("fig4", ("fig4.txt",)),
    ("fig5", ("fig5.txt",)),
    ("fig6", ("fig6.txt",)),
    ("fig7", ("fig7.txt",)),
)

STAGES: tuple[str, ...] = tuple(name for name, __ in STAGE_ARTIFACTS)


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunJournal:
    """The on-disk record of which stages of a run are complete.

    Args:
        run_dir: directory holding ``journal.json`` and all artifacts.
        params: the run's parameters; their fingerprint binds the
            journal to exactly one configuration.
        fs: filesystem the journal file is written through.
    """

    def __init__(
        self, run_dir: Path, params: RunParams, fs: FileSystem | None = None
    ):
        self.run_dir = Path(run_dir)
        self.params = params
        self.fs: FileSystem = fs if fs is not None else LOCAL_FS
        self.path = self.run_dir / "journal.json"
        self._stages: dict[str, dict[str, str]] = {}

    @classmethod
    def load(cls, run_dir: Path, fs: FileSystem | None = None) -> "RunJournal":
        """Load an existing journal from a run directory.

        Raises:
            PipelineError: when no journal exists or it is unreadable.
        """
        path = Path(run_dir) / "journal.json"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise PipelineError(
                f"no journal at {path}; not a resumable run directory"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise PipelineError(f"unreadable journal at {path}: {exc}") from exc
        journal = cls(Path(run_dir), RunParams.from_dict(data["params"]), fs=fs)
        if data["fingerprint"] != journal.params.fingerprint():
            raise PipelineError(
                f"journal at {path} is internally inconsistent: recorded "
                "fingerprint does not match recorded parameters"
            )
        journal._stages = {
            name: dict(artifacts)
            for name, artifacts in data["stages"].items()
        }
        return journal

    def completed_stages(self) -> tuple[str, ...]:
        """Completed stage names, in execution order."""
        return tuple(name for name in STAGES if name in self._stages)

    def is_complete(self, stage: str) -> bool:
        return stage in self._stages

    def verify_artifacts(self, stage: str) -> None:
        """Re-hash a completed stage's artifacts against the journal.

        Raises:
            PipelineError: when an artifact is missing or its content no
                longer matches the recorded hash.
        """
        for name, recorded in self._stages[stage].items():
            path = self.run_dir / name
            if not path.exists():
                raise PipelineError(
                    f"journaled artifact {name} of stage '{stage}' is "
                    "missing; the run directory was modified — re-run "
                    "without --resume"
                )
            actual = _hash_file(path)
            if actual != recorded:
                raise PipelineError(
                    f"journaled artifact {name} of stage '{stage}' changed "
                    "on disk (hash mismatch); the run directory was "
                    "modified — re-run without --resume"
                )

    def record_stage(self, stage: str, artifacts: tuple[str, ...]) -> None:
        """Mark a stage complete, hashing its just-written artifacts.

        The journal write is atomic: a kill during ``record_stage``
        leaves either the previous journal (stage re-runs on resume) or
        the new one (stage is skipped) — never a torn file.
        """
        self._stages[stage] = {
            name: _hash_file(self.run_dir / name) for name in artifacts
        }
        self._write()

    def _write(self) -> None:
        """Atomic-durable journal replace; no sidecar for the journal
        itself — it *is* the integrity record for the artifacts, and the
        resume tests hand-edit it to simulate crashes."""
        payload = {
            "fingerprint": self.params.fingerprint(),
            "params": self.params.to_dict(),
            "stages": {
                name: self._stages[name]
                for name in STAGES
                if name in self._stages
            },
        }
        atomic_write_text(
            self.path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            fs=self.fs,
        )


def _write_attention_json(
    attention: AttentionMatrix, path: Path, fs: FileSystem | None = None
) -> None:
    """Serialize Û's inputs deterministically (floats via ``repr``).

    Only ``counts`` is persisted; ``normalized`` is recomputed on load by
    the same expression :func:`repro.core.attention.build_attention_matrix`
    uses, so the loaded matrix is bit-identical to the built one (JSON
    float ``repr`` round-trips exactly).
    """
    payload = {
        "user_ids": list(attention.user_ids),
        "states": list(attention.states),
        "counts": [[float(v) for v in row] for row in attention.counts],
    }
    write_text_with_manifest(
        path, json.dumps(payload, ensure_ascii=False) + "\n", fs=fs
    )


def _read_attention_json(path: Path) -> AttentionMatrix:
    data = json.loads(path.read_text(encoding="utf-8"))
    counts = np.asarray(data["counts"], dtype=float)
    row_sums = counts.sum(axis=1)
    normalized = counts / row_sums[:, None]
    return AttentionMatrix(
        user_ids=tuple(int(uid) for uid in data["user_ids"]),
        states=tuple(
            state if state is None else str(state) for state in data["states"]
        ),
        counts=counts,
        normalized=normalized,
    )


@dataclass(frozen=True, slots=True)
class RunSummary:
    """What one journaled run did.

    Attributes:
        run_dir: the run directory.
        stages_run: stages executed in this invocation.
        stages_skipped: stages skipped because the journal proved them
            complete (always empty for a fresh run).
        report: the collection report, loaded from the journaled
            artifact (carries reliability/compute health when the run
            injected faults).
    """

    run_dir: Path
    stages_run: tuple[str, ...]
    stages_skipped: tuple[str, ...]
    report: PipelineReport


class _StageRunner:
    """Executes stages against a run directory, loading inputs lazily.

    Every input is read from the stage artifact on disk (never carried
    over in memory), which is what makes resumption byte-identical: a
    stage cannot observe whether its predecessor ran in this process or
    a previous one.
    """

    def __init__(
        self, run_dir: Path, params: RunParams, fs: FileSystem | None = None
    ):
        self.run_dir = run_dir
        self.params = params
        self.fs: FileSystem = fs if fs is not None else LOCAL_FS
        self._corpus: TweetCorpus | None = None
        self._report: PipelineReport | None = None
        self._attention: AttentionMatrix | None = None

    # -- lazy artifact loaders ------------------------------------------

    def corpus(self) -> TweetCorpus:
        if self._corpus is None:
            self._corpus = TweetCorpus(
                read_jsonl(self.run_dir / "corpus.jsonl")
            )
        return self._corpus

    def report(self) -> PipelineReport:
        if self._report is None:
            data = json.loads(
                (self.run_dir / "report.json").read_text(encoding="utf-8")
            )
            self._report = PipelineReport.from_dict(data)
        return self._report

    def attention(self) -> AttentionMatrix:
        if self._attention is None:
            self._attention = _read_attention_json(
                self.run_dir / "attention.json"
            )
        return self._attention

    def _suite(self) -> "object":
        from repro.report.experiments import ExperimentSuite

        suite = ExperimentSuite(
            self.corpus(),
            report=self.report(),
            config=AnalysisConfig(
                relative_risk=RelativeRiskConfig(alpha=self.params.alpha),
                user_clustering=UserClusteringConfig(k=self.params.k),
            ),
        )
        # Serve the journaled attention artifact through the suite's
        # cache, so Fig. 7 consumes exactly the stage-3 matrix.
        suite.__dict__["attention"] = self.attention()
        return suite

    # -- stages ---------------------------------------------------------

    def run_stage(self, stage: str) -> None:
        getattr(self, f"_stage_{stage}")()

    def _stage_firehose(self) -> None:
        from repro.synth.scenarios import paper2016_scenario
        from repro.synth.world import SyntheticWorld

        world = SyntheticWorld(
            paper2016_scenario(scale=self.params.scale, seed=self.params.seed)
        )
        write_tweets_jsonl(
            world.firehose(), self.run_dir / "firehose.jsonl", fs=self.fs
        )

    def _stage_collect(self) -> None:
        fault_plan = None
        pipeline = CollectionPipeline()
        if self.params.chaos:
            from repro.twitter.faults import FaultPlan

            fault_plan = FaultPlan.chaos(seed=self.params.chaos_seed)
        worker_faults = (
            WorkerFaultPlan.chaos(seed=self.params.worker_chaos_seed)
            if self.params.worker_chaos
            else None
        )
        supervisor = (
            SupervisorPolicy() if worker_faults is not None else None
        )
        corpus, report = pipeline.run(
            read_tweets_jsonl(self.run_dir / "firehose.jsonl"),
            fault_plan=fault_plan,
            workers=self.params.workers,
            supervisor=supervisor,
            worker_faults=worker_faults,
        )
        write_jsonl(corpus.records, self.run_dir / "corpus.jsonl", fs=self.fs)
        write_text_with_manifest(
            self.run_dir / "report.json",
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            fs=self.fs,
        )

    def _stage_attention(self) -> None:
        from repro.core.attention import build_attention_matrix

        _write_attention_json(
            build_attention_matrix(self.corpus()),
            self.run_dir / "attention.json",
            fs=self.fs,
        )

    def _render_stage(self, stage: str) -> None:
        suite = self._suite()
        text: str = getattr(suite, f"run_{stage}")().render()
        write_text_with_manifest(
            self.run_dir / f"{stage}.txt", text + "\n", fs=self.fs
        )

    def _stage_table1(self) -> None:
        self._render_stage("table1")

    def _stage_fig2(self) -> None:
        self._render_stage("fig2")

    def _stage_fig3(self) -> None:
        self._render_stage("fig3")

    def _stage_fig4(self) -> None:
        self._render_stage("fig4")

    def _stage_fig5(self) -> None:
        self._render_stage("fig5")

    def _stage_fig6(self) -> None:
        self._render_stage("fig6")

    def _stage_fig7(self) -> None:
        self._render_stage("fig7")


def run_stages(
    run_dir: Path,
    params: RunParams,
    *,
    resume: bool = False,
    trace: bool = False,
    fault_hook: Callable[[str], None] | None = None,
    log: Callable[[str], None] | None = None,
    fs: FileSystem | None = None,
) -> RunSummary:
    """Execute (or resume) a journaled end-to-end analysis run.

    Args:
        run_dir: run directory; created for a fresh run, required to
            exist (with a journal) for a resumed one.
        params: the run's parameters; on resume they must fingerprint-
            match the journal's.
        resume: skip stages the journal proves complete (artifacts
            re-hashed) and continue from the first incomplete stage.
        trace: record run telemetry and flush it to ``trace.jsonl`` in
            the run directory after every stage.  Deliberately *not* a
            :class:`RunParams` field: telemetry never influences an
            artifact byte, so a traced run may resume an untraced one
            (and vice versa) without a fingerprint mismatch.
        fault_hook: called with the stage name *after* its artifacts are
            written but *before* the journal records them — the torn
            window a crash-recovery test wants to kill the process in.
        log: per-stage progress sink (e.g. ``print``); silent when None.
        fs: filesystem every artifact and journal write goes through; a
            :class:`repro.storage.fs.FaultyFS` subjects the whole run to
            injected disk faults.

    Raises:
        PipelineError: on a fresh run into a directory that already has
            a journal, a resume without one, a parameter mismatch, or a
            modified artifact.
    """
    run_dir = Path(run_dir)
    emit = log if log is not None else (lambda message: None)
    if resume:
        journal = RunJournal.load(run_dir, fs=fs)
        if journal.params.fingerprint() != params.fingerprint():
            raise PipelineError(
                "cannot resume: run parameters differ from the journaled "
                f"ones ({journal.params.to_dict()}); stages computed under "
                "different configurations cannot be mixed"
            )
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        if (run_dir / "journal.json").exists():
            raise PipelineError(
                f"{run_dir} already contains a journaled run; pass "
                "resume=True (--resume) to continue it or choose a fresh "
                "directory"
            )
        journal = RunJournal(run_dir, params, fs=fs)
    runner = _StageRunner(run_dir, params, fs=fs)
    telemetry = Telemetry() if trace else NULL_TELEMETRY

    def flush_trace(last_stage: str) -> None:
        # Atomic replace after every stage: a kill mid-run leaves the
        # newest complete flush on disk, never a torn trace.
        if trace:
            write_trace(
                telemetry,
                run_dir / TRACE_FILENAME,
                fs=fs,
                fingerprint=params.fingerprint(),
                last_stage=last_stage,
            )

    stages_run: list[str] = []
    stages_skipped: list[str] = []
    with activate(telemetry):
        for stage, artifacts in STAGE_ARTIFACTS:
            if journal.is_complete(stage):
                journal.verify_artifacts(stage)
                stages_skipped.append(stage)
                telemetry.inc("journal.stages_skipped")
                telemetry.event("stage.skipped", stage=stage)
                emit(f"stage {stage}: complete, skipping")
                continue
            emit(f"stage {stage}: running")
            with telemetry.span(f"stage.{stage}"):
                runner.run_stage(stage)
            if fault_hook is not None:
                fault_hook(stage)
            journal.record_stage(stage, artifacts)
            telemetry.inc("journal.stages_run")
            stages_run.append(stage)
            flush_trace(stage)
    flush_trace(stages_run[-1] if stages_run else "none")
    return RunSummary(
        run_dir=run_dir,
        stages_run=tuple(stages_run),
        stages_skipped=tuple(stages_skipped),
        report=runner.report(),
    )
