"""Tiny-size self-tests for the benchmark.

Run from the root of a source checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from measure import Outcome, Sample  # noqa: E402
from spans import Span, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.005
NAMES = sorted(WORKLOADS)


def args(workload: str, trace: int) -> argparse.Namespace:
    return bench.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)]
    )


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert bench.parse_args(["--workload", NAMES[0]]).seed == bench.DEFAULT_SEED


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_printed_with_its_unit(workload, tmp_path):
    result = bench.measure(args(workload, 0), tmp_path / "work", scale=TINY)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_per_layer_metric(workload, tmp_path):
    result = bench.measure(args(workload, 1), tmp_path / "work", scale=TINY)
    assert result["correct"] is True
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units("per_layer")
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0
    trace = tmp_path / "traces" / f"{workload}-seed3.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    roots = [s for s in spans if s["name"] == workload]
    assert len(roots) == 1 and roots[0]["parent_id"] is None


def test_every_per_layer_metric_is_measured_by_some_workload(tmp_path):
    measured: set[str] = set()
    for name in NAMES:
        work = tmp_path / name
        work.mkdir()
        workload = WORKLOADS[name](3, work, scale=TINY)
        workload.setup()
        outcome, layers = workload.traced(SpanRecorder(), 1.0)
        assert outcome.problems == []
        measured |= set(layers)
    # obs.trace_overhead is computed by run.py from the traced wall time.
    assert measured | {"obs.trace_overhead"} == set(units("per_layer"))


def memo_sizes() -> tuple[int, int]:
    from repro.nlp.tokenize import scan_words_hashtags, tokenize

    return tokenize.cache_info().currsize, scan_words_hashtags.cache_info().currsize


def test_every_timed_pass_starts_with_empty_tokenizer_memos(tmp_path, monkeypatch):
    import repro.pipeline.journal as journal
    import workloads

    seen: list[tuple[int, int]] = []
    run_stages = journal.run_stages

    def recording_run_stages(*a, **kw):
        seen.append(memo_sizes())
        return run_stages(*a, **kw)

    class RecordingPipeline(workloads.CollectionPipeline):
        def run(self, *a, **kw):
            seen.append(memo_sizes())
            return super().run(*a, **kw)

    monkeypatch.setattr(journal, "run_stages", recording_run_stages)
    monkeypatch.setattr(workloads, "CollectionPipeline", RecordingPipeline)
    for name in ("paper-run", "collect-fanout"):
        work = tmp_path / name
        work.mkdir()
        workload = WORKLOADS[name](3, work, scale=TINY)
        workload.setup()
        assert memo_sizes() != (0, 0)  # set-up tokenized the same texts
        seen.clear()
        for index in range(2):
            assert workload.run_once(index).problems == []
        assert seen == [(0, 0), (0, 0)]


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


@pytest.mark.parametrize(
    "workload, mutate",
    [("collect-fanout", flip_byte), ("serve-burst", drop_last_line)],
)
def test_corrupted_output_counts_as_failed_operation(workload, mutate, tmp_path):
    result = bench.measure(args(workload, 0), tmp_path / "work", mutate=mutate, scale=TINY)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_shed_requests_lower_goodput_but_are_not_failed_operations():
    sample = Sample([Outcome(1.0, units=10, shed_units=3), Outcome(1.0, units=10, shed_units=3)])
    assert (sample.attempted, sample.failed, sample.goodput) == (20, 0, 0.7)
    sample.outcomes.append(Outcome(1.0, ["corrupt"], units=10, shed_units=3))
    assert (sample.attempted, sample.failed) == (30, 10)
    assert sample.goodput == pytest.approx(14 / 30)


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_parallel_children_and_aggregates():
    rec = SpanRecorder()
    rec.spans = [
        Span("root", 0.0, 10.0),
        Span("fanout", 1.0, 9.0),
        Span("shard", 2.0, 6.0, worker="shard-0"),
        Span("shard", 3.0, 7.0, worker="shard-1"),
        Span("read", 7.5, 8.5, busy=0.5),
    ]
    rec.build()
    own = rec.self_times()
    assert own["root"] == pytest.approx(2.0)
    # 8 s minus the shards' union (2..7) minus the aggregate's busy 0.5.
    assert own["fanout"] == pytest.approx(2.5)
    assert own["shard"] == pytest.approx(8.0)
    parents = {s.worker: s.parent_id for s in rec.spans if s.name == "shard"}
    fanout_id = next(s.span_id for s in rec.spans if s.name == "fanout")
    assert parents == {"shard-0": fanout_id, "shard-1": fanout_id}
