"""CLI entry point: argument parsing and command dispatch."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.cli import commands
from repro.errors import ConfigError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Characterizing Organ Donation Awareness from "
            "Social Media' (ICDE 2017)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesize a world and write its firehose to JSONL"
    )
    generate.add_argument("output", help="firehose JSONL path")
    generate.add_argument("--scale", type=float, default=0.02,
                          help="size relative to the paper (1.0 ≈ Table I)")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=commands.cmd_generate)

    collect = subparsers.add_parser(
        "collect", help="run the collection pipeline over a firehose"
    )
    collect.add_argument("firehose", help="firehose JSONL path (from generate)")
    collect.add_argument("output", help="corpus JSONL path")
    collect.add_argument("--min-confidence", type=float, default=0.5)
    collect.add_argument("--no-geotag", action="store_true",
                         help="ignore GPS geo-tags (profile geocoding only)")
    collect.add_argument("--chaos", action="store_true",
                         help="inject the full Streaming API failure "
                         "taxonomy (disconnects, 420/503, stalls, "
                         "duplicates, torn payloads) and collect through "
                         "the resilient client; the corpus is identical "
                         "to a fault-free run")
    collect.add_argument("--chaos-seed", type=int, default=0,
                         help="seed for the deterministic fault schedule")
    collect.add_argument("--workers", type=int, default=1,
                         help="shard the pipeline across N worker "
                         "processes; the corpus is byte-identical to a "
                         "serial run for any N")
    collect.add_argument("--worker-chaos", action="store_true",
                         help="inject compute faults (worker crashes, "
                         "exception storms, slow tasks) into the "
                         "supervised pool; the corpus is byte-identical "
                         "to a fault-free run")
    collect.add_argument("--worker-chaos-seed", type=int, default=0,
                         help="seed for the deterministic worker-fault "
                         "schedule")
    collect.add_argument("--disk-chaos", action="store_true",
                         help="write the corpus through a fault-injecting "
                         "filesystem (transient EIO, lying fsyncs); the "
                         "atomic-durable writer absorbs every fault and "
                         "the corpus is byte-identical to a fault-free "
                         "run")
    collect.add_argument("--disk-chaos-seed", type=int, default=0,
                         help="seed for the deterministic disk-fault "
                         "schedule")
    collect.add_argument("--trace", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="record run telemetry (stage/shard spans, "
                         "funnel and fault counters) and write it to "
                         "<output>.trace.jsonl; the corpus is "
                         "byte-identical with or without tracing")
    collect.set_defaults(func=commands.cmd_collect)

    scrub = subparsers.add_parser(
        "scrub",
        help="verify manifested files (corpora, checkpoints, run "
        "artifacts) against their integrity sidecars; quarantine "
        "bitrot-damaged records into a dead-letter, repair whole files "
        "from replicas",
    )
    scrub.add_argument("paths", nargs="+",
                       help="files or directories to scrub (directories "
                       "are searched recursively for *.manifest.json "
                       "sidecars)")
    scrub.add_argument("--repair-from", default=None,
                       help="directory holding known-good replicas by "
                       "file name (e.g. a journaled run directory); "
                       "tried before quarantining")
    scrub.add_argument("--no-quarantine", action="store_true",
                       help="detect and report damage without modifying "
                       "any file")
    scrub.set_defaults(func=commands.cmd_scrub)

    analyze = subparsers.add_parser(
        "analyze", help="regenerate paper artifacts from a corpus"
    )
    analyze.add_argument("corpus", help="corpus JSONL path (from collect)")
    analyze.add_argument(
        "--artifacts", default="table1,fig2,fig3,fig4,fig5,fig6,fig7",
        help="comma-separated subset of: table1,fig2,...,fig7",
    )
    analyze.add_argument("--out", default=None,
                         help="directory for per-artifact text files")
    analyze.add_argument("--alpha", type=float, default=0.05,
                         help="significance level for Fig. 5")
    analyze.add_argument("--k", type=int, default=12,
                         help="number of user clusters for Fig. 7")
    analyze.add_argument("--csv", default=None,
                         help="directory for CSV exports of all artifacts")
    analyze.add_argument("--svg", default=None,
                         help="directory for SVG figures of all artifacts")
    analyze.set_defaults(func=commands.cmd_analyze)

    run = subparsers.add_parser(
        "run",
        help="execute the full generate→collect→analyze run into a "
        "journaled directory; kill it at any instant and --resume "
        "completes it with byte-identical artifacts",
    )
    run.add_argument("run_dir", help="run directory (artifacts + journal)")
    run.add_argument("--resume", action="store_true",
                     help="continue an interrupted run: journaled stages "
                     "are verified and skipped, the rest re-run")
    run.add_argument("--scale", type=float, default=0.02,
                     help="size relative to the paper (1.0 ≈ Table I)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the sharded collect")
    run.add_argument("--k", type=int, default=12,
                     help="number of user clusters for Fig. 7")
    run.add_argument("--alpha", type=float, default=0.05,
                     help="significance level for Fig. 5")
    run.add_argument("--chaos", action="store_true",
                     help="inject transport faults (resilient stream)")
    run.add_argument("--chaos-seed", type=int, default=0)
    run.add_argument("--worker-chaos", action="store_true",
                     help="inject compute faults (supervised pool)")
    run.add_argument("--worker-chaos-seed", type=int, default=0)
    run.add_argument("--trace", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="record run telemetry and flush it to "
                     "trace.jsonl in the run directory after every "
                     "stage; inspect it with 'repro trace RUNDIR'. "
                     "Artifacts are byte-identical with or without "
                     "tracing, and tracing is not part of the run "
                     "fingerprint (a traced run may resume an untraced "
                     "one)")
    run.set_defaults(func=commands.cmd_run)

    trace = subparsers.add_parser(
        "trace",
        help="summarize a run's telemetry: stage durations, funnel "
        "attrition, slowest shards, fault counters",
    )
    trace.add_argument("run_dir",
                       help="run directory holding trace.jsonl (from "
                       "'repro run --trace'), or a trace JSONL file "
                       "directly (from 'repro collect --trace')")
    trace.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    trace.set_defaults(func=commands.cmd_trace)

    monitor = subparsers.add_parser(
        "monitor", help="replay a firehose through the rolling sensor"
    )
    monitor.add_argument("firehose", help="firehose JSONL path")
    monitor.add_argument("--window-days", type=int, default=60)
    monitor.add_argument("--emit-every", type=int, default=1000)
    monitor.add_argument("--min-users", type=int, default=15)
    monitor.set_defaults(func=commands.cmd_monitor)

    calibrate = subparsers.add_parser(
        "calibrate", help="check a world against the Table I targets"
    )
    calibrate.add_argument("--scale", type=float, default=0.05)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.set_defaults(func=commands.cmd_calibrate)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="run the full reproduction and print pass/fail verdicts for "
        "every paper claim",
    )
    reproduce.add_argument("--scale", type=float, default=0.12,
                           help="shape checks need scale ≥ ~0.1 for power")
    reproduce.add_argument("--seed", type=int, default=7)
    reproduce.set_defaults(func=commands.cmd_reproduce)

    replicate = subparsers.add_parser(
        "replicate",
        help="re-run the reproduction across several seeds and aggregate "
        "pass rates",
    )
    replicate.add_argument("--seeds", type=int, default=5,
                           help="number of independent seeds")
    replicate.add_argument("--scale", type=float, default=0.12)
    replicate.set_defaults(func=commands.cmd_replicate)

    serve = subparsers.add_parser(
        "serve",
        help="answer analysis queries from a completed run directory "
        "through the overload stack (admission control, deadlines, "
        "circuit breaker, brownout); a discrete-event simulation on a "
        "manual clock, byte-identical for a fixed (seed, request file)",
    )
    serve.add_argument("run_dir",
                       help="completed run directory (needs corpus.jsonl)")
    serve.add_argument("--requests", required=True,
                       help="JSONL request file: one object per line with "
                       "id, kind, arrival, optional params/deadline")
    serve.add_argument("--output", default=None,
                       help="responses JSONL path (default: "
                       "<requests>.responses.jsonl)")
    serve.add_argument("--load-chaos", action="store_true",
                       help="inject client storms, poison queries, and "
                       "slow/failing artifact loads")
    serve.add_argument("--load-chaos-seed", type=int, default=0)
    serve.add_argument("--trace", action="store_true",
                       help="export serve telemetry next to the responses "
                       "file (<output>.trace.jsonl)")
    serve.set_defaults(func=commands.cmd_serve)

    lint = subparsers.add_parser(
        "lint",
        help="run the reprolint determinism/reliability analyzer "
        "(file-local RPL001–RPL008; --ipa adds whole-program "
        "RPL101–RPL105) over the source tree",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to analyze "
                      "(default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run "
                      "(default: all rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--ipa", action="store_true",
                      help="also run the interprocedural whole-program "
                      "analysis (call graph + dataflow, RPL101–RPL105)")
    lint.add_argument("--graph", choices=("dot", "json"), default=None,
                      help="with --ipa: print the call graph in this "
                      "format instead of findings")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="with --ipa: baseline ratchet file; "
                      "grandfathered findings there do not fail the run "
                      "(default: lint-baseline.json)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="with --ipa: regenerate the baseline file "
                      "from the current findings and exit")
    lint.set_defaults(func=commands.cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ConfigError as exc:
        # An out-of-range option value is a usage error: exit 2, like
        # every other bad argument, with no traceback.
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
