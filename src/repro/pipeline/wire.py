"""Slim IPC wire format for sharded pipeline results.

The supervised pool originally shipped each shard's results back to the
parent as one pickled Python object graph: a list of
:class:`~repro.dataset.records.CollectedTweet` records, each holding a
:class:`~repro.twitter.models.Tweet`, a user, and a mention dict — tens
of objects per record for the pickler to walk, memoize, and rebuild.
This module replaces that with a framed byte format the worker encodes
once and the parent decodes once:

* the bulk payload — the surviving records — travels as **raw JSON
  lines**, the same stable dict form the on-disk corpus uses
  (:meth:`CollectedTweet.to_dict`), so the wire format is versionable
  and independent of pickle's per-interpreter details;
* the shard's :class:`~repro.pipeline.runner.PipelineReport` rides in
  the frame header (it is a flat counter dict);
* the optional telemetry snapshot — small, deeply structured, and
  parent-internal — stays pickled in a length-prefixed binary tail.

Frame layout (``encode_shard_result``)::

    {"v": 1, "records": N, "report": {...}, "snapshot": M}\\n
    [position, {collected tweet dict}]\\n     × N
    <M bytes of pickled TelemetrySnapshot>    (M == 0 when untraced)

Input direction: under the ``fork`` start method workers inherit the
parent's shard lists for free (copy-on-write), so the dispatch payload
shrinks to a bare shard *index* (see
:func:`repro.pipeline.parallel.run_sharded`) and nothing tweet-shaped is
ever pickled in either direction.

Decoding rebuilds records through :meth:`CollectedTweet.from_dict`, the
same validated path the durable corpus reader uses, so a corrupt frame
surfaces as a :class:`~repro.errors.SerializationError`, never as a
silently wrong record.
"""

from __future__ import annotations

import json
import pickle
from typing import TYPE_CHECKING

from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.pipeline.runner import PipelineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetrySnapshot

#: Wire format version; bump on any frame-layout change.
WIRE_VERSION = 1

_SEPARATORS = (",", ":")


def encode_records(records: list[tuple[int, CollectedTweet]]) -> bytes:
    """Encode position-tagged records as compact JSON lines."""
    lines = [
        json.dumps([position, record.to_dict()], separators=_SEPARATORS)
        for position, record in records
    ]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def encode_shard_result(
    records: list[tuple[int, CollectedTweet]],
    report: PipelineReport,
    snapshot: "TelemetrySnapshot | None",
) -> bytes:
    """Frame one shard's full result for the supervisor's result pipe."""
    snapshot_blob = (
        pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        if snapshot is not None
        else b""
    )
    header = json.dumps(
        {
            "v": WIRE_VERSION,
            "records": len(records),
            "report": report.to_dict(),
            "snapshot": len(snapshot_blob),
        },
        separators=_SEPARATORS,
    ).encode("utf-8")
    return b"".join(
        (header, b"\n", encode_records(records), snapshot_blob)
    )


def decode_shard_result(
    data: bytes,
) -> tuple[
    list[tuple[int, CollectedTweet]],
    PipelineReport,
    "TelemetrySnapshot | None",
]:
    """Decode one shard-result frame.

    Raises:
        SerializationError: on a truncated, corrupt, or wrong-version
            frame.
    """
    try:
        end = data.index(b"\n")
    except ValueError as exc:
        raise SerializationError("shard frame has no header line") from exc
    try:
        header = json.loads(data[:end])
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed shard header: {exc}") from exc
    if header.get("v") != WIRE_VERSION:
        raise SerializationError(
            f"shard frame version {header.get('v')!r}, expected {WIRE_VERSION}"
        )
    offset = end + 1
    records: list[tuple[int, CollectedTweet]] = []
    for __ in range(int(header["records"])):
        try:
            end = data.index(b"\n", offset)
        except ValueError as exc:
            raise SerializationError(
                "shard frame truncated mid-records"
            ) from exc
        try:
            position, payload = json.loads(data[offset:end])
        except (json.JSONDecodeError, ValueError) as exc:
            raise SerializationError(f"malformed record line: {exc}") from exc
        records.append((int(position), CollectedTweet.from_dict(payload)))
        offset = end + 1
    snapshot_size = int(header["snapshot"])
    tail = data[offset:]
    if len(tail) != snapshot_size:
        raise SerializationError(
            f"shard frame tail is {len(tail)} bytes, header promised "
            f"{snapshot_size}"
        )
    report = PipelineReport.from_dict(header["report"])
    snapshot = pickle.loads(tail) if snapshot_size else None
    return records, report, snapshot
