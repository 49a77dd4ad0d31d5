"""Per-file integrity sidecars: whole-file SHA-256 + per-record CRC32.

A file ``corpus.jsonl`` gets a sidecar ``corpus.jsonl.manifest.json``
recording the SHA-256 and byte size of the whole file and (for line-
oriented files) a CRC32 per physical line.  The whole-file hash answers
"has anything changed"; the per-record CRCs answer "*which* records
rotted", which is what lets the scrub engine quarantine two bad lines
instead of condemning a 135k-tweet corpus.

Manifests are written atomically *after* their data file, so a crash
between the two leaves data newer than its sidecar — the scrub engine
treats that as a stale manifest (an interrupted append), distinct from
corruption.  The manifest encoding is canonical (sorted keys), so runs
that produce byte-identical data files also produce byte-identical
sidecars — directory-level byte comparisons in the resume tests stay
meaningful.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StorageError
from repro.storage.atomic import AtomicWriter, atomic_write_text
from repro.storage.fs import LOCAL_FS, FileSystem

#: Sidecar name suffix: ``<file>`` -> ``<file>.manifest.json``.
MANIFEST_SUFFIX = ".manifest.json"

MANIFEST_VERSION = 1


def manifest_path(path: str | Path) -> Path:
    """The sidecar path for a data file."""
    data = Path(path)
    return data.with_name(data.name + MANIFEST_SUFFIX)


def is_manifest(path: str | Path) -> bool:
    return Path(path).name.endswith(MANIFEST_SUFFIX)


def data_path_for(manifest: str | Path) -> Path:
    """Inverse of :func:`manifest_path`."""
    side = Path(manifest)
    if not is_manifest(side):
        raise StorageError(f"{side} is not a manifest sidecar")
    return side.with_name(side.name[: -len(MANIFEST_SUFFIX)])


def record_crc(line: str) -> int:
    """CRC32 of one record line (no trailing newline), as unsigned."""
    return zlib.crc32(line.encode("utf-8")) & 0xFFFFFFFF


def text_record_crcs(text: str) -> tuple[int, ...]:
    """Per-line CRCs of a full text, matching :func:`build_manifest`."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return tuple(record_crc(line) for line in lines)


@dataclass(frozen=True, slots=True)
class Manifest:
    """Integrity facts about one data file.

    Attributes:
        file: data file name (no directory; sidecars sit beside data).
        sha256: hex digest of the whole file.
        size_bytes: file length.
        record_crcs: per-physical-line CRC32s, or None for files that
            are not record-oriented.
        version: manifest schema version.
    """

    file: str
    sha256: str
    size_bytes: int
    record_crcs: tuple[int, ...] | None = None
    version: int = MANIFEST_VERSION

    @property
    def records(self) -> int | None:
        return None if self.record_crcs is None else len(self.record_crcs)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": self.version,
            "file": self.file,
            "sha256": self.sha256,
            "size_bytes": self.size_bytes,
            "record_crcs": (
                None if self.record_crcs is None else list(self.record_crcs)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Manifest":
        crcs = data["record_crcs"]
        if crcs is not None and not isinstance(crcs, list):
            raise ValueError(f"record_crcs must be a list or null, got {crcs!r}")
        return cls(
            file=str(data["file"]),
            sha256=str(data["sha256"]),
            size_bytes=int(data["size_bytes"]),  # type: ignore[call-overload]
            record_crcs=(
                None if crcs is None else tuple(int(c) for c in crcs)
            ),
            version=int(data["version"]),  # type: ignore[call-overload]
        )


def build_manifest(
    path: str | Path, *, fs: FileSystem | None = None, records: bool = True
) -> Manifest:
    """Stream a file once, hashing bytes and CRC-ing each line.

    A trailing line without a newline (a torn append) still counts as a
    record: its CRC will mismatch a clean manifest, which is exactly the
    signal the scrub engine wants.
    """
    fs = fs if fs is not None else LOCAL_FS
    digest = hashlib.sha256()
    size = 0
    crcs: list[int] = []
    pending = b""
    with fs.open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
            size += len(block)
            if records:
                pending += block
                *complete, pending = pending.split(b"\n")
                crcs.extend(zlib.crc32(line) & 0xFFFFFFFF for line in complete)
    if records and pending:
        crcs.append(zlib.crc32(pending) & 0xFFFFFFFF)
    return Manifest(
        file=Path(path).name,
        sha256=digest.hexdigest(),
        size_bytes=size,
        record_crcs=tuple(crcs) if records else None,
    )


def write_manifest(
    path: str | Path, manifest: Manifest, *, fs: FileSystem | None = None
) -> Path:
    """Atomically write the sidecar for ``path``; returns its location."""
    side = manifest_path(path)
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_text(side, payload, fs=fs)
    return side


def load_manifest(
    path: str | Path, *, fs: FileSystem | None = None
) -> Manifest | None:
    """Load the sidecar for data file ``path``.

    Returns None when no sidecar exists (legacy or foreign file).

    Raises:
        StorageError: when a sidecar exists but cannot be parsed — that
            is itself corruption evidence, never silently ignored.
    """
    fs = fs if fs is not None else LOCAL_FS
    side = manifest_path(path)
    if not fs.exists(side):
        return None
    with fs.open(side, "r") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"manifest must be an object, got {data!r}")
        return Manifest.from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"unreadable manifest {side}: {exc}") from exc


def write_text_with_manifest(
    path: str | Path, text: str, *, fs: FileSystem | None = None
) -> int:
    """Atomic durable write of ``text`` plus its sidecar; returns bytes.

    The manifest is built from the streamed content (no re-read), and
    written strictly after the data replace, so a crash between the two
    leaves valid data with a stale sidecar — never a sidecar describing
    data that does not exist.
    """
    with AtomicWriter(path, fs=fs) as writer:
        writer.write(text)
    manifest = Manifest(
        file=Path(path).name,
        sha256=writer.sha256_hex,
        size_bytes=writer.bytes_written,
        record_crcs=text_record_crcs(text),
    )
    write_manifest(path, manifest, fs=fs)
    return writer.bytes_written
