"""Tests for integrity sidecar manifests."""

import hashlib
import json
import zlib

import pytest

from repro.errors import StorageError
from repro.storage.manifest import (
    MANIFEST_SUFFIX,
    Manifest,
    build_manifest,
    data_path_for,
    is_manifest,
    load_manifest,
    manifest_path,
    record_crc,
    text_record_crcs,
    write_manifest,
    write_text_with_manifest,
)
from repro.storage.scrub import scrub_file


class TestPaths:
    def test_sidecar_naming_round_trip(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        side = manifest_path(data)
        assert side.name == "corpus.jsonl.manifest.json"
        assert is_manifest(side)
        assert not is_manifest(data)
        assert data_path_for(side) == data

    def test_data_path_for_rejects_non_sidecar(self, tmp_path):
        with pytest.raises(StorageError, match="not a manifest"):
            data_path_for(tmp_path / "corpus.jsonl")


class TestCrcs:
    def test_record_crc_matches_zlib(self):
        line = '{"a": 1}'
        assert record_crc(line) == zlib.crc32(line.encode()) & 0xFFFFFFFF

    def test_text_crcs_match_built_manifest(self, tmp_path):
        text = '{"a": 1}\n{"b": "é"}\n'
        path = tmp_path / "f.jsonl"
        path.write_text(text, encoding="utf-8")
        assert build_manifest(path).record_crcs == text_record_crcs(text)

    def test_torn_tail_counts_as_record(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"torn', encoding="utf-8")
        manifest = build_manifest(path)
        assert manifest.records == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        manifest = build_manifest(path)
        assert manifest.records == 0
        assert manifest.size_bytes == 0

    def test_non_record_file_has_no_crcs(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x\ny\nz")
        manifest = build_manifest(path, records=False)
        assert manifest.record_crcs is None
        assert manifest.records is None


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n')
        manifest = build_manifest(path)
        side = write_manifest(path, manifest)
        assert side.exists()
        assert load_manifest(path) == manifest

    def test_load_absent_returns_none(self, tmp_path):
        assert load_manifest(tmp_path / "nope.jsonl") is None

    def test_unreadable_sidecar_is_corruption_evidence(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("data\n")
        manifest_path(path).write_text("{broken")
        with pytest.raises(StorageError, match="unreadable manifest"):
            load_manifest(path)

    def test_sidecar_bytes_are_canonical(self, tmp_path):
        # Same content + same name => byte-identical sidecars, so the
        # journal's directory-level byte comparisons stay meaningful.
        paths = []
        for run in ("run_a", "run_b"):
            (tmp_path / run).mkdir()
            path = tmp_path / run / "corpus.jsonl"
            write_text_with_manifest(path, '{"x": 1}\n')
            paths.append(path)
        assert (
            manifest_path(paths[0]).read_bytes()
            == manifest_path(paths[1]).read_bytes()
        )

    def test_from_dict_rejects_bad_crcs(self):
        data = Manifest("f", "00", 1, (1,)).to_dict()
        data["record_crcs"] = "not-a-list"
        with pytest.raises(ValueError):
            Manifest.from_dict(data)


class TestVerify:
    def test_clean_file_verifies_ok(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_text_with_manifest(path, '{"a": 1}\n{"b": 2}\n')
        assert scrub_file(path, quarantine=False).status == "clean"
        manifest = load_manifest(path)
        assert manifest is not None
        assert manifest.records == 2

    def test_mismatch_pinpoints_corrupt_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_text_with_manifest(path, "aaaa\nbbbb\ncccc\n")
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"bXbb"
        path.write_bytes(b"\n".join(lines))
        result = scrub_file(path, quarantine=False)
        assert result.status == "corrupt"
        assert result.corrupt_lines == (2,)

    def test_write_text_with_manifest_creates_both(self, tmp_path):
        path = tmp_path / "f.jsonl"
        text = '{"a": 1}\n'
        written = write_text_with_manifest(path, text)
        assert written == len(text.encode())
        manifest = load_manifest(path)
        assert manifest is not None
        assert manifest.sha256 == hashlib.sha256(text.encode()).hexdigest()
        assert manifest.records == 1

    def test_manifest_dict_round_trip(self):
        manifest = Manifest("f.jsonl", "ab" * 32, 10, (1, 2, 3))
        clone = Manifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert clone == manifest


def test_manifest_suffix_is_stable():
    # The scrub engine, journal resume, and CLI all glob on this.
    assert MANIFEST_SUFFIX == ".manifest.json"
