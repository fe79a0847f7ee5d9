"""Checkpoint durability: atomic writes, hash stamps, corrupt fallback."""

import hashlib
import json

import pytest

from repro.obs import Observability
from repro.recovery import CheckpointError, CheckpointStore
from repro.recovery.checkpoint import FORMAT_VERSION


def stamped_document(kind, day, state):
    """A checkpoint document, built independently of the store."""
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "day": day,
               "state": state}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {"payload": payload,
            "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest()}


class TestWriteAndLoad:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, "wild")
        path = store.write(3, {"cursor": "state"})
        assert path.name == "checkpoint_00003.json"
        assert store.load(path) == (3, {"cursor": "state"})

    def test_no_tmp_file_survives_a_write(self, tmp_path):
        store = CheckpointStore(tmp_path, "wild")
        store.write(0, {"a": 1})
        assert not list(tmp_path.glob("*.tmp"))

    def test_latest_returns_newest_valid(self, tmp_path):
        store = CheckpointStore(tmp_path, "wild")
        store.write(0, {"day": 0})
        store.write(1, {"day": 1})
        assert store.latest() == (1, {"day": 1})

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointStore(tmp_path, "wild").latest() is None


class TestFileLayout:
    STATE = {"records": {"b": [1, 2.5, None]}, "a": {"title": "Caf\u00e9 \u2014"}}

    def test_file_is_the_canonical_document_on_one_line(self, tmp_path):
        path = CheckpointStore(tmp_path, "wild").write(4, self.STATE)
        document = stamped_document("wild", 4, self.STATE)
        assert path.read_text() == json.dumps(
            document, sort_keys=True, separators=(",", ":")) + "\n"

    def test_indented_layout_still_validates(self, tmp_path):
        store = CheckpointStore(tmp_path, "honey")
        document = stamped_document("honey", 2, self.STATE)
        store.path_for(2).write_text(
            json.dumps(document, sort_keys=True, indent=1) + "\n")
        assert store.load(store.path_for(2)) == (2, self.STATE)
        assert store.latest() == (2, self.STATE)


class TestValidation:
    def test_bitflip_detected_and_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path, "wild", obs=Observability())
        store.write(0, {"day": 0})
        newest = store.write(1, {"day": 1})
        document = json.loads(newest.read_text())
        document["payload"]["state"]["day"] = 999  # corrupt without restamp
        newest.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            store.load(newest)
        # latest falls back to the previous day.
        assert store.latest() == (0, {"day": 0})
        assert store.obs.metrics.counter_total(
            "recovery.checkpoints_rejected") >= 1

    def test_truncation_detected(self, tmp_path):
        store = CheckpointStore(tmp_path, "serve")
        path = store.write(0, {"big": list(range(100))})
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError):
            store.load(path)
        assert store.latest() is None

    def test_kind_mismatch_rejected(self, tmp_path):
        CheckpointStore(tmp_path, "wild").write(0, {})
        with pytest.raises(CheckpointError, match="kind mismatch"):
            CheckpointStore(tmp_path, "honey").load(
                tmp_path / "checkpoint_00000.json")
