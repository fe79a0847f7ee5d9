"""Durable per-day checkpoints: atomic writes, hash stamps, fallback.

File format (one JSON document per checkpoint, on one line)::

    {"payload":{"day":<cursor: first unit of work NOT covered>,
                "format_version":1,
                "kind":"wild" | "honey" | "serve",
                "state":{...}},          # pipeline-specific state dict
     "sha256":"<hex digest of the canonical payload encoding>"}

The payload's canonical encoding is ``json.dumps(payload,
sort_keys=True, separators=(",", ":"))``; the digest is taken over it,
so any truncation or bit-flip in the state is detected on load.  The
file is the canonical encoding of the whole document, built around the
payload text that was hashed, so each write encodes the state once.
:meth:`CheckpointStore.load` parses any JSON layout, so checkpoints in
the earlier indented layout still validate.

Writes go to a ``.tmp`` sibling first and are published with
``os.replace`` — a crash mid-write leaves either the old complete file
or a dangling tmp, never a half-written checkpoint under the real name.
``latest`` walks checkpoints newest-first and returns the first one
that validates, so a corrupt day falls back to the previous day (the
resumed run then re-executes the lost day deterministically).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.obs import NULL_OBS, Observability, save_snapshot
from repro.recovery.crash import CrashPlan
from repro.recovery.wal import WriteAheadLog

FORMAT_VERSION = 1

#: Name of the recovery-counter export inside the checkpoint directory.
RECOVERY_METRICS_FILE = "recovery_metrics.json"


class CheckpointError(Exception):
    """A checkpoint file failed validation."""


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Per-day checkpoints for one pipeline run, in one directory."""

    def __init__(self, root, kind: str,
                 obs: Optional[Observability] = None) -> None:
        self.root = Path(root)
        self.kind = kind
        self.obs = obs or NULL_OBS
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, day: int) -> Path:
        return self.root / f"checkpoint_{day:05d}.json"

    # -- writing --------------------------------------------------------------

    def write(self, day: int, state: Dict[str, object]) -> Path:
        """Atomically persist the state reached *before* unit ``day``."""
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "day": day,
            "state": state,
        }
        canonical = _canonical(payload)
        digest = _digest(canonical)
        # Equal to _canonical({"payload": payload, "sha256": digest}):
        # "payload" sorts before "sha256".
        text = '{"payload":' + canonical + ',"sha256":"' + digest + '"}\n'
        target = self.path_for(day)
        tmp = target.with_suffix(".json.tmp")
        tmp.write_text(text)
        os.replace(tmp, target)
        self.obs.metrics.inc("recovery.checkpoints_written")
        return target

    # -- loading --------------------------------------------------------------

    def load(self, path: Path) -> Tuple[int, Dict[str, object]]:
        """Validate one checkpoint file; raises :class:`CheckpointError`."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
        if not isinstance(document, dict) or "payload" not in document:
            raise CheckpointError(f"malformed checkpoint {path}")
        payload = document["payload"]
        if document.get("sha256") != _digest(_canonical(payload)):
            raise CheckpointError(f"hash mismatch in {path} (corrupt?)")
        if payload.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version in {path}: "
                f"{payload.get('format_version')!r}")
        if payload.get("kind") != self.kind:
            raise CheckpointError(
                f"checkpoint kind mismatch in {path}: wrote for "
                f"{payload.get('kind')!r}, resuming {self.kind!r}")
        return int(payload["day"]), payload["state"]

    def latest(self) -> Optional[Tuple[int, Dict[str, object]]]:
        """The newest *valid* checkpoint, or ``None`` if none validate.

        Corrupt or truncated files are counted into
        ``recovery.checkpoints_rejected`` and skipped, falling back to
        the previous day.
        """
        candidates = sorted(self.root.glob("checkpoint_*.json"), reverse=True)
        for path in candidates:
            try:
                return self.load(path)
            except CheckpointError:
                self.obs.metrics.inc("recovery.checkpoints_rejected")
        return None


@dataclass
class RecoveryContext:
    """Everything a pipeline needs to checkpoint, crash, and resume.

    ``obs`` is a *dedicated* observability context: recovery counters
    must never leak into the pipeline's own metrics export, because a
    resumed run has ``recovery.resumes == 1`` where the uninterrupted
    reference has no recovery context at all — and the byte-identity
    contract covers the pipeline export.  ``export_metrics`` writes the
    recovery counters next to the checkpoints instead.
    """

    store: CheckpointStore
    crash: CrashPlan = field(default_factory=CrashPlan)
    obs: Observability = field(default_factory=Observability)
    resume: bool = False
    wal: Optional[WriteAheadLog] = None

    @classmethod
    def create(cls, root, kind: str, crash: Optional[CrashPlan] = None,
               resume: bool = False, with_wal: bool = False,
               ) -> "RecoveryContext":
        obs = Observability()
        store = CheckpointStore(root, kind, obs=obs)
        plan = crash or CrashPlan()
        plan.obs = obs
        wal = WriteAheadLog(store.root / "wal", obs=obs) if with_wal else None
        return cls(store=store, crash=plan, obs=obs, resume=resume, wal=wal)

    def crash_point(self, stage: str, day: int) -> None:
        self.crash.maybe_crash(stage, day)

    def mark_resumed(self, day: int) -> None:
        self.obs.metrics.inc("recovery.resumes")
        self.obs.metrics.set_gauge("recovery.resume_day", day)

    def export_metrics(self) -> Path:
        return save_snapshot(self.obs, self.store.root / RECOVERY_METRICS_FILE)


__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "FORMAT_VERSION",
    "RECOVERY_METRICS_FILE",
    "RecoveryContext",
]
