"""Restorable full-state checkpoints for the crash-tolerant service.

A checkpoint is one JSON document capturing *everything* the service-mode
simulator needs to continue bit-for-bit: the engine's pending heap (as
``(time, seq, tag)`` triples), the round pipeline's queue and round state,
the lifecycle registry, the metrics ledger, the network's placement table
and residual columns (verbatim floats — addition-order history defines the
exact bits), every decision-affecting RNG, the scheduler's mutable state
(sampling RNG, online model, EWMAs), and the service's own ingest
bookkeeping. The document is versioned, fingerprinted, and written with
:func:`repro.core.ioutil.atomic_write_text` so a crash mid-write leaves
the previous checkpoint intact. :func:`encode_checkpoint` encodes each
section once and hashes the same text for the fingerprint, so the file is
exactly ``json.dumps(payload, sort_keys=True)`` without encoding it twice.

Restore = rebuild the identical simulator from its spec, apply the
checkpoint, skip the arrival stream's consumed prefix, then re-drive the
engine while cross-checking every re-produced journal record against the
journal suffix (:mod:`repro.sim.journal`). Because the simulator is
deterministic, re-execution past the checkpoint reproduces the original
schedule exactly; the journal turns that assumption into a per-record
assertion.
"""

from __future__ import annotations

import json
from bisect import bisect
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.exceptions import SimulationError
from repro.core.ioutil import (
    payload_fingerprint,
    rng_state_payload,
    text_fingerprint,
)

if TYPE_CHECKING:
    from repro.sim.service import SimulationService

__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_VERSION",
    "HEARTBEAT_FILE",
    "JOURNAL_FILE",
    "RecoveryError",
    "build_checkpoint",
    "discard_state",
    "encode_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

#: Fixed state-dir layout. ``snapshots.jsonl``/``latest.json``/
#: ``metrics.prom`` (the observability artifacts) may share the directory.
CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.wal"
HEARTBEAT_FILE = "heartbeat.json"


class RecoveryError(SimulationError):
    """A resume attempt cannot proceed (missing, stale, or inconsistent
    state). The message always says what to do about it."""


def build_checkpoint(service: "SimulationService", origin: str,
                     journal_offset: int,
                     journal_records: int) -> str:
    """Encode the full checkpoint of ``service`` right now.

    Returns the file text: :func:`encode_checkpoint` of the payload plus a
    trailing newline.

    Args:
        service: the running service (must be at an engine-callback
            boundary — mid-stage scheduler state is not serializable).
        origin: why the checkpoint was taken — ``"snapshot-tick"`` (the
            periodic timer, *before* the post-snapshot continuation ran),
            ``"stop"`` (a drain-triggering signal), or ``"final"`` (the
            end-of-serve write). Restore uses it to decide whether the
            post-snapshot continuation still has to run.
        journal_offset: byte size of the valid journal at this instant.
        journal_records: records in the journal at this instant.
    """
    from repro.core.event import event_id_state
    from repro.core.flow import flow_id_state

    sim = service._sim
    churn = sim.churn
    payload: dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "origin": origin,
        "scheduler": sim.scheduler.name,
        "compile": {"mode": sim.config.compile_mode,
                    "epsilon": sim.config.compile_epsilon},
        "engine": sim.engine.export_state(),
        "pipeline": sim.pipeline.export_state(),
        "lifecycle": sim.lifecycle.export_state(),
        "metrics": sim.metrics_collector.export_state(),
        "network": sim.network.export_state(),
        "churn": churn.export_state() if churn is not None else None,
        "sched": sim.scheduler.export_state(),
        "sim_rng": rng_state_payload(sim.rng),
        "counters": service._exporter.export_state(),
        "ids": {"flow": flow_id_state(), "event": event_id_state()},
        "journal": {"offset": journal_offset, "records": journal_records},
        "service": service._service_state(),
    }
    return encode_checkpoint(payload) + "\n"


def encode_checkpoint(payload: dict[str, Any]) -> str:
    """``json.dumps(payload | {"fingerprint": fp}, sort_keys=True)``, with
    ``fp = payload_fingerprint(payload)``, encoding ``payload`` only once.

    Each top-level section is encoded once; their sorted join is the text
    :func:`payload_fingerprint` would hash, and the fingerprint entry is
    then spliced in at its sorted position. ``payload`` must be plain JSON
    (no ``default=str`` fallback, unlike the fingerprint helper) with
    string keys, none of them ``"fingerprint"``.
    """
    keys = sorted(payload)
    items = [f"{json.dumps(key)}: {json.dumps(payload[key], sort_keys=True)}"
             for key in keys]
    fingerprint = text_fingerprint("{" + ", ".join(items) + "}")
    items.insert(bisect(keys, "fingerprint"),
                 f'"fingerprint": {json.dumps(fingerprint)}')
    return "{" + ", ".join(items) + "}"


def discard_state(state_dir: str | Path) -> list[str]:
    """Remove a previous run's recovery files (the ``--fresh`` flag).

    Deletes only the three files the service owns — checkpoint, journal,
    heartbeat — never the directory or any observability artifacts that
    share it. Returns the names actually removed.
    """
    directory = Path(state_dir)
    removed: list[str] = []
    for name in (CHECKPOINT_FILE, JOURNAL_FILE, HEARTBEAT_FILE):
        target = directory / name
        if target.exists():
            target.unlink()
            removed.append(name)
    return removed


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint file.

    Raises:
        RecoveryError: the file is missing, unparseable, of an unknown
            version, or its fingerprint does not match its content (stale
            or tampered).
    """
    target = Path(path)
    if not target.exists():
        raise RecoveryError(
            f"no checkpoint at {target}; nothing to resume — start fresh "
            f"(or pass the state dir of the run you meant to continue)")
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"checkpoint at {target} is unreadable ({exc}); restore from "
            f"a backup or start fresh with --fresh") from exc
    if not isinstance(payload, dict):
        raise RecoveryError(
            f"checkpoint at {target} is not a JSON object; start fresh "
            f"with --fresh")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise RecoveryError(
            f"checkpoint at {target} has version {version!r}, this build "
            f"reads version {CHECKPOINT_VERSION}; resume with the build "
            f"that wrote it or start fresh with --fresh")
    recorded = payload.get("fingerprint")
    expected = payload_fingerprint(
        {k: v for k, v in payload.items() if k != "fingerprint"})
    if recorded != expected:
        raise RecoveryError(
            f"checkpoint at {target} fails its fingerprint check "
            f"(recorded {recorded!r}, content hashes to {expected!r}); "
            f"the file is stale or tampered — restore from a backup or "
            f"start fresh with --fresh")
    return payload
