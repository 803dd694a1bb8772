"""Tests for crash recovery: checkpoint/restore, journal replay, tampering.

Every crash here is injected *in-process* (``REPRO_CRASH_MODE=raise``
turns the SIGKILL crash points into a catchable exception) so the suite
stays fast and fork-free; ``scripts/check_crash_recovery.py`` and the CI
smoke job exercise the same kill points with real SIGKILLs through the
``repro serve`` subprocess path.

Runs on the small diamond network like the rest of the service suite.
"""

import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import diamond_setup  # noqa: E402

from repro.cli import build_serve_parser
from repro.cli import build_service as build_cli_service
from repro.core.event import event_id_state, set_event_id_state
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.core.ioutil import payload_fingerprint
from repro.sched.fifo import FIFOScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sim import crashpoint, snapshot
from repro.sim import service as service_mod
from repro.sim.crashpoint import CrashInjected
from repro.sim.journal import JournalCorruptionError, scan_journal
from repro.sim.service import ServiceConfig, SimulationService
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.snapshot import (
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    RecoveryError,
    discard_state,
    encode_checkpoint,
    load_checkpoint,
)
from repro.traces.arrivals import SyntheticTrace
from repro.traces.events import EventGenerator, EventGeneratorConfig

DIAMOND_HOSTS = ("a", "b", "c", "d", "e", "f")


@pytest.fixture(autouse=True)
def _hermetic_ids():
    saved = (flow_id_state(), event_id_state())
    set_flow_id_state(0)
    set_event_id_state(0)
    yield
    set_flow_id_state(saved[0])
    set_event_id_state(saved[1])


@pytest.fixture(autouse=True)
def _clean_crashpoints(monkeypatch):
    monkeypatch.delenv(crashpoint.ENV_VAR, raising=False)
    monkeypatch.delenv(crashpoint.MODE_VAR, raising=False)
    crashpoint.reset_counts()
    yield
    crashpoint.reset_counts()


def build_service(state_dir, resume=False, scheduler=None, max_events=12,
                  snapshot_every=2.0, compile_mode="atomic"):
    """A deterministic diamond-network service; rebuildable bit-identically."""
    net, provider = diamond_setup()
    sim = UpdateSimulator(
        net, provider, scheduler or FIFOScheduler(),
        config=SimulationConfig(verify_invariants=True, max_deferrals=4,
                                compile_mode=compile_mode))
    trace = SyntheticTrace(DIAMOND_HOSTS, seed=3, demand_range=(2.0, 10.0))
    generator = EventGenerator(
        trace, config=EventGeneratorConfig(min_flows=1, max_flows=3),
        seed=4)
    config = ServiceConfig(queue_cap=8, resume_depth=4,
                           max_events=max_events,
                           snapshot_every=snapshot_every,
                           state_dir=state_dir, resume=resume)
    return SimulationService(sim, generator.stream(1.0), config)


def crash_at(monkeypatch, label, n):
    monkeypatch.setenv(crashpoint.ENV_VAR, f"{label}:{n}")
    monkeypatch.setenv(crashpoint.MODE_VAR, "raise")


def disarm(monkeypatch):
    monkeypatch.delenv(crashpoint.ENV_VAR, raising=False)
    monkeypatch.delenv(crashpoint.MODE_VAR, raising=False)
    crashpoint.reset_counts()


def run_baseline(tmp_path):
    set_flow_id_state(0)
    set_event_id_state(0)
    return build_service(tmp_path / "baseline").serve()


def crash_and_resume(tmp_path, monkeypatch, label, n, **kwargs):
    """Crash at ``label:n``, resume, return (baseline, resumed) reports."""
    baseline = run_baseline(tmp_path)
    state = tmp_path / "crashed"
    crash_at(monkeypatch, label, n)
    set_flow_id_state(0)
    set_event_id_state(0)
    with pytest.raises(CrashInjected):
        build_service(state, **kwargs).serve()
    disarm(monkeypatch)
    set_flow_id_state(0)
    set_event_id_state(0)
    resumed = build_service(state, resume=True, **kwargs).serve()
    return baseline, resumed


class TestExactResume:
    def test_crash_mid_round_resumes_bit_identical(self, tmp_path,
                                                   monkeypatch):
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "post-round", 3)
        assert resumed.digest == baseline.digest
        assert resumed.completed == baseline.completed
        assert resumed.dropped == baseline.dropped
        assert resumed.final_time == baseline.final_time
        assert resumed.restarts == 1
        assert baseline.restarts == 0

    def test_crash_mid_journal_append_leaves_torn_tail(self, tmp_path,
                                                       monkeypatch):
        """The armed append flushes half a frame before dying; the resume
        must truncate it and still land on the baseline digest."""
        baseline = run_baseline(tmp_path)
        state = tmp_path / "crashed"
        crash_at(monkeypatch, "journal-append", 4)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        scan = scan_journal(state / JOURNAL_FILE)
        assert scan.torn_bytes > 0
        assert len(scan.records) == 3
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.digest == baseline.digest

    def test_crash_mid_checkpoint_write_keeps_previous(self, tmp_path,
                                                       monkeypatch):
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "snapshot", 2)
        assert resumed.digest == baseline.digest

    def test_crash_before_first_checkpoint_replays_whole_journal(
            self, tmp_path, monkeypatch):
        """No checkpoint on disk yet: the resume is a fresh deterministic
        re-run verified record-by-record against the full journal."""
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "snapshot", 1)
        assert resumed.digest == baseline.digest
        assert resumed.restarts == 1
        # Everything journaled before the crash is replay-verified; the
        # suffix after the crash point is freshly appended on top.
        assert (0 < resumed.counters["recovery_replayed_events"]
                <= resumed.counters["journal_records"])

    def test_resume_counters_surface_recovery_metrics(self, tmp_path,
                                                      monkeypatch):
        _, resumed = crash_and_resume(tmp_path, monkeypatch,
                                      "post-round", 3)
        counters = resumed.counters
        assert counters["restarts"] == 1
        assert counters["recovery_replayed_events"] > 0
        # journal_records covers every record: replay-verified + appended.
        assert (counters["journal_records"]
                == len(scan_journal(tmp_path / "crashed"
                                    / JOURNAL_FILE).records))

    def test_resume_passes_restore_audit(self, tmp_path, monkeypatch):
        """REPRO_AUDIT=1 runs assert_restored + per-round audits on the
        resumed service (the chaos-grid configuration)."""
        baseline = run_baseline(tmp_path)
        state = tmp_path / "crashed"
        crash_at(monkeypatch, "post-round", 3)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.digest == baseline.digest
        assert resumed.audits > 0

    def test_lmtf_scheduler_state_round_trips(self, tmp_path, monkeypatch):
        kwargs = {"scheduler": LMTFScheduler(alpha=2, seed=5)}
        baseline = run_lmtf_baseline(tmp_path)
        state = tmp_path / "crashed"
        crash_at(monkeypatch, "post-round", 3)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(CrashInjected):
            build_service(state, **kwargs).serve()
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(
            state, resume=True,
            scheduler=LMTFScheduler(alpha=2, seed=5)).serve()
        assert resumed.digest == baseline.digest


def run_lmtf_baseline(tmp_path):
    set_flow_id_state(0)
    set_event_id_state(0)
    return build_service(tmp_path / "baseline",
                         scheduler=LMTFScheduler(alpha=2, seed=5)).serve()


class TestSignalStop:
    def test_signal_stop_writes_resumable_state(self, tmp_path):
        """Satellite: SIGTERM-shaped stop = checkpoint + flushed journal
        before the drain; the state dir left behind must be resumable."""
        from repro.sim.hooks import PostRound

        state = tmp_path / "state"
        service = build_service(state, max_events=None)
        rounds = {"n": 0}

        def stopper(_hook):
            rounds["n"] += 1
            if rounds["n"] == 3:
                service.request_stop("signal")

        service._sim.hooks.subscribe(PostRound, stopper)
        report = service.serve()
        assert report.stopped == "signal"
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"  # drain completed cleanly
        # Journal is complete and consistent with the report.
        scan = scan_journal(state / JOURNAL_FILE)
        ingests = [r for r in scan.records if r["kind"] == "ingest"]
        assert len(ingests) == report.ingested
        # And the dir resumes (a drained run resumes to an immediate,
        # digest-preserving no-op).
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True, max_events=None).serve()
        assert resumed.digest == report.digest
        assert resumed.stopped == "signal"

    def test_stop_checkpoint_written_mid_drain(self, tmp_path, monkeypatch):
        """A crash *after* the signal stop but before the drain finishes
        resumes from the stop checkpoint and completes the drain."""
        from repro.sim.hooks import PostRound

        baseline = run_baseline(tmp_path)
        state = tmp_path / "state"
        # Round 4 settles before the next snapshot tick, so the "stop"
        # checkpoint written right after round 3's signal is still the
        # one on disk when the crash lands.
        crash_at(monkeypatch, "post-round", 4)
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(state)
        rounds = {"n": 0}

        def stopper(_hook):
            rounds["n"] += 1
            if rounds["n"] == 3:
                service.request_stop("signal")

        service._sim.hooks.subscribe(PostRound, stopper)
        with pytest.raises(CrashInjected):
            service.serve()
        assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "stop"
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.stopped == "signal"
        # The stopped run ingested a prefix of the baseline's events, so
        # its digest differs — but the resumed drain must terminate every
        # ingested event and satisfy the drain audit (serve asserts it).
        assert resumed.completed + resumed.dropped == resumed.ingested


class TestTampering:
    def crash_state(self, tmp_path, monkeypatch, label="post-round", n=3):
        state = tmp_path / "crashed"
        crash_at(monkeypatch, label, n)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        return state

    def test_truncated_journal_below_checkpoint_rejected(self, tmp_path,
                                                         monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch, "post-round", 4)
        journal = state / JOURNAL_FILE
        scan = scan_journal(journal)
        # Chop whole frames until we are below the checkpoint's offset.
        offset = load_checkpoint(state / CHECKPOINT_FILE)["journal"]["offset"]
        assert scan.valid_size >= offset
        journal.write_bytes(journal.read_bytes()[:offset - 1])
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="truncated below"):
            build_service(state, resume=True).serve()

    def test_corrupted_journal_frame_rejected(self, tmp_path, monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch)
        journal = state / JOURNAL_FILE
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0xFF
        journal.write_bytes(bytes(data))
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            build_service(state, resume=True).serve()

    def test_stale_fingerprint_rejected(self, tmp_path, monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["service"]["ingested"] += 1  # tamper without re-signing
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="fingerprint"):
            build_service(state, resume=True).serve()

    def test_unknown_version_rejected(self, tmp_path, monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="version"):
            build_service(state, resume=True).serve()

    def test_scheduler_mismatch_rejected(self, tmp_path, monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="scheduler"):
            build_service(state, resume=True,
                          scheduler=LMTFScheduler(alpha=2, seed=5)).serve()

    def test_compile_config_mismatch_rejected(self, tmp_path, monkeypatch):
        """A checkpoint written under atomic compilation refuses to resume
        staged: the schedule would diverge from the journaled prefix."""
        state = self.crash_state(tmp_path, monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="compile config"):
            build_service(state, resume=True,
                          compile_mode="staged").serve()


class TestStateDirGuards:
    def test_resume_without_state_raises_actionable_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="--resume"):
            build_service(tmp_path / "empty", resume=True).serve()

    def test_fresh_start_refuses_existing_run(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="already holds a run"):
            build_service(state).serve()

    def test_discard_state_enables_fresh_start(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        removed = discard_state(state)
        assert CHECKPOINT_FILE in removed and JOURNAL_FILE in removed
        set_flow_id_state(0)
        set_event_id_state(0)
        report = build_service(state).serve()
        assert report.restarts == 0

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            ServiceConfig(resume=True)
        # state_dir alone satisfies the snapshot_every requirement.
        ServiceConfig(snapshot_every=5.0, state_dir=tmp_path)


class TestCheckpointPayload:
    def test_checkpoint_is_versioned_and_fingerprinted(self, tmp_path,
                                                       monkeypatch):
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "snapshot-tick"
        for key in ("engine", "pipeline", "lifecycle", "metrics", "network",
                    "sched", "sim_rng", "counters", "ids", "journal",
                    "service", "fingerprint"):
            assert key in checkpoint

    def test_completed_run_leaves_final_checkpoint(self, tmp_path):
        report = run_baseline(tmp_path)
        checkpoint = load_checkpoint(tmp_path / "baseline"
                                     / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"
        assert checkpoint["service"]["digest"] == report.digest


def reference_checkpoint_text(payload, sim):
    """The checkpoint file the slow, obvious way: ``asdict`` records and
    round logs, ``payload_fingerprint`` over the whole payload, then a
    second ``json.dumps`` for the file."""
    reference = dict(payload)
    reference["metrics"] = {
        **payload["metrics"],
        "records": [asdict(r)
                    for r in sim.metrics_collector.records.values()]}
    reference["pipeline"] = {
        **payload["pipeline"],
        "rounds": [asdict(r) for r in sim.pipeline.rounds]}
    reference["fingerprint"] = payload_fingerprint(
        {k: v for k, v in reference.items() if k != "fingerprint"})
    return json.dumps(reference, sort_keys=True) + "\n"


class TestCheckpointEncoding:
    def test_encoding_matches_sorted_json_dump(self):
        payload = {
            "zeta": {"nested": {3: "three", 10: [1, 2.5], -1: None}},
            "alpha": ["héllo", "日本", "\u2603", "tab\tquote\""],
            "floats": [-0.0, 1e-300, float("nan"), float("inf"), 0.1],
            "empty": [],
            "nothing": None,
            "ümlaut": {"": {}},
            "fingerprinted": True,
        }
        text = encode_checkpoint(payload)
        fingerprint = payload_fingerprint(payload)
        assert text == json.dumps({**payload, "fingerprint": fingerprint},
                                  sort_keys=True)
        decoded = json.loads(text)
        assert decoded["fingerprint"] == fingerprint
        assert math.isnan(decoded["floats"][2])
        assert math.copysign(1.0, decoded["floats"][0]) == -1.0

    @pytest.mark.parametrize("payload", [{}, {"a": 1}, {"zz": 1},
                                         {"fingerprinz": 0, "f": 1}])
    def test_fingerprint_lands_in_sorted_position(self, payload):
        text = encode_checkpoint(payload)
        assert text == json.dumps(
            {**payload, "fingerprint": payload_fingerprint(payload)},
            sort_keys=True)


@pytest.mark.parametrize("scheduler", ["plmtf", "l-lmtf"])
def test_checkpoint_bytes_match_reference_encoding(tmp_path, monkeypatch,
                                                scheduler):
    """Every checkpoint a staged, audited, backpressured serve writes is
    byte-identical to the deep-copy, double-encoding reference."""
    state = tmp_path / "state"
    args = build_serve_parser().parse_args([
        "--events", "30", "--rate", "1.0", "--scheduler", scheduler,
        "--k", "4", "--min-flows", "2", "--max-flows", "6",
        "--queue-cap", "3", "--resume-depth", "1",
        "--compile-mode", "staged", "--snapshot-every", "5",
        "--stats-every", "0", "--state-dir", str(state),
        "--snapshot-dir", str(tmp_path / "snapshots")])
    _, service = build_cli_service(args)
    sim = service._sim
    expected: list[str] = []
    origins: list[str] = []

    real_encode = snapshot.encode_checkpoint

    def encode_and_reference(payload):
        expected.append(reference_checkpoint_text(payload, sim))
        return real_encode(payload)

    real_write = service_mod.atomic_write_text

    def write_and_check(path, text, encoding="utf-8"):
        real_write(path, text, encoding)
        if Path(path).name == CHECKPOINT_FILE:
            if text != expected[-1]:
                # Report the first difference; pytest's own diff of two
                # long one-line documents would take minutes.
                at = len(os.path.commonprefix([text, expected[-1]]))
                window = slice(max(at - 40, 0), at + 40)
                pytest.fail(f"checkpoint {len(origins)} differs at char "
                            f"{at}: {text[window]!r} vs "
                            f"{expected[-1][window]!r}")
            origins.append(load_checkpoint(path)["origin"])

    monkeypatch.setattr(snapshot, "encode_checkpoint", encode_and_reference)
    monkeypatch.setattr(service_mod, "atomic_write_text", write_and_check)
    report = service.serve()

    assert origins.count("snapshot-tick") >= 5
    assert origins[-1] == "final"
    assert len(origins) == len(expected)
    assert report.backpressure_pauses > 0
    assert report.audits > 0
    assert report.completed + report.dropped == 30
