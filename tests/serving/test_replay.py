"""Replay harness: schedule determinism and the exhaustive-census invariant."""

from __future__ import annotations

import pytest

from repro.core.persistence import run_fingerprint
from repro.serving.registry import ModelRegistry
from repro.serving.replay import (
    ECLIPSE_NODES,
    ReplayStream,
    fault_wrapper_factory,
    replay,
)
from repro.serving.service import DiagnosisService
from repro.testing.faults import FaultPlan


@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained):
    reg = ModelRegistry(tmp_path_factory.mktemp("replay-registry"))
    reg.publish(trained, tag="replay-base")
    return reg


class TestReplayStream:
    def test_schedule_is_deterministic(self, corpus):
        templates = corpus["holdout"][:4]
        a = ReplayStream(templates, n_nodes=50, ticks=3, seed=7)
        b = ReplayStream(templates, n_nodes=50, ticks=3, seed=7)
        ev_a, ev_b = list(a.events()), list(b.events())
        assert len(ev_a) == len(a) == 150
        assert [(e.tick, e.node_id) for e in ev_a] == [
            (e.tick, e.node_id) for e in ev_b
        ]
        # runs are byte-identical, not merely equal-shaped
        assert [run_fingerprint(e.run) for e in ev_a] == [
            run_fingerprint(e.run) for e in ev_b
        ]

    def test_different_seed_different_schedule(self, corpus):
        templates = corpus["holdout"][:4]
        a = ReplayStream(templates, n_nodes=50, ticks=2, seed=0)
        b = ReplayStream(templates, n_nodes=50, ticks=2, seed=1)
        assert [(e.tick, e.node_id) for e in a.events()] != [
            (e.tick, e.node_id) for e in b.events()
        ]

    def test_events_carry_patched_node_ids(self, corpus):
        stream = ReplayStream(corpus["holdout"][:2], n_nodes=10, ticks=1)
        for event in stream.events():
            assert event.run.node_id == event.node_id
            assert 0 <= event.node_id < 10

    def test_emit_per_tick_subsamples_without_repeats(self, corpus):
        stream = ReplayStream(
            corpus["holdout"][:2], n_nodes=30, ticks=2, emit_per_tick=5
        )
        events = list(stream.events())
        assert len(events) == len(stream) == 10
        for tick in (0, 1):
            nodes = [e.node_id for e in events if e.tick == tick]
            assert len(nodes) == len(set(nodes)) == 5

    def test_defaults_to_eclipse_scale(self, corpus):
        stream = ReplayStream(corpus["holdout"][:1], ticks=1)
        assert stream.n_nodes == ECLIPSE_NODES
        assert len(stream) == ECLIPSE_NODES

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            ReplayStream([])
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], n_nodes=0)
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], ticks=0)
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], n_nodes=5, emit_per_tick=6)


class TestReplayDrive:
    def test_census_is_exhaustive_on_clean_service(self, registry, corpus):
        stream = ReplayStream(
            corpus["holdout"][:3], n_nodes=40, ticks=2, seed=3
        )
        ticks_seen = []
        with DiagnosisService(registry, cache_size=0) as service:
            report = replay(
                service,
                stream,
                on_tick=ticks_seen.append,
                keep_diagnoses=True,
            )
        assert report.n_events == len(stream)
        assert report.n_ok + report.n_failed == report.n_events
        assert report.n_failed == 0 and not report.failures
        assert len(report.diagnoses) == report.n_ok
        assert ticks_seen == [0, 1]
        assert report.sustained_rps > 0
        assert report.p99_ms >= report.p50_ms > 0
        json_doc = report.as_json()
        assert "diagnoses" not in json_doc
        assert json_doc["n_ok"] == report.n_ok

    def test_replay_is_identical_across_fleet_and_serial(self, registry, corpus):
        """The bench's parity precondition: every shard count sees the same
        stream and produces bitwise-identical diagnoses, label and
        confidence, for n_shards in {1, 2, 4}."""
        templates = corpus["holdout"][:3]
        make = lambda: ReplayStream(templates, n_nodes=60, ticks=2, seed=5)
        reports = {}
        for n_shards in (1, 2, 4):
            with DiagnosisService(
                registry, n_shards=n_shards, cache_size=0
            ) as service:
                reports[n_shards] = replay(service, make(), keep_diagnoses=True)
        ref = reports[1]
        assert ref.n_failed == 0 and ref.n_ok == len(make())
        for n_shards, got in reports.items():
            assert got.n_failed == 0, n_shards
            assert [d.label for d in got.diagnoses] == [
                d.label for d in ref.diagnoses
            ], n_shards
            assert [d.confidence for d in got.diagnoses] == [
                d.confidence for d in ref.diagnoses
            ], n_shards

    def test_faulted_shard_census_and_probe_reroute(self, registry, corpus):
        """A shard crashing mid-replay shows up as typed failures and/or
        reroutes — never as silently missing events."""
        plans = {0: FaultPlan.script(["ok", "ok", "raise:200"])}
        factory = fault_wrapper_factory(plans)
        service = DiagnosisService(
            registry,
            n_shards=2,
            cache_size=0,
            predict_wrapper_factory=factory,
        )
        stream = ReplayStream(
            corpus["holdout"][:3], n_nodes=80, ticks=3, seed=9
        )
        with service:
            report = replay(service, stream, probe_between_ticks=True)
        assert 0 in factory.injectors  # the plan was actually installed
        assert report.n_ok + report.n_failed == report.n_events
        assert report.n_ok > 0  # the clean shard kept serving
