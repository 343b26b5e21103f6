"""Sharded DiagnosisService: routing, parity, hot swap, shard-death chaos.

The two contracts that matter:

* **routing must not change predictions** — sharded diagnoses are
  bit-identical to the single-engine path for the same model version,
  at any shard count;
* **a dying shard loses nothing** — its pending futures fail with typed
  errors and its traffic reroutes to the surviving shards.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.serving.escalation import EscalationQueue, process_one_retrain
from repro.serving.jobs import RETRAIN_KIND, JobQueue, JobState
from repro.serving.registry import ModelRegistry
from repro.serving.reliability import EngineClosedError, ServingError
from repro.serving.service import DiagnosisService, ShardRouter


@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained):
    reg = ModelRegistry(tmp_path_factory.mktemp("fleet-registry"))
    reg.publish(trained, tag="fleet-base")
    return reg


class TestShardRouter:
    def test_routing_is_deterministic_and_total(self):
        router = ShardRouter([0, 1, 2, 3])
        first = {node: router.route(node) for node in range(200)}
        again = {node: router.route(node) for node in range(200)}
        assert first == again
        assert set(first.values()) <= {0, 1, 2, 3}

    def test_every_shard_gets_work_at_eclipse_scale(self):
        router = ShardRouter(list(range(8)))
        owners = {router.route(node) for node in range(1488)}
        assert owners == set(range(8))

    def test_down_shard_moves_only_its_keys(self):
        router = ShardRouter([0, 1, 2, 3])
        before = {node: router.route(node) for node in range(500)}
        dead = 2
        after = {node: router.route(node, down={dead}) for node in range(500)}
        for node in before:
            if before[node] != dead:
                assert after[node] == before[node]  # unaffected keys stay put
            else:
                assert after[node] != dead
        assert dead not in set(after.values())

    def test_all_down_raises(self):
        router = ShardRouter([0, 1])
        with pytest.raises(EngineClosedError):
            router.route(7, down={0, 1})

    def test_assignments_groups_in_order(self):
        router = ShardRouter([0, 1])
        groups = router.assignments(list(range(20)))
        flat = sorted(k for keys in groups.values() for k in keys)
        assert flat == list(range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter([])
        with pytest.raises(ValueError):
            ShardRouter([0], vnodes=0)


class TestFleetParity:
    """Acceptance: identical diagnoses across shard counts ∈ {1, 2, 4}.

    Every shard scores through one shared framework, so this also pins
    that concurrent reads of that framework are safe."""

    def test_fleet_matches_single_engine_bit_for_bit(self, registry, corpus):
        # distinct node ids, so every shard of every arm gets work
        runs = [replace(r, node_id=i) for i, r in enumerate(corpus["holdout"])]
        with DiagnosisService(registry, cache_size=0) as single:
            reference = single.diagnose_many(runs)
        for n_shards in (1, 2, 4):
            service = DiagnosisService(
                registry, n_shards=n_shards, cache_size=0
            )
            with service:
                via_submit = [f.result(timeout=30.0) for f in
                              [service.submit(r) for r in runs]]
                via_bulk = service.diagnose_many(runs)
                assert {service.shard_for(r) for r in runs} == set(
                    range(n_shards)
                )
            for got in (via_submit, via_bulk):
                assert [d.label for d in got] == [d.label for d in reference]
                # confidences must be *identical*, not merely close
                assert [d.confidence for d in got] == [
                    d.confidence for d in reference
                ], f"confidence drift at n_shards={n_shards}"

    def test_same_node_always_lands_on_same_shard(self, registry, corpus):
        service = DiagnosisService(registry, n_shards=4)
        run = corpus["holdout"][0]
        shards = {service.shard_for(run) for _ in range(10)}
        assert len(shards) == 1


class TestFleetLifecycle:
    def test_health_and_stats_aggregate_across_shards(self, registry, corpus):
        service = DiagnosisService(registry, n_shards=3, cache_size=0)
        with service:
            service.diagnose_many(corpus["holdout"])
            health = service.health()
            snap = service.stats.snapshot()
        assert health["n_shards"] == 3
        assert health["live_shards"] == [0, 1, 2]
        assert health["down_shards"] == []
        assert health["dispatcher_alive"] is True
        assert health["reroutes"] == health["shard_deaths"] == 0
        # every engine records into the service's one stats object
        assert snap["requests"] == len(corpus["holdout"])
        scored = sum(size * n for size, n in snap["batch_size_histogram"].items())
        assert scored == len(corpus["holdout"])

    def test_fleet_wide_hot_swap(self, registry, trained, corpus):
        service = DiagnosisService(registry, n_shards=2, cache_size=0)
        with service:
            v_old = service.version.version_id
            assert service.refresh() is False  # pointer unmoved
            new = registry.publish(trained, tag="swap-target")
            assert service.refresh() is True
            assert service.version.version_id == new.version_id
            assert service.version.version_id != v_old
            # every shard serves on the swapped-in framework
            runs = [
                replace(r, node_id=i) for i, r in enumerate(corpus["holdout"])
            ]
            assert {service.shard_for(r) for r in runs} == {0, 1}
            assert all(d.label for d in service.diagnose_many(runs))

    def test_stop_is_idempotent(self, registry):
        service = DiagnosisService(registry, n_shards=2)
        service.start()
        service.stop()
        service.stop()  # second stop must be a no-op
        assert not service.ready()

    def test_one_registry_load_per_start_and_per_swap(
        self, registry, monkeypatch
    ):
        """The shards share one framework: a 4-shard service loads it
        once at start and once per swap, never once per shard."""
        loads = []
        real_load = ModelRegistry.load

        def counting_load(self, ref="current"):
            loads.append(ref)
            return real_load(self, ref)

        monkeypatch.setattr(ModelRegistry, "load", counting_load)
        with DiagnosisService(registry, n_shards=4) as service:
            assert len(loads) == 1
            service.swap(service.version.version_id)
            assert len(loads) == 2
            service.swap(service.version.version_id)
            assert len(loads) == 3


class TestShardDeath:
    def test_dead_shard_reroutes_traffic(self, registry, corpus):
        runs = corpus["holdout"]
        service = DiagnosisService(registry, n_shards=4, cache_size=0)
        with DiagnosisService(registry, cache_size=0) as single:
            reference = single.diagnose_many(runs)
        with service:
            victim = service.shard_for(runs[0])
            # the shard's engine dies out from under the router
            service._engines[victim].close()
            assert service.probe() == [victim]
            assert victim in service.down_shards
            # every run still scores, identically, via the surviving shards
            got = [
                f.result(timeout=30.0) for f in [service.submit(r) for r in runs]
            ]
            assert [d.label for d in got] == [d.label for d in reference]
            assert [d.confidence for d in got] == [
                d.confidence for d in reference
            ]
            assert service.shard_for(runs[0]) != victim

    def test_submit_fails_over_without_probe(self, registry, corpus):
        run = corpus["holdout"][0]
        service = DiagnosisService(registry, n_shards=4, cache_size=0)
        with service:
            victim = service.shard_for(run)
            service._engines[victim].close()
            diagnosis = service.submit(run).result(timeout=30.0)  # reroutes inline
            assert diagnosis.label
            assert victim in service.down_shards
            assert service.reroutes >= 1
            assert service.health()["shard_deaths"] == 1

    def test_all_shards_down_raises_typed_error(self, registry, corpus):
        service = DiagnosisService(registry, n_shards=2)
        with service:
            for engine in list(service._engines.values()):
                engine.close()
            service.probe()
            with pytest.raises(EngineClosedError):
                service.submit(corpus["holdout"][0])
            assert not service.ready()

    def test_revive_returns_shard_to_ring(self, registry, corpus):
        run = corpus["holdout"][0]
        service = DiagnosisService(registry, n_shards=2, cache_size=0)
        with service:
            victim = service.shard_for(run)
            service.mark_down(victim)
            assert service.shard_for(run) != victim
            service.revive_shard(victim)
            assert victim not in service.down_shards
            assert service.shard_for(run) == victim
            assert service.submit(run).result(timeout=30.0).label  # serves again


class TestDurableRetrain:
    def test_escalations_flow_to_store_and_retrain_publishes(
        self, registry, corpus, tmp_path
    ):
        jobs = JobQueue(tmp_path / "jobs.db")
        service = DiagnosisService(registry, n_shards=2, jobs=jobs, cache_size=0)
        runs = corpus["pool"][:6]
        with service:
            v_before = service.version.version_id
            diagnoses = service.diagnose_many(runs)
            # discard whatever the adaptive controller escalated on its
            # own, then force-escalate exactly these runs so the durable
            # counts below are deterministic
            service.escalation.drain()
            for run, diagnosis in zip(runs, diagnoses):
                service.escalation.offer_forced(run, diagnosis)
            assert len(service.escalation) == len(runs)
            version = service.retrain_and_publish(
                lambda item: item.run.label, tag="durable-retrain"
            )
            assert version is not None
            assert service.version.version_id == version.version_id
            assert version.version_id != v_before
        # every escalation job and the retrain order are DONE; nothing stuck
        counts = jobs.counts()
        assert counts[JobState.DONE] == len(runs) + 1
        assert counts[JobState.CLAIMED] == 0
        assert counts[JobState.PENDING] == 0
        jobs.close()

    def test_crashed_annotator_redelivers_the_whole_cycle(
        self, registry, corpus, tmp_path
    ):
        jobs = JobQueue(
            tmp_path / "jobs.db", backoff_base_s=0.0, max_attempts=5
        )
        service = DiagnosisService(registry, jobs=jobs, cache_size=0)
        runs = corpus["pool"][:3]
        with service:
            diagnoses = service.diagnose_many(runs)
            service.escalation.drain()
            for run, diagnosis in zip(runs, diagnoses):
                service.escalation.offer_forced(run, diagnosis)

            def crashing_annotator(item):
                raise RuntimeError("annotator died mid-cycle")

            with pytest.raises(RuntimeError):
                service.retrain_and_publish(crashing_annotator)
            # nothing was acked: all jobs are redeliverable, none DONE
            counts = jobs.counts()
            assert counts[JobState.DONE] == 0
            assert (
                counts[JobState.PENDING] + counts[JobState.FAILED]
                == len(runs) + 1
            )
            # the retry (a healthy worker) completes the identical cycle
            done = process_one_retrain(
                jobs, registry, lambda item: item.run.label
            )
            assert done is not None
            _, version = done
            assert version is not None
            counts = jobs.counts()
            assert counts[JobState.DONE] == len(runs) + 1
        jobs.close()

    def test_retrain_without_jobs_uses_in_memory_path(self, registry, corpus):
        service = DiagnosisService(
            registry, n_shards=2, escalation=EscalationQueue(), cache_size=0
        )
        runs = corpus["pool"][:4]
        with service:
            for run, diagnosis in zip(runs, service.diagnose_many(runs)):
                service.escalation.offer_forced(run, diagnosis)
            version = service.retrain_and_publish(lambda item: item.run.label)
            assert version is not None
            assert service.version.version_id == version.version_id

    def test_process_one_retrain_with_no_order_is_noop(self, registry, tmp_path):
        jobs = JobQueue(tmp_path / "jobs.db")
        assert process_one_retrain(jobs, registry, lambda i: "x") is None
        jobs.close()

    def test_retrain_order_with_no_escalations_acks_as_noop(
        self, registry, tmp_path
    ):
        jobs = JobQueue(tmp_path / "jobs.db")
        jobs.enqueue(RETRAIN_KIND, {"tag": None})
        assert process_one_retrain(jobs, registry, lambda i: "x") is None
        assert jobs.counts()[JobState.DONE] == 1
        jobs.close()


class TestChaosUnderLoad:
    def test_shard_killed_mid_stream_loses_no_future(self, registry, corpus):
        """Kill a shard while requests are in flight: every future resolves
        (diagnosis or typed ServingError) — the engine invariant holds
        across shards."""
        runs = corpus["holdout"] * 3
        service = DiagnosisService(
            registry, n_shards=4, cache_size=0, max_linger_s=0.02
        )
        with service:
            victim = service.shard_for(runs[0])
            futures = []
            killer = threading.Thread(
                target=lambda: service.mark_down(victim)
            )
            for i, run in enumerate(runs):
                futures.append(service.submit(run))
                if i == len(runs) // 3:
                    killer.start()
            killer.join(10.0)
            resolved_ok, resolved_err = 0, 0
            for f in futures:
                try:
                    assert f.result(timeout=10.0).label
                    resolved_ok += 1
                except ServingError:
                    resolved_err += 1
            assert resolved_ok + resolved_err == len(futures)
            assert resolved_ok > 0  # the survivors kept serving


    def test_concurrent_submitters_share_one_framework_safely(
        self, registry, corpus
    ):
        """More shards and submitter threads than cores, with a short
        switch interval: every answer matches the single-engine reference
        and no request or cache hit is lost from the shared counters."""
        import sys

        runs = [replace(r, node_id=i) for i, r in enumerate(corpus["holdout"])]
        with DiagnosisService(registry, cache_size=0) as single:
            reference = [(d.label, d.confidence) for d in single.diagnose_many(runs)]
        service = DiagnosisService(registry, n_shards=4, max_linger_s=0.001)
        n_threads, rounds = 6, 3
        answers: list = [None] * n_threads
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                def submitter(k: int) -> None:
                    futures = [service.submit(r) for _ in range(rounds) for r in runs]
                    answers[k] = [
                        (d.label, d.confidence)
                        for d in (f.result(timeout=30.0) for f in futures)
                    ]

                threads = [
                    threading.Thread(target=submitter, args=(k,))
                    for k in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                assert not any(t.is_alive() for t in threads)
                snap = service.stats.snapshot()
        finally:
            sys.setswitchinterval(old_interval)
        for got in answers:
            assert got == reference * rounds
        total = n_threads * rounds * len(runs)
        assert snap["requests"] == total
        scored = sum(size * n for size, n in snap["batch_size_histogram"].items())
        assert scored + snap["cache_hits"] == total


class TestBoundedFleetDiagnose:
    def test_stuck_future_raises_deadline_exceeded(
        self, registry, corpus, monkeypatch
    ):
        from concurrent.futures import Future

        from repro.serving.reliability import DeadlineExceeded

        service = DiagnosisService(registry, n_shards=2, cache_size=0)
        stuck: Future = Future()
        monkeypatch.setattr(
            service, "submit", lambda run, deadline_s=None: stuck
        )
        with pytest.raises(DeadlineExceeded, match="did not arrive"):
            service.diagnose(corpus["pool"][0], timeout_s=0.05)
        assert stuck.cancelled()

    def test_diagnose_with_explicit_timeout_succeeds(self, registry, corpus):
        with DiagnosisService(registry, n_shards=2, cache_size=0) as service:
            diagnosis = service.diagnose(corpus["pool"][0], timeout_s=10.0)
        assert diagnosis.label
