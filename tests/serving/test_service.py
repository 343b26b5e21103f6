"""Tests for the DiagnosisService façade: cache, hot swap, refresh."""

import copy

import pytest

from repro.serving.registry import ModelRegistry
from repro.serving.service import DiagnosisService


@pytest.fixture()
def registry(trained, tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(trained, tag="seed")
    return registry


class TestServing:
    def test_matches_offline_diagnose(self, registry, trained, corpus):
        pool = corpus["pool"][:6]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            served = [service.diagnose(run) for run in pool]
        offline = trained.diagnose(pool)
        assert [d.label for d in served] == [d.label for d in offline]
        assert [d.confidence for d in served] == pytest.approx(
            [d.confidence for d in offline]
        )

    def test_diagnose_many_matches_submit(self, registry, corpus):
        pool = corpus["pool"][:6]
        with DiagnosisService(registry, cache_size=0) as service:
            bulk = service.diagnose_many(pool)
            single = [service.submit(run).result(timeout=5.0) for run in pool]
        assert [d.label for d in bulk] == [d.label for d in single]

    def test_unstarted_service_rejects_requests(self, registry, corpus):
        service = DiagnosisService(registry)
        with pytest.raises(RuntimeError, match="not started"):
            service.diagnose(corpus["pool"][0])
        with pytest.raises(RuntimeError, match="not started"):
            _ = service.version


class TestResultCache:
    def test_repeat_run_hits_cache(self, registry, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            first = service.diagnose(run)
            again = service.diagnose(run)
        assert again == first
        snap = service.stats.snapshot()
        assert snap["cache_hits"] == 1
        # the second request never reached the scorer
        assert sum(
            size * n for size, n in snap["batch_size_histogram"].items()
        ) == 1

    def test_cache_respects_capacity(self, registry, corpus):
        pool = corpus["pool"][:4]
        with DiagnosisService(registry, cache_size=2) as service:
            service.diagnose_many(pool)
            assert len(service._cache) == 2

    def test_cache_disabled(self, registry, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, cache_size=0) as service:
            service.diagnose(run)
            service.diagnose(run)
        assert service.stats.snapshot()["cache_hits"] == 0

    def test_stats_parity_between_submit_and_bulk_paths(self, registry, corpus):
        """Regression: request/cache-hit accounting must be path-independent."""
        pool = corpus["pool"][:5]
        repeats = pool[:2]
        with DiagnosisService(registry, max_linger_s=0.01) as via_submit:
            for run in pool:
                via_submit.submit(run).result(timeout=5.0)
            for run in repeats:  # now cached
                via_submit.submit(run).result(timeout=5.0)
            snap_submit = via_submit.stats.snapshot()
        with DiagnosisService(registry, max_linger_s=0.01) as via_bulk:
            via_bulk.diagnose_many(pool)
            via_bulk.diagnose_many(repeats)
            snap_bulk = via_bulk.stats.snapshot()
        expected = len(pool) + len(repeats)
        assert snap_submit["requests"] == snap_bulk["requests"] == expected
        assert (
            snap_submit["cache_hits"] == snap_bulk["cache_hits"] == len(repeats)
        )


class TestHotSwap:
    def test_swap_mid_stream_keeps_queued_requests(self, registry, trained, corpus):
        grown = copy.deepcopy(trained)
        extra = corpus["pool"][:4]
        grown.absorb(extra, [r.label for r in extra])
        v2 = registry.publish(grown, activate=False)

        pool = corpus["pool"] + corpus["holdout"]
        # a generous linger keeps requests queued while we swap underneath
        with DiagnosisService(
            registry, max_batch=4, max_linger_s=0.25, cache_size=0
        ) as service:
            assert service.version.version_id == "v0001"
            futures = [service.submit(run) for run in pool]
            swapped = service.swap(v2.version_id)
            results = [f.result(timeout=10.0) for f in futures]
        assert swapped.version_id == "v0002"
        assert service.version.version_id == "v0002"
        assert len(results) == len(pool)
        assert all(r.label for r in results)
        assert service.stats.snapshot()["model_swaps"] == 1

    def test_refresh_follows_registry_pointer(self, registry, trained, corpus):
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            assert service.refresh() is False  # pointer unchanged
            registry.publish(copy.deepcopy(trained), tag="next")
            assert service.refresh() is True
            assert service.version.version_id == "v0002"
            # still serves after the swap
            assert service.diagnose(corpus["pool"][0]).label

    def test_swap_clears_cache(self, registry, trained, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            service.diagnose(run)
            registry.publish(copy.deepcopy(trained))
            service.refresh()
            assert len(service._cache) == 0

    def test_rollback_then_refresh_restores_old_version(
        self, registry, trained, corpus
    ):
        registry.publish(copy.deepcopy(trained))
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            assert service.version.version_id == "v0002"
            registry.rollback()
            assert service.refresh() is True
            assert service.version.version_id == "v0001"
            assert service.diagnose(corpus["pool"][0]).label


class TestShutdownIdempotency:
    def test_stop_twice_is_a_noop(self, registry):
        service = DiagnosisService(registry)
        service.start()
        service.stop()
        service.stop()  # must not raise
        assert not service.ready()

    def test_stop_without_start_is_a_noop(self, registry):
        DiagnosisService(registry).stop()

    def test_concurrent_stop_callers_all_return(self, registry, corpus):
        import threading

        service = DiagnosisService(registry)
        service.start()
        service.diagnose_many(corpus["holdout"][:4])
        threads = [threading.Thread(target=service.stop) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert not service.ready()

    def test_restart_after_stop_serves_again(self, registry, corpus):
        service = DiagnosisService(registry)
        service.start()
        service.stop()
        service.start()
        try:
            assert service.diagnose(corpus["holdout"][0]).label
        finally:
            service.stop()


class TestEscalationVisibility:
    def test_health_surfaces_escalation_pressure_counters(self, registry):
        from repro.serving.escalation import EscalationQueue

        service = DiagnosisService(
            registry, escalation=EscalationQueue(maxlen=4)
        )
        with service:
            health = service.health()
        assert health["escalation_dropped"] == 0
        assert health["escalation_refused"] == 0
        assert health["escalation_forced"] == 0

    def test_stats_surface_forced_and_refused_escalations(self, registry):
        snap = DiagnosisService(registry).stats.snapshot()
        assert snap["escalations_forced"] == 0
        assert snap["escalations_refused"] == 0


class TestBoundedDiagnose:
    def test_stuck_future_raises_deadline_exceeded(
        self, registry, corpus, monkeypatch
    ):
        from concurrent.futures import Future

        from repro.serving.reliability import DeadlineExceeded

        service = DiagnosisService(registry)
        stuck: Future = Future()
        monkeypatch.setattr(
            service, "submit", lambda run, deadline_s=None: stuck
        )
        with pytest.raises(DeadlineExceeded, match="did not arrive"):
            service.diagnose(corpus["pool"][0], timeout_s=0.05)
        # the abandoned request is cancelled, not leaked
        assert stuck.cancelled()

    def test_timeout_derives_from_configured_deadline(self, registry):
        from repro.serving.reliability import SYNC_WAIT_GRACE_S, sync_wait_s

        service = DiagnosisService(registry, default_deadline_s=2.0)
        derived = sync_wait_s(
            None, service._engine_opts.get("default_deadline_s")
        )
        assert derived == 2.0 + SYNC_WAIT_GRACE_S

    def test_normal_diagnose_still_succeeds(self, registry, corpus):
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            diagnosis = service.diagnose(corpus["pool"][0], timeout_s=10.0)
        assert diagnosis.label


class TestRetrainIsolation:
    """Retrain absorbs into a private registry copy, never the live model."""

    @staticmethod
    def _escalate_everything():
        from repro.active.stream import ThresholdController
        from repro.serving.escalation import EscalationQueue

        return EscalationQueue(
            ThresholdController(threshold=0.0, target_rate=None)
        )

    def test_adopt_false_leaves_live_framework_untouched(
        self, registry, corpus
    ):
        runs = corpus["pool"][:4]
        service = DiagnosisService(
            registry, cache_size=0, escalation=self._escalate_everything()
        )
        with service:
            before = service.diagnose_many(runs)
            live = service._framework
            live_model, n_labeled = live.model, len(live._y_seed)
            version = service.retrain_and_publish(
                lambda item: item.run.label, adopt=False
            )
            assert version is not None and version.version_id == "v0002"
            assert service.version.version_id == "v0001"
            assert service._framework is live
            assert live.model is live_model
            assert len(live._y_seed) == n_labeled
            after = service.diagnose_many(runs)
        assert [(d.label, d.confidence) for d in after] == [
            (d.label, d.confidence) for d in before
        ]

    def test_reads_resolve_while_cold_retrain_runs(
        self, registry, corpus, monkeypatch
    ):
        """Regression: a cold refit used to swap an unfitted forest into
        the serving framework, so reads landing mid-fit failed with
        ``AttributeError``. Hold the refit open and serve through it."""
        import threading

        from repro.mlcore.forest import RandomForestClassifier

        fitting, release = threading.Event(), threading.Event()
        real_fit = RandomForestClassifier.fit

        def held_fit(model, X, y):
            if threading.current_thread().name == "retrainer":
                fitting.set()
                release.wait(10.0)
            return real_fit(model, X, y)

        monkeypatch.setattr(RandomForestClassifier, "fit", held_fit)
        service = DiagnosisService(
            registry, cache_size=0, escalation=self._escalate_everything()
        )
        published = []
        with service:
            service.diagnose_many(corpus["pool"][:4])
            retrainer = threading.Thread(
                target=lambda: published.append(
                    service.retrain_and_publish(
                        lambda item: item.run.label, warm=False
                    )
                ),
                name="retrainer",
            )
            retrainer.start()
            try:
                assert fitting.wait(10.0), "retrain never reached its refit"
                served = [
                    service.diagnose(run, timeout_s=10.0)
                    for run in corpus["holdout"][:4]
                ]
            finally:
                release.set()
                retrainer.join(30.0)
            assert not retrainer.is_alive()
        assert all(d.label for d in served)
        assert published and published[0] is not None
        assert service.version.version_id == published[0].version_id
