"""Chaos suite for the serving reliability layer.

Every scenario drives the deterministic fault harness
(:mod:`repro.testing.faults`) against the engine/service and asserts the
core invariant: a ``predict_fn`` that truncates, raises, or stalls never
leaves a submitted future unresolved — every future completes with a
result, a typed error, or a flagged degraded fallback. All waits are
bounded (``result(timeout=...)`` plus pytest-timeout in CI), so a
reintroduced future-hang fails in seconds.
"""

import threading
import time

import pytest

from repro.core.framework import Diagnosis
from repro.serving import (
    FALLBACK_LABEL,
    CircuitBreaker,
    DeadlineExceeded,
    DiagnosisService,
    DispatcherRestarted,
    DispatcherWatchdog,
    EngineClosedError,
    EscalationQueue,
    MicroBatcher,
    ModelRegistry,
    RetryPolicy,
    is_fallback,
)
from repro.testing.faults import FaultInjector, FaultPlan, InjectedFault

pytestmark = pytest.mark.timeout(60)


def ok_predict(runs):
    return [Diagnosis(label="healthy", confidence=0.9) for _ in runs]


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        a = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.2, seed=7)
        b = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.2, seed=7)
        delays_a = [a.delay(i) for i in range(6)]
        delays_b = [b.delay(i) for i in range(6)]
        assert delays_a == delays_b  # same seed, same schedule
        assert delays_a[1] > delays_a[0]  # exponential growth
        assert max(delays_a) <= 0.5 * 1.2  # capped (plus jitter headroom)
        other = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.2, seed=8)
        assert [other.delay(i) for i in range(6)] != delays_a

    def test_serving_errors_are_not_retryable_by_default(self):
        policy = RetryPolicy()
        assert policy.retryable(ValueError("transient"))
        assert not policy.retryable(DeadlineExceeded("expired"))
        assert not policy.retryable(KeyboardInterrupt())

    @pytest.mark.parametrize(
        "kwargs", [{"max_retries": -1}, {"base_delay_s": -0.1}, {"jitter": 2.0}]
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def test_state_machine_with_fake_clock(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout_s=10.0, time_fn=lambda: clock[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # open: deny until the timeout
        clock[0] = 10.5
        assert breaker.allow()  # first caller becomes the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_failure()  # probe failed: reopen
        assert breaker.state == "open"
        clock[0] = 21.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="recovery_timeout_s"):
            CircuitBreaker(recovery_timeout_s=-1.0)


class TestFaultHarness:
    def test_script_plan_replays_and_expands_repeats(self):
        plan = FaultPlan.script(["raise:2", "stall:0.01", "truncate"])
        actions = [plan.next_action() for _ in range(6)]
        assert actions == ["raise", "raise", "stall:0.01", "truncate", "ok", "ok"]

    def test_random_plan_is_seeded(self):
        plan_a = FaultPlan.random(3, p_fault=0.5)
        plan_b = FaultPlan.random(3, p_fault=0.5)
        seq_a = [plan_a.next_action() for _ in range(20)]
        seq_b = [plan_b.next_action() for _ in range(20)]
        assert seq_a == seq_b
        assert "raise" in seq_a and "ok" in seq_a

    def test_injector_logs_and_truncates(self):
        inj = FaultInjector(FaultPlan.script(["truncate:1"]))
        wrapped = inj.wrap(ok_predict)
        assert len(wrapped([1, 2, 3])) == 2
        assert len(wrapped([1, 2, 3])) == 3
        assert inj.log[0] == "truncate"

    def test_injector_nan_flags_diagnoses(self):
        inj = FaultInjector(FaultPlan.script(["nan"]))
        out = inj.wrap(ok_predict)([1, 2])
        assert all(d.confidence != d.confidence for d in out)  # NaN


# ----------------------------------------------------------------------
class TestDeadlines:
    def test_stalled_batch_expires_queued_requests(self):
        """stall → deadline: requests stuck behind a wedged batch fail fast."""
        inj = FaultInjector(FaultPlan.script(["hang"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict), max_batch=1, max_linger_s=0.0
        )
        try:
            stuck = engine.submit(object())  # enters the hung predict
            assert inj.stalled.wait(5.0)
            doomed = engine.submit(object(), deadline_s=0.05)
            time.sleep(0.1)  # expires while the dispatcher is wedged
            inj.release.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            assert stuck.result(timeout=5.0).label == "healthy"
            snap = engine.stats.snapshot()
            assert snap["deadline_drops"] == 1
        finally:
            inj.release.set()
            engine.close()

    def test_default_deadline_applies_to_every_submit(self):
        inj = FaultInjector(FaultPlan.script(["hang"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict),
            max_batch=1,
            max_linger_s=0.0,
            default_deadline_s=0.05,
        )
        try:
            engine.submit(object())
            assert inj.stalled.wait(5.0)
            doomed = [engine.submit(object()) for _ in range(3)]
            time.sleep(0.1)
            inj.release.set()
            for future in doomed:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=5.0)
            assert engine.stats.snapshot()["deadline_drops"] == 3
        finally:
            inj.release.set()
            engine.close()


class TestRetries:
    def test_flaky_predict_retries_then_succeeds(self):
        """flaky → retry: transient faults are absorbed, not surfaced."""
        inj = FaultInjector(FaultPlan.script(["raise:2"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict),
            max_batch=4,
            max_linger_s=0.0,
            retry=RetryPolicy(max_retries=3, base_delay_s=0.001, jitter=0.0),
        )
        with engine:
            assert engine.submit(object()).result(timeout=5.0).label == "healthy"
        snap = engine.stats.snapshot()
        assert snap["retries"] == 2
        assert inj.log == ["raise", "raise", "ok"]

    def test_exhausted_retries_fail_the_batch_with_the_last_error(self):
        inj = FaultInjector(FaultPlan.script(["raise:5"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict),
            max_batch=4,
            max_linger_s=0.01,
            retry=RetryPolicy(max_retries=1, base_delay_s=0.001),
        )
        with engine:
            futures = [engine.submit(object()) for _ in range(2)]
            for future in futures:
                with pytest.raises(InjectedFault):
                    future.result(timeout=5.0)
        assert engine.stats.snapshot()["retries"] >= 1

    def test_no_policy_means_no_retry(self):
        inj = FaultInjector(FaultPlan.script(["raise"]))
        with MicroBatcher(inj.wrap(ok_predict), max_linger_s=0.0) as engine:
            with pytest.raises(InjectedFault):
                engine.submit(object()).result(timeout=5.0)
        assert engine.stats.snapshot()["retries"] == 0


class TestWatchdog:
    def test_stuck_batch_restarts_dispatcher_and_fails_inflight(self):
        """crash loop → watchdog: a wedged predict cannot wedge the engine."""
        inj = FaultInjector(FaultPlan.script(["hang"]))
        engine = MicroBatcher(inj.wrap(ok_predict), max_batch=4, max_linger_s=0.0)
        watchdog = DispatcherWatchdog(
            engine, stall_timeout_s=0.1, poll_interval_s=0.02
        ).start()
        try:
            stuck = engine.submit(object())
            assert inj.stalled.wait(5.0)
            with pytest.raises(DispatcherRestarted):
                stuck.result(timeout=5.0)
            inj.release.set()  # let the zombie thread unwind
            # the restarted generation keeps serving
            assert engine.submit(object()).result(timeout=5.0).label == "healthy"
            snap = engine.stats.snapshot()
            assert snap["watchdog_restarts"] >= 1
            assert engine.restarts >= 1
        finally:
            inj.release.set()
            watchdog.stop()
            engine.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_dispatcher_is_detected_and_restarted(self):
        engine = MicroBatcher(ok_predict, max_batch=4, max_linger_s=0.0)
        watchdog = DispatcherWatchdog(engine, stall_timeout_s=5.0)
        try:
            def crash(batch):
                raise RuntimeError("escaped bug")

            engine._run_batch = crash  # instance override: loop-level crash
            doomed = engine.submit(object())
            with pytest.raises(DispatcherRestarted):
                doomed.result(timeout=5.0)
            assert wait_until(lambda: not engine.dispatcher_alive)
            del engine._run_batch  # "deploy the fix", then recover
            assert watchdog.check() is True
            assert engine.dispatcher_alive
            assert engine.submit(object()).result(timeout=5.0).label == "healthy"
            assert watchdog.check() is False  # healthy engine: no-op
        finally:
            watchdog.stop()
            engine.close()

    def test_watchdog_ignores_closed_engines(self):
        engine = MicroBatcher(ok_predict)
        engine.close()
        assert DispatcherWatchdog(engine).check() is False

    def test_retry_backoff_does_not_trip_the_stall_watchdog(self):
        """Backoff sleeps refresh the stall clock: a legitimately retrying
        batch must not be failed as stuck just because its cumulative
        backoff exceeds the stall timeout."""
        inj = FaultInjector(FaultPlan.script(["raise"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict),
            max_batch=1,
            max_linger_s=0.0,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.5, jitter=0.0),
        )
        watchdog = DispatcherWatchdog(engine, stall_timeout_s=0.2)
        try:
            future = engine.submit(object())
            # poll through most of the 0.5s backoff window — far longer
            # than the stall timeout — and the watchdog must stay quiet
            deadline = time.monotonic() + 0.4
            while time.monotonic() < deadline:
                assert watchdog.check() is False
                time.sleep(0.02)
            assert future.result(timeout=5.0).label == "healthy"
            assert engine.restarts == 0
            assert engine.stats.snapshot()["watchdog_restarts"] == 0
        finally:
            engine.close()


class TestRestartRaces:
    def test_restart_while_coalescing_resolves_dequeued_requests(self):
        """A restart committing between queue.get and in-flight
        registration must not strand the dequeued requests: they are in
        neither the queue nor the in-flight table, so nothing else can
        ever reach them."""
        engine = MicroBatcher(ok_predict, max_batch=1, max_linger_s=0.0)
        orig_drop = engine._drop_expired
        fired = threading.Event()

        def restart_then_drop(batch):
            # simulate the race: the restart lands after the dispatcher
            # dequeued the batch but before it registered it in flight
            if not fired.is_set():
                fired.set()
                engine.restart_dispatcher("test: restart while coalescing")
            return orig_drop(batch)

        engine._drop_expired = restart_then_drop
        try:
            future = engine.submit(object())
            with pytest.raises(DispatcherRestarted):
                future.result(timeout=5.0)
            engine.flush(timeout=5.0)  # the pending ledger fully drains
            assert engine.pending == 0
            # the restarted generation keeps serving
            assert engine.submit(object()).result(timeout=5.0).label == "healthy"
        finally:
            engine.close()

    def test_superseded_dispatcher_stops_retrying(self):
        """After a restart fails the batch, the zombie thread must stop
        its retry loop instead of scoring concurrently with the new
        dispatcher against already-resolved futures."""
        inj = FaultInjector(FaultPlan.script(["raise:100"]))
        engine = MicroBatcher(
            inj.wrap(ok_predict),
            max_batch=1,
            max_linger_s=0.0,
            retry=RetryPolicy(max_retries=50, base_delay_s=0.2, jitter=0.0),
        )
        try:
            future = engine.submit(object())
            assert wait_until(lambda: len(inj.log) >= 1)  # inside backoff now
            engine.restart_dispatcher("test: supersede mid-retry")
            with pytest.raises(DispatcherRestarted):
                future.result(timeout=5.0)
            calls_at_restart = len(inj.log)
            time.sleep(0.7)  # several would-be backoff periods
            # at most one attempt already in flight when the restart landed
            assert len(inj.log) <= calls_at_restart + 1
        finally:
            engine.close()

    def test_concurrent_restarts_leave_exactly_one_dispatcher(self):
        def alive_dispatchers():
            return sum(
                1
                for t in threading.enumerate()
                if t.name.startswith("repro-microbatcher") and t.is_alive()
            )

        engine = MicroBatcher(ok_predict, max_batch=4, max_linger_s=0.0)
        try:
            assert wait_until(lambda: engine.dispatcher_alive)
            baseline = alive_dispatchers()
            n = 4
            barrier = threading.Barrier(n)

            def restart():
                barrier.wait(timeout=30.0)
                engine.restart_dispatcher("test: concurrent restart")

            threads = [threading.Thread(target=restart) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
            # superseded spawns exit on their first generation check;
            # without generation-scoped spawning every racer's thread
            # reads the final generation and all stay current forever
            assert wait_until(lambda: alive_dispatchers() <= baseline)
            assert engine.dispatcher_alive
            assert engine.restarts == n
            assert engine.submit(object()).result(timeout=5.0).label == "healthy"
        finally:
            engine.close()


class TestCloseSemantics:
    def test_close_fails_pending_futures_past_the_drain_deadline(self):
        inj = FaultInjector(FaultPlan.script(["hang"]))
        engine = MicroBatcher(inj.wrap(ok_predict), max_batch=1, max_linger_s=0.0)
        stuck = engine.submit(object())
        assert inj.stalled.wait(5.0)
        queued = [engine.submit(object()) for _ in range(3)]
        engine.close(timeout=0.2)  # drain deadline expires
        for future in queued + [stuck]:
            with pytest.raises(EngineClosedError):
                future.result(timeout=5.0)
        inj.release.set()
        with pytest.raises(EngineClosedError):
            engine.submit(object())


# ----------------------------------------------------------------------
class TestNaNConfidence:
    def test_nan_confidence_serves_but_never_escalates(self):
        inj = FaultInjector(FaultPlan.script(["nan"]))
        queue = EscalationQueue()
        with MicroBatcher(inj.wrap(ok_predict), max_linger_s=0.0) as engine:
            diagnosis = engine.submit(object()).result(timeout=5.0)
        assert diagnosis.confidence != diagnosis.confidence  # NaN survives
        # NaN uncertainty never clears the threshold, and never crashes
        assert queue.offer(object(), diagnosis) is False
        assert len(queue) == 0


class TestForcedEscalation:
    def test_offer_forced_bypasses_the_adaptive_controller(self):
        queue = EscalationQueue(maxlen=8)
        degraded = Diagnosis(label=FALLBACK_LABEL, confidence=0.0)
        threshold_before = queue.controller.threshold
        for _ in range(5):
            assert queue.offer_forced(object(), degraded) is True
        # forced offers neither consult nor tune the controller
        assert queue.controller.threshold == threshold_before
        assert queue.controller.n_seen == 0
        assert len(queue) == 5

    def test_offer_forced_refuses_at_capacity_instead_of_evicting(self):
        queue = EscalationQueue(maxlen=2)
        genuine = Diagnosis(label="unknown", confidence=0.0)
        seeded = [object(), object()]
        for run in seeded:
            assert queue.offer(run, genuine) is True
        degraded = Diagnosis(label=FALLBACK_LABEL, confidence=0.0)
        assert queue.offer_forced(object(), degraded) is False
        assert queue.n_refused == 1
        assert queue.n_dropped == 0
        # the genuine low-confidence items survived the storm
        assert [item.run for item in queue.drain()] == seeded


class TestEscalationThreadSafety:
    def test_concurrent_offer_and_drain_lose_nothing(self):
        queue = EscalationQueue(maxlen=10_000)
        uncertain = Diagnosis(label="unknown", confidence=0.0)
        n_threads, per_thread = 4, 200
        offered = []

        def offerer():
            count = 0
            for _ in range(per_thread):
                if queue.offer(object(), uncertain):
                    count += 1
            offered.append(count)

        drained: list = []

        def drainer():
            for _ in range(50):
                drained.extend(queue.drain(16))
                time.sleep(0.001)

        threads = [threading.Thread(target=offerer) for _ in range(n_threads)]
        threads.append(threading.Thread(target=drainer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        drained.extend(queue.drain())
        assert sum(offered) == len(drained) + queue.n_dropped
        assert queue.n_dropped == 0  # maxlen was never hit


# ----------------------------------------------------------------------
@pytest.fixture()
def registry(trained, tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(trained, tag="seed")
    return registry


class _DownFramework:
    """A framework stub whose scoring path is hard down."""

    def featurize(self, runs):
        raise InjectedFault("feature store unreachable")

    def predict_features(self, X):  # pragma: no cover - never reached
        raise InjectedFault("unreachable")


class TestServiceDegradedMode:
    def test_breaker_serves_flagged_fallbacks_then_recovers(
        self, registry, corpus
    ):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout_s=10.0, time_fn=lambda: clock[0]
        )
        pool = corpus["pool"]
        service = DiagnosisService(
            registry,
            max_linger_s=0.0,
            cache_size=0,
            breaker=breaker,
            escalation=EscalationQueue(),
        ).start()
        try:
            healthy_framework = service._framework
            service._framework = _DownFramework()
            # below the threshold, callers still see the real error
            with pytest.raises(InjectedFault):
                service.diagnose(pool[0])
            # threshold crossed: flagged fallback instead of an error
            degraded = service.diagnose(pool[1])
            assert is_fallback(degraded)
            assert degraded.label == FALLBACK_LABEL
            assert degraded.confidence == 0.0
            # breaker open: predict path skipped entirely
            assert is_fallback(service.diagnose(pool[2]))
            assert breaker.state == "open"
            assert service.ready() is False
            assert service.health()["breaker_state"] == "open"
            # degraded traffic still reaches the annotation loop
            assert len(service.escalation) >= 2
            snap = service.stats.snapshot()
            assert snap["degraded_responses"] == 2
            # the model path comes back; the probe closes the breaker
            service._framework = healthy_framework
            clock[0] = 11.0
            recovered = service.diagnose(pool[3])
            assert not is_fallback(recovered)
            assert breaker.state == "closed"
            assert service.ready() is True
        finally:
            service.stop()

    def test_degraded_storm_does_not_skew_escalation_controller(
        self, registry, corpus
    ):
        """A breaker-open storm must not tune the active-learning
        threshold toward the outage or evict genuine escalations."""
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout_s=1e9)
        escalation = EscalationQueue(maxlen=4)
        pool = corpus["pool"]
        service = DiagnosisService(
            registry,
            max_linger_s=0.0,
            cache_size=0,
            breaker=breaker,
            escalation=escalation,
        ).start()
        try:
            genuine = Diagnosis(label="unknown", confidence=0.0)
            seeded = [object(), object()]
            for run in seeded:
                assert escalation.offer(run, genuine)
            threshold_before = escalation.controller.threshold
            n_seen_before = escalation.controller.n_seen
            service._framework = _DownFramework()
            for run in pool[:5]:  # threshold=1: every call degrades
                assert is_fallback(service.diagnose(run))
            assert escalation.controller.threshold == threshold_before
            assert escalation.controller.n_seen == n_seen_before
            # maxlen 4: two degraded fit, three refused, none evicted
            assert escalation.n_dropped == 0
            assert escalation.n_refused == 3
            drained_runs = [item.run for item in escalation.drain()]
            for run in seeded:
                assert run in drained_runs
            assert service.stats.snapshot()["degraded_responses"] == 5
        finally:
            service.stop()

    def test_service_health_probe_shape(self, registry, corpus):
        with DiagnosisService(
            registry, max_linger_s=0.0, watchdog_stall_s=5.0
        ) as service:
            service.diagnose(corpus["pool"][0])
            health = service.health()
        assert health["started"] is True
        assert health["ready"] is True
        assert health["dispatcher_alive"] is True
        assert health["breaker_state"] == "disabled"
        assert health["version"] == "v0001"
        assert health["pending"] == 0

    def test_unstarted_service_is_not_ready(self, registry):
        service = DiagnosisService(registry)
        assert service.ready() is False
        assert service.health()["started"] is False

    def test_service_retry_absorbs_transient_registry_scoring_faults(
        self, registry, corpus
    ):
        inj = FaultInjector(FaultPlan.script(["raise"]))
        service = DiagnosisService(
            registry,
            max_linger_s=0.0,
            cache_size=0,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.001),
            # fault the vectorized scorer the engine actually calls
            predict_wrapper_factory=lambda _shard: inj.wrap,
        ).start()
        try:
            diagnosis = service.diagnose(corpus["pool"][0])
            assert not is_fallback(diagnosis)
            assert service.stats.snapshot()["retries"] == 1
        finally:
            service.stop()


class TestStatsSnapshotKeys:
    def test_reliability_counters_present_and_zeroed(self):
        from repro.serving import ServiceStats

        snap = ServiceStats().snapshot()
        for key in (
            "retries",
            "deadline_drops",
            "watchdog_restarts",
            "degraded_responses",
        ):
            assert snap[key] == 0


class TestSyncWaitDerivation:
    def test_explicit_timeout_wins(self):
        from repro.serving.reliability import sync_wait_s

        assert sync_wait_s(5.0, deadline_s=2.0) == 5.0

    def test_deadline_plus_grace(self):
        from repro.serving.reliability import (
            SYNC_WAIT_GRACE_S,
            sync_wait_s,
        )

        assert sync_wait_s(None, deadline_s=2.0) == 2.0 + SYNC_WAIT_GRACE_S

    def test_flat_default_when_unconfigured(self):
        from repro.serving.reliability import (
            SYNC_WAIT_DEFAULT_S,
            sync_wait_s,
        )

        assert sync_wait_s(None, deadline_s=None) == SYNC_WAIT_DEFAULT_S
