"""The DiagnosisService façade: registry + sharded engines + cache + escalation.

This is the object a monitoring pipeline embeds. It warm-loads the
registry's ``CURRENT`` framework, owns ``n_shards`` :class:`MicroBatcher`
engines whose vectorized predict path runs extractor→scaler→selector→model
once per coalesced batch, memoizes results by run fingerprint, routes
low-confidence verdicts to the :class:`EscalationQueue`, and hot-swaps to
a newly published registry version *between* batches — queued requests
are raw runs, so none are lost or scored against a torn model during a
swap.

Sharding: a :class:`ShardRouter` consistently hashes ``node_id → shard``
over a virtual-node ring, so each compute node's stream always lands on
the same engine and a dead engine remaps *only its own* nodes. Every
engine scores through the one shared framework — routing never touches
model math, so diagnoses are bit-identical at any shard count. With the
default ``n_shards=1`` the service is a single engine.

Reliability wiring (see :mod:`repro.serving.reliability`): requests may
carry deadlines, transient scoring failures retry with backoff, an
optional per-engine watchdog restarts a crashed/stuck dispatch loop, and
an optional circuit breaker turns a failing model path into flagged
``degraded`` fallback verdicts (still escalated to the annotator) rather
than an error for every caller. :meth:`DiagnosisService.health` and
:meth:`DiagnosisService.ready` expose liveness/readiness probes.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future, TimeoutError as FuturesTimeout
from typing import Callable, Sequence

from ..core.framework import ALBADross, Diagnosis
from ..core.persistence import run_fingerprint
from ..telemetry.collector import RunRecord
from .engine import MicroBatcher
from .escalation import (
    EscalationItem,
    EscalationQueue,
    apply_annotations,
    process_one_retrain,
)
from .jobs import RETRAIN_KIND, JobQueue
from .registry import ModelRegistry, ModelVersion
from .reliability import (
    CircuitBreaker,
    DeadlineExceeded,
    DispatcherWatchdog,
    EngineClosedError,
    RetryPolicy,
    fallback_diagnosis,
    sync_wait_s,
)
from .stats import ServiceStats

__all__ = ["DiagnosisService", "ShardRouter"]

_VNODES = 64  # ring points per shard


def _ring_hash(value: str) -> int:
    """Stable 64-bit ring position (sha256-derived, platform-independent)."""
    return int.from_bytes(
        hashlib.sha256(value.encode()).digest()[:8], "big"
    )


class ShardRouter:
    """Consistent-hash ring mapping keys (node ids) to shard ids.

    Each shard contributes ``vnodes`` points to the ring; a key routes to
    the first shard point clockwise from its own hash. Marking a shard
    down simply skips its points, so only the keys that hashed to the
    dead shard move — the classic consistent-hashing property that keeps
    per-node batching locality through membership changes.
    """

    def __init__(self, shard_ids: Sequence[int], vnodes: int = _VNODES):
        if not shard_ids:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shard_ids = list(shard_ids)
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in self.shard_ids:
            for v in range(vnodes):
                points.append((_ring_hash(f"shard-{shard}-vn{v}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def route(self, key: int | str, down: frozenset | set = frozenset()) -> int:
        """The shard serving ``key``, skipping any shard in ``down``."""
        if len(down) >= len(self.shard_ids):
            raise EngineClosedError("no live shards to route to")
        h = _ring_hash(str(key))
        start = bisect.bisect_left(self._points, h)
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in down:
                return owner
        raise EngineClosedError("no live shards to route to")  # pragma: no cover

    def assignments(
        self, keys: Sequence[int | str], down: frozenset | set = frozenset()
    ) -> dict:
        """``{shard_id: [key, ...]}`` for a batch of keys (routing order)."""
        out: dict[int, list] = {}
        for key in keys:
            out.setdefault(self.route(key, down), []).append(key)
        return out


class DiagnosisService:
    """Long-running online diagnosis over a registry-published framework.

    Parameters
    ----------
    registry:
        Source of versions; the service starts on ``CURRENT``.
    max_batch / max_linger_s / queue_size / policy:
        Micro-batcher knobs, per engine (see
        :class:`~repro.serving.engine.MicroBatcher`).
    cache_size:
        LRU result-cache capacity in runs; ``0`` disables caching.
    escalation:
        Optional :class:`EscalationQueue`; omit to serve without an
        annotation loop. With ``jobs`` set and no explicit queue, one is
        created with the job store attached.
    default_deadline_s:
        Optional per-request TTL forwarded to the engines; expired
        requests fail fast with
        :class:`~repro.serving.reliability.DeadlineExceeded`.
    retry:
        Optional :class:`~repro.serving.reliability.RetryPolicy` for
        transient scoring failures.
    breaker:
        Optional :class:`~repro.serving.reliability.CircuitBreaker` over
        the shared model path; after its failure threshold trips,
        callers receive flagged ``degraded`` fallback diagnoses (still
        escalated) instead of errors, until a recovery probe succeeds.
    watchdog_stall_s:
        When set, :meth:`start` also starts one
        :class:`~repro.serving.reliability.DispatcherWatchdog` per engine
        that fails and restarts a dispatch loop stuck longer than this
        many seconds.
    n_shards:
        Engines behind the consistent-hash router (default 1).
    jobs:
        Optional durable :class:`~repro.serving.jobs.JobQueue`. Routes
        :meth:`retrain_and_publish` through at-least-once jobs, and
        :meth:`stop` flushes parked escalations into it.
    predict_wrapper_factory:
        ``(shard_id) -> wrapper | None``; a returned wrapper decorates
        that engine's batch scorer — the chaos/replay hook: wrap one
        shard's predict path in a
        :class:`~repro.testing.faults.FaultInjector` without touching the
        model. ``None`` (default) serves unwrapped.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 32,
        max_linger_s: float = 0.005,
        queue_size: int = 1024,
        policy: str = "block",
        cache_size: int = 4096,
        escalation: EscalationQueue | None = None,
        default_deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        watchdog_stall_s: float | None = None,
        n_shards: int = 1,
        jobs: JobQueue | None = None,
        predict_wrapper_factory: Callable[[int], Callable | None] | None = None,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if watchdog_stall_s is not None and watchdog_stall_s <= 0:
            raise ValueError(
                f"watchdog_stall_s must be > 0, got {watchdog_stall_s}"
            )
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.registry = registry
        self.jobs = jobs
        if escalation is None and jobs is not None:
            escalation = EscalationQueue(store=jobs)
        self.escalation = escalation
        self.breaker = breaker
        self.stats = ServiceStats()
        self.router = ShardRouter(list(range(n_shards)))
        self.reroutes = 0
        self.shard_deaths = 0
        self._cache_size = cache_size
        self._cache: OrderedDict[str, Diagnosis] = OrderedDict()
        # guards the framework/version pair, the cache, and the ring state
        self._lock = threading.Lock()
        self._framework: ALBADross | None = None
        self._version: ModelVersion | None = None
        self._engines: dict[int, MicroBatcher] = {}
        self._watchdogs: dict[int, DispatcherWatchdog] = {}
        self._down: set[int] = set()
        self._started = False
        self._watchdog_stall_s = watchdog_stall_s
        # built once: a revived shard keeps its wrapper (and fault plan)
        self._wrappers = {
            shard_id: (
                predict_wrapper_factory(shard_id)
                if predict_wrapper_factory
                else None
            )
            for shard_id in self.router.shard_ids
        }
        self._engine_opts = dict(
            max_batch=max_batch,
            max_linger_s=max_linger_s,
            queue_size=queue_size,
            policy=policy,
            default_deadline_s=default_deadline_s,
            retry=retry,
        )

    # ------------------------------------------------------------------
    def start(self, ref: str = "current") -> "DiagnosisService":
        """Warm-load a registry version and start every engine."""
        framework, version = self.registry.load(ref)
        with self._lock:
            self._framework, self._version = framework, version
            self._down.clear()
        for shard_id in self.router.shard_ids:
            self._start_engine(shard_id)
        self._started = True
        return self

    def _start_engine(self, shard_id: int) -> None:
        predict = self._predict_batch
        wrapper = self._wrappers[shard_id]
        if wrapper is not None:
            predict = wrapper(predict)
        engine = MicroBatcher(predict, stats=self.stats, **self._engine_opts)
        self._engines[shard_id] = engine
        if self._watchdog_stall_s is not None:
            self._watchdogs[shard_id] = DispatcherWatchdog(
                engine, stall_timeout_s=self._watchdog_stall_s
            ).start()

    def stop(self) -> None:
        """Drain every engine, then flush escalations to the durable store.

        Draining first lets the last batches' escalations reach the store
        too. Idempotent: stopping a stopped (or never-started) service is
        a no-op, so shutdown paths may overlap without errors.
        """
        for shard_id in list(self._engines):
            self._stop_engine(shard_id)
        self._started = False
        if (
            self.escalation is not None
            and self.escalation.store is not None
            and len(self.escalation) > 0
        ):
            self.escalation.flush_to_store()

    def _stop_engine(self, shard_id: int) -> None:
        watchdog = self._watchdogs.pop(shard_id, None)
        if watchdog is not None:
            watchdog.stop()
        engine = self._engines.pop(shard_id, None)
        if engine is not None:
            engine.close()  # fails its pending futures, typed

    def __enter__(self) -> "DiagnosisService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def version(self) -> ModelVersion:
        """The registry version currently serving."""
        if self._version is None:
            raise RuntimeError("service is not started")
        return self._version

    @property
    def live_shards(self) -> list[int]:
        with self._lock:
            return [s for s in self.router.shard_ids if s not in self._down]

    @property
    def down_shards(self) -> list[int]:
        with self._lock:
            return sorted(self._down)

    def shard_for(self, run: RunRecord) -> int:
        """The shard this run's node routes to right now."""
        with self._lock:
            down = frozenset(self._down)
        return self.router.route(run.node_id, down)

    # ------------------------------------------------------------------
    def submit(self, run: RunRecord, deadline_s: float | None = None):
        """Asynchronous single-run scoring; returns a future of Diagnosis.

        Cache hits resolve immediately without touching a queue. Misses
        route by ``node_id``; an engine that refuses the submission
        (closed) is marked down and the run goes to the next live shard
        on the ring. ``deadline_s`` overrides the service-wide default
        TTL.
        """
        self._require_started()
        cached = self._cache_get(run)
        if cached is not None:
            future: Future = Future()
            future.set_result(cached)
            self.stats.record_request()
            return future
        for _ in self.router.shard_ids:
            shard_id = self.shard_for(run)
            engine = self._engines.get(shard_id)
            if engine is not None:
                try:
                    return engine.submit(run, deadline_s=deadline_s)
                except EngineClosedError:
                    pass
            self.mark_down(shard_id)
            with self._lock:
                self.reroutes += 1
        raise EngineClosedError("no live shards accepted the run")

    def diagnose(self, run: RunRecord, timeout_s: float | None = None) -> Diagnosis:
        """Synchronous single-run scoring (waits for the micro-batch).

        The wait is bounded: ``timeout_s`` if given, else the configured
        ``default_deadline_s`` plus a scoring grace period, else a flat
        default (see :func:`~repro.serving.reliability.sync_wait_s`).
        Raises :class:`~repro.serving.reliability.DeadlineExceeded` if the
        result does not arrive in time.
        """
        wait_s = sync_wait_s(
            timeout_s, self._engine_opts.get("default_deadline_s")
        )
        future = self.submit(run)
        try:
            return future.result(timeout=wait_s)
        except FuturesTimeout:
            future.cancel()
            raise DeadlineExceeded(
                f"diagnose() result did not arrive within {wait_s:.1f}s"
            ) from None

    def diagnose_many(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """Synchronous bulk fast path: cache short-circuit, then one
        bulk call per shard, reassembled in input order.

        Request/cache-hit accounting is identical to the :meth:`submit`
        path: every run counts one request at acceptance, every cache hit
        counts one hit — so snapshots from either path agree.
        """
        self._require_started()
        results: list[Diagnosis | None] = [None] * len(runs)
        groups: dict[int, list[int]] = {}
        with self._lock:
            down = frozenset(self._down)
        for i, run in enumerate(runs):
            cached = self._cache_get(run)
            if cached is not None:
                results[i] = cached
                self.stats.record_request()
            else:
                shard_id = self.router.route(run.node_id, down)
                groups.setdefault(shard_id, []).append(i)
        for shard_id, indices in groups.items():
            fresh = self._engines[shard_id].diagnose_many(
                [runs[i] for i in indices]
            )
            for i, diagnosis in zip(indices, fresh):
                results[i] = diagnosis
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def mark_down(self, shard_id: int) -> None:
        """Take a shard out of the ring and stop its engine."""
        with self._lock:
            if shard_id in self._down:
                return
            self._down.add(shard_id)
            self.shard_deaths += 1
        self._stop_engine(shard_id)

    def revive_shard(self, shard_id: int) -> None:
        """Restart a downed shard's engine on the serving framework."""
        with self._lock:
            if shard_id not in self._down:
                return
        self._start_engine(shard_id)
        with self._lock:
            self._down.discard(shard_id)

    def probe(self) -> list[int]:
        """Health-sweep every live shard; mark dead ones down.

        Returns the shard ids newly declared down. Call it from a control
        loop (the replay harness does, between ticks) or rely on
        :meth:`submit`'s on-error marking.
        """
        newly_down = []
        for shard_id in self.live_shards:
            if not self._engine_ready(self._engines.get(shard_id)):
                self.mark_down(shard_id)
                newly_down.append(shard_id)
        return newly_down

    def health(self) -> dict:
        """Liveness probe: a plain dict for CLI/exporter consumption.

        Engine fields aggregate over the live shards: the dispatcher is
        alive when every live engine's is, depths and restarts sum, and
        the heartbeat age is the stalest one.
        """
        live = [
            engine for shard_id in self.live_shards
            if (engine := self._engines.get(shard_id)) is not None
        ]
        breaker = self.breaker
        doc = {
            "started": self._started,
            "ready": self.ready(),
            "dispatcher_alive": bool(live)
            and all(e.dispatcher_alive for e in live),
            "heartbeat_age_s": (
                max(e.heartbeat_age_s for e in live) if live else None
            ),
            "queue_depth": sum(e.queue_depth for e in live),
            "pending": sum(e.pending for e in live),
            "dispatcher_restarts": sum(e.restarts for e in live),
            "breaker_state": breaker.state if breaker else "disabled",
            "version": self._version.version_id if self._version else None,
            "n_shards": len(self.router.shard_ids),
            "live_shards": self.live_shards,
            "down_shards": self.down_shards,
            "reroutes": self.reroutes,
            "shard_deaths": self.shard_deaths,
            "escalation_depth": (
                len(self.escalation) if self.escalation is not None else 0
            ),
            # operators need to see dropped/refused escalations: each one
            # is an annotation request the AL loop silently lost
            "escalation_dropped": (
                self.escalation.n_dropped if self.escalation is not None else 0
            ),
            "escalation_refused": (
                self.escalation.n_refused if self.escalation is not None else 0
            ),
            "escalation_forced": (
                self.escalation.n_forced if self.escalation is not None else 0
            ),
        }
        if self.jobs is not None:
            doc["jobs"] = self.jobs.counts()
        return doc

    def ready(self) -> bool:
        """Readiness probe: one live engine accepting work, breaker not open."""
        if not any(
            self._engine_ready(self._engines.get(s)) for s in self.live_shards
        ):
            return False
        return self.breaker is None or self.breaker.state != "open"

    @staticmethod
    def _engine_ready(engine: MicroBatcher | None) -> bool:
        return (
            engine is not None and not engine.closed and engine.dispatcher_alive
        )

    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Re-read the registry pointer; hot-swap if it moved.

        Returns ``True`` when a swap happened. Safe to call from any
        thread and at any time: the engines resolve the framework per
        batch, so queued requests simply score on whichever version is
        installed when their batch dispatches — nothing in flight is lost.
        """
        current = self.registry.current_id()
        if current is None or (
            self._version is not None and current == self._version.version_id
        ):
            return False
        self.swap(current)
        return True

    def swap(self, ref: str) -> ModelVersion:
        """Install a specific registry version as the serving model.

        One registry load, whatever the shard count: every engine scores
        through the same framework.
        """
        framework, version = self.registry.load(ref)
        self._install(framework, version)
        return version

    def _install(self, framework: ALBADross, version: ModelVersion) -> None:
        with self._lock:
            self._framework, self._version = framework, version
            self._cache.clear()  # cached verdicts belong to the old version
        self.stats.record_swap()

    def retrain_and_publish(
        self,
        annotator: Callable[[EscalationItem], str],
        tag: str | None = None,
        max_items: int | None = None,
        adopt: bool = True,
        warm: bool | None = None,
    ) -> ModelVersion | None:
        """Drain the escalation queue, refit, publish, optionally hot-swap.

        The annotation-loop closer: everything the service escalated gets
        labeled by ``annotator``, absorbed into a private copy of the
        framework loaded from the registry, published as the next
        version, and (with ``adopt``) that copy is installed as the
        serving framework — one registry load per cycle. The live
        framework is never mutated, so reads keep resolving on it while
        the refit runs, and ``adopt=False`` leaves it untouched.

        With a :class:`~repro.serving.jobs.JobQueue` the cycle is
        durable: parked escalations flush to ``escalation`` jobs, a
        ``retrain_publish`` order is enqueued, and
        :func:`~repro.serving.escalation.process_one_retrain` executes it
        at-least-once. ``warm`` routes the refit through the framework's
        incremental path (``None`` defers to its config); a retrain that
        actually ran warm shows up as ``warm_refits`` in the stats.
        """
        if self.escalation is None:
            raise RuntimeError("service was built without an escalation queue")
        if self.jobs is None:
            items = self.escalation.drain(max_items)
            if not items:
                return None
            framework, _ = self.registry.load(self.version.version_id)
            framework.last_absorb_warm = False  # absorb may be skipped
            framework, version = apply_annotations(
                framework, items, annotator, registry=self.registry, tag=tag,
                warm=warm,
            )
        else:
            self.escalation.flush_to_store()
            self.jobs.enqueue(RETRAIN_KIND, {"tag": tag, "warm": warm})
            done = process_one_retrain(
                self.jobs, self.registry, annotator, max_items=max_items,
                worker="service-retrainer",
            )
            if done is None:
                return None
            framework, version = done
        if getattr(framework, "last_absorb_warm", False):
            self.stats.record_warm_refit()
        if version is not None and adopt:
            self._install(framework, version)
        return version

    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("service is not started; call start() first")

    def _cache_get(self, run: RunRecord) -> Diagnosis | None:
        if not self._cache_size:
            return None
        key = run_fingerprint(run)
        with self._lock:
            diagnosis = self._cache.get(key)
            if diagnosis is not None:
                self._cache.move_to_end(key)
                self.stats.record_cache_hit()
        return diagnosis

    def _cache_put(self, run: RunRecord, diagnosis: Diagnosis) -> None:
        if not self._cache_size:
            return
        key = run_fingerprint(run)
        self._cache[key] = diagnosis
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _predict_batch(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """The engines' vectorized scorer: one stack pass per micro-batch."""
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._degraded_batch(runs)
        with self._lock:
            framework = self._framework
        if framework is None:
            raise RuntimeError("no framework installed")
        try:
            X = framework.featurize(runs)
            diagnoses = framework.predict_features(X)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
                if breaker.state == "open":
                    # threshold crossed: this and subsequent batches get
                    # flagged fallbacks instead of erroring every caller
                    return self._degraded_batch(runs)
            raise
        if breaker is not None:
            breaker.record_success()
        with self._lock:
            # a swap may have landed mid-batch; don't poison the new cache
            stale = framework is not self._framework
            if not stale:
                for run, diagnosis in zip(runs, diagnoses):
                    self._cache_put(run, diagnosis)
        self._offer_escalation(runs, diagnoses)
        return diagnoses

    def _degraded_batch(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """Flagged fallback verdicts: never cached, escalated out-of-band.

        Fallbacks carry a synthetic confidence of 0.0; routing them through
        the adaptive :meth:`EscalationQueue.offer` would let a breaker-open
        storm tune the active-learning threshold to the outage and evict
        genuine low-confidence items, so they take the forced path that
        bypasses the controller and never evicts.
        """
        diagnoses = [fallback_diagnosis() for _ in runs]
        self.stats.record_degraded(len(runs))
        if self.escalation is not None:
            for run, diagnosis in zip(runs, diagnoses):
                if self.escalation.offer_forced(run, diagnosis):
                    self.stats.record_escalation()
                    self.stats.record_forced_escalation()
                else:
                    self.stats.record_refused_escalation()
        return diagnoses

    def _offer_escalation(
        self, runs: Sequence[RunRecord], diagnoses: Sequence[Diagnosis]
    ) -> None:
        if self.escalation is None:
            return
        for run, diagnosis in zip(runs, diagnoses):
            if self.escalation.offer(run, diagnosis):
                self.stats.record_escalation()
