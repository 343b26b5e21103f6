"""The Eclipse serving workloads: ``eclipse_serve``, ``eclipse_publish`` and
``eclipse_retrain``.

All three train an ALBADross model on a small Eclipse campaign (MVTS features,
margin strategy: the paper's Table V setting for Eclipse), publish it to
a registry inside the checkout, and serve completed-run diagnosis
requests through a :class:`repro.serving.DiagnosisService` with default
settings except that the result cache is off. Requests are
:class:`repro.serving.ReplayStream` events over Eclipse's 1488 node ids,
replaying held-out template runs of three job lengths, sent open-loop.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import repro.datasets
from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.experiments.configs import K_FEATURES, RF_PARAMS
from repro.mlcore.metrics import f1_score
from repro.serving import (
    ECLIPSE_NODES,
    DiagnosisService,
    EscalationQueue,
    ModelRegistry,
    ReplayStream,
)

from .loadgen import LAG_LIMIT_MS, Phase, merge_phases, run_phase
from .metrics import Result, peak_rss_mb, percentile
from .tracing import Tracer, instrumented

__all__ = [
    "SERVE",
    "check_served",
    "eclipse_publish",
    "eclipse_retrain",
    "eclipse_serve",
    "job_lengths",
]


@dataclass(frozen=True)
class ServeSettings:
    """Sizes of the serving workloads (one place to read them)."""

    scale: float = 0.01  # eclipse_catalog scale: 53 metrics
    job_minutes: tuple[float, float] = (20.0, 45.0)  # Eclipse job run times
    n_lengths: int = 3  # job lengths drawn from that range (job_lengths)
    train_healthy: int = 1  # healthy runs per (app, input) per length
    train_anomalous: int = 2  # anomalous runs per (app, anomaly) per length
    templates_per_length: int = 24
    system_seed: int = 0  # the deployed model and its template pool
    n_features: int = K_FEATURES
    queries: int = 20  # setup AL budget (margin strategy)
    setup_reps: int = 3
    warmup_s: int = 1
    # the reference rate sits near a fourth of capacity on 2 CPUs. At 80 rps
    # the dispatcher is already ~3/4 busy with one-run batches, and its
    # queue turned the machine's own speed swings into 30% p50 swings; the
    # reference phase lasts long enough for >= 1000 samples
    ref_rate: int = 50
    ref_share: float = 0.6  # share of --seconds spent at the reference rate
    ref_samples: int = 1000
    ref_windows: int = 5
    ladder: tuple[int, ...] = (200, 250, 275, 300, 325, 350, 375, 400, 450,
                               500, 600)
    rung_s: int = 3
    ladder_repeats: int = 3  # measurements of the two rates around capacity
    limit_ms: float = 200.0  # latency limit on a rung's tail percentile
    retrain_interval_s: float = 0.5
    publish_window_s: int = 2  # eclipse_publish: reads between cycle bursts
    # eclipse_publish: three cycles after each window, each labeling four
    # queued runs. About 45 runs are queued by the first burst and each
    # window adds about eight, so for ten windows every cycle absorbs
    # exactly four: the labeled set grows the same way on every seed. A
    # single cycle is
    # 50-150 ms and lands on a fast or slow spell of the machine whole,
    # so the rate is taken over many of them
    cycles_per_gap: int = 3
    annotator_batch: int = 4


SERVE = ServeSettings()


def job_lengths() -> tuple[int, ...]:
    """Request run lengths in samples, derived from the Eclipse model.

    Eclipse jobs run 20-45 minutes at 1 Hz (``repro.datasets.eclipse``),
    and ``eclipse_config`` maps the range's midpoint, 1950 s, to its
    default duration at a given scale (160 samples at 0.01). The same time
    factor maps the midpoints of the range's ``n_lengths`` equal thirds
    (24.2, 32.5 and 40.8 min) to 119, 160 and 201 samples. Templates are
    split evenly among them: a uniform spread of job lengths over the
    stated range, since the model gives no other distribution.
    """
    lo, hi = SERVE.job_minutes
    factor = repro.datasets.eclipse_config(scale=SERVE.scale).duration / 1950.0
    step = (hi - lo) / SERVE.n_lengths
    return tuple(
        int(round((lo + step * (k + 0.5)) * 60.0 * factor)) for k in range(SERVE.n_lengths)
    )


@dataclass
class Inputs:
    """The deployed system's training runs and its request templates."""

    catalog: object
    train: list
    templates: list
    template_index: dict  # id(template.data) -> template position


def make_inputs() -> Inputs:
    """The deployed system's training campaign and its template pool.

    Both are fixed (``system_seed``): the model under test is the same on
    every run. The workload seed draws the request stream from the pool.
    """
    seed = SERVE.system_seed
    rng = np.random.default_rng([seed, 7])
    train, templates = [], []
    catalog = None
    for k, duration in enumerate(job_lengths()):
        cfg = repro.datasets.eclipse_config(
            scale=SERVE.scale,
            n_healthy_per_app_input=SERVE.train_healthy,
            n_anomalous_per_app_anomaly=SERVE.train_anomalous,
            duration=duration,
        )
        catalog = cfg.catalog
        train += repro.datasets.generate_runs(cfg, rng=seed * 100 + 2 * k)
        held_out = repro.datasets.generate_runs(cfg, rng=seed * 100 + 2 * k + 1)
        pick = rng.choice(len(held_out), SERVE.templates_per_length, replace=False)
        templates += [held_out[i] for i in sorted(pick)]
    return Inputs(
        catalog=catalog,
        train=train,
        templates=templates,
        template_index={id(t.data): i for i, t in enumerate(templates)},
    )


def _split(runs: list, seed: int) -> tuple[list, list, list]:
    """Seed (two runs per class), AL pool, and validation runs."""
    rng = np.random.default_rng([seed, 11])
    order = rng.permutation(len(runs))
    seed_idx: list[int] = []
    per_class: dict[str, int] = {}
    for i in order:
        label = runs[i].label
        if per_class.get(label, 0) < 2:
            per_class[label] = per_class.get(label, 0) + 1
            seed_idx.append(int(i))
    rest = [int(i) for i in order if int(i) not in set(seed_idx)]
    n_pool = int(0.6 * len(rest))
    return (
        [runs[i] for i in seed_idx],
        [runs[i] for i in rest[:n_pool]],
        [runs[i] for i in rest[n_pool:]],
    )


def _train_and_start(inputs: Inputs, root: Path,
                     escalation: bool) -> tuple[DiagnosisService, dict]:
    """One set-up: train, publish, start the service."""
    seed = SERVE.system_seed
    framework = ALBADross(
        inputs.catalog,
        FrameworkConfig(
            feature_method="mvts",
            n_features=SERVE.n_features,
            query_strategy="margin",
            max_queries=SERVE.queries,
            model_params=dict(RF_PARAMS),
            random_state=seed,
        ),
    )
    seed_runs, pool, val = _split(inputs.train, seed)
    framework.fit_features(inputs.train)
    framework.fit_initial(seed_runs, [r.label for r in seed_runs])
    al = framework.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    registry = ModelRegistry(root)
    version = registry.publish(framework, tag="setup")
    service = DiagnosisService(
        registry,
        cache_size=0,
        escalation=EscalationQueue() if escalation else None,
    ).start()
    return service, {
        "version": version.version_id,
        "train_runs": len(inputs.train),
        "setup_al_f1": [round(float(al.f1[0]), 4), round(al.final_f1, 4)],
        "selected_features": int(framework.selector.k),
    }


def _setup(inputs: Inputs, work: Path, escalation: bool, reps: int):
    """Set up ``reps`` times; keep the last service, report the median."""
    times = []
    service = info = None
    for rep in range(reps):
        if service is not None:
            service.stop()
        root = work / f"registry-{rep}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        service, info = _train_and_start(inputs, root, escalation)
        times.append(time.perf_counter() - t0)
    info["setup_s_each"] = [round(t, 4) for t in times]
    return service, info, median(times)


def _events(inputs: Inputs, rate: int, seconds: float, stream_seed: int) -> list:
    stream = ReplayStream(
        inputs.templates,
        n_nodes=ECLIPSE_NODES,
        ticks=max(1, int(np.ceil(seconds))),
        emit_per_tick=rate,
        seed=stream_seed,
    )
    return list(stream.events())


def _phase(service, inputs: Inputs, rate: int, seconds: float, seed: int,
           k: int, name: str) -> Phase:
    events = _events(inputs, rate, seconds, seed * 1000 + k)
    return run_phase(service, events, inputs.template_index, rate, name)


def check_served(phases: list[Phase], allowed: list[set]) -> list[str]:
    """Every answered request must equal a direct diagnosis of its run.

    ``allowed[t]`` holds the ``(label, confidence)`` pairs that
    ``ALBADross.diagnose`` gives template ``t`` under each published
    version that may have served ``phases``. Comparison is exact (bitwise
    for the confidence). Returns one message per mismatching request.
    """
    problems = []
    for phase in phases:
        for t, diagnosis in zip(phase.templates, phase.diagnoses):
            if diagnosis is None:
                continue
            if (diagnosis.label, diagnosis.confidence) not in allowed[int(t)]:
                problems.append(
                    f"{phase.name}: template {int(t)} served "
                    f"{diagnosis.label}@{diagnosis.confidence!r}, "
                    f"direct diagnosis gives {sorted(allowed[int(t)])}"
                )
    return problems


def _direct(registry: ModelRegistry, templates: list) -> dict[str, list[tuple]]:
    """``(label, confidence)`` of every template under every published version."""
    direct = {}
    for version in registry.list_versions():
        framework, _ = registry.load(version.version_id)
        direct[version.version_id] = [(d.label, d.confidence)
                                      for d in framework.diagnose(templates)]
    return direct


def _allowed(direct: dict[str, list[tuple]], versions) -> list[set]:
    """Per template, the answers any of ``versions`` gives."""
    n = len(next(iter(direct.values())))
    return [{direct[v][t] for v in versions} for t in range(n)]


def _pool_f1(answers: list[tuple], templates: list) -> float:
    """Macro F1 of one version's direct answers over the template pool."""
    truth = np.asarray([t.label for t in templates])
    return float(f1_score(truth, np.asarray([a[0] for a in answers]), average="macro"))


def _served_f1(phases: list[Phase], templates: list) -> float:
    """Macro F1 of the answered requests."""
    truth, pred = [], []
    for phase in phases:
        for t, d in zip(phase.templates, phase.diagnoses):
            if d is not None:
                truth.append(templates[int(t)].label)
                pred.append(d.label)
    return float(f1_score(np.asarray(truth), np.asarray(pred), average="macro"))


def _census(result: Result, phases: list[Phase]) -> None:
    result.attempted = sum(p.n_sent for p in phases)
    result.failed = sum(p.n_failed for p in phases)
    result.detail["phases"] = [p.census() for p in phases]
    failures: dict[str, int] = {}
    for p in phases:
        for kind, n in p.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    result.detail["failure_census"] = dict(sorted(failures.items()))
    result.detail["failure_examples"] = merge_phases(phases, "all").examples
    if any(p.n_ok + p.n_failed != p.n_sent for p in phases):
        result.fail("census incomplete: ok + failed != sent")


def _verdict(p: Phase) -> dict:
    """Did one rate hold? Every request answered, the tail latency within
    ``limit_ms``, the backlog not growing, the generator on schedule."""
    growing = p.backlog_growth > max(8.0, 0.05 * p.rate)
    within = p.tail_ms <= SERVE.limit_ms
    ok = p.n_failed == 0 and within and not growing and p.kept_schedule
    return {"rate": p.rate, "tail_ms": round(p.tail_ms, 3), "tail_q": p.tail_q,
            "backlog_growing": growing, "kept_schedule": p.kept_schedule,
            "within_limit": within, "pass": ok}


def _capacity(ladder: list[Phase]) -> tuple[float, list]:
    """Highest ladder rate that held, interpolated on tail latency.

    A rung that broke another criterion than the latency limit (a failed
    request, a growing backlog, a generator behind schedule) counts as
    missing the limit: its tail is taken as infinite. A rate's tail is
    the median over its rungs, and the rate held if that is within
    ``limit_ms``. Between the last rate that held and the first that did
    not, the rate is interpolated where the tail crosses ``limit_ms``.
    """
    verdicts = [_verdict(p) for p in ladder]
    rates = sorted({p.rate for p in ladder})
    tail = [
        median(v["tail_ms"] if v["pass"] or not v["within_limit"] else float("inf")
               for v in verdicts if v["rate"] == rate)
        for rate in rates
    ]
    n_pass = next((i for i, t in enumerate(tail) if t > SERVE.limit_ms), len(rates))
    if n_pass == 0:
        return rates[0] * min(1.0, SERVE.limit_ms / tail[0]), verdicts
    last = n_pass - 1
    if n_pass == len(rates):
        return float(rates[last]), verdicts
    frac = (SERVE.limit_ms - tail[last]) / (tail[n_pass] - tail[last])
    return rates[last] + (rates[n_pass] - rates[last]) * frac, verdicts


def _rung_plan(rungs: list[Phase]):
    """Ladder rates to measure, given the rungs measured so far.

    Climb until a rate fails (or the ladder ends); then measure the last
    rate that held and the first that failed ``ladder_repeats - 1`` more
    times, since the crossing between them sets the capacity. Yields
    ``(stream key, rate)``.
    """
    for k, rate in enumerate(SERVE.ladder):
        yield k, rate
        if not _verdict(rungs[-1])["pass"]:
            break
    bracket = [p.rate for p in rungs[-2:]]
    for r in range(1, SERVE.ladder_repeats):
        for rate in bracket:
            yield 100 * r + SERVE.ladder.index(rate), rate


def _serve_phases(service, inputs: Inputs, seed: int, seconds: float,
                  probe: bool) -> tuple[list[Phase], list[Phase]]:
    """Reference windows interleaved with ladder rungs.

    The reference rate is measured in ``ref_windows`` windows spread over
    the run, so a slow spell of the machine moves one window rather than
    the whole reference sample. The ladder follows :func:`_rung_plan`,
    however long that takes.
    """
    n = SERVE.ref_windows
    window_s = max(np.ceil(SERVE.ref_samples / SERVE.ref_rate / n),
                   np.ceil(seconds * SERVE.ref_share / n))
    _phase(service, inputs, SERVE.ref_rate, SERVE.warmup_s, seed, 0, "warmup")
    windows: list[Phase] = []
    rungs: list[Phase] = []
    plan = iter(()) if probe else _rung_plan(rungs)  # a probe: reference only
    while True:
        if len(windows) < n:
            windows.append(_phase(service, inputs, SERVE.ref_rate, window_s, seed,
                                  1 + len(windows), f"reference-{len(windows)}"))
        step = next(plan, None)
        if step is None:
            if len(windows) < n:
                continue
            return windows, rungs
        k, rate = step
        rungs.append(_phase(service, inputs, rate, SERVE.rung_s, seed, 100 + k,
                            f"rung-{rate}"))


def _retrain_cycle(service, retrain: dict, max_items: int | None = None):
    """One annotator cycle: drain the queue, absorb, publish, swap.

    Returns the new version or None; a failure is counted, not raised.
    """
    queued = len(service.escalation)
    t0 = time.perf_counter()
    try:
        version = service.retrain_and_publish(lambda item: item.run.label,
                                              max_items=max_items)
    except Exception as exc:  # counted in the census, the loop goes on
        kind = type(exc).__name__
        retrain["failures"][kind] = retrain["failures"].get(kind, 0) + 1
        return None
    if version is not None:
        retrain["cycles_s"].append(time.perf_counter() - t0)
        retrain["queued"].append(queued)
    return version


def _publish_phases(service, inputs: Inputs, seed: int, seconds: float,
                    retrain: dict) -> tuple[list[Phase], list[str]]:
    """Reference windows; after each, with every read answered, a burst of
    ``cycles_per_gap`` annotator cycles.

    Returns the windows and the version that served each: no read is in
    flight while the framework refits, so each window has one version.
    """
    _phase(service, inputs, SERVE.ref_rate, SERVE.warmup_s, seed, 0, "warmup")
    n = max(3, int(seconds / (SERVE.publish_window_s + 0.5)))
    windows, served_by = [], []
    for w in range(n):
        served_by.append(service.version.version_id)
        windows.append(_phase(service, inputs, SERVE.ref_rate, SERVE.publish_window_s,
                              seed, 1 + w, f"reference-{w}"))
        for _ in range(SERVE.cycles_per_gap):
            _retrain_cycle(service, retrain, SERVE.annotator_batch)
    retrain["annotator_stopped"] = True  # the cycles ran on this thread
    return windows, served_by


def _retrain_phases(service, inputs: Inputs, seed: int, seconds: float,
                    retrain: dict) -> list[Phase]:
    """The reference rate while an annotator thread retrains every interval."""
    stop = threading.Event()

    def annotator() -> None:
        while not stop.wait(SERVE.retrain_interval_s):
            _retrain_cycle(service, retrain)

    _phase(service, inputs, SERVE.ref_rate, SERVE.warmup_s, seed, 0, "warmup")
    thread = threading.Thread(target=annotator, name="annotator", daemon=True)
    thread.start()
    window_s = seconds / SERVE.ref_windows
    try:
        return [
            _phase(service, inputs, SERVE.ref_rate, window_s, seed, 1 + w, f"reference-{w}")
            for w in range(SERVE.ref_windows)
        ]
    finally:
        stop.set()
        thread.join(timeout=60.0)
        retrain["annotator_stopped"] = not thread.is_alive()


def _run(name: str, seed: int, seconds: float, work: Path,
         tracer: Tracer | None, probe: bool) -> Result:
    result = Result(name)
    escalation = name != "eclipse_serve"
    retrain: dict = {"cycles_s": [], "queued": [], "failures": {}}
    with instrumented(tracer):
        inputs = make_inputs()
        service, info, setup_s = _setup(
            inputs, work, escalation, 1 if probe else SERVE.setup_reps
        )
        served_by = None  # per window; None: any published version
        rungs: list[Phase] = []
        try:
            if name == "eclipse_retrain":
                windows = _retrain_phases(service, inputs, seed, seconds, retrain)
            elif name == "eclipse_publish":
                windows, served_by = _publish_phases(service, inputs, seed, seconds,
                                                     retrain)
            else:
                windows, rungs = _serve_phases(service, inputs, seed, seconds, probe)
            stats = service.stats.snapshot()
        finally:
            service.stop()
    phases = windows + rungs
    ref = merge_phases(windows, "reference")
    result.detail["setup"] = info
    _census(result, phases)
    if not ref.valid:
        result.fail(
            f"generator fell behind: lag p99 {ref.lag_p99_ms:.1f} ms "
            f"> {LAG_LIMIT_MS} ms at the reference rate"
        )
    # outputs: each answer must equal a direct diagnosis of its run by the
    # version that served it (any published one while retraining runs
    # concurrently with the reads)
    direct = _direct(service.registry, inputs.templates)
    if served_by is None:
        problems = check_served(phases, _allowed(direct, direct))
    else:
        problems = [p for w, v in zip(windows, served_by)
                    for p in check_served([w], _allowed(direct, [v]))]
    for problem in problems[:5]:
        result.fail(problem)
    if len(problems) > 5:
        result.fail(f"... and {len(problems) - 5} more mismatching answers")
    # model quality: while versions race the reads, score what was served;
    # otherwise the pool F1 of the version live in each window, averaged
    # (the request sample would add noise that no model change made)
    if name == "eclipse_retrain":
        f1 = _served_f1(phases, inputs.templates)
    else:
        f1 = float(np.mean([_pool_f1(direct[v], inputs.templates)
                            for v in (served_by or direct)]))
    # per-window statistics, median over the windows: one slow spell of
    # the machine moves one window, not the reported figure
    p50_ms = median(percentile(w.ok_latency_ms, 50) for w in windows)
    result.detail.update(
        reference={"rate_rps": SERVE.ref_rate, "windows": len(windows),
                   "samples_per_window": [w.n_ok for w in windows],
                   "window_tail_percentile": [w.tail_q for w in windows],
                   "window_tail_ms_median": median(w.tail_ms for w in windows),
                   "pooled_samples": ref.n_ok,
                   "pooled_p50_ms": percentile(ref.ok_latency_ms, 50),
                   f"pooled_p{ref.tail_q:g}_ms": ref.tail_ms},
        job_lengths=list(job_lengths()),
        service_stats=stats,
        loadgen={"lag_p99_ms": ref.lag_p99_ms,
                 "backlog_max": int(ref.backlog.max(initial=0))},
        kept_per_row=info["selected_features"],
        e2e_ms=p50_ms,
    )
    if escalation:
        cycles = retrain["cycles_s"]
        if not retrain["annotator_stopped"]:
            result.fail("annotator thread did not stop")
        if not cycles:
            result.fail("no retrain cycle completed")
        cycle_s = median(cycles) if cycles else float("nan")
        result.detail.update(
            retrain={
                "cycles": len(cycles),
                "cycle_s_median": round(cycle_s, 4),
                "cycle_s_each": [round(c, 4) for c in cycles],
                "queued_each": retrain["queued"],
                "failures": dict(sorted(retrain["failures"].items())),
                "versions_published": len(direct),
                "served_by": served_by,
            },
            failed_share=round(ref.n_failed / max(1, ref.n_sent), 4),
        )
        if name == "eclipse_retrain":
            result.detail["retrain"]["interval_s"] = SERVE.retrain_interval_s
        elif retrain["failures"]:
            result.fail(f"retrain cycles failed: {retrain['failures']}")
        # retrain cycles per second of annotator time: the mean, since a
        # cycle's time is bimodal (fast or slow spell of the machine) and a
        # median of a few cycles flips between the modes
        throughput = len(cycles) / sum(cycles) if cycles else 0.0
    else:
        throughput, verdicts = _capacity([ref] + rungs)
        result.detail.update(ladder=verdicts, capacity_rps=round(throughput, 3),
                             limit_ms=SERVE.limit_ms)
    result.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        p50_ms=p50_ms,
        throughput_per_s=throughput,
        ok_frac=(result.attempted - result.failed) / max(1, result.attempted),
        f1_macro=f1,
    )
    return result


def eclipse_serve(seed: int, seconds: float, work: Path,
                  tracer: Tracer | None = None, probe: bool = False) -> Result:
    """Open-loop serving at the reference rate, then a rate ladder.

    ``probe`` (the traced run's two passes): one set-up, no ladder.
    """
    return _run("eclipse_serve", seed, seconds, work, tracer, probe)


def eclipse_publish(seed: int, seconds: float, work: Path,
                    tracer: Tracer | None = None, probe: bool = False) -> Result:
    """Reference-rate windows, each followed by a burst of annotator cycles
    (drain, absorb, publish, hot swap) while no read is in flight.

    ``probe`` (the traced run's two passes): one set-up.
    """
    return _run("eclipse_publish", seed, seconds, work, tracer, probe)


def eclipse_retrain(seed: int, seconds: float, work: Path,
                    tracer: Tracer | None = None, probe: bool = False) -> Result:
    """The reference rate while an annotator retrains on a fixed interval.

    ``probe`` (the traced run's two passes): one set-up.
    """
    return _run("eclipse_retrain", seed, seconds, work, tracer, probe)
