"""The ``volta_campaign`` workload: the paper's Volta Table V / Fig. 3 setting.

TSFRESH features, uncertainty strategy, chi² top-K=300, the standard
split and :func:`repro.active.run_active_learning` on the
``experiments.runner.default_model_factory`` forest with its defaults.

Set-up generates the campaign corpus, the workload's input (timed
several times; every copy must be identical). Timed phases:

* ``build``: ``FeatureExtractor.fit_transform`` of the corpus ->
  ``make_standard_split`` + ``prepare`` for each split;
* ``campaign``: the query loop, once per split, then again over the same
  splits until ``--seconds`` have passed since the build began. A
  repeated split must reproduce its query sequence and F1 curve exactly;
* ``build`` once more, which must reproduce the feature matrix exactly.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

import repro.datasets
from repro.active.loop import queries_to_reach, run_active_learning
from repro.datasets import make_standard_split, prepare
from repro.experiments.configs import K_FEATURES
from repro.experiments.runner import default_model_factory
from repro.features.pipeline import FeatureExtractor

from .metrics import Result, peak_rss_mb
from .tracing import Tracer, instrumented

__all__ = ["CAMPAIGN", "volta_campaign", "campaign_digest"]


@dataclass(frozen=True)
class CampaignSettings:
    """Sizes of the Volta campaign workload."""

    scale: float = 0.02  # volta_catalog scale: 58 metrics
    duration: int = 480  # samples per run, as in the bench corpus
    healthy: int = 4  # healthy runs per (app, input)
    anomalous: int = 2  # anomalous runs per (app, anomaly)
    k_features: int = K_FEATURES
    # queries per campaign: the five splits plus one repeat take ~20 s on
    # 2 CPUs, which keeps a whole run under a minute
    budget: int = 45
    splits: int = 5  # the paper repeats each experiment over 5 splits
    corpus_seed: int = 0
    target_f1: float = 0.85
    setup_reps: int = 5


CAMPAIGN = CampaignSettings()


def campaign_digest(result) -> str:
    """Hash of the queried pool indices, their labels and the F1 curve."""
    h = hashlib.sha256()
    h.update(np.asarray([r.pool_index for r in result.oracle.history], np.int64).tobytes())
    h.update("\x00".join(map(str, result.queried_labels)).encode())
    h.update(np.asarray(result.f1, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _digest(X: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()


def _config():
    return repro.datasets.volta_config(
        scale=CAMPAIGN.scale,
        n_healthy_per_app_input=CAMPAIGN.healthy,
        n_anomalous_per_app_anomaly=CAMPAIGN.anomalous,
        duration=CAMPAIGN.duration,
    )


def _setup(reps: int):
    """Generate the campaign corpus ``reps`` times; returns the config, the
    runs, each rep's seconds and whether every rep gave the same data.

    The corpus is fixed (``corpus_seed``), as the paper's Volta dataset is.
    """
    times, first, same = [], None, True
    for _ in range(reps):
        t0 = time.perf_counter()
        cfg = _config()
        runs = repro.datasets.generate_runs(cfg, rng=CAMPAIGN.corpus_seed)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = runs
        else:
            same = same and len(runs) == len(first) and all(
                a.label == b.label and np.array_equal(a.data, b.data, equal_nan=True)
                for a, b in zip(runs, first)
            )
    return cfg, first, times, same


def _campaign(prep, seed: int, split: int):
    t0 = time.perf_counter()
    result = run_active_learning(
        default_model_factory(seed * 1000 + split),
        "uncertainty",
        prep.X_seed,
        prep.y_seed,
        prep.X_pool,
        prep.y_pool,
        prep.X_test,
        prep.y_test,
        n_queries=CAMPAIGN.budget,
        pool_apps=prep.pool_apps,
        random_state=seed * 1000 + split,
    )
    return result, time.perf_counter() - t0


def _build(cfg, runs, seed: int):
    """extract (TSFRESH, full width) -> split + prepare; ``seed`` draws the
    split replicates."""
    ds = FeatureExtractor(cfg.catalog, method="tsfresh").fit_transform(runs)
    preps = [
        prepare(make_standard_split(ds, rng=seed * 1000 + s), k_features=CAMPAIGN.k_features)
        for s in range(CAMPAIGN.splits)
    ]
    return ds, preps


def _campaigns(preps: list, seed: int, seconds: float, repeat: bool) -> list:
    """One campaign per split; with ``repeat``, go round the splits again
    (at least once) until ``seconds`` have passed."""
    out = []
    t0 = time.perf_counter()
    while len(out) < CAMPAIGN.splits or (
        repeat
        and (len(out) == CAMPAIGN.splits or time.perf_counter() - t0 < seconds)
    ):
        split = len(out) % CAMPAIGN.splits
        out.append(_campaign(preps[split], seed, split))
    return out


def volta_campaign(seed: int, seconds: float, work=None,
                   tracer: Tracer | None = None, probe: bool = False) -> Result:
    """Build the Volta corpus, then run the query loop on each split.

    ``probe`` (the traced run's two passes): one set-up, one build and one
    campaign per split.
    """
    result = Result("volta_campaign")
    with instrumented(tracer):
        cfg, runs, setups, same = _setup(1 if probe else CAMPAIGN.setup_reps)
        if not same:
            result.fail("generating the corpus twice gave different runs")
        t0 = time.perf_counter()
        ds, preps = _build(cfg, runs, seed)
        build_s = [time.perf_counter() - t0]
        n_features = int(ds.X.shape[1])
        x_digest = _digest(ds.X)
        del ds  # the peak RSS should hold one feature matrix, not two
        campaigns = _campaigns(preps, seed, seconds - build_s[0], repeat=not probe)
        if not probe:
            # a second build at the end: the ingest rate is averaged over the
            # start and the end of the run, and the data plane must repeat.
            # Garbage the campaigns left is collected first, so the peak RSS
            # does not depend on when the cyclic collector last ran
            gc.collect()
            t0 = time.perf_counter()
            ds_again, _ = _build(cfg, runs, seed)
            build_s.append(time.perf_counter() - t0)
            if _digest(ds_again.X) != x_digest:
                result.fail("rebuilding the corpus gave a different feature matrix")

    digests: dict[int, str] = {}
    finals: dict[int, float] = {}
    reached: dict[int, int | None] = {}
    campaign_s: list[float] = []
    round_ms: list[float] = []  # each campaign's wall time per query
    queries = 0
    repeats = 0
    for i, (al, wall) in enumerate(campaigns):
        split = i % CAMPAIGN.splits
        n = len(al.oracle.history)
        queries += n
        campaign_s.append(wall)
        round_ms.append(wall * 1000.0 / max(1, n))
        digest = campaign_digest(al)
        if split in digests:
            repeats += 1
            if digests[split] != digest:
                result.fail(
                    f"split {split}: repeated campaign diverged "
                    f"({digests[split]} then {digest})"
                )
        else:
            digests[split] = digest
            finals[split] = al.final_f1
            reached[split] = queries_to_reach(al, CAMPAIGN.target_f1)
        if n != min(CAMPAIGN.budget, len(preps[split].y_pool)):
            result.fail(f"split {split}: campaign stopped early")

    budgeted = sum(min(CAMPAIGN.budget, len(preps[i % CAMPAIGN.splits].y_pool))
                   for i in range(len(campaigns)))
    result.attempted = budgeted
    result.failed = budgeted - queries
    result.detail.update(
        runs=len(runs),
        features_extracted=n_features,
        build_s=[round(b, 4) for b in build_s],
        build_runs_per_s=round(len(build_s) * len(runs) / sum(build_s), 3),
        setup_s_each=[round(s, 4) for s in setups],
        campaigns=len(campaigns),
        repeats_checked=repeats,
        campaign_s=[round(s, 4) for s in campaign_s],
        round_ms=[round(r, 3) for r in round_ms],
        queries=queries,
        final_f1=[round(finals[s], 4) for s in sorted(finals)],
        target_f1=CAMPAIGN.target_f1,
        queries_to_target=[reached[s] for s in sorted(reached)],
        digests=[digests[s] for s in sorted(digests)],
        kept_per_row=CAMPAIGN.k_features,
        e2e_ms=(build_s[0] + sum(campaign_s[: CAMPAIGN.splits])) * 1000.0,
    )
    result.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=peak_rss_mb(),
        p50_ms=median(round_ms),
        throughput_per_s=len(build_s) * len(runs) / sum(build_s),
        ok_frac=queries / budgeted,
        f1_macro=float(np.mean([finals[s] for s in sorted(finals)])),
    )
    return result
