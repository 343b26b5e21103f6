"""Run one workload by name: untraced for end-to-end metrics, or traced.

The untraced run returns the end-to-end metrics. The traced run (``trace``)
runs a shortened pass of the workload twice with half the time each: once
untraced, once with every layer's public callables wrapped
(:func:`tracing.instrument`). It reports per-layer numbers from the traced
pass and the tracing overhead, the traced end-to-end time minus the
untraced one.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from .campaign import volta_campaign
from .metrics import E2E_UNITS, LAYER_UNITS, Result, cpu_times, environment, percentile
from .serving import eclipse_publish, eclipse_retrain, eclipse_serve
from .tracing import Tracer, durations_ms, self_times, write_spans

__all__ = ["WORKLOADS", "run", "layer_metrics"]

WORKLOADS = {
    "eclipse_serve": eclipse_serve,
    "eclipse_publish": eclipse_publish,
    "eclipse_retrain": eclipse_retrain,
    "volta_campaign": volta_campaign,
}


def layer_metrics(tracer: Tracer, traced: Result, untraced: Result) -> dict[str, float]:
    """Per-layer numbers from the traced pass (see README.md)."""
    spans = tracer.spans
    counts = tracer.counts

    def total_ms(*names: str) -> float:
        return float(durations_ms(tracer.named(*names)).sum())

    def calls(*names: str) -> float:
        return float(len(tracer.named(*names)))

    by_name = self_times(spans, by="name")
    by_layer = self_times(spans, by="layer")
    featurize = tracer.named("core.featurize")
    batch_sizes = [s.attrs.get("batch_size", 0) for s in featurize if "requests" in s.attrs]
    queue_wait = durations_ms(tracer.named("serving.queue_wait"))
    extracted = counts.get("features.columns_extracted", 0.0)
    kept = counts.get("features.rows_extracted", 0.0) * traced.detail.get("kept_per_row", 0)
    stats = traced.detail.get("service_stats", {})
    loadgen = traced.detail.get("loadgen", {})
    e2e_traced = traced.detail["e2e_ms"]
    e2e_untraced = untraced.detail["e2e_ms"]
    out = {
        "serving.queue_wait_ms.p50": percentile(queue_wait, 50),
        "serving.queue_wait_ms.p99": percentile(queue_wait, 99),
        "serving.request_ms.p99": percentile(durations_ms(tracer.named("serving.request")), 99),
        "serving.batch_size.mean": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "serving.batches": float(len(batch_sizes)),
        "core.featurize_ms.p50": percentile(durations_ms(featurize), 50),
        "core.featurize_ms.p99": percentile(durations_ms(featurize), 99),
        "core.predict_ms.p50": percentile(durations_ms(tracer.named("core.predict")), 50),
        "features.preprocess_ms": by_name.get("features.preprocess", 0.0) * 1000.0,
        "features.kernel.mvts_ms": by_name.get("features.kernel.mvts", 0.0) * 1000.0,
        "features.kernel.tsfresh_ms": by_name.get("features.kernel.tsfresh", 0.0) * 1000.0,
        "features.columns_extracted": extracted,
        "features.columns_kept": kept,
        "features.useful_frac": kept / extracted if extracted else 0.0,
        "mlcore.scale_select_ms": total_ms("mlcore.scale", "mlcore.select"),
        "mlcore.chi2_ms": total_ms("mlcore.chi2"),
        "mlcore.forest_fit_ms": total_ms("mlcore.forest_fit"),
        "mlcore.forest_fit_calls": calls("mlcore.forest_fit"),
        "mlcore.forest_refit_ms": total_ms("mlcore.forest_refit"),
        "mlcore.forest_refit_calls": calls("mlcore.forest_refit"),
        "mlcore.predict_proba_ms": total_ms("mlcore.predict_proba"),
        "mlcore.predict_proba_calls": calls("mlcore.predict_proba"),
        "mlcore.trees_grown": counts.get("mlcore.trees_grown", 0.0),
        "active.select_ms": total_ms("active.select"),
        "active.rounds": calls("active.teach"),
        "datasets.generate_ms": total_ms("datasets.generate"),
        "core.absorb_ms": total_ms("core.absorb"),
        "registry.publish_ms": total_ms("registry.publish"),
        "registry.load_ms": total_ms("registry.load"),
        "registry.artifact_bytes": counts.get("registry.artifact_bytes", 0.0),
        "serving.swaps": calls("serving.swap"),
        "serving.escalations": float(stats.get("escalations", 0)),
        "loadgen.lag_p99_ms": float(loadgen.get("lag_p99_ms", 0.0)),
        "loadgen.backlog_max": float(loadgen.get("backlog_max", 0)),
        "trace.spans": float(len(spans)),
        "trace.overhead_ms": e2e_traced - e2e_untraced,
        "trace.overhead_frac": (e2e_traced - e2e_untraced) / e2e_untraced,
    }
    for layer in ("datasets", "features", "mlcore", "active", "core", "registry", "serving"):
        out[f"self.{layer}_ms"] = by_layer.get(layer, 0.0) * 1000.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[Result, dict]:
    """Run ``workload``; returns the result and its result line.

    Scratch files (the model registries) live under ``root/.bench_work``
    and are removed before returning; a traced run leaves its spans in
    ``root/.bench_traces/<workload>-seed<seed>.jsonl``.
    """
    fn = WORKLOADS[workload]
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    steal0, total0 = cpu_times()
    try:
        if not trace:
            result = fn(seed, seconds, work / "run")
            units = E2E_UNITS
        else:
            untraced = fn(seed, seconds / 2, work / "untraced", probe=True)
            tracer = Tracer()
            result = fn(seed, seconds / 2, work / "traced", tracer=tracer, probe=True)
            result.metrics = layer_metrics(tracer, result, untraced)
            traces = root / ".bench_traces"
            traces.mkdir(exist_ok=True)
            spans_file = traces / f"{workload}-seed{seed}.jsonl"
            write_spans(tracer, spans_file)
            result.detail["spans_file"] = str(spans_file.relative_to(root))
            result.detail["untraced_problems"] = untraced.problems
            if not untraced.correct:
                result.fail("untraced pass failed its output checks")
            units = LAYER_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass  # another run's scratch is still there
    steal1, total1 = cpu_times()
    result.detail["environment"] = environment()
    # time the hypervisor ran other guests on the CPUs: on a shared
    # virtual machine, the main source of run-to-run spread
    result.detail["environment"]["cpu_steal_frac"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else None
    )
    result.detail["problems"] = result.problems
    return result, result.line(units)
