"""Metric names, units, statistics helpers and the result record.

The names and units here are the single source the result line is built
from; ``BENCHMARK.json`` at the repository root must list the same ones
(``perfbench/tests/test_harness.py`` pins that).
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "E2E_UNITS",
    "LAYER_UNITS",
    "TAIL_MIN_BEYOND",
    "Result",
    "cpu_times",
    "environment",
    "peak_rss_mb",
    "percentile",
    "tail_percentile",
]

# End-to-end metrics every workload reports (see README.md for what each
# one measures on each workload). Tail latencies are in the detail report,
# not here: on a shared virtual machine their run-to-run spread follows
# the hypervisor's steal time past any bound a comparison could use.
E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_frac": "fraction",
    "f1_macro": "f1",
}

# Per-layer metrics of the traced run.
LAYER_UNITS: dict[str, str] = {
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.request_ms.p99": "ms",
    "serving.batch_size.mean": "runs",
    "serving.batches": "count",
    "core.featurize_ms.p50": "ms",
    "core.featurize_ms.p99": "ms",
    "core.predict_ms.p50": "ms",
    "features.preprocess_ms": "ms",
    "features.kernel.mvts_ms": "ms",
    "features.kernel.tsfresh_ms": "ms",
    "features.columns_extracted": "count",
    "features.columns_kept": "count",
    "features.useful_frac": "fraction",
    "mlcore.scale_select_ms": "ms",
    "mlcore.chi2_ms": "ms",
    "mlcore.forest_fit_ms": "ms",
    "mlcore.forest_fit_calls": "count",
    "mlcore.forest_refit_ms": "ms",
    "mlcore.forest_refit_calls": "count",
    "mlcore.predict_proba_ms": "ms",
    "mlcore.predict_proba_calls": "count",
    "mlcore.trees_grown": "count",
    "active.select_ms": "ms",
    "active.rounds": "count",
    "datasets.generate_ms": "ms",
    "core.absorb_ms": "ms",
    "registry.publish_ms": "ms",
    "registry.load_ms": "ms",
    "registry.artifact_bytes": "bytes",
    "serving.swaps": "count",
    "serving.escalations": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.backlog_max": "count",
    "self.datasets_ms": "ms",
    "self.features_ms": "ms",
    "self.mlcore_ms": "ms",
    "self.active_ms": "ms",
    "self.core_ms": "ms",
    "self.registry_ms": "ms",
    "self.serving_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "fraction",
}

# a tail percentile is reported only with at least this many samples
# beyond it, so p99 needs >= 1000 samples
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """``np.percentile`` over a possibly empty sequence (empty -> 0.0)."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0


def tail_percentile(n: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies from ``/proc/stat``; (0, 0) where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def environment() -> dict:
    """The box and library settings a result was measured under."""
    import numpy

    from repro.parallel import effective_cpu_count

    blas = {
        k: os.environ.get(k)
        for k in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
        )
    }
    return {
        "nproc": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads_env": blas,
        "platform": platform.platform(),
    }


@dataclass
class Result:
    """One run's outcome: the printed metrics plus the detail report."""

    workload: str
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record a failed output check; the run exits non-zero."""
        self.correct = False
        self.problems.append(problem)

    def line(self, units: dict[str, str]) -> dict:
        """The result line: every metric of ``units`` with its unit."""
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise KeyError(f"{self.workload}: metrics not measured: {missing}")
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
