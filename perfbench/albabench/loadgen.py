"""Open-loop load generator for the serving workloads.

Independent Eclipse nodes finish jobs whether or not the service kept up,
so requests go out on a fixed schedule (open loop): request ``i`` of a
phase at rate ``r`` is due at ``t0 + i / r``. Each request is timed from
its *due* time, so a stall also charges the requests queued behind it,
and the generator reports how late it ran (lag) and how many requests
were outstanding when each was sent (backlog). One thread sends; results
are collected by future callbacks on the service's dispatcher thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import percentile, tail_percentile

__all__ = ["LAG_LIMIT_MS", "Phase", "merge_phases", "run_phase"]

# a reference phase whose send lag p99 exceeds this is invalid: the
# generator, not the service, set the arrival times. (Latency is timed
# from the due time either way, so lag is never hidden from it.)
LAG_LIMIT_MS = 20.0


@dataclass
class Phase:
    """What one fixed-rate phase sent, and what came back."""

    name: str
    rate: float
    templates: np.ndarray  # template index of each request
    lag_ms: np.ndarray
    backlog: np.ndarray
    latency_ms: np.ndarray  # NaN where the request failed
    diagnoses: list = field(default_factory=list)  # None where failed
    failures: dict = field(default_factory=dict)  # exception type -> count
    examples: dict = field(default_factory=dict)  # exception type -> first message

    @property
    def n_sent(self) -> int:
        return len(self.templates)

    @property
    def n_failed(self) -> int:
        return int(sum(self.failures.values()))

    @property
    def n_ok(self) -> int:
        return sum(d is not None for d in self.diagnoses)

    @property
    def ok_latency_ms(self) -> np.ndarray:
        return self.latency_ms[~np.isnan(self.latency_ms)]

    @property
    def tail_q(self) -> float:
        return tail_percentile(self.n_ok)

    @property
    def tail_ms(self) -> float:
        return percentile(self.ok_latency_ms, self.tail_q)

    @property
    def lag_p99_ms(self) -> float:
        return percentile(self.lag_ms, 99)

    @property
    def valid(self) -> bool:
        return self.lag_p99_ms <= LAG_LIMIT_MS

    @property
    def kept_schedule(self) -> bool:
        """Sends in the last quarter were, at the median, on time."""
        q = max(1, len(self.lag_ms) // 4)
        return percentile(self.lag_ms[-q:], 50) <= LAG_LIMIT_MS

    @property
    def backlog_growth(self) -> float:
        """Mean backlog over the last quarter minus the second quarter."""
        n = len(self.backlog)
        if n < 8:
            return 0.0
        q = n // 4
        return float(self.backlog[3 * q:].mean() - self.backlog[q:2 * q].mean())

    def census(self) -> dict:
        return {
            "phase": self.name,
            "rate_rps": self.rate,
            "sent": self.n_sent,
            "succeeded": self.n_ok,
            "failed": self.n_failed,
            "failures": dict(sorted(self.failures.items())),
            "p50_ms": round(percentile(self.ok_latency_ms, 50), 3),
            "p90_ms": round(percentile(self.ok_latency_ms, 90), 3),
            f"p{self.tail_q:g}_ms": round(self.tail_ms, 3),
            "lag_p99_ms": round(self.lag_p99_ms, 3),
            "backlog_max": int(self.backlog.max(initial=0)),
            "backlog_growth": round(self.backlog_growth, 2),
            "valid": self.valid,
        }


def merge_phases(phases: list[Phase], name: str) -> Phase:
    """Pool several phases at one rate into one sample."""
    failures: dict[str, int] = {}
    for p in phases:
        for kind, n in p.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    return Phase(
        name=name,
        rate=phases[0].rate,
        templates=np.concatenate([p.templates for p in phases]),
        lag_ms=np.concatenate([p.lag_ms for p in phases]),
        backlog=np.concatenate([p.backlog for p in phases]),
        latency_ms=np.concatenate([p.latency_ms for p in phases]),
        diagnoses=[d for p in phases for d in p.diagnoses],
        failures=failures,
        examples={k: v for p in reversed(phases) for k, v in p.examples.items()},
    )


def run_phase(service, events, template_index: dict, rate: float, name: str,
              result_timeout_s: float = 120.0) -> Phase:
    """Send ``events`` at ``rate`` per second and wait for every answer.

    ``template_index`` maps ``id(run.data)`` of a replayed run to its
    template's position (replayed runs share their template's array).
    """
    n = len(events)
    templates = np.array([template_index[id(ev.run.data)] for ev in events])
    lag = np.zeros(n)
    backlog = np.zeros(n, dtype=np.int64)
    done_at = np.full(n, np.nan)
    completed: list[int] = []
    futures: list = [None] * n
    failures: dict[str, int] = {}
    examples: dict[str, str] = {}

    def on_done(i: int, _future) -> None:
        done_at[i] = time.perf_counter()
        completed.append(i)

    t0 = time.perf_counter() + 0.01
    due = t0 + np.arange(n) / rate
    for i, ev in enumerate(events):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        lag[i] = (sent - due[i]) * 1000.0
        backlog[i] = i - len(completed)
        try:
            future = service.submit(ev.run)
        except Exception as exc:  # refused at admission: counted, not raised
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
            examples.setdefault(kind, str(exc)[:200])
            completed.append(i)
            continue
        futures[i] = future
        future.add_done_callback(lambda f, i=i: on_done(i, f))

    latency = np.full(n, np.nan)
    diagnoses: list = [None] * n
    deadline = time.monotonic() + result_timeout_s
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            diagnoses[i] = future.result(timeout=max(0.05, deadline - time.monotonic()))
        except Exception as exc:  # the census records every failure by type
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
            examples.setdefault(kind, str(exc)[:200])
            continue
        latency[i] = 0.0  # filled below once the callback has run
    # result() can return before the done-callback stamped the time
    ok = ~np.isnan(latency)
    while np.isnan(done_at[ok]).any() and time.monotonic() < deadline:
        time.sleep(0.001)
    latency[ok] = (done_at[ok] - due[ok]) * 1000.0
    return Phase(
        name=name,
        rate=rate,
        templates=templates,
        lag_ms=lag,
        backlog=backlog,
        latency_ms=latency,
        diagnoses=diagnoses,
        failures=failures,
        examples=examples,
    )
