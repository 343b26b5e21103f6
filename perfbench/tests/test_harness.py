"""Tests of the benchmark harness itself.

Run from the repository root::

    python -m pytest perfbench/tests -q

The end-to-end cases start ``perfbench/run.py`` in a subprocess with a
short ``--seconds`` (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from albabench.campaign import campaign_digest
from albabench.harness import WORKLOADS
from albabench.loadgen import Phase
from albabench.metrics import E2E_UNITS, LAYER_UNITS, Result
from albabench.serving import _allowed, _capacity, check_served, job_lengths
from albabench.tracing import PATCHES, Tracer, _resolve, instrument
from repro.core.framework import Diagnosis

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _phase(diagnoses: list) -> Phase:
    n = len(diagnoses)
    return Phase(
        name="reference-0",
        rate=80,
        templates=np.arange(n),
        lag_ms=np.zeros(n),
        backlog=np.zeros(n, dtype=np.int64),
        latency_ms=np.ones(n),
        diagnoses=diagnoses,
    )


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class TestOutputCheck:
    allowed = [{("healthy", 0.75)}, {("membw", 0.5), ("dial", 0.625)}]

    def test_matching_answers_pass(self):
        phase = _phase([Diagnosis("healthy", 0.75), Diagnosis("dial", 0.625)])
        assert check_served([phase], self.allowed) == []

    def test_wrong_label_fails(self):
        phase = _phase([Diagnosis("memleak", 0.75), Diagnosis("dial", 0.625)])
        problems = check_served([phase], self.allowed)
        assert len(problems) == 1 and "template 0" in problems[0]

    def test_confidence_off_by_one_ulp_fails(self):
        off = float(np.nextafter(0.625, 1.0))
        phase = _phase([Diagnosis("healthy", 0.75), Diagnosis("dial", off)])
        assert len(check_served([phase], self.allowed)) == 1

    def test_failed_requests_are_not_compared(self):
        phase = _phase([None, Diagnosis("membw", 0.5)])
        assert check_served([phase], self.allowed) == []


def _rung(rate: float, tail_ms: float, backlog_growing: bool = False) -> Phase:
    n = 200
    backlog = np.arange(n) if backlog_growing else np.zeros(n, dtype=np.int64)
    return Phase(name=f"rung-{rate}", rate=rate, templates=np.zeros(n, dtype=int),
                 lag_ms=np.zeros(n), backlog=backlog,
                 latency_ms=np.full(n, tail_ms), diagnoses=[Diagnosis("healthy", 1.0)] * n)


class TestCapacity:
    def test_interpolates_between_the_median_tails_around_the_limit(self):
        ladder = [_rung(50, 10.0), _rung(200, 100.0), _rung(250, 300.0),
                  _rung(200, 120.0), _rung(250, 260.0), _rung(200, 110.0),
                  _rung(250, 280.0)]
        capacity, _ = _capacity(ladder)
        assert capacity == pytest.approx(200 + 50 * (200 - 110) / (280 - 110))

    def test_a_rate_holds_only_if_most_of_its_rungs_held(self):
        ladder = [_rung(50, 10.0), _rung(200, 100.0), _rung(250, 190.0),
                  _rung(200, 100.0), _rung(250, 300.0), _rung(200, 100.0),
                  _rung(250, 320.0)]
        capacity, _ = _capacity(ladder)
        assert capacity == pytest.approx(200 + 50 * (200 - 100) / (300 - 100))

    def test_a_rung_with_a_growing_backlog_counts_as_missing_the_limit(self):
        ladder = [_rung(50, 10.0), _rung(200, 100.0), _rung(250, 249.0),
                  _rung(250, 179.0), _rung(250, 198.0, backlog_growing=True)]
        capacity, _ = _capacity(ladder)
        assert capacity == pytest.approx(200 + 50 * (200 - 100) / (249 - 100))


class TestVersionedCheck:
    # two published versions that disagree on template 1
    direct = {"v0001": [("healthy", 0.75), ("dial", 0.625)],
              "v0002": [("healthy", 0.75), ("membw", 0.5)]}

    def test_a_window_must_match_the_version_that_served_it(self):
        phase = _phase([Diagnosis("healthy", 0.75), Diagnosis("membw", 0.5)])
        assert check_served([phase], _allowed(self.direct, ["v0002"])) == []
        problems = check_served([phase], _allowed(self.direct, ["v0001"]))
        assert len(problems) == 1 and "template 1" in problems[0]

    def test_any_published_version_is_allowed_when_swaps_race_reads(self):
        phase = _phase([Diagnosis("healthy", 0.75), Diagnosis("dial", 0.625)])
        assert check_served([phase], _allowed(self.direct, self.direct)) == []


class TestSpec:
    def test_every_compared_workload_runs_by_name(self):
        assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)

    def test_job_lengths_follow_the_eclipse_model(self):
        from repro.datasets import eclipse_config

        lengths = job_lengths()
        assert lengths == (119, 160, 201)
        # the middle length is the model's default run at the same scale
        assert lengths[1] == eclipse_config(scale=0.01).duration

    def test_benchmark_json_matches_the_printed_metric_tables(self):
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS

    def test_result_line_refuses_a_missing_metric(self):
        result = Result("x", metrics={"setup_s": 1.0})
        with pytest.raises(KeyError):
            result.line(E2E_UNITS)


class TestTracing:
    def test_instrument_restores_every_callable(self):
        before = {}
        for module_path, attr_path, _ in PATCHES:
            owner, attr = _resolve(module_path, attr_path)
            before[(module_path, attr_path)] = (attr in vars(owner), getattr(owner, attr))
        with instrument(Tracer()):
            owner, attr = _resolve("repro.features.pipeline", "preprocess_run")
            assert getattr(owner, attr) is not before[("repro.features.pipeline", "preprocess_run")][1]
        for (module_path, attr_path), (own, fn) in before.items():
            owner, attr = _resolve(module_path, attr_path)
            assert (attr in vars(owner)) == own, attr_path
            assert getattr(owner, attr) is fn, attr_path


class TestCampaignDigest:
    def test_digest_repeats_for_one_seed_and_moves_with_another(self):
        from repro.active.loop import run_active_learning
        from repro.experiments.runner import default_model_factory

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c, 1.0, size=(30, 6)) for c in (0.0, 3.0)])
        y = np.repeat(["healthy", "dial"], 30)
        seed_idx, pool_idx = [0, 1, 30, 31], list(range(2, 30)) + list(range(32, 60))

        def digest(seed: int) -> str:
            result = run_active_learning(
                default_model_factory(seed), "uncertainty",
                X[seed_idx], y[seed_idx], X[pool_idx], y[pool_idx], X, y,
                n_queries=8, random_state=seed,
            )
            return campaign_digest(result)

        assert digest(1) == digest(1)
        assert digest(1) != digest(2)


class TestCommand:
    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_every_metric_is_printed_with_its_unit(self, trace):
        proc = _run("--workload", "eclipse_serve", "--seed", "3", "--seconds", "4",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec}
        detail = json.loads(proc.stdout.strip().splitlines()[-2])
        env = detail["environment"]
        assert {"nproc", "effective_cpu_count", "python", "numpy",
                "blas_threads_env"} <= set(env)
        assert detail["failure_census"] == {}
        if trace == "1":  # the traced run leaves its spans behind
            spans = ROOT / detail["spans_file"]
            try:
                first = json.loads(spans.read_text().splitlines()[0])
                assert {"name", "start", "end", "parent", "trace_id"} <= set(first)
            finally:
                spans.unlink()
                if not any(spans.parent.iterdir()):
                    spans.parent.rmdir()

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "eclipse_serve", "--seed", "1", "--seconds", "1",
                    cwd=tmp_path)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
