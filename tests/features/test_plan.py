"""Selection-aware extraction: per-kind column selection and the plan.

A deployed model reads only the chi² top-k columns. ``ALBADross.featurize``
extracts just those (:class:`~repro.features.pipeline.ExtractionPlan`),
and every test here pins that this is invisible in the output bytes:

* the kernels computed on any column subset, one column included, equal
  the same columns of the full-width call;
* a one-metric catalog featurizes a run identically whether or not it
  is batched with others (a ``(T, 1)`` panel used to reduce pairwise);
* planned featurize equals extract → scale → select, for mixed run
  lengths, B ∈ {1, 2, 8, 32}, n_jobs ∈ {1, 2} on both backends, and a k
  whose columns all come from one metric;
* the plan survives absorb, is rederived for a new selector, and stays
  out of pickles, so older artifacts load and serve the same answers.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.datasets.generate import generate_runs
from repro.features.mvts import MVTS_FEATURE_NAMES, extract_mvts
from repro.features.pipeline import ExtractionPlan, batched_feature_rows
from repro.features.tsfresh_lite import TSFRESH_FEATURE_NAMES, extract_tsfresh
from repro.mlcore.feature_selection import SelectKBest
from repro.mlcore.preprocessing import MinMaxScaler
from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import RunCorpus

_KERNELS = {
    "mvts": (extract_mvts, len(MVTS_FEATURE_NAMES)),
    "tsfresh": (extract_tsfresh, len(TSFRESH_FEATURE_NAMES)),
}
TRIM = (0.08, 0.06)


def _panel(rng: np.random.Generator, T: int, M: int) -> np.ndarray:
    X = rng.normal(loc=rng.normal(), scale=10.0 ** float(rng.integers(-3, 4)), size=(T, M))
    X[:, rng.integers(M)] = 2.5  # a constant column
    if M > 1:
        X[:, rng.integers(M)] = np.round(X[:, rng.integers(M)])  # ties
    return X


class TestKernelSelection:
    @given(
        T=st.integers(8, 72),
        M=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        method=st.sampled_from(["mvts", "tsfresh"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_subset_equals_full_width_columns(self, T, M, seed, method):
        """Every kind on a random column subset (often one column, in any
        order) equals those columns of the full-width call, bitwise."""
        extract, n_kinds = _KERNELS[method]
        rng = np.random.default_rng(seed)
        X = _panel(rng, T, M)
        full = extract(X).reshape(M, n_kinds)
        columns = []
        for _ in range(n_kinds):
            size = int(rng.choice([0, 1, 1, rng.integers(0, M + 1), M]))
            columns.append(rng.choice(M, size=size, replace=False))
        got = extract(X, columns)
        want = np.concatenate([full[c, k] for k, c in enumerate(columns)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_one_column_panel_equals_its_column_in_a_wide_panel(self, method):
        extract, n_kinds = _KERNELS[method]
        X = _panel(np.random.default_rng(3), 90, 5)
        full = extract(X).reshape(5, n_kinds)
        for j in range(5):
            assert np.array_equal(extract(X[:, [j]]), full[j])

    def test_selection_must_name_every_kind(self):
        with pytest.raises(ValueError, match="kinds"):
            extract_mvts(np.ones((16, 3)), [[0]] * 5)


def _one_metric_records(lengths, counter: bool, seed: int = 0):
    rng = np.random.default_rng(seed)
    records = []
    for i, T in enumerate(lengths):
        data = rng.normal(loc=40.0, scale=3.0, size=(T, 1))
        if counter:
            data = np.abs(data).cumsum(axis=0)
        records.append(RunRecord(
            app="CG", input_deck=0, node_count=1, node_id=i,
            anomaly=None, intensity=0.0, data=data, metric_names=["m0"],
        ))
    return records


class TestOneMetricCatalog:
    @pytest.mark.parametrize("counter", [False, True])
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_per_run_rows_equal_batched_rows(self, method, counter):
        """With M = 1 a lone run is a (T, 1) panel; batched with others it
        is (T, B). Both must featurize each run to the same bytes."""
        mask = np.array([counter])
        corpus = RunCorpus.from_records(
            _one_metric_records([64, 64, 64, 96, 96], counter)
        )
        batched = batched_feature_rows(
            corpus.buffer, corpus.offsets, mask, TRIM, method
        )
        for i in range(len(corpus)):
            alone = corpus.chunk(i, i + 1)
            row = batched_feature_rows(alone.buffer, alone.offsets, mask, TRIM, method)
            assert np.array_equal(row[0], batched[i])


def _mixed_lengths(runs, n: int, seed: int):
    """``n`` runs truncated to a few different lengths (raw length ≥ 64)."""
    rng = np.random.default_rng(seed)
    lengths = (64, 80, 96)
    picks = rng.choice(len(runs), size=n, replace=n > len(runs))
    return [
        dataclasses.replace(runs[i], data=runs[i].data[: lengths[j % 3]])
        for j, i in enumerate(picks)
    ]


def _full_then_select(fw: ALBADross, runs) -> np.ndarray:
    """The reference: extract every column, scale, then select."""
    X = fw.scaler.transform(fw.extractor.transform(runs).X)
    return fw.selector.transform(X)


@pytest.fixture(scope="module", params=["mvts", "tsfresh"])
def fitted(request, tiny_config):
    runs = generate_runs(tiny_config, rng=0)
    fw = ALBADross(
        tiny_config.catalog,
        FrameworkConfig(
            feature_method=request.param,
            n_features=40,
            model_params={"n_estimators": 8},
            random_state=0,
        ),
    )
    fw.fit_features(runs)
    seed = runs[::3]
    fw.fit_initial(seed, [r.label for r in seed])
    return fw, runs


class TestPlannedFeaturize:
    @pytest.mark.parametrize("B", [1, 2, 8, 32])
    def test_equals_full_then_select(self, fitted, B):
        fw, runs = fitted
        batch = _mixed_lengths(runs, B, seed=B)
        assert np.array_equal(fw.featurize(batch), _full_then_select(fw, batch))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_equals_full_then_select_at_n_jobs_2(self, fitted, backend):
        from repro.parallel import active_segments

        fw, runs = fitted
        batch = _mixed_lengths(runs, 12, seed=5)
        want = _full_then_select(fw, batch)
        before = set(active_segments())
        fw.extractor.n_jobs, fw.extractor.backend = 2, backend
        try:
            got = fw.featurize(batch)
            corpus_got = fw.featurize(RunCorpus.from_records(batch))
        finally:
            fw.extractor.n_jobs, fw.extractor.backend = None, "auto"
        assert np.array_equal(got, want)
        assert np.array_equal(corpus_got, want)
        assert set(active_segments()) == before

    def test_k_from_one_metric(self, fitted):
        """Every selected column comes from one metric: each kind reads at
        most one column per run, so one-run batches hit width-1 views."""
        fw, runs = fitted
        n_kinds = _KERNELS[fw.config.feature_method][1]
        metric = np.flatnonzero(fw.extractor.keep_mask_) // n_kinds
        target = np.bincount(metric).argmax()
        scores = (metric == target).astype(float)
        one = fw.selector
        try:
            fw.selector = SelectKBest(
                k=int(scores.sum()), score_func=lambda X, y: scores
            ).fit(np.zeros((2, len(scores))), ["a", "b"])
            plan = fw.extraction_plan()
            assert list(plan.metrics) == [target]
            for B in (1, 2, 8):
                batch = _mixed_lengths(runs, B, seed=10 + B)
                assert np.array_equal(fw.featurize(batch), _full_then_select(fw, batch))
        finally:
            fw.selector = one

    def test_plan_lists_only_what_the_model_reads(self, fitted):
        fw, _ = fitted
        plan = fw.extraction_plan()
        assert plan.n_columns == len(fw.selector.support_)
        assert sum(len(m) for m in plan.kind_metrics) == plan.n_columns
        assert len(plan.metrics) <= len(fw.catalog.names)
        assert plan.scaler.n_features_in_ == plan.n_columns

    def test_plan_rejects_another_extractor(self, fitted, tiny_config):
        fw, runs = fitted
        other = "tsfresh" if fw.config.feature_method == "mvts" else "mvts"
        fw2 = ALBADross(tiny_config.catalog, FrameworkConfig(feature_method=other))
        fw2.fit_features(runs[:12])
        with pytest.raises(ValueError, match="plan is for"):
            fw2.extractor.extract(runs[:2], fw.extraction_plan())


class TestPlanLifecycle:
    @pytest.fixture()
    def trained(self, tiny_config):
        runs = generate_runs(tiny_config, rng=1)
        fw = ALBADross(
            tiny_config.catalog,
            FrameworkConfig(n_features=30, model_params={"n_estimators": 6},
                            random_state=0),
        )
        fw.fit_features(runs)
        seed = runs[::4]
        fw.fit_initial(seed, [r.label for r in seed])
        return fw, runs

    @pytest.mark.parametrize("warm", [False, True])
    def test_absorb_keeps_the_plan(self, trained, warm):
        fw, runs = trained
        plan = fw.extraction_plan()
        fw.absorb(runs[1:5], [r.label for r in runs[1:5]], warm=warm)
        assert fw.extraction_plan() is plan

    def test_new_selector_rederives(self, trained):
        fw, runs = trained
        plan = fw.extraction_plan()
        seed = runs[::5]
        fw.fit_initial(seed, [r.label for r in seed])
        assert fw.extraction_plan() is not plan

    def test_plan_needs_a_selector(self, tiny_config):
        with pytest.raises(RuntimeError, match="fit_initial"):
            ALBADross(tiny_config.catalog).extraction_plan()

    def test_concurrent_first_use_serves_identical_rows(self, trained):
        """Sharded engines share one framework: threads racing to derive
        the plan on first use all get the reference rows."""
        import sys
        import threading

        fw, runs = trained
        want = _full_then_select(fw, runs[:3])
        fresh = pickle.loads(pickle.dumps(fw))  # no plan derived yet
        results, errors = [], []

        def work():
            try:
                for _ in range(3):
                    results.append(fresh.featurize(runs[:3]))
            except Exception as exc:  # reported below; the thread must end
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == 18
        assert all(np.array_equal(r, want) for r in results)

    def test_pickle_leaves_the_plan_out(self, trained):
        fw, runs = trained
        before = fw.diagnose(runs[:6])
        loaded = pickle.loads(pickle.dumps(fw))
        assert "_plan" not in loaded.__dict__
        assert loaded.diagnose(runs[:6]) == before

    def test_artifact_without_cached_names_serves_identically(self, trained, tmp_path):
        """Extractors pickled before the kept-name cache (and frameworks
        before the plan) load, rederive both, and answer bit for bit."""
        from repro.core.persistence import load_framework, save_framework

        fw, runs = trained
        want = fw.featurize(runs[:9])
        names = fw.extractor.transform(runs[:2]).feature_names
        old = pickle.loads(pickle.dumps(fw))
        del old.extractor.__dict__["_kept_names"]
        path = save_framework(old, tmp_path / "model.pkl")
        loaded = load_framework(path)
        assert loaded.extractor.transform(runs[:2]).feature_names == names
        assert np.array_equal(loaded.featurize(runs[:9]), want)
        assert loaded.diagnose(runs[:9]) == fw.diagnose(runs[:9])


def test_scaler_select_equals_selecting_a_full_transform():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 12))
    scaler = MinMaxScaler(clip=True).fit(X[:20])
    cols = np.array([7, 0, 3])
    assert np.array_equal(
        scaler.select(cols).transform(X[20:, cols]), scaler.transform(X[20:])[:, cols]
    )


def test_plan_orders_columns_like_the_selector(fitted):
    fw, _ = fitted
    plan = ExtractionPlan(fw.extractor, fw.selector.support_, fw.scaler)
    n_kinds = _KERNELS[fw.config.feature_method][1]
    raw = np.flatnonzero(fw.extractor.keep_mask_)[fw.selector.support_]
    # kind f's metrics, in model order, are the plan's kind_metrics[f]
    for f in range(n_kinds):
        want = raw[raw % n_kinds == f] // n_kinds
        assert np.array_equal(plan.metrics[plan.kind_metrics[f]], want)
