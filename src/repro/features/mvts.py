"""MVTS-style statistical feature extraction (paper Sec. III-A).

The MVTS-Data Toolkit computes 48 statistical features per metric:
descriptive statistics, absolute differences between the first- and
second-half statistics of the series, and long-run trend features (longest
monotonic increase, etc.). This module reproduces that inventory exactly —
48 named features per metric — with every feature computed as a vectorized
operation over the whole (T, M) run matrix at once: the hot path contains
no per-metric Python loop.

Every kernel here treats columns independently (all reductions run over
axis 0 with width-stable accumulation), so the extractor accepts
arbitrary column counts: *B* runs of equal length can be ``hstack``-ed
into one ``(T, B*M)`` panel and featurized in a single pass, bit-identical
to extracting each run separately. The batched pipeline
(:mod:`repro.features.pipeline`) leans on exactly this contract.

The same contract lets a caller compute each feature *kind* on only the
columns it needs (``extract_mvts(X, columns)``): a deployed model reads a
few hundred of the ~2.5k columns, and the selection-aware serving path
(:class:`repro.features.pipeline.ExtractionPlan`) extracts just those,
bit-identical to extracting everything and selecting afterwards. Full
extraction is the same code with every column selected for every kind.

Input series must be NaN-free (the pipeline interpolates first).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = ["MVTS_FEATURE_NAMES", "extract_mvts", "feature_names_for"]


def _longest_true_run(mask: np.ndarray) -> np.ndarray:
    """Per-column length of the longest run of True in a (T, M) mask."""
    T, M = mask.shape
    best = np.zeros(M, dtype=np.int64)
    current = np.zeros(M, dtype=np.int64)
    for t in range(T):
        current += 1
        current *= mask[t]  # a False resets the run to 0
        np.maximum(best, current, out=best)
    return best


def _autocorr(X: np.ndarray, lag: int) -> np.ndarray:
    """Per-column lag-k autocorrelation; 0 for constant columns."""
    T = X.shape[0]
    if lag >= T:
        return np.zeros(X.shape[1])
    mu = X.mean(axis=0)
    var = X.var(axis=0)
    cov = np.mean((X[:-lag] - mu) * (X[lag:] - mu), axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ac = np.where(var > 1e-18, cov / np.where(var > 1e-18, var, 1.0), 0.0)
    return ac


def _linfit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column least-squares slope and intercept against time.

    The time-weighted sum is an explicit ``np.sum`` over axis 0 rather
    than a ``@`` matmul: BLAS picks its accumulation order from the
    matrix *width*, so a matmul would make each column's slope depend on
    how many sibling columns ride in the same call — breaking the
    bit-identity contract between per-run and run-batched extraction.
    """
    T = X.shape[0]
    t = np.arange(T, dtype=np.float64)
    t_mean = t.mean()
    t_var = np.sum((t - t_mean) ** 2)
    mu = X.mean(axis=0)
    slope = np.sum((t - t_mean)[:, None] * (X - mu), axis=0) / t_var
    intercept = mu - slope * t_mean
    return slope, intercept


class _View:
    """One column subset of a ``(T, W)`` panel and its shared intermediates.

    Each intermediate is computed on first use and reused by every
    feature kind read from this view. ``names`` lists the kinds that read
    it; only :attr:`runs` looks at it. The panel is never one column wide
    (see :func:`_extract_kinds`).
    """

    # kind name -> the mask whose longest True run it reports
    RUN_MASKS: dict[str, Callable[["_View"], np.ndarray]] = {
        "longest_strike_above_mean": lambda v: v.X > v.mu,
        "longest_strike_below_mean": lambda v: v.X < v.mu,
        "longest_monotonic_increase": lambda v: v.diffs > 0,
        "longest_monotonic_decrease": lambda v: v.diffs < 0,
    }

    def __init__(self, X: np.ndarray, names: set[str]):
        self.X = X
        self.T, self.width = X.shape
        self.names = names

    @cached_property
    def mu(self) -> np.ndarray:
        return self.X.mean(axis=0)

    @cached_property
    def sd(self) -> np.ndarray:
        return self.X.std(axis=0)

    @cached_property
    def safe_sd(self) -> np.ndarray:
        return np.where(self.sd > 1e-18, self.sd, 1.0)

    @cached_property
    def centered(self) -> np.ndarray:
        return self.X - self.mu

    @cached_property
    def z(self) -> np.ndarray:
        return self.centered / self.safe_sd

    @cached_property
    def quartiles(self) -> np.ndarray:
        return np.percentile(self.X, [25, 50, 75], axis=0)  # q1, median, q3

    @cached_property
    def mn(self) -> np.ndarray:
        return self.X.min(axis=0)

    @cached_property
    def mx(self) -> np.ndarray:
        return self.X.max(axis=0)

    @cached_property
    def diffs(self) -> np.ndarray:
        return np.diff(self.X, axis=0)

    @cached_property
    def linfit(self) -> tuple[np.ndarray, np.ndarray]:
        return _linfit(self.X)

    @cached_property
    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.T // 2
        return self.X[:half], self.X[half:]

    @cached_property
    def runs(self) -> dict[str, np.ndarray]:
        """Longest True run of every requested run kind, in one time loop.

        The masks are stacked side by side so the Python loop over time
        runs once instead of once per kind. Masks built from ``diffs``
        are one row short; the False row that pads them ends no run.
        """
        wanted = [name for name in self.RUN_MASKS if name in self.names]
        masks = [self.RUN_MASKS[name](self) for name in wanted]
        stacked = np.zeros((self.T, len(masks) * self.width), dtype=bool)
        for i, mask in enumerate(masks):
            stacked[: mask.shape[0], i * self.width:(i + 1) * self.width] = mask
        best = _longest_true_run(stacked)
        return {
            name: best[i * self.width:(i + 1) * self.width]
            for i, name in enumerate(wanted)
        }


# A feature kind: (name, family, values-of-view). Kinds of one family read
# one joint computation (a multi-quantile percentile call, the run loop),
# so a selection computes the family once, on the union of its kinds'
# columns; a kind without a family gets a view of exactly its columns.
Kind = tuple[str, "str | None", Callable[[_View], np.ndarray]]


def _half_diff(stat: Callable[[np.ndarray], np.ndarray]) -> Callable[[_View], np.ndarray]:
    def value(v: _View) -> np.ndarray:
        A, B = v.halves
        return np.abs(stat(A) - stat(B))
    return value


def _loc(arg: Callable, last: bool) -> Callable[[_View], np.ndarray]:
    def value(v: _View) -> np.ndarray:
        if last:
            return (v.T - 1 - arg(v.X[::-1], axis=0)) / v.T
        return arg(v.X, axis=0) / v.T
    return value


def _ratio_beyond(k: int) -> Callable[[_View], np.ndarray]:
    def value(v: _View) -> np.ndarray:
        return np.mean(np.abs(v.centered) > k * v.safe_sd, axis=0)
    return value


def _variation_coefficient(v: _View) -> np.ndarray:
    mu, sd = v.mu, v.sd
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(np.abs(mu) > 1e-18, sd / np.where(np.abs(mu) > 1e-18, mu, 1.0), 0.0)


# the canonical, ordered 48-kind inventory
MVTS_KINDS: tuple[Kind, ...] = (
    ("mean", None, lambda v: v.mu),
    ("median", "quartiles", lambda v: v.quartiles[1]),
    ("std", None, lambda v: v.sd),
    ("var", None, lambda v: v.sd**2),
    ("min", None, lambda v: v.mn),
    ("max", None, lambda v: v.mx),
    ("range", None, lambda v: v.mx - v.mn),
    ("iqr", "quartiles", lambda v: v.quartiles[2] - v.quartiles[0]),
    ("q1", "quartiles", lambda v: v.quartiles[0]),
    ("q3", "quartiles", lambda v: v.quartiles[2]),
    ("skew", None, lambda v: np.where(v.sd > 1e-18, np.mean(v.z**3, axis=0), 0.0)),
    # excess kurtosis
    ("kurtosis", None, lambda v: np.where(v.sd > 1e-18, np.mean(v.z**4, axis=0) - 3.0, 0.0)),
    ("rms", None, lambda v: np.sqrt(np.mean(v.X**2, axis=0))),
    ("abs_mean", None, lambda v: np.mean(np.abs(v.X), axis=0)),
    ("total", None, lambda v: v.X.sum(axis=0)),
    ("abs_energy", None, lambda v: np.sum(v.X**2, axis=0)),
    ("mean_abs_change", None, lambda v: np.mean(np.abs(v.diffs), axis=0)),
    ("mean_change", None, lambda v: np.mean(v.diffs, axis=0)),
    ("mean_second_derivative", None,
     lambda v: np.mean(v.X[2:] - 2 * v.X[1:-1] + v.X[:-2], axis=0)),
    ("count_above_mean", None, lambda v: (v.X > v.mu).sum(axis=0)),
    ("count_below_mean", None, lambda v: (v.X < v.mu).sum(axis=0)),
    ("longest_strike_above_mean", "runs", lambda v: v.runs["longest_strike_above_mean"]),
    ("longest_strike_below_mean", "runs", lambda v: v.runs["longest_strike_below_mean"]),
    # run length in points
    ("longest_monotonic_increase", "runs", lambda v: v.runs["longest_monotonic_increase"] + 1),
    ("longest_monotonic_decrease", "runs", lambda v: v.runs["longest_monotonic_decrease"] + 1),
    ("n_mean_crossings", None,
     lambda v: np.sum(np.abs(np.diff(np.sign(v.X - v.mu), axis=0)) > 1, axis=0)),
    ("linear_slope", "trend", lambda v: v.linfit[0]),
    ("linear_intercept", "trend", lambda v: v.linfit[1]),
    ("first_loc_of_max", None, _loc(np.argmax, last=False)),
    ("first_loc_of_min", None, _loc(np.argmin, last=False)),
    ("last_loc_of_max", None, _loc(np.argmax, last=True)),
    ("last_loc_of_min", None, _loc(np.argmin, last=True)),
    ("half_diff_mean", None, _half_diff(lambda H: H.mean(axis=0))),
    ("half_diff_median", None, _half_diff(lambda H: np.median(H, axis=0))),
    ("half_diff_std", None, _half_diff(lambda H: H.std(axis=0))),
    ("half_diff_var", None, _half_diff(lambda H: H.var(axis=0))),
    ("half_diff_min", None, _half_diff(lambda H: H.min(axis=0))),
    ("half_diff_max", None, _half_diff(lambda H: H.max(axis=0))),
    ("half_diff_q1", None, _half_diff(lambda H: np.percentile(H, 25, axis=0))),
    ("half_diff_q3", None, _half_diff(lambda H: np.percentile(H, 75, axis=0))),
    ("autocorr_lag1", None, lambda v: _autocorr(v.X, 1)),
    ("autocorr_lag2", None, lambda v: _autocorr(v.X, 2)),
    ("ratio_beyond_1sigma", None, _ratio_beyond(1)),
    ("ratio_beyond_2sigma", None, _ratio_beyond(2)),
    ("variation_coefficient", None, _variation_coefficient),
    ("p5", None, lambda v: np.percentile(v.X, 5, axis=0)),
    ("p95", None, lambda v: np.percentile(v.X, 95, axis=0)),
    ("median_abs_deviation", "quartiles",
     lambda v: np.median(np.abs(v.X - v.quartiles[1]), axis=0)),
)

MVTS_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _, _ in MVTS_KINDS)

assert len(MVTS_FEATURE_NAMES) == 48


def _two_wide(X: np.ndarray) -> np.ndarray:
    """``X`` as a C-contiguous panel at least two columns wide.

    A one-column ``(T, 1)`` array is contiguous along T, so numpy reduces
    it pairwise instead of row by row, and its sums differ in the last
    bits from the same column inside a wider panel. Repeating the column
    restores row-by-row accumulation; callers drop the copy.
    """
    if X.shape[1] == 1:
        return X.take([0, 0], axis=1)
    return np.ascontiguousarray(X)


def _extract_kinds(
    X: np.ndarray,
    columns: Sequence[Sequence[int]] | None,
    kinds: tuple[Kind, ...],
    view_type: type[_View],
) -> np.ndarray:
    """Run the feature kinds on a validated ``(T, M)`` panel.

    With ``columns=None`` every kind runs on every column and the result
    is the flat metric-major ``(M * n_kinds,)`` vector. Otherwise
    ``columns[k]`` is the column indices kind ``k`` is computed on, and
    the result concatenates the kinds in order: kind 0's values on its
    columns, then kind 1's, … Each value equals, bit for bit, the same
    kind and column of the full extraction, because every kernel reduces
    per column and no view is narrower than two columns.
    """
    if columns is None:
        M = X.shape[1]
        view = view_type(_two_wide(X), {name for name, _, _ in kinds})
        feats = np.empty((len(kinds), M))
        for k, (_, _, value) in enumerate(kinds):
            feats[k] = value(view)[:M]
        return feats.T.ravel()  # metric-major

    if len(columns) != len(kinds):
        raise ValueError(
            f"columns selects {len(columns)} kinds, the extractor has {len(kinds)}"
        )
    cols = [np.asarray(c, dtype=np.intp).reshape(-1) for c in columns]
    groups: dict[str, list[int]] = {}
    for k, (name, family, _) in enumerate(kinds):
        if cols[k].size:
            groups.setdefault(family or name, []).append(k)
    views: dict[bytes, _View] = {}
    values: list[np.ndarray | None] = [None] * len(kinds)
    for members in groups.values():
        # a lone kind's view is its columns as given; a family's is the
        # sorted union, from which each kind gathers its own columns
        union = (
            cols[members[0]] if len(members) == 1
            else np.unique(np.concatenate([cols[k] for k in members]))
        )
        key = union.tobytes()
        if key not in views:
            views[key] = view_type(_two_wide(X.take(union, axis=1)), set())
        view = views[key]
        view.names.update(kinds[k][0] for k in members)
        for k in members:
            value = kinds[k][2](view)
            values[k] = (
                value[: union.size] if len(members) == 1
                else value[np.searchsorted(union, cols[k])]
            )
    out = np.empty(sum(c.size for c in cols))
    lo = 0
    for value in values:
        if value is not None:
            out[lo:lo + value.size] = value
            lo += value.size
    return out


def _validated(X: np.ndarray, min_steps: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected (T, M), got {X.shape}")
    if X.shape[0] < min_steps:
        raise ValueError(f"need at least {min_steps} timesteps, got {X.shape[0]}")
    if np.isnan(X).any():
        raise ValueError("input contains NaNs; interpolate first (see pipeline)")
    return X


def extract_mvts(
    X: np.ndarray, columns: Sequence[Sequence[int]] | None = None
) -> np.ndarray:
    """Compute the 48 MVTS features for every column of a (T, M) matrix.

    Returns a flat ``(M * 48,)`` vector ordered metric-major: all 48
    features of metric 0, then metric 1, … (matching
    :func:`feature_names_for`).

    ``columns``, one index sequence per kind of :data:`MVTS_FEATURE_NAMES`,
    computes each kind on only its columns instead; the result is then
    kind-major, ``len(columns[0]) + len(columns[1]) + …`` values (see
    :func:`_extract_kinds`), each bit-identical to the full extraction.
    """
    return _extract_kinds(_validated(X, 4), columns, MVTS_KINDS, _View)


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_mvts` output order."""
    return [f"{m}::{f}" for m in metric_names for f in MVTS_FEATURE_NAMES]
