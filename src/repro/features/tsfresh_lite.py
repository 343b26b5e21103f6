"""TSFRESH-style extended feature extraction (paper Sec. III-A).

TSFRESH computes 794 features per metric from 63 characterization methods;
the paper highlights approximate entropy, power spectral density (Welch),
and variation coefficients as the advanced additions beyond MVTS. This
module reproduces the *families* rather than the full 794: every metric
gets the 48 MVTS features plus 64 advanced features (112 per metric),
spanning entropy measures, Welch spectral statistics, nonlinearity scores,
complexity estimates, distribution quantiles, energy localization, and
autocorrelation aggregates. Strictly more expressive than MVTS — which is
what drives the paper's Volta result (TSFRESH wins there, Table V).

Every feature — approximate entropy included — is vectorized across all
M columns: ApEn builds its pairwise Chebyshev distance tensor for whole
blocks of columns at once (:func:`_approx_entropy_matrix`), and the
distinct-value counts come from a single sort along axis 0. The hot path
contains no per-metric Python loop.

Like :mod:`repro.features.mvts`, every kernel treats columns
independently with width-stable accumulation, so the column count is
arbitrary: the batched pipeline ``hstack``s equal-length runs into one
``(T, B*M)`` panel and calls :func:`extract_tsfresh` once, bit-identical
to per-run extraction. ApEn's column blocking is sized for such wide
panels (see :func:`_approx_entropy_matrix`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import signal

from .mvts import MVTS_KINDS, Kind, _autocorr, _extract_kinds, _validated, _View

__all__ = ["TSFRESH_FEATURE_NAMES", "extract_tsfresh", "feature_names_for"]


def _approx_entropy_column(
    x: np.ndarray, m: int = 2, r_frac: float = 0.2, max_len: int = 128
) -> float:
    """Approximate entropy of one series (Pincus 1991), vectorized.

    Uses embedding dimension ``m`` and tolerance ``r = r_frac * std``.
    Constant series return 0. The O(T²) pairwise comparison is computed on
    the first ``max_len`` samples — ApEn is routinely estimated on short
    windows, and this keeps long-run extraction linear in practice.

    Kept as the reference implementation; the hot path uses the
    whole-matrix :func:`_approx_entropy_matrix` (bit-identical output).
    """
    if len(x) > max_len:
        x = x[:max_len]
    T = len(x)
    sd = x.std()
    if sd < 1e-18 or T <= m + 1:
        return 0.0
    r = r_frac * sd

    def phi(mm: int) -> float:
        n = T - mm + 1
        # embedding matrix (n, mm)
        emb = np.lib.stride_tricks.sliding_window_view(x, mm)
        # pairwise Chebyshev distances via broadcasting: (n, n)
        dist = np.max(np.abs(emb[:, None, :] - emb[None, :, :]), axis=2)
        counts = np.mean(dist <= r, axis=1)
        return float(np.mean(np.log(counts)))

    return phi(m) - phi(m + 1)


def _approx_entropy_matrix(
    X: np.ndarray, m: int = 2, r_frac: float = 0.2, max_len: int = 128,
    block_elems: int = 1 << 16,
) -> np.ndarray:
    """Approximate entropy of every column of ``(T, M)`` at once.

    Same algorithm and float ordering as :func:`_approx_entropy_column`
    (all reductions run over the trailing axis, so the pairwise-summation
    blocking matches the per-column code and results are bit-identical),
    but the per-column Python loop is gone: the pairwise Chebyshev
    distance tensor is built for a whole block of columns per numpy call.

    ``block_elems`` bounds the ``(cols, n, n)`` working set — and because
    column blocking never mixes columns, the bound changes *nothing* about
    the output bytes, only the temporary-allocation size. The default is
    batch-aware: run-batched extraction feeds panels of thousands of
    columns (B runs × M metrics), and a 64Ki-element block (~0.5 MB dist
    tensor, ~1.5 MB live temporaries) keeps each block L2-resident, which
    on a wide panel measures ~3x faster than letting the tensor grow to
    tens of MB and thrash memory bandwidth.
    """
    T = min(X.shape[0], max_len)
    M = X.shape[1]
    if T <= m + 1:
        return np.zeros(M)
    # column-major copy: every reduction below runs over the last axis of
    # a contiguous array, matching the 1-D reductions of the reference
    Xt = np.ascontiguousarray(X[:T].T)  # (M, T)
    sd = Xt.std(axis=1)
    r = r_frac * sd
    out = np.empty(M)
    cols_per_block = max(1, block_elems // max(1, (T - m) * (T - m)))

    def phi(xb: np.ndarray, rb: np.ndarray, mm: int) -> np.ndarray:
        n = T - mm + 1
        # dist[c, a, b] = max_k |x[c, a+k] - x[c, b+k]|, built by
        # accumulating the elementwise max over the mm offsets
        dist = np.abs(xb[:, :n, None] - xb[:, None, :n])
        for k in range(1, mm):
            np.maximum(
                dist,
                np.abs(xb[:, k:k + n, None] - xb[:, None, k:k + n]),
                out=dist,
            )
        counts = np.mean(dist <= rb[:, None, None], axis=2)
        return np.mean(np.log(counts), axis=1)

    for lo in range(0, M, cols_per_block):
        hi = min(M, lo + cols_per_block)
        xb, rb = Xt[lo:hi], r[lo:hi]
        out[lo:hi] = phi(xb, rb, m) - phi(xb, rb, m + 1)
    return np.where(sd < 1e-18, 0.0, out)


class _TsfreshView(_View):
    """A :class:`~repro.features.mvts._View` with the TSFRESH intermediates."""

    RUN_MASKS = {
        **_View.RUN_MASKS,
        "longest_strike_above_median": lambda v: v.X > v.median,
        "longest_strike_below_median": lambda v: v.X < v.median,
    }

    @cached_property
    def median(self) -> np.ndarray:
        return np.median(self.X, axis=0)

    @cached_property
    def welch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Welch PSD over all columns at once: (freqs, psd, safe power)."""
        freqs, psd = signal.welch(self.X, fs=1.0, nperseg=min(self.T, 64), axis=0)
        total_power = psd.sum(axis=0)
        return freqs, psd, np.where(total_power > 1e-18, total_power, 1.0)

    @cached_property
    def psd_norm(self) -> np.ndarray:
        _, psd, safe_power = self.welch
        return psd / safe_power

    @cached_property
    def centroid(self) -> np.ndarray:
        # np.sum, not `freqs @ psd`: BLAS accumulation order varies with
        # matrix width, which would break per-run vs run-batched
        # bit-identity (see _linfit in mvts.py)
        freqs, psd, safe_power = self.welch
        return np.sum(freqs[:, None] * psd, axis=0) / safe_power

    @cached_property
    def psd_moment2(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectral deviation from the centroid: (fdev, m2, safe m2)."""
        freqs = self.welch[0]
        fdev = freqs[:, None] - self.centroid[None, :]
        m2 = np.sum(self.psd_norm * fdev**2, axis=0)
        return fdev, m2, np.where(m2 > 1e-18, m2, 1.0)

    @cached_property
    def q1q3(self) -> np.ndarray:
        return np.percentile(self.X, [25, 75], axis=0)

    @cached_property
    def corridor(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std of |change| inside the interquartile corridor."""
        X = self.X
        q1, q3 = self.q1q3
        in_corridor = (X[:-1] >= q1) & (X[:-1] <= q3) & (X[1:] >= q1) & (X[1:] <= q3)
        abs_d = np.abs(self.diffs)
        n_in = np.maximum(in_corridor.sum(axis=0), 1)
        inside = in_corridor.any(axis=0)
        mean = np.where(inside, (abs_d * in_corridor).sum(axis=0) / n_in, 0.0)
        sq_dev = ((abs_d - mean) ** 2) * in_corridor
        return mean, np.where(inside, np.sqrt(sq_dev.sum(axis=0) / n_in), 0.0)

    @cached_property
    def deciles(self) -> np.ndarray:
        return np.percentile(self.X, [10, 30, 70, 90, 99], axis=0)

    @cached_property
    def q40_60(self) -> np.ndarray:
        return np.percentile(self.X, [40, 60], axis=0)

    @cached_property
    def energy_chunks(self) -> list[np.ndarray]:
        """Energy of each time quarter as a fraction of the total."""
        sq = self.X**2
        total_energy = np.where(sq.sum(axis=0) > 1e-18, sq.sum(axis=0), 1.0)
        return [
            sq[idx].sum(axis=0) / total_energy
            for idx in np.array_split(np.arange(self.T), 4)
        ]

    @cached_property
    def index_mass(self) -> list[np.ndarray]:
        """Relative index where cumulative |x| mass passes 25/50/75%."""
        mass = np.cumsum(np.abs(self.X), axis=0)
        total_mass = np.where(mass[-1] > 1e-18, mass[-1], 1.0)
        rel = mass / total_mass
        return [(np.argmax(rel >= q, axis=0) + 1) / self.T for q in (0.25, 0.5, 0.75)]

    @cached_property
    def acs(self) -> np.ndarray:
        return np.stack([_autocorr(self.X, lag) for lag in range(1, 11)])

    @cached_property
    def fft_abs(self) -> np.ndarray:
        return np.abs(np.fft.rfft(self.X, axis=0))

    @cached_property
    def agg_trend(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear trend over 4 chunk means: (slope, residual rms)."""
        chunk_means = np.stack(
            [self.X[idx].mean(axis=0) for idx in np.array_split(np.arange(self.T), 4)]
        )  # (4, W)
        tc = np.arange(4, dtype=np.float64)
        tc_c = tc - tc.mean()
        slope = np.sum(
            tc_c[:, None] * (chunk_means - chunk_means.mean(axis=0)), axis=0
        ) / np.sum(tc_c**2)
        fitted = chunk_means.mean(axis=0) + np.outer(tc_c, slope)
        resid = chunk_means - fitted
        return slope, np.sqrt(np.mean(resid**2, axis=0))

    @cached_property
    def n_unique(self) -> np.ndarray:
        # distinct-value counts from one sort along axis 0 (adjacent
        # inequalities in sorted order), not a per-column np.unique loop
        return 1 + np.count_nonzero(np.diff(np.sort(self.X, axis=0), axis=0), axis=0)

    @cached_property
    def ar(self) -> tuple[np.ndarray, np.ndarray]:
        """AR(2) coefficients via Yule-Walker: (phi1, phi2 = lag-2 PACF)."""
        r1 = _autocorr(self.X, 1)
        r2 = _autocorr(self.X, 2)
        denom = np.where(np.abs(1 - r1**2) > 1e-12, 1 - r1**2, 1.0)
        phi2 = (r2 - r1**2) / denom
        return r1 * (1 - phi2), phi2

    @cached_property
    def above_q90(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last relative index above the 90th percentile."""
        above = self.X > np.percentile(self.X, 90, axis=0)
        any_above = above.any(axis=0)
        first = np.argmax(above, axis=0) / self.T
        last = (self.T - 1 - np.argmax(above[::-1], axis=0)) / self.T
        return np.where(any_above, first, 1.0), np.where(any_above, last, 0.0)


def _band(b: int) -> Callable[[_TsfreshView], np.ndarray]:
    def value(v: _TsfreshView) -> np.ndarray:
        freqs, psd, safe_power = v.welch
        idx = np.array_split(np.arange(len(freqs)), 4)[b]
        return psd[idx].sum(axis=0) / safe_power
    return value


def _spectral_entropy(v: _TsfreshView) -> np.ndarray:
    p_norm = v.psd_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        log_p = np.where(p_norm > 0, np.log(np.where(p_norm > 0, p_norm, 1.0)), 0.0)
    return -np.sum(p_norm * log_p, axis=0)


def _psd_moment(power: int) -> Callable[[_TsfreshView], np.ndarray]:
    def value(v: _TsfreshView) -> np.ndarray:
        fdev, m2, safe_m2 = v.psd_moment2
        if power == 2:
            return m2
        scale = safe_m2**1.5 if power == 3 else safe_m2**2
        return np.where(m2 > 1e-18, np.sum(v.psd_norm * fdev**power, axis=0) / scale, 0.0)
    return value


def _binned_entropy(v: _TsfreshView) -> np.ndarray:
    """Entropy of a 10-bin histogram per column."""
    mn, mx = v.mn, v.mx
    span = np.where(mx - mn > 1e-18, mx - mn, 1.0)
    bins = np.clip(((v.X - mn) / span * 10).astype(int), 0, 9)
    be = np.zeros(v.width)
    for b in range(10):
        p = np.mean(bins == b, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            be -= np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return be


def _peaks(support: int) -> Callable[[_TsfreshView], np.ndarray]:
    """Count of points strictly greater than ``support`` neighbours each side."""
    def value(v: _TsfreshView) -> np.ndarray:
        X, T = v.X, v.T
        if T <= 2 * support:
            return np.zeros(v.width)
        pk = np.ones((T - 2 * support, v.width), dtype=bool)
        center = X[support:T - support]
        for off in range(1, support + 1):
            pk &= center > X[support - off:T - support - off]
            pk &= center > X[support + off:T - support + off]
        return pk.sum(axis=0)
    return value


# the 64 advanced kinds, appended to the 48 MVTS kinds
_EXTRA_KINDS: tuple[Kind, ...] = (
    # approximate entropy, whole matrix at once
    ("approx_entropy", None, lambda v: _approx_entropy_matrix(v.X)),
    ("psd_band0", "psd", _band(0)),
    ("psd_band1", "psd", _band(1)),
    ("psd_band2", "psd", _band(2)),
    ("psd_band3", "psd", _band(3)),
    ("spectral_centroid", "psd", lambda v: v.centroid),
    ("spectral_entropy", "psd", _spectral_entropy),
    ("max_psd_freq", "psd", lambda v: v.welch[0][np.argmax(v.welch[1], axis=0)]),
    # complexity / nonlinearity
    ("cid_ce", None, lambda v: np.sqrt(np.sum((v.diffs / v.safe_sd) ** 2, axis=0))),
    ("c3_lag1", None, lambda v: np.mean(v.X[2:] * v.X[1:-1] * v.X[:-2], axis=0)),
    ("time_reversal_asymmetry", None,
     lambda v: np.mean(v.X[2:] ** 2 * v.X[1:-1] - v.X[1:-1] * v.X[:-2] ** 2, axis=0)),
    ("binned_entropy", None, _binned_entropy),
    ("number_peaks", None, _peaks(3)),
    ("quantile_10", "deciles", lambda v: v.deciles[0]),
    ("quantile_30", "deciles", lambda v: v.deciles[1]),
    ("quantile_70", "deciles", lambda v: v.deciles[2]),
    ("quantile_90", "deciles", lambda v: v.deciles[3]),
    ("quantile_99", "deciles", lambda v: v.deciles[4]),
    ("energy_chunk0", "energy", lambda v: v.energy_chunks[0]),
    ("energy_chunk1", "energy", lambda v: v.energy_chunks[1]),
    ("energy_chunk2", "energy", lambda v: v.energy_chunks[2]),
    ("energy_chunk3", "energy", lambda v: v.energy_chunks[3]),
    ("index_mass_q25", "index_mass", lambda v: v.index_mass[0]),
    ("index_mass_q50", "index_mass", lambda v: v.index_mass[1]),
    ("index_mass_q75", "index_mass", lambda v: v.index_mass[2]),
    ("autocorr_mean_1_10", "acs", lambda v: v.acs.mean(axis=0)),
    ("autocorr_std_1_10", "acs", lambda v: v.acs.std(axis=0)),
    ("autocorr_lag5", "acs", lambda v: v.acs[4]),
    ("autocorr_lag10", "acs", lambda v: v.acs[9]),
    ("longest_strike_above_median", "runs", lambda v: v.runs["longest_strike_above_median"]),
    ("longest_strike_below_median", "runs", lambda v: v.runs["longest_strike_below_median"]),
    ("count_above_q3", "q1q3", lambda v: np.sum(v.X > v.q1q3[1], axis=0)),
    ("count_below_q1", "q1q3", lambda v: np.sum(v.X < v.q1q3[0], axis=0)),
    ("fft_abs_mean", "fft", lambda v: v.fft_abs.mean(axis=0)),
    ("fft_abs_std", "fft", lambda v: v.fft_abs.std(axis=0)),
    ("fft_abs_coeff1", "fft",
     lambda v: v.fft_abs[1] if v.fft_abs.shape[0] > 1 else np.zeros(v.width)),
    # second wave: trend/AR/spectral-shape/duplication families
    ("agg_trend_slope", "agg_trend", lambda v: v.agg_trend[0]),
    ("agg_trend_stderr", "agg_trend", lambda v: v.agg_trend[1]),
    # change statistics restricted to the interquartile corridor
    ("change_quantiles_mean_abs", "q1q3", lambda v: v.corridor[0]),
    ("change_quantiles_std", "q1q3", lambda v: v.corridor[1]),
    ("ratio_unique_values", "unique", lambda v: v.n_unique / v.T),
    ("has_duplicate_max", None, lambda v: (np.sum(v.X == v.mx, axis=0) > 1).astype(float)),
    ("has_duplicate_min", None, lambda v: (np.sum(v.X == v.mn, axis=0) > 1).astype(float)),
    ("ar_coef_1", "ar", lambda v: v.ar[0]),
    ("ar_coef_2", "ar", lambda v: v.ar[1]),
    # the same quantity, kept under its own name
    ("pacf_lag2", "ar", lambda v: v.ar[1]),
    # spectral shape: central moments of the normalized PSD over frequency
    ("psd_variance", "psd", _psd_moment(2)),
    ("psd_skewness", "psd", _psd_moment(3)),
    ("psd_kurtosis", "psd", _psd_moment(4)),
    # order statistics / level-crossing families
    ("mean_abs_max_7", None,
     lambda v: np.mean(np.sort(np.abs(v.X), axis=0)[-min(7, v.T):], axis=0)),
    ("crossings_median", None,
     lambda v: np.sum(np.abs(np.diff(np.sign(v.X - v.median), axis=0)) > 1, axis=0)),
    ("range_count_1sigma", None, lambda v: np.mean(np.abs(v.X - v.mu) <= v.sd, axis=0)),
    ("variance_gt_std", None, lambda v: (v.sd**2 > v.sd).astype(float)),
    ("pct_reoccurring_points", "unique", lambda v: 1.0 - v.n_unique / v.T),
    ("quantile_40", "q40_60", lambda v: v.q40_60[0]),
    ("quantile_60", "q40_60", lambda v: v.q40_60[1]),
    # higher-lag nonlinearity
    ("c3_lag2", None, lambda v: np.mean(v.X[4:] * v.X[2:-2] * v.X[:-4], axis=0)),
    ("trev_lag2", None,
     lambda v: np.mean(v.X[4:] ** 2 * v.X[2:-2] - v.X[2:-2] * v.X[:-4] ** 2, axis=0)),
    # peak counts at other supports
    ("number_peaks_s1", None, _peaks(1)),
    ("number_peaks_s5", None, _peaks(5)),
    # where the extreme regime lives in time
    ("first_loc_above_q90", "q90", lambda v: v.above_q90[0]),
    ("last_loc_above_q90", "q90", lambda v: v.above_q90[1]),
    ("sum_abs_changes", None, lambda v: np.sum(np.abs(v.diffs), axis=0)),
    ("cid_ce_unnormalized", None, lambda v: np.sqrt(np.sum(v.diffs**2, axis=0))),
)

TSFRESH_KINDS: tuple[Kind, ...] = MVTS_KINDS + _EXTRA_KINDS

TSFRESH_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _, _ in TSFRESH_KINDS)

assert len(TSFRESH_FEATURE_NAMES) == 112


def extract_tsfresh(
    X: np.ndarray, columns: Sequence[Sequence[int]] | None = None
) -> np.ndarray:
    """Compute the 112 TSFRESH-lite features per column of a (T, M) matrix.

    Returns a flat ``(M * 112,)`` vector, metric-major, ordered per
    :data:`TSFRESH_FEATURE_NAMES`. Because the layout is column-major a
    ``(T, B*M)`` panel of B equal-length runs yields ``(B*M*112,)``, which
    reshapes to one ``(B, M*112)`` feature row per run.

    ``columns``, one index sequence per kind, computes each kind on only
    its columns; the result is then kind-major, as for
    :func:`~repro.features.mvts.extract_mvts`. Kinds that share a joint
    computation (the Welch PSD, the autocorrelation stack, a
    multi-quantile call) compute it once on the union of their columns.
    """
    return _extract_kinds(_validated(X, 8), columns, TSFRESH_KINDS, _TsfreshView)


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_tsfresh` output order."""
    return [f"{m}::{f}" for m in metric_names for f in TSFRESH_FEATURE_NAMES]
