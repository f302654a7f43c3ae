"""Statistical tests and summaries for experiment records.

Sums of squares, rank handling, the bootstrap, the Wilcoxon
enumeration and the studentized-range tail are implemented here; the F
tail is ``scipy.special.fdtrc``, the function behind scipy's ``f.sf``.
``scipy.special`` is imported on the first call that needs it, so
importing actreg loads no scipy. Degenerate inputs (zero variance
everywhere) return flagged results instead of NaN so downstream tables
never contain non-finite entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .records import plain_int
from .rng import Seed, make_generator

# Tukey's family-wise error rate, and the bootstrap's resample count
# and percent confidence level
TUKEY_ALPHA = 0.05
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_LEVEL = 95.0
# resamples gathered at once: 128 rows of a 300-value sample are 300 KB
_BOOTSTRAP_BLOCK = 128


@dataclass(frozen=True)
class AnovaSource:
    """One row of an ANOVA table."""

    source: str
    f: float
    p: float
    df1: int
    df2: int
    partial_eta2: float
    degenerate: bool = False


@dataclass(frozen=True)
class TukeyPair:
    group_a: str
    group_b: str
    mean_diff: float  # mean(b) - mean(a)
    q: float
    p_adj: float
    reject: bool
    degenerate: bool = False


@dataclass(frozen=True)
class BootstrapCI:
    mean: float
    lower: float
    upper: float
    level: float


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # min(W+, W-) over nonzero differences
    p: float          # two-sided
    n_nonzero: int
    method: str       # "exact", "normal", or "degenerate"


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def _sample(values, name: str, min_size: int = 1) -> np.ndarray:
    """``values`` as a finite 1-D float array of at least ``min_size`` entries.

    Raises ValidationError naming ``name`` otherwise.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < min_size:
        raise ValidationError(f"{name} must be a 1-D sequence of at least "
                              f"{min_size} values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must hold only finite values")
    return arr


def _clean_groups(groups: Mapping[str, Sequence[float]],
                  min_size: int = 2) -> dict[str, np.ndarray]:
    if len(groups) < 2:
        raise ValidationError(f"need at least 2 groups, got {len(groups)}")
    return {str(name): _sample(values, f"group {name!r}", min_size)
            for name, values in groups.items()}


def _between_within(groups: dict[str, np.ndarray]) -> tuple[float, float, int, int]:
    allv = np.concatenate(list(groups.values()))
    grand = allv.mean()
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in groups.values())
    ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in groups.values())
    return float(ssb), float(ssw), len(groups) - 1, allv.size - len(groups)


def _f_row(name: str, ss: float, df1: int, sse: float, df2: int) -> AnovaSource:
    """The F-test row of one effect against the residual, for both ANOVAs.

    Zero residual variance makes the test undefined: the row comes back
    degenerate with F = 0, p = 1 when the effect is zero too, and p = 0
    with partial eta squared 1 when it is not.
    """
    if sse == 0.0:
        return AnovaSource(name, 0.0, 1.0 if ss == 0.0 else 0.0, df1, df2,
                           0.0 if ss == 0.0 else 1.0, degenerate=True)
    from scipy.special import fdtrc
    f = (ss / df1) / (sse / df2)
    return AnovaSource(name, float(f), float(fdtrc(df1, df2, f)), df1, df2,
                       ss / (ss + sse))


def one_way_anova(groups: Mapping[str, Sequence[float]]) -> AnovaSource:
    """One-way fixed-effects ANOVA with eta squared.

    F = (SSB / df_between) / (SSW / df_within). Zero within-group
    variance is degenerate, as ``_f_row`` describes.
    """
    ssb, ssw, df1, df2 = _between_within(_clean_groups(groups))
    return _f_row("group", ssb, df1, ssw, df2)


def _dummy(levels: list, values: list) -> np.ndarray:
    """Treatment-coded indicator columns, first level dropped."""
    code = {lev: i for i, lev in enumerate(levels)}
    return np.eye(len(levels))[[code[v] for v in values], 1:]


def _rss(x: np.ndarray, y: np.ndarray) -> float:
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    r = y - x @ beta
    return float(r @ r)


def two_way_anova_type2(rows: Sequence[tuple[Hashable, Hashable, float]],
                        factor_names: tuple[str, str] = ("A", "B"),
                        ) -> list[AnovaSource]:
    """Two-way fixed-effects ANOVA with Type-II sums of squares.

    Type-II tests each main effect after the other main effect, and the
    interaction after both, which stays well defined on unbalanced data
    and reduces to the classic cell-means decomposition when balanced.
    Every factor-level combination must be observed.

    Args:
        rows: (level_a, level_b, response) triples.
        factor_names: labels for the table rows.

    Returns:
        Three AnovaSource rows: factor A, factor B, interaction.
    """
    if len(rows) < 2:
        raise ValidationError("need at least 2 observations")
    a_vals = [r[0] for r in rows]
    b_vals = [r[1] for r in rows]
    y = np.asarray([r[2] for r in rows], dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValidationError("response contains non-finite values")
    la = sorted(set(a_vals), key=str)
    lb = sorted(set(b_vals), key=str)
    if len(la) < 2 or len(lb) < 2:
        raise ValidationError(f"both factors need >= 2 levels, got "
                              f"{len(la)} x {len(lb)}")
    seen = set(zip(a_vals, b_vals))
    for cell in ((a, b) for a in la for b in lb):
        if cell not in seen:
            raise ValidationError(f"empty cell {cell!r}: every combination "
                                  f"needs at least one observation")
    n = y.size
    df1a, df1b = len(la) - 1, len(lb) - 1
    df_int = df1a * df1b
    df_err = n - len(la) * len(lb)
    if df_err < 1:
        raise ValidationError("no residual degrees of freedom: need replicate "
                              "observations in the cells")
    one = np.ones((n, 1))
    da = _dummy(la, a_vals)
    db = _dummy(lb, b_vals)
    inter = (da[:, :, None] * db[:, None, :]).reshape(n, df_int)
    rss_a = _rss(np.hstack([one, da]), y)
    rss_b = _rss(np.hstack([one, db]), y)
    rss_ab = _rss(np.hstack([one, da, db]), y)
    rss_full = _rss(np.hstack([one, da, db, inter]), y)
    name_a, name_b = factor_names
    return [_f_row(name_a, max(rss_b - rss_ab, 0.0), df1a, rss_full, df_err),
            _f_row(name_b, max(rss_a - rss_ab, 0.0), df1b, rss_full, df_err),
            _f_row(f"{name_a}:{name_b}", max(rss_ab - rss_full, 0.0), df_int,
                   rss_full, df_err)]


# The outer range of _studentized_range_sf ends where the log-chi-square
# density has fallen by this factor times df/2 below its mode.
_SCALE_DROP = 30.0


@functools.cache
def _range_rules() -> tuple[np.ndarray, ...]:
    """Fixed Gauss-Legendre rules for _studentized_range_sf, built on first use.

    The inner rule covers z in [-9, 9] and carries the normal density in
    its weights; the outer rule is used once on each side of the
    log-chi-square mode. 96 inner and 2 x 64 outer nodes keep the tail
    within 1e-10 of the adaptive reference for k <= 10 and df >= 2.
    Built lazily because the eigenvalue solve behind the nodes maps in
    about 1 MB of LAPACK that processes without a Tukey test never need.
    """
    from scipy.special import ndtr
    z, w = np.polynomial.legendre.leggauss(96)
    z = 9.0 * z
    u, v = np.polynomial.legendre.leggauss(64)
    rules = (z, w * np.exp(-0.5 * z * z), ndtr(z), u, v)
    for a in rules:
        a.flags.writeable = False
    return rules


def _log_chi2_span(df: float) -> tuple[float, float]:
    """Both ends of the outer range, as t = log(X / df) with X ~ chi2(df).

    The density of t is proportional to exp(df/2 * (t - expm1(t))),
    which peaks at t = 0; the ends are the two roots of
    t - expm1(t) = -2 * _SCALE_DROP / df, found by Newton's method.
    The root function is concave, so Newton steps from these starting
    points approach each root from outside the range.
    """
    c = 2.0 * _SCALE_DROP / df
    t = np.array([-c - 1.0, math.log(2.0 * (c + 1.0))])
    for _ in range(100):
        step = (t - np.expm1(t) + c) / -np.expm1(t)
        t = t - step
        if (np.abs(step) <= 1e-9 * np.abs(t)).all():
            break
    return float(t[0]), float(t[1])


def _studentized_range_sf(q: np.ndarray, k: int, df: float) -> np.ndarray:
    """Upper tail P(Q > q) of the studentized range, for an array of q.

    Q = R / s with R the range of k standard normals and s^2 an
    independent chi2(df) / df. The tail is the double integral that
    R's ptukey evaluates (Copenhaver & Holland, 1988):

        P(Q > q) = E_s[ k * int phi(z) (Phi(z)^(k-1)
                                        - (Phi(z) - Phi(z - q s))^(k-1)) dz ]

    Both integrals use fixed Gauss-Legendre nodes: z over [-9, 9], and
    t = log(s^2) over the range where its density is within
    exp(-_SCALE_DROP * df / 2) of its mode. Each rule's weights carry
    its density (k phi Phi^(k-1) inside, the log-chi-square density
    outside) and are scaled to sum to exactly 1, so no normalizing
    constant is needed and q = 0 gives 1. What remains inside is
    -expm1((k-1) * log1p(-Phi(z - q s) / Phi(z))), which falls with q
    at every node, so the tail never increases with q.
    """
    from scipy.special import ndtr
    z, z_w, z_cdf, u, u_w = _range_rules()
    inner_w = z_w * z_cdf ** (k - 1)
    inner_w /= inner_w.sum()
    lo, hi = _log_chi2_span(df)
    t = np.concatenate([0.5 * lo * (u + 1.0), 0.5 * hi * (u + 1.0)])
    outer_w = (np.concatenate([-lo * u_w, hi * u_w])
               * np.exp(0.5 * df * (t - np.expm1(t))))
    outer_w /= outer_w.sum()
    shifted = ndtr(z - (q[:, None] * np.exp(0.5 * t))[:, :, None])
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives the full term
        term = -np.expm1((k - 1) * np.log1p(-np.minimum(shifted / z_cdf, 1.0)))
    return np.clip(term @ inner_w @ outer_w, 0.0, 1.0)


def tukey_hsd(groups: Mapping[str, Sequence[float]]) -> list[TukeyPair]:
    """All pairwise comparisons with the studentized-range correction.

    q = |mean difference| / sqrt(MS_within / n_tilde) with n_tilde the
    harmonic mean of the two group sizes, so unequal sizes are handled
    by the Tukey-Kramer form. Adjusted p-values come from the
    studentized-range distribution with k groups and the pooled
    within-group degrees of freedom, all pairs in one tail evaluation.
    A pair is rejected when its adjusted p is below TUKEY_ALPHA.
    """
    g = _clean_groups(groups)
    _, ssw, _, df2 = _between_within(g)
    msw = ssw / df2
    pairs = list(combinations(sorted(g), 2))
    diffs = [float(g[nb].mean() - g[na].mean()) for na, nb in pairs]
    if msw == 0.0:
        ps = [1.0 if diff == 0.0 else 0.0 for diff in diffs]
        return [TukeyPair(na, nb, diff, 0.0, p, p < TUKEY_ALPHA, degenerate=True)
                for (na, nb), diff, p in zip(pairs, diffs, ps)]
    qs = [abs(diff) / math.sqrt(msw / (2.0 / (1.0 / g[na].size + 1.0 / g[nb].size)))
          for (na, nb), diff in zip(pairs, diffs)]
    ps = _studentized_range_sf(np.array(qs), len(g), df2).tolist()
    return [TukeyPair(na, nb, diff, q, p, p < TUKEY_ALPHA)
            for (na, nb), diff, q, p in zip(pairs, diffs, qs, ps)]


@functools.lru_cache(maxsize=1)
def _seeded_indices(seed: int, n: int) -> np.ndarray:
    """BOOTSTRAP_RESAMPLES rows of ``n`` indices drawn with replacement
    from an int seed, read-only.

    An int seed always draws the same matrix for a given size, so
    successive equal calls share one draw and no interval changes. Only
    the last (seed, n) is kept: 8 KB per sample value.
    """
    idx = make_generator(seed).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    idx.flags.writeable = False
    return idx


def bootstrap_ci(data: Sequence[float], *, rng: Seed) -> BootstrapCI:
    """Percentile bootstrap confidence interval for the mean.

    Resamples the data with replacement BOOTSTRAP_RESAMPLES times, takes
    the mean of each resample, and reports the percentiles that bound
    the central BOOTSTRAP_LEVEL percent of those means. The caller
    supplies the seed, so identical inputs give identical intervals.
    """
    arr = _sample(data, "data")
    if isinstance(rng, np.random.Generator):  # consumes the stream every call
        idx = rng.integers(0, arr.size, size=(BOOTSTRAP_RESAMPLES, arr.size))
    else:
        idx = _seeded_indices(plain_int("seed", rng, 0), arr.size)
    # gathered a block of resamples at a time: each row's mean is the
    # same, and no resamples-by-n float array is made
    means = np.empty(BOOTSTRAP_RESAMPLES)
    for start in range(0, BOOTSTRAP_RESAMPLES, _BOOTSTRAP_BLOCK):
        stop = start + _BOOTSTRAP_BLOCK
        arr[idx[start:stop]].mean(axis=1, out=means[start:stop])
    tail = (100.0 - BOOTSTRAP_LEVEL) / 2.0
    lower = float(np.percentile(means, tail))
    upper = float(np.percentile(means, 100.0 - tail))
    return BootstrapCI(float(arr.mean()), lower, upper, BOOTSTRAP_LEVEL)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks.

    A run of tied values that ends at sorted position e (1-based) and
    holds c of them spans positions e - c + 1 to e; its midrank is the
    mean of those two ends. -0.0 and 0.0 tie.
    """
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def wilcoxon_signed_rank(differences: Sequence[float]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; ties in |d| get midranks. Up to 12
    nonzero differences the p-value is exact, from enumerating all 2^n
    sign assignments; beyond that a normal approximation with tie
    correction and continuity correction is used. All differences zero
    is degenerate with p = 1.
    """
    d = _sample(differences, "differences")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, "degenerate")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    total = float(ranks.sum())
    w_minus = total - w_plus
    stat = min(w_plus, w_minus)
    if n <= 12:
        # Every sign assignment is equally likely under the null.
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        dist = bits @ ranks
        lo = min(w_plus, w_minus)
        hi = total - lo
        p = (np.count_nonzero(dist <= lo) + np.count_nonzero(dist >= hi)) / 2.0 ** n
        return WilcoxonResult(stat, min(float(p), 1.0), n, "exact")
    mu = total / 2.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(np.sum(counts ** 3 - counts)) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if sigma2 <= 0:
        return WilcoxonResult(stat, 1.0, n, "degenerate")
    # Continuity correction pulls the statistic half a step toward the mean.
    z = (w_plus - mu - 0.5 * math.copysign(1.0, w_plus - mu)) / math.sqrt(sigma2)
    if w_plus == mu:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return WilcoxonResult(stat, min(p, 1.0), n, "normal")


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares line with R^2.

    Needs at least 3 points and nonconstant x. All-equal y is a perfect
    constant fit: slope 0, R^2 = 1.
    """
    xa, ya = _sample(x, "x", 3), _sample(y, "y", 3)
    if xa.size != ya.size:
        raise ValidationError(f"x and y must have equal lengths, "
                              f"got {xa.size} and {ya.size}")
    if np.all(xa == xa[0]):
        raise ValidationError("x values are all equal; the slope is undefined")
    if np.all(ya == ya[0]):
        return LinearFit(0.0, float(ya[0]), 1.0)
    xm, ym = xa.mean(), ya.mean()
    sxx = float(((xa - xm) ** 2).sum())
    sxy = float(((xa - xm) * (ya - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = ya - (slope * xa + intercept)
    sst = float(((ya - ym) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / sst
    return LinearFit(float(slope), float(intercept), min(max(r2, 0.0), 1.0))


def coefficient_of_variation(values: Sequence[float]) -> float | None:
    """100 * sample standard deviation / mean; None when the mean is 0."""
    arr = _sample(values, "values", 2)
    mean = float(arr.mean())
    if mean == 0.0:
        return None
    return 100.0 * float(arr.std(ddof=1)) / mean


def rank_variance(ranks: Sequence[float]) -> float:
    """Population variance of a rank sequence (consistency measure)."""
    return float(_sample(ranks, "ranks").var(ddof=0))


def rank_within(values: Sequence[float]) -> np.ndarray:
    """Midrank positions of values, rank 1 for the largest."""
    return _midranks(-_sample(values, "values"))
