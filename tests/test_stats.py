"""Statistics layer against independently computed references.

The F tail is scipy.special.fdtrc, imported on first use, and the
studentized-range tail comes from its own fixed-node quadrature. The F
tail is checked bit for bit against scipy.stats.f.sf. Every frozen
expectation here was recomputed from scratch with mpmath (direct
quadrature of the F density, and the classic double-integral form of
the studentized range distribution at 15 significant digits), so the
two routes share no code. The quadrature tail is also checked against
the exact two-group form and against scipy's adaptive integration.
"""

import itertools
import math

import numpy as np
import pytest

from actreg import stats
from actreg.errors import ValidationError
from actreg.rng import make_generator
from actreg.stats import (BOOTSTRAP_LEVEL, BOOTSTRAP_RESAMPLES,
                          _studentized_range_sf, bootstrap_ci,
                          coefficient_of_variation, linear_fit,
                          one_way_anova, rank_variance, rank_within,
                          tukey_hsd, two_way_anova_type2,
                          wilcoxon_signed_rank)

# ------------------------------------------------------------ one-way anova

# groups {1,2}, {3,4}, {5,6}: SSB = 16, SSW = 1.5, df = (2, 3)
# F = (16/2) / (1.5/3) = 16
# upper tail of F(2,3) at 16, by mpmath quadrature: 0.025094573304390855
ANOVA_F = 16.0
ANOVA_P = 0.025094573304390855


def test_one_way_anova_fixture():
    result = one_way_anova({"a": [1, 2], "b": [3, 4], "c": [5, 6]})
    assert result.f == ANOVA_F  # exact in float64
    assert result.p == pytest.approx(ANOVA_P, abs=1e-3)
    assert (result.df1, result.df2) == (2, 3)
    # partial eta squared = SSB / (SSB + SSW)
    assert result.partial_eta2 == pytest.approx(16.0 / 17.5, abs=1e-12)
    assert not result.degenerate


def test_two_group_anova_equals_t_squared():
    gen = make_generator(8)
    a = list(gen.normal(size=12))
    b = list(gen.normal(loc=0.7, size=9))
    f = one_way_anova({"a": a, "b": b}).f
    # pooled two-sample t computed from first principles
    na, nb = len(a), len(b)
    va = np.var(a, ddof=1)
    vb = np.var(b, ddof=1)
    sp2 = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    t = (np.mean(a) - np.mean(b)) / math.sqrt(sp2 * (1 / na + 1 / nb))
    assert f == pytest.approx(t * t, abs=1e-9)


def test_anova_degenerate_zero_within():
    # identical values inside each group but separated groups
    result = one_way_anova({"a": [1, 1], "b": [2, 2]})
    assert result.degenerate
    assert result.p == 0.0
    # all groups identical everywhere: no effect at all
    flat = one_way_anova({"a": [3, 3], "b": [3, 3]})
    assert flat.degenerate
    assert flat.f == 0.0 and flat.p == 1.0


def test_anova_no_separation_gives_f_zero():
    result = one_way_anova({"a": [1.0, 2.0], "b": [2.0, 1.0]})
    assert result.f == pytest.approx(0.0, abs=1e-12)
    assert result.p == pytest.approx(1.0, abs=1e-12)


def test_anova_input_validation():
    with pytest.raises(ValidationError):
        one_way_anova({"a": [1, 2]})
    with pytest.raises(ValidationError, match="b"):
        one_way_anova({"a": [1, 2], "b": [5]})
    with pytest.raises(ValidationError):
        one_way_anova({"a": [1, 2], "b": [1, float("nan")]})


# ------------------------------------------------------------ two-way anova

def _balanced_rows():
    # 2x2 design, 3 replicates per cell, constructed with both main
    # effects and a visible interaction
    data = {
        ("a1", "b1"): [4.1, 3.9, 4.0],
        ("a1", "b2"): [6.2, 5.8, 6.0],
        ("a2", "b1"): [5.1, 4.9, 5.0],
        ("a2", "b2"): [9.0, 9.2, 8.8],
    }
    return [(a, b, v) for (a, b), vals in data.items() for v in vals]


def _cell_means_decomposition(rows):
    # textbook balanced decomposition, written out independently
    by_cell: dict = {}
    for a, b, v in rows:
        by_cell.setdefault((a, b), []).append(v)
    a_levels = sorted({a for a, _, _ in rows})
    b_levels = sorted({b for _, b, _ in rows})
    n = len(next(iter(by_cell.values())))
    grand = np.mean([v for _, _, v in rows])
    mean_a = {a: np.mean([v for aa, _, v in rows if aa == a]) for a in a_levels}
    mean_b = {b: np.mean([v for _, bb, v in rows if bb == b]) for b in b_levels}
    cell = {k: np.mean(v) for k, v in by_cell.items()}
    ss_a = n * len(b_levels) * sum((mean_a[a] - grand) ** 2 for a in a_levels)
    ss_b = n * len(a_levels) * sum((mean_b[b] - grand) ** 2 for b in b_levels)
    ss_ab = n * sum((cell[(a, b)] - mean_a[a] - mean_b[b] + grand) ** 2
                    for a in a_levels for b in b_levels)
    ss_err = sum((v - cell[(a, b)]) ** 2 for a, b, v in rows)
    df_err = len(rows) - len(a_levels) * len(b_levels)
    return ss_a, ss_b, ss_ab, ss_err, df_err


def test_two_way_matches_cell_means_on_balanced_data():
    rows = _balanced_rows()
    got = {s.source: s for s in two_way_anova_type2(rows, ("alpha", "beta"))}
    ss_a, ss_b, ss_ab, ss_err, df_err = _cell_means_decomposition(rows)
    mse = ss_err / df_err
    assert got["alpha"].f == pytest.approx(ss_a / 1 / mse, abs=1e-9)
    assert got["beta"].f == pytest.approx(ss_b / 1 / mse, abs=1e-9)
    assert got["alpha:beta"].f == pytest.approx(ss_ab / 1 / mse, abs=1e-9)
    for s in got.values():
        assert (s.df1, s.df2) == (1, df_err)
        assert 0.0 <= s.p <= 1.0


def _f_tail_designs():
    """Two-way row sets: balanced, unbalanced, and a factor with no effect."""
    gen = make_generator(31)
    levels = [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3", "b4")]
    unbalanced = [(a, b, float(v)) for k, (a, b) in enumerate(levels)
                  for v in gen.normal(loc=0.3 * k, size=2 + k % 3)]
    null_b = [(a, b, v) for a, base in (("a1", 0.0), ("a2", 2.0))
              for b in ("b1", "b2") for v in (base, base + 1.0)]
    return [_balanced_rows(), _balanced_rows() + [("a1", "b1", 4.05)],
            unbalanced, null_b]


def test_two_way_p_against_f_tail():
    # every row's p is scipy's F survival function at its F, bit for bit
    from scipy.stats import f as f_dist
    for k, rows in enumerate(_f_tail_designs()):
        for s in two_way_anova_type2(rows):
            assert s.p == float(f_dist.sf(s.f, s.df1, s.df2)), (k, s.source)


def test_one_way_p_against_f_tail():
    from scipy.stats import f as f_dist
    gen = make_generator(32)
    cases = [{"a": [1, 2], "b": [3, 4], "c": [5, 6]},
             {"a": [1.0, 2.0], "b": [2.0, 1.0]}]
    cases += [{f"g{i}": gen.normal(loc=0.2 * i * k, size=3 + i) for i in range(4)}
              for k in range(10)]
    for groups in cases:
        r = one_way_anova(groups)
        assert r.p == float(f_dist.sf(r.f, r.df1, r.df2))


def test_two_way_unbalanced_still_well_defined():
    rows = _balanced_rows() + [("a1", "b1", 4.05)]
    sources = two_way_anova_type2(rows)
    assert [s.source for s in sources] == ["A", "B", "A:B"]
    for s in sources:
        assert math.isfinite(s.f) and 0.0 <= s.p <= 1.0


def test_two_way_requires_full_grid():
    rows = [("a1", "b1", 1.0), ("a1", "b1", 2.0),
            ("a2", "b1", 2.0), ("a2", "b1", 3.0),
            ("a1", "b2", 3.0), ("a1", "b2", 4.0)]
    with pytest.raises(ValidationError, match="a2.*b2|b2.*a2"):
        two_way_anova_type2(rows)


# ------------------------------------------------------------------- tukey

# Fixture: A = 1..5, B = 5..8, C = 9..12. MSW = 2 with df = 10.
# Tukey-Kramer uses the harmonic pair size, so
#   q_AB = 3.5 / sqrt(0.45), q_BC = 4 / sqrt(0.5), q_AC = 7.5 / sqrt(0.45)
# Upper tails at k=3, nu=10 from the mpmath double integral:
TUKEY_ORACLE = {
    ("A", "B"): (5.217491947499394, 0.0106176871079),
    ("B", "C"): (5.656854249492381, 0.00646590461105),
    ("A", "C"): (11.180339887498949, 3.5299019028e-5),
}


def test_tukey_against_double_integral_oracle():
    pairs = tukey_hsd({"A": [1, 2, 3, 4, 5], "B": [5, 6, 7, 8],
                       "C": [9, 10, 11, 12]})
    assert len(pairs) == 3
    for pair in pairs:
        q_ref, p_ref = TUKEY_ORACLE[(pair.group_a, pair.group_b)]
        assert pair.q == pytest.approx(q_ref, abs=1e-9)
        assert pair.p_adj == pytest.approx(p_ref, abs=1e-9)
        assert pair.reject  # all three separations are real at alpha 0.05
    # mean_diff reports group_b minus group_a
    diffs = {(p.group_a, p.group_b): p.mean_diff for p in pairs}
    assert diffs[("A", "B")] == pytest.approx(3.5, abs=1e-12)
    assert diffs[("A", "C")] == pytest.approx(7.5, abs=1e-12)


def test_tukey_critical_point_matches_oracle():
    # mpmath places the 5% critical value at 3.8768 (k=3, nu=10);
    # the implementation's tail must agree through the reject flag
    from scipy.stats import studentized_range
    assert studentized_range.isf(0.05, 3, 10) == pytest.approx(3.8768, abs=1e-3)
    # the oracle's four decimals leave the tail there within 3e-6 of 5%
    tail = _studentized_range_sf(np.array([3.8768]), 3, 10)[0]
    assert tail == pytest.approx(0.05, abs=5e-6)


def test_studentized_range_two_groups_matches_t_tail():
    # With k = 2 the range of two normals is |Z1 - Z2| = sqrt(2) |N(0,1)|,
    # so P(Q > q) = 2 * P(T_nu < -q / sqrt(2)) exactly
    from scipy.special import stdtr
    q = np.concatenate([[0.05, 0.1, 0.3], np.linspace(0.5, 15.0, 30)])
    for nu in np.geomspace(2.0, 1e5, 13):
        exact = 2.0 * stdtr(nu, -q / math.sqrt(2.0))
        np.testing.assert_allclose(_studentized_range_sf(q, 2, nu), exact,
                                   rtol=0, atol=1e-9, err_msg=f"nu={nu}")
    exact = 2.0 * stdtr(1.0, -q / math.sqrt(2.0))
    np.testing.assert_allclose(_studentized_range_sf(q, 2, 1.0), exact,
                               rtol=0, atol=1e-6)


def test_studentized_range_matches_scipy_integration():
    # scipy's adaptive double integral is the oracle; about 17 ms a call
    from scipy.stats import studentized_range
    q = np.array([0.5, 2.5, 4.5, 8.0])
    for nu in (2, 10, 1196, 5000):
        for k in (3, 4, 10):
            ref = [studentized_range.sf(x, k, nu) for x in q]
            np.testing.assert_allclose(_studentized_range_sf(q, k, nu), ref,
                                       rtol=0, atol=1e-9,
                                       err_msg=f"k={k}, nu={nu}")


def test_studentized_range_is_a_tail():
    q = np.linspace(0.0, 20.0, 81)
    for k in (2, 4, 10):
        for nu in (1, 40, 1e4):
            p = _studentized_range_sf(q, k, nu)
            assert p[0] == pytest.approx(1.0, abs=1e-15)
            assert ((p >= 0.0) & (p <= 1.0)).all()
            assert (np.diff(p) <= 0.0).all(), f"k={k}, nu={nu}"


def test_tukey_identical_groups_do_not_reject():
    pairs = tukey_hsd({"A": [1.0, 2.0, 3.0], "B": [1.0, 2.0, 3.0],
                       "C": [1.0, 2.0, 3.0]})
    for pair in pairs:
        assert not pair.reject
        assert pair.q == pytest.approx(0.0, abs=1e-12)


def test_tukey_degenerate_zero_within():
    pairs = tukey_hsd({"A": [1.0, 1.0], "B": [2.0, 2.0]})
    assert all(p.degenerate for p in pairs)


# --------------------------------------------------------------- bootstrap

def test_bootstrap_constant_data_collapses():
    ci = bootstrap_ci([5.0] * 10, rng=make_generator(0))
    assert ci.mean == ci.lower == ci.upper == 5.0
    assert ci.level == 95.0


def test_bootstrap_interval_brackets_mean():
    gen = make_generator(21)
    data = list(gen.normal(loc=10.0, scale=2.0, size=40))
    ci = bootstrap_ci(data, rng=make_generator(1))
    assert ci.lower <= ci.mean <= ci.upper
    assert ci.mean == pytest.approx(np.mean(data), abs=1e-12)


def test_bootstrap_requires_rng():
    with pytest.raises(TypeError):
        bootstrap_ci([1.0, 2.0, 3.0])  # rng is keyword-only and required


def test_bootstrap_is_deterministic_under_seed():
    data = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]
    a = bootstrap_ci(data, rng=make_generator(3))
    b = bootstrap_ci(data, rng=make_generator(3))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_coverage_near_nominal():
    # 500 independent trials at n = 30, true mean 0: a 95% percentile
    # interval should cover the truth roughly 95% of the time; the
    # acceptance band [0.90, 0.98] leaves room for small-n bias
    trials = 500
    hits = 0
    for trial in range(trials):
        data = make_generator(1000 + trial).normal(size=30)
        ci = bootstrap_ci(data, rng=make_generator(5000 + trial))
        hits += ci.lower <= 0.0 <= ci.upper
    coverage = hits / trials
    assert 0.90 <= coverage <= 0.98, f"coverage {coverage:.3f}"


def test_bootstrap_interval_is_the_central_95_percent():
    # BOOTSTRAP_RESAMPLES resample means from the same seeded generator,
    # cut at the 2.5th and 97.5th percentiles
    data = make_generator(2).normal(size=25)
    ci = bootstrap_ci(data, rng=make_generator(7))
    idx = make_generator(7).integers(0, 25, size=(BOOTSTRAP_RESAMPLES, 25))
    means = data[idx].mean(axis=1)
    assert (BOOTSTRAP_RESAMPLES, BOOTSTRAP_LEVEL) == (1000, 95.0)
    assert ci.level == BOOTSTRAP_LEVEL
    assert (ci.lower, ci.upper) == (np.percentile(means, 2.5),
                                    np.percentile(means, 97.5))


@pytest.mark.parametrize("n", [2, 3, 7, 31, 100, 128, 129, 300, 1000, 4097])
def test_bootstrap_blocks_equal_the_one_shot_resample_matrix(n):
    # the means are gathered a block of resamples at a time; each must
    # equal its row of the whole resamples-by-n matrix, bit for bit
    gen = make_generator(n)
    for data in (gen.normal(size=n), gen.lognormal(sigma=2.0, size=n) * 1e6):
        for seed in (0, 1):
            ci = bootstrap_ci(data, rng=make_generator(seed))
            idx = make_generator(seed).integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
            means = data[idx].mean(axis=1)
            assert (ci.lower, ci.upper) == (np.percentile(means, 2.5),
                                            np.percentile(means, 97.5))


def test_successive_equal_calls_share_one_cached_draw():
    data = make_generator(4).normal(size=40)
    stats._seeded_indices.cache_clear()
    for n, seed in ((40, 0), (40, 0), (30, 0), (40, 1), (40, 0)):
        ci = bootstrap_ci(data[:n], rng=seed)
        means = data[:n][make_generator(seed).integers(
            0, n, size=(BOOTSTRAP_RESAMPLES, n))].mean(axis=1)
        assert (ci.lower, ci.upper) == (np.percentile(means, 2.5),
                                        np.percentile(means, 97.5))
    # one matrix is held at a time: another seed or size replaces it
    info = stats._seeded_indices.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)
    first = stats._seeded_indices(0, 40)
    assert stats._seeded_indices(0, 40) is first
    assert stats._seeded_indices(1, 40) is not first
    assert stats._seeded_indices(0, 40) is not first
    with pytest.raises(ValidationError, match="seed"):
        bootstrap_ci(data, rng=-1)


def test_the_cached_draw_is_read_only():
    idx = stats._seeded_indices(0, 40)
    assert not idx.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 1


def test_a_generator_draws_afresh_on_every_call():
    # one new draw per call, consuming the stream; the cache is untouched
    data = make_generator(4).normal(size=40)
    direct, gen = make_generator(9), make_generator(9)
    before = stats._seeded_indices.cache_info()
    cis = [bootstrap_ci(data, rng=gen) for _ in range(2)]
    for ci in cis:
        means = data[direct.integers(0, 40, size=(BOOTSTRAP_RESAMPLES, 40))].mean(axis=1)
        assert (ci.lower, ci.upper) == (np.percentile(means, 2.5),
                                        np.percentile(means, 97.5))
    assert cis[0] != cis[1]
    assert gen.integers(1 << 62) == direct.integers(1 << 62)
    assert stats._seeded_indices.cache_info() == before


# ---------------------------------------------------------------- wilcoxon

def test_wilcoxon_all_positive_small_n():
    # n = 6 distinct positive differences: W- = 0, and the exact
    # two-sided p is 2 * P(W <= 0) = 2/64 = 1/32
    result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert result.method == "exact"
    assert result.n_nonzero == 6
    assert result.p == pytest.approx(1.0 / 32.0, abs=0)


def test_wilcoxon_exact_enumeration_brute_force():
    # independently enumerate all sign patterns for a mixed sample
    diffs = [0.8, -1.4, 2.3, -0.5, 1.9, 3.1, -2.2, 0.3]
    result = wilcoxon_signed_rank(diffs)
    assert result.method == "exact"
    ranks = np.argsort(np.argsort(np.abs(diffs))) + 1.0
    total = ranks.sum()
    w_pos = ranks[np.asarray(diffs) > 0].sum()
    lo = min(w_pos, total - w_pos)
    count = 0
    for signs in itertools.product((0.0, 1.0), repeat=len(diffs)):
        w = float(np.dot(signs, ranks))
        count += (w <= lo) + (w >= total - lo)
    assert result.p == pytest.approx(count / 2 ** len(diffs), abs=1e-12)


def test_wilcoxon_negation_symmetry():
    diffs = [0.4, -1.2, 2.0, 0.9, -0.1, 1.1, 0.6]
    a = wilcoxon_signed_rank(diffs)
    b = wilcoxon_signed_rank([-d for d in diffs])
    assert a.p == pytest.approx(b.p, abs=1e-12)


def test_wilcoxon_drops_zeros():
    result = wilcoxon_signed_rank([0.0, 1.0, -2.0, 0.0, 3.0])
    assert result.n_nonzero == 3


def test_wilcoxon_exact_and_normal_agree_at_the_boundary():
    # n = 12 is the last exact size; the tie-corrected normal
    # approximation should already be close there
    gen = make_generator(30)
    for _ in range(5):
        diffs = list(gen.normal(loc=0.4, size=12))
        exact = wilcoxon_signed_rank(diffs)
        assert exact.method == "exact"
        approx = wilcoxon_signed_rank(diffs + list(gen.normal(loc=0.4, size=1)))
        assert approx.method == "normal"
        # not the same data, so only sanity-compare the scale
        assert 0.0 <= approx.p <= 1.0
    # direct agreement on one fixed sample evaluated both ways is not
    # possible through the public api; compare against scipy instead
    from scipy.stats import wilcoxon as scipy_wilcoxon
    diffs = list(make_generator(31).normal(loc=0.5, size=12))
    ours = wilcoxon_signed_rank(diffs)
    ref = scipy_wilcoxon(diffs, alternative="two-sided", method="exact")
    assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_path_matches_scipy_correction():
    from scipy.stats import wilcoxon as scipy_wilcoxon
    gen = make_generator(33)
    diffs = list(gen.normal(loc=0.3, size=40))
    ours = wilcoxon_signed_rank(diffs)
    assert ours.method == "normal"
    ref = scipy_wilcoxon(diffs, alternative="two-sided", method="approx",
                         correction=True)
    assert ours.p == pytest.approx(ref.pvalue, abs=0.02)


def test_wilcoxon_all_zero_is_degenerate():
    result = wilcoxon_signed_rank([0.0, 0.0])
    assert result.method == "degenerate"
    assert result.p == 1.0 and result.n_nonzero == 0
    with pytest.raises(ValidationError):
        wilcoxon_signed_rank([])


# -------------------------------------------------------------- linear fit

def test_linear_fit_recovers_noiseless_line():
    x = [0.1, 0.5, 1.0, 1.4, 2.0, 3.0, 5.0]
    y = [0.68 * xi + 0.12 for xi in x]
    fit = linear_fit(x, y)
    assert fit.slope == pytest.approx(0.68, abs=1e-12)
    assert fit.intercept == pytest.approx(0.12, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_linear_fit_matches_normal_equations():
    gen = make_generator(14)
    x = gen.uniform(0, 10, size=25)
    y = 2.5 * x - 1.0 + gen.normal(size=25)
    fit = linear_fit(list(x), list(y))
    design = np.column_stack([x, np.ones_like(x)])
    slope_ref, intercept_ref = np.linalg.lstsq(design, y, rcond=None)[0]
    assert fit.slope == pytest.approx(slope_ref, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept_ref, abs=1e-9)
    resid = y - (fit.slope * x + fit.intercept)
    r2_ref = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
    assert fit.r_squared == pytest.approx(r2_ref, abs=1e-9)


def test_linear_fit_edge_conventions():
    flat = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert flat.slope == 0.0 and flat.r_squared == 1.0
    with pytest.raises(ValidationError):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        linear_fit([1.0, 2.0], [1.0, 2.0])  # needs at least three points


# ---------------------------------------------------------------- variation

def test_coefficient_of_variation():
    assert coefficient_of_variation([2.0, 4.0]) == pytest.approx(
        100.0 * np.std([2, 4], ddof=1) / 3.0, abs=1e-12)
    assert coefficient_of_variation([1.0, -1.0]) is None  # zero mean


def test_rank_variance_fixture():
    # ranks {1,2,1,2}: population variance 0.25
    assert rank_variance([1, 2, 1, 2]) == pytest.approx(0.25, abs=0)
    assert rank_variance([3, 3, 3]) == 0.0


def test_rank_within_descending_midranks():
    ranks = rank_within([0.9, 0.8, 0.9, 0.1])
    np.testing.assert_allclose(ranks, [1.5, 3.0, 1.5, 4.0])


def _brute_midranks(values):
    """Each value's rank: the mean of the 1-based positions its tied
    copies take in ascending order."""
    ordered = sorted(values)
    return np.array([np.mean([i + 1 for i, u in enumerate(ordered) if u == v])
                     for v in values])


def _tied_samples():
    gen = make_generator(61)
    for n in (2, 5, 12, 13, 40):
        yield gen.integers(-3, 4, size=n).astype(float)  # heavy ties
        yield np.round(gen.normal(size=n), 1)
    yield np.array([0.0, -0.0, 1.5, -0.0, -1.5, 0.0, 1.5])
    yield np.array([-2.0, 2.0, -0.0, 0.0, 3.0, -3.0, 2.0])
    yield np.array([4.25])


@pytest.mark.parametrize("sample", list(_tied_samples()),
                         ids=lambda s: f"n{s.size}")
def test_ranks_equal_brute_force_midranks(sample):
    # rank 1 for the largest: ascending midranks of the negated values
    np.testing.assert_array_equal(rank_within(sample),
                                  _brute_midranks(list(-sample)))
    d = sample[sample != 0.0]
    result = wilcoxon_signed_rank(sample)
    ranks = _brute_midranks(list(np.abs(d)))
    w_plus = ranks[d > 0].sum()
    assert result.n_nonzero == d.size
    assert result.statistic == min(w_plus, ranks.sum() - w_plus)


@pytest.mark.parametrize("call, name", [
    (lambda v: bootstrap_ci(v, rng=0), "data"),
    (wilcoxon_signed_rank, "differences"),
    (coefficient_of_variation, "values"),
    (rank_variance, "ranks"),
    (rank_within, "values"),
    (lambda v: linear_fit(v, [1.0, 2.0, 3.0]), "x"),
    (lambda v: one_way_anova({"a": [1.0, 2.0], "g": v}), "group 'g'"),
])
@pytest.mark.parametrize("sample", [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                    [[5.0]], [1.0, float("nan"), 3.0]])
def test_inputs_must_be_finite_1d_samples(call, name, sample):
    # rank_within used to rank [[5.0]] and fail on 2-D input with numpy's
    # "truth value of an array is ambiguous"
    with pytest.raises(ValidationError, match=name):
        call(sample)
